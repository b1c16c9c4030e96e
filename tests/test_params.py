import math

import pytest

from rescue_sfs.params import (
    ConfigError,
    ModelParams,
    ObservationSpec,
    ParameterError,
    derive,
    derive_from_gamma_n,
    load_config,
    log_time,
    make_config,
    observation_time,
    parse_config_values,
)

REF = ModelParams(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=500)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(b0=0.0), "b0 > 0"),
        (dict(b0=2.5), "d0 > b0"),
        (dict(d1=-0.1), "d1 >= 0"),
        (dict(b1=0.4), "b1 > d1"),
        (dict(omega=-1.0), "omega >= 0"),
        (dict(gamma=-0.5), "gamma >= 0"),
        (dict(alpha=0.0), "alpha"),
        (dict(alpha=1.5), "alpha"),
        (dict(n_init=0), "n_init"),
        (dict(mutation_law="uniform"), "mutation_law"),
        (dict(omega=3.0, mutation_law="bernoulli"), "omega <= 2"),
        (dict(gamma=1.0, n_init=1), "gamma_n < 1"),
    ],
)
def test_validation_names_constraint(kwargs, fragment):
    base = dict(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=500)
    base.update(kwargs)
    with pytest.raises(ParameterError, match=fragment.replace(">", ".").replace("<", ".")):
        ModelParams(**base)


def test_derive_figure_parameters():
    # b0=1, d0=2 with the resistance probability given directly as 0.2
    dp = derive_from_gamma_n(1.0, 2.0, 1.2, 0.5, 0.2)
    assert dp.p_n == pytest.approx(0.266667, abs=1e-6)
    assert dp.beta_n == pytest.approx(0.272727, abs=1e-6)
    assert dp.x_n == pytest.approx(0.656591, abs=1e-6)
    # the same law through ModelParams with n_init = 1
    params = ModelParams(b0=1.0, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.2, alpha=1.0, n_init=1)
    assert derive(params).x_n == pytest.approx(dp.x_n, rel=1e-15)


def test_derive_zero_resistance_limit():
    dp = derive_from_gamma_n(1.0, 2.0, 1.2, 0.5, 0.0)
    assert dp.x_n == pytest.approx(1.0 / 3.0, rel=1e-15)  # lambda0 / delta0
    assert dp.beta_n == 0.0


def test_derive_reference_set():
    dp = derive(REF)
    assert dp.lambda0 == pytest.approx(0.8)
    assert dp.lambda1 == pytest.approx(0.7)
    assert dp.delta0 == pytest.approx(3.2)
    assert dp.gamma_n == pytest.approx(math.exp(-0.9 * math.log(500)), rel=1e-14)
    assert dp.gamma_n == pytest.approx(0.003723, abs=1e-6)
    assert dp.rho == pytest.approx(0.5 / 1.2, rel=1e-15)


@pytest.mark.parametrize("gamma_n", [0.0, 1e-12, 1e-6, 0.01, 0.2, 0.6])
def test_discriminant_identity(gamma_n):
    dp = derive_from_gamma_n(1.0, 2.0, 1.2, 0.5, gamma_n)
    assert dp.x_n**2 == pytest.approx(
        1.0 - 4.0 * dp.p_n * (1.0 - dp.p_n) * (1.0 - dp.beta_n), rel=1e-13
    )
    assert dp.p_tilde_n * (1.0 - dp.p_tilde_n) == pytest.approx(
        dp.p_n * (1.0 - dp.p_n) * (1.0 - dp.beta_n), rel=1e-13
    )
    assert dp.p_n < 0.5
    if gamma_n > 0:
        assert 0.0 < dp.beta_n < 1.0
        assert dp.p_tilde_n < dp.p_n


def test_first_order_expansion_sharpens_with_n():
    ratios = []
    for n in (10**3, 10**4, 10**5, 10**6):
        p = ModelParams(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=n)
        dp = derive(p)
        first_order = dp.lambda0 / dp.delta0 + 4.0 * p.b0 * p.d0 * dp.gamma_n / (
            dp.lambda0 * dp.delta0
        )
        ratios.append(abs(dp.x_n - first_order) / dp.gamma_n)
        assert dp.lambda0 / dp.delta0 < dp.x_n < 1.0
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_observation_time():
    spec = ObservationSpec(mode="log-scaled", t_mult=1.0 / 0.8)
    t_n = observation_time(spec, REF)
    assert t_n == pytest.approx(7.7683, abs=1e-4)
    assert math.exp(0.7 * t_n) == pytest.approx(230.0, rel=1e-3)
    assert observation_time(ObservationSpec(mode="absolute", t_abs=2.0), REF) == 2.0
    one = ModelParams(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.5, alpha=0.9, n_init=1)
    assert observation_time(ObservationSpec(mode="log-scaled", t_mult=1.0), one) == 0.0
    # default multiplier is 1/lambda0
    assert observation_time(ObservationSpec(), REF) == pytest.approx(t_n, rel=1e-12)
    # the theory formulas' t is the observation time over ln N
    assert log_time(ObservationSpec(), REF) == 1.0 / 0.8
    absolute = ObservationSpec(mode="absolute", t_abs=2.0)
    assert log_time(absolute, REF) == pytest.approx(2.0 / math.log(500), rel=1e-15)
    with pytest.raises(ConfigError, match="n_init > 1"):
        log_time(absolute, one)


def test_observation_spec_validation():
    with pytest.raises(ParameterError):
        ObservationSpec(mode="absolute")
    with pytest.raises(ParameterError):
        ObservationSpec(mode="log-scaled", t_mult=-1.0)
    with pytest.raises(ParameterError):
        ObservationSpec(mode="sometimes")


CONFIG = """
# reference
b0 = 1.2
d0 = 2.0
b1 = 1.2
d1 = 0.5
omega = 2.0
gamma = 1.0
alpha = 0.9
n_init = 500
mutation_law = poisson
t_mode = log-scaled
t_mult = 1.25
replicates = 100
seed = 42
"""


def test_parse_config_roundtrip():
    cfg = make_config(parse_config_values(CONFIG, source="ref.cfg"))
    assert cfg.params == REF
    assert cfg.replicates == 100
    assert cfg.seed == 42
    assert cfg.observation.t_mult == 1.25


def test_parse_config_missing_key_names_it():
    text = "\n".join(l for l in CONFIG.splitlines() if not l.startswith("b0"))
    with pytest.raises(ConfigError, match="'b0'"):
        make_config(parse_config_values(text))


def test_parse_config_errors_cite_key_and_line():
    with pytest.raises(ConfigError, match=r"cfg:2: unknown key 'bo'"):
        make_config(parse_config_values("b0 = 1.0\nbo = 2.0", source="cfg"))
    with pytest.raises(ConfigError, match=r"cfg:3: duplicate key 'b0'"):
        make_config(parse_config_values("b0 = 1.0\nd0 = 2.0\nb0 = 1.5", source="cfg"))
    with pytest.raises(ConfigError, match="'n_init'"):
        text = CONFIG.replace("n_init = 500", "n_init = many")
        make_config(parse_config_values(text, source="cfg"))
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        make_config(parse_config_values("b0 : 1.0", source="cfg"))


def test_parse_config_defaults():
    minimal = "\n".join(
        f"{k} = {v}"
        for k, v in [
            ("b0", 1.2),
            ("d0", 2.0),
            ("b1", 1.2),
            ("d1", 0.5),
            ("omega", 2.0),
            ("gamma", 1.0),
            ("alpha", 0.9),
            ("n_init", 500),
        ]
    )
    cfg = make_config(parse_config_values(minimal))
    assert cfg.params.mutation_law == "poisson"
    assert cfg.observation.mode == "log-scaled"
    assert cfg.observation.t_mult is None  # resolves to 1/lambda0 at use
    assert cfg.replicates == 1000


def test_load_config_overrides_and_errors(tmp_path):
    path = tmp_path / "ref.cfg"
    path.write_text(CONFIG.replace("d0 = 2.0", "d0 = 0.5"))
    # an override mends the file's value; the merged values are checked once
    cfg = load_config(str(path), {"d0": 2.0, "seed": 7})
    assert (cfg.params, cfg.replicates, cfg.seed) == (REF, 100, 7)
    # a violated constraint may come from an override, so it names no file
    with pytest.raises(ParameterError, match="d0 > b0") as info:
        load_config(str(path))
    assert str(path) not in str(info.value)
    with pytest.raises(ConfigError, match=f"cannot read config file {tmp_path / 'none.cfg'}"):
        load_config(str(tmp_path / "none.cfg"))


def test_make_config_routes_keys_and_rejects_strays():
    values = dict(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=500)
    cfg = make_config(values | {"t_mode": "absolute", "t_abs": 2.0, "seed": 7})
    assert cfg.params == REF
    assert cfg.observation == ObservationSpec(mode="absolute", t_abs=2.0)
    assert (cfg.replicates, cfg.seed) == (1000, 7)
    with pytest.raises(ConfigError, match="unknown key 't_mul'"):
        make_config(values | {"t_mul": 1.0})
    with pytest.raises(ParameterError, match="replicates >= 2"):
        make_config(values | {"replicates": 1})
    with pytest.raises(ParameterError, match="seed >= 0"):
        make_config(values | {"seed": -1})
