"""Model parameters of the two-type rescue process and derived quantities.

The model starts from ``n_init`` sensitive cells.  Sensitive cells divide at
rate ``b0`` and die at rate ``d0 > b0`` (subcritical, net decay rate
``lambda0 = d0 - b0``).  At every division each daughter independently
becomes resistant with probability ``gamma_n = gamma / n_init**alpha`` and
receives a random number of neutral mutations with mean ``omega / 2``.
Resistant cells divide at rate ``b1`` and die at rate ``d1 < b1``
(supercritical, net growth rate ``lambda1 = b1 - d1``); resistance is never
lost.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

MUTATION_LAWS = ("poisson", "bernoulli")

T_MODES = ("log-scaled", "absolute")

class ParameterError(ValueError):
    """A model parameter violates one of its constraints."""


class ConfigError(ValueError):
    """A configuration file cannot be parsed into a valid run setup."""


def _check_gamma_n(gamma_n: float) -> None:
    if not 0 <= gamma_n < 1:
        raise ParameterError(f"requires 0 <= gamma_n < 1, got gamma_n={gamma_n}")


@dataclass(frozen=True)
class ModelParams:
    """Raw rates of the two-type branching process.

    ``mutation_law`` selects the per-daughter neutral-mutation count:
    ``"poisson"`` draws Poisson(omega/2), ``"bernoulli"`` draws
    Bernoulli(omega/2) (requires omega <= 2).  Expected site-frequency
    spectra depend on the law only through its mean.
    """

    b0: float
    d0: float
    b1: float
    d1: float
    omega: float
    gamma: float
    alpha: float
    n_init: int
    mutation_law: str = "poisson"

    def __post_init__(self) -> None:
        if not self.b0 > 0:
            raise ParameterError(f"requires b0 > 0, got b0={self.b0}")
        if not self.d0 > self.b0:
            raise ParameterError(
                f"requires d0 > b0 (sensitive cells subcritical), got b0={self.b0}, d0={self.d0}"
            )
        if not self.d1 >= 0:
            raise ParameterError(f"requires d1 >= 0, got d1={self.d1}")
        if not self.b1 > self.d1:
            raise ParameterError(
                f"requires b1 > d1 (resistant cells supercritical), got b1={self.b1}, d1={self.d1}"
            )
        if not self.omega >= 0:
            raise ParameterError(f"requires omega >= 0, got omega={self.omega}")
        # gamma == 0 is admitted: it switches resistance off entirely, which
        # several analytic test cases rely on.
        if not self.gamma >= 0:
            raise ParameterError(f"requires gamma >= 0, got gamma={self.gamma}")
        if not 0 < self.alpha <= 1:
            raise ParameterError(f"requires 0 < alpha <= 1, got alpha={self.alpha}")
        if not (isinstance(self.n_init, int) and self.n_init >= 1):
            raise ParameterError(f"requires integer n_init >= 1, got n_init={self.n_init!r}")
        _check_gamma_n(self.gamma_n)
        if self.mutation_law not in MUTATION_LAWS:
            raise ParameterError(
                f"unknown mutation_law {self.mutation_law!r}; valid: {MUTATION_LAWS}"
            )
        if self.mutation_law == "bernoulli" and self.omega > 2:
            raise ParameterError(
                f"bernoulli mutation law requires omega <= 2, got omega={self.omega}"
            )

    @property
    def gamma_n(self) -> float:
        """Per-daughter resistance probability gamma / n_init**alpha."""
        return self.gamma * self.n_init ** (-self.alpha)


@dataclass(frozen=True)
class DerivedParams:
    """Every derived scalar used by the tree machinery and closed forms.

    ``p_n`` is the probability that a cell of the embedded discrete tree
    divides rather than terminates, ``beta_n`` the probability that a
    terminating cell is a resistance event rather than a death, and ``x_n``
    the geometric parameter of the founder-generation law.
    """

    b0: float
    d0: float
    b1: float
    d1: float
    lambda0: float
    lambda1: float
    delta0: float
    gamma_n: float
    p_n: float
    beta_n: float
    x_n: float
    p_tilde_n: float
    rho: float


def derive_from_gamma_n(
    b0: float, d0: float, b1: float, d1: float, gamma_n: float
) -> DerivedParams:
    """Derived quantities with the resistance probability given directly."""
    _check_gamma_n(gamma_n)
    lambda0 = d0 - b0
    lambda1 = b1 - d1
    delta0 = b0 + d0
    p_n = (1.0 - gamma_n) * b0 / delta0
    beta_n = delta0 * gamma_n / (d0 + b0 * gamma_n)
    # x_n = sqrt(1 - 4 p_n (1-p_n) (1-beta_n)).  The product simplifies to
    # (1-gamma_n)^2 b0 d0 / delta0^2, and factoring out lambda0^2/delta0^2
    # leaves a sum of positive terms, so no cancellation for tiny gamma_n.
    x_n = (lambda0 / delta0) * math.sqrt(
        1.0 + 4.0 * b0 * d0 * gamma_n * (2.0 - gamma_n) / lambda0**2
    )
    return DerivedParams(
        b0=b0,
        d0=d0,
        b1=b1,
        d1=d1,
        lambda0=lambda0,
        lambda1=lambda1,
        delta0=delta0,
        gamma_n=gamma_n,
        p_n=p_n,
        beta_n=beta_n,
        x_n=x_n,
        p_tilde_n=(1.0 - x_n) / 2.0,
        rho=d1 / b1,
    )


def derive(params: ModelParams) -> DerivedParams:
    """Compute all derived scalars for a validated parameter set."""
    return derive_from_gamma_n(params.b0, params.d0, params.b1, params.d1, params.gamma_n)


@dataclass(frozen=True)
class ObservationSpec:
    """When to observe the process.

    ``log-scaled`` mode uses t_mult * ln(n_init); ``absolute`` mode uses
    t_abs directly.  A missing t_mult defaults to 1/lambda0, the
    characteristic extinction timescale of the sensitive population.
    """

    mode: str = "log-scaled"
    t_mult: float | None = None
    t_abs: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in T_MODES:
            raise ParameterError(f"unknown t_mode {self.mode!r}; valid: {T_MODES}")
        if self.mode == "log-scaled":
            if self.t_mult is not None and not self.t_mult > 0:
                raise ParameterError(f"requires t_mult > 0, got t_mult={self.t_mult}")
        else:
            if self.t_abs is None or not self.t_abs > 0:
                raise ParameterError(f"absolute mode requires t_abs > 0, got t_abs={self.t_abs}")


def log_time(spec: ObservationSpec, params: ModelParams) -> float:
    """The observation time as a multiple of ln N, the t of the theory
    formulas: t_mult (default 1/lambda0) in log-scaled mode, t_abs / ln N in
    absolute mode."""
    if spec.mode == "log-scaled":
        return spec.t_mult if spec.t_mult is not None else 1.0 / (params.d0 - params.b0)
    if params.n_init == 1:
        raise ConfigError("absolute t_mode needs n_init > 1: t_abs / ln N is undefined at N = 1")
    return spec.t_abs / math.log(params.n_init)


def observation_time(spec: ObservationSpec, params: ModelParams) -> float:
    """Resolve the observation time for a parameter set."""
    if spec.mode == "absolute":
        return float(spec.t_abs)
    return log_time(spec, params) * math.log(params.n_init)


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run configuration (parameters, observation, seeds)."""

    params: ModelParams
    observation: ObservationSpec
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.replicates, int) and self.replicates >= 2):
            raise ParameterError(
                f"requires integer replicates >= 2, got replicates={self.replicates!r}"
            )
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ParameterError(f"requires integer seed >= 0, got seed={self.seed!r}")


# every config key and the type of its value, in file and flag order: the
# ModelParams fields, then the ObservationSpec fields (t_mode is its mode),
# then the RunConfig counts
CONFIG_SCHEMA = {
    "b0": float,
    "d0": float,
    "b1": float,
    "d1": float,
    "omega": float,
    "gamma": float,
    "alpha": float,
    "n_init": int,
    "mutation_law": str,
    "t_mode": str,
    "t_mult": float,
    "t_abs": float,
    "replicates": int,
    "seed": int,
}

_REQUIRED_KEYS = tuple(f.name for f in fields(ModelParams) if f.default is MISSING)


# ObservationSpec.mode is read from the config key t_mode
_RENAMED = {"mode": "t_mode"}


def make_config(values: dict) -> RunConfig:
    """Route typed config values (key -> value of its CONFIG_SCHEMA type)
    to a RunConfig and validate them together once.

    Keys left out take the dataclass defaults (1000 replicates, seed 0);
    a missing required key or an unknown key raises ConfigError, a violated
    constraint ParameterError.
    """
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    unknown = sorted(values.keys() - CONFIG_SCHEMA.keys())
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")

    def given(cls) -> dict:
        return {
            f.name: values[key]
            for f in fields(cls)
            if (key := _RENAMED.get(f.name, f.name)) in values
        }

    return RunConfig(
        params=ModelParams(**given(ModelParams)),
        observation=ObservationSpec(**given(ObservationSpec)),
        **given(RunConfig),
    )


def parse_config_values(text: str, source: str = "<config>") -> dict:
    """Typed values of a flat ``key = value`` config, not yet validated
    together.

    Lines are ``key = value``; blank lines and ``#`` comments are ignored.
    Unknown keys, duplicate keys and malformed values raise ConfigError
    citing ``source:line``.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{where}: empty value for key {key!r}")
        kind = CONFIG_SCHEMA[key]
        try:
            values[key] = kind(value)
        except ValueError as exc:
            raise ConfigError(
                f"{where}: key {key!r}: cannot read {value!r} as {kind.__name__}"
            ) from exc
    return values


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read a config file and validate its values, with ``overrides`` (key
    -> typed value) on top, together once (make_config).  An unreadable file
    or a malformed line raises ConfigError naming the path; a violated
    constraint, which may come from an override, ParameterError without it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return make_config(parse_config_values(text, source=str(path)) | (overrides or {}))
