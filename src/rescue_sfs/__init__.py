"""Site frequency spectrum of neutral mutations under two-type rescue dynamics.

Exact simulation of a subcritical sensitive population rescued by rare
resistance mutations (one cell lifetime at a time), marked Galton-Watson
tree machinery for the resistant founders, closed-form / quadrature
evaluation of the expected site frequency spectrum, and Monte Carlo
comparison tooling.

Importing the package loads only the standard library: ``compare`` and
``replicate_sfs`` come from ``montecarlo``, which needs numpy, and are
imported on first access.
"""

from rescue_sfs.gw_trees import GwLaw, GwTree, sample_conditioned, sample_tree
from rescue_sfs.params import (
    ConfigError,
    DerivedParams,
    ModelParams,
    ObservationSpec,
    ParameterError,
    RunConfig,
    derive,
    derive_from_gamma_n,
    load_config,
    observation_time,
)
from rescue_sfs.simulator import SfsRecord, SimOutcome, extract_sfs, run, window_counts

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DerivedParams",
    "GwLaw",
    "GwTree",
    "ModelParams",
    "ObservationSpec",
    "ParameterError",
    "RunConfig",
    "SfsRecord",
    "SimOutcome",
    "compare",
    "derive",
    "derive_from_gamma_n",
    "extract_sfs",
    "load_config",
    "observation_time",
    "replicate_sfs",
    "run",
    "sample_conditioned",
    "sample_tree",
    "window_counts",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: the numpy-backed Monte Carlo entry points load on first use
    if name in ("compare", "replicate_sfs"):
        from rescue_sfs import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
