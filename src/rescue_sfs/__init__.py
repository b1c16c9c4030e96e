"""Site frequency spectrum of neutral mutations under two-type rescue dynamics.

Exact simulation of a subcritical sensitive population rescued by rare
resistance mutations (one cell lifetime at a time), marked Galton-Watson
tree machinery for the resistant founders, closed-form / quadrature
evaluation of the expected site frequency spectrum, and Monte Carlo
comparison tooling.
"""

from rescue_sfs.gw_trees import GwLaw, GwTree, sample_conditioned, sample_tree
from rescue_sfs.montecarlo import compare, replicate_sfs
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
