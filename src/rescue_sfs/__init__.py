"""Site frequency spectrum of neutral mutations under two-type rescue dynamics.

Exact simulation of a subcritical sensitive population rescued by rare
resistance mutations (one cell lifetime at a time), marked Galton-Watson
tree machinery for the resistant founders, closed-form / quadrature
evaluation of the expected site frequency spectrum, and Monte Carlo
comparison tooling.

Importing the package loads ``params`` and the standard library only.
The other names load their module on first access: ``compare`` and
``replicate_sfs`` come from ``montecarlo``, which needs numpy, the tree
names from ``gw_trees`` and ``SfsRecord``, the type of a replicate's
record, from ``simulator``, which also holds ``run`` and its helpers.
"""

import importlib

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
    "compare",
    "derive",
    "derive_from_gamma_n",
    "load_config",
    "observation_time",
    "replicate_sfs",
    "sample_conditioned",
    "sample_tree",
    "__version__",
]


# the names each module serves on first access (PEP 562)
_LAZY = {
    "montecarlo": ("compare", "replicate_sfs"),
    "gw_trees": ("GwLaw", "GwTree", "sample_conditioned", "sample_tree"),
    "simulator": ("SfsRecord",),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
