"""Semi-implicit variational inference by kernel Stein discrepancy descent.

The variational family is hierarchical: a standard Gaussian mixing layer fed
through a small rectifier network gives the conditional mean, and a learned
per-coordinate scale gives diagonal Gaussian noise.  Training minimizes the
squared kernel Stein discrepancy to a target posterior with exact
reparameterization gradients.  Ground-truth Langevin samplers and sample-based
discrepancy metrics round out the experiment harness.

Submodules are imported lazily so that the command-line entry point can pin
BLAS thread counts before any numerical code loads.  numpy is the one runtime
dependency: every distance, median and neighbour comes from the BLAS
expansion in ``kernels.pairwise_sq_dists``.  ``python -m ksivi`` runs the
``ksivi`` command.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "nets",
    "kernels",
    "targets",
    "family",
    "estimators",
    "optim",
    "train",
    "samplers",
    "metrics",
    "configio",
    "presets",
    "runio",
    "cli",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
