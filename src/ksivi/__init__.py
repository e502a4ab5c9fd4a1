"""Semi-implicit variational inference by kernel Stein discrepancy descent.

The variational family is hierarchical: a standard Gaussian mixing layer fed
through a small rectifier network gives the conditional mean, and a learned
per-coordinate scale gives diagonal Gaussian noise.  Training minimizes the
squared kernel Stein discrepancy to a target posterior with exact
reparameterization gradients.  Ground-truth Langevin samplers and sample-based
discrepancy metrics round out the experiment harness.

The package imports none of its submodules, so that the command-line entry
point can pin BLAS thread counts before any numerical code loads; import
them by name (``from ksivi import kernels``).  numpy is the one runtime
dependency: every distance, median and neighbour comes from the BLAS
expansion in ``kernels.pairwise_sq_dists``.  ``python -m ksivi`` runs the
``ksivi`` command.
"""

__version__ = "0.1.0"
