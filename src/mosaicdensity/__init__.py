"""Edge densities of convex mosaics built from space-filling zonotopes.

The package parametrizes the five combinatorial types of 3-D
parallelohedra as zonotopes over a centered frame, evaluates weighted
edge functionals and their per-type minima, bounds the density of
decomposable mosaics, and simulates lattice tilings to measure edge
density empirically.  See the README for the CLI.
"""

__version__ = "0.1.0"

NUMBA_ENABLED = False  # kernels are numpy-only; kept for the benchmark's environment block
