"""Noise-robust training engine for open-set noisy labels on synthetic data.

Divergence-based sample selection with neighbor evidence, adaptive per-class
thresholds, mean-teacher label reassignment (partial-label and negative
learning), and triplet consistency regularization.

Importing the package pins BLAS to one thread (see `josnc.blas`).
"""

from .blas import pin_one_thread

__version__ = "0.1.0"

pin_one_thread()
