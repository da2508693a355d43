"""Positive definite kernels indexed by measurable sets over a finite weighted space.

The library realizes such kernels as inner products in the weighted L2 space
(factorization through a positive operator and its square root), builds Green
kernels of reversible transient Markov chains, and samples the associated
mean-zero Gaussian fields to test stochastic-integral second moments.

The package republishes the ``__all__`` of six modules, each module's list
being the one declaration of its public names; ``linalg``, ``config``,
``cli`` and ``report`` are imported by module.
"""

from .errors import *
from .factorization import *
from .field import *
from .kernels import *
from .markov import *
from .measure import *

__version__ = "0.1.0"
