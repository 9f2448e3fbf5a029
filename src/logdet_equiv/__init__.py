"""Deterministic equivalents for log-determinants of noisily perturbed matrices.

The library validates, numerically and at desk scale, the equivalence

    (1/N) log |det (A + delta G)|  ~  (1/N) sum_{j : s_j > alpha} log s_j

for non-normal matrices ``A`` with singular values ``s_j``, small noise
amplitudes ``delta``, and random ``G`` — including the full block-matrix
(Grushin) construction that drives the argument, exposed as executable,
checkable algebra rather than prose.
"""

# Each module's ``__all__`` is the package's public API.
from .linalg import *
from .grushin import *
from .equivalents import *
from .noise import *
from .ensembles import *
from .experiments import *

__version__ = "0.1.0"
