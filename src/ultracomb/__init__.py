"""ultracomb: random ultrametric trees represented as combs.

Sampling of exchangeable-coalescent combs, coalescent point processes
and population genealogies; Poisson neutral mutations on comb skeletons;
exact and Monte Carlo allele frequency spectra.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all and nothing else.
"""

__version__ = "0.1.0"

from . import comb, contour, errors, intensity, mutation, rng, sampling, spectrum, tree
from .comb import *  # noqa: F401,F403
from .contour import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .intensity import *  # noqa: F401,F403
from .mutation import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403
from .tree import *  # noqa: F401,F403

__all__ = [name for module in (comb, contour, errors, intensity, mutation, rng, sampling,
                               spectrum, tree)
           for name in module.__all__]
