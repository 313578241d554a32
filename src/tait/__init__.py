"""Tait colorings of planar trivalent graphs and their reduction calculus.

The package has four layers: combinatorial maps and their faces
(:mod:`tait.planar`, :mod:`tait.catalog`), the coloring count, a
tensor contraction over incidences (:mod:`tait.coloring`), the face-collapse
reduction engine with integer and Laurent-polynomial weights
(:mod:`tait.reduction`, :mod:`tait.laurent`), and the unitary
realization of decorations (:mod:`tait.su3`).  :mod:`tait.verify`
cross-checks the layers against each other; the ``tait`` command line
fronts the lot.
"""

from . import catalog, coloring, laurent, planar, reduction, su3, verify
from .catalog import *  # noqa: F403
from .coloring import *  # noqa: F403
from .laurent import *  # noqa: F403
from .planar import *  # noqa: F403
from .reduction import *  # noqa: F403
from .su3 import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *planar.__all__,
    *catalog.__all__,
    *coloring.__all__,
    *reduction.__all__,
    *laurent.__all__,
    *su3.__all__,
    *verify.__all__,
]
