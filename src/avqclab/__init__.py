"""Toolkit for adversarially varying quantum channels.

Finite channel families under a per-use adversary: validated quantum
primitives, one symmetrizability linear program, random-code capacity of
classical-quantum families, common-randomness diagnostics for bipartite
sources, and block-code evaluation with the worst-case state sequence
searched exhaustively or greedily. JSON document I/O and a CLI front end
sit on top.

The public names are those in the ``__all__`` lists of the modules below;
``__all__`` here is their concatenation and holds no module.
"""

from . import avqc, capacity, codes, correlation, errors, measures, quantum, serialize, symmetrize
from .avqc import *  # noqa: F403
from .capacity import *  # noqa: F403
from .codes import *  # noqa: F403
from .correlation import *  # noqa: F403
from .errors import *  # noqa: F403
from .measures import *  # noqa: F403
from .quantum import *  # noqa: F403
from .serialize import *  # noqa: F403
from .symmetrize import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (avqc, capacity, codes, correlation, errors, measures, quantum, serialize, symmetrize)
__all__ = [name for module in _MODULES for name in module.__all__]
