"""Finite-level coherent states and their nonclassicality toolbox.

Build linear (truncated Poissonian) or nonlinear (truncated displacement)
coherent states on d Fock levels, test them with moment-based witnesses,
quantify them with beam-splitter entanglement measures, and sweep the
parameter space from the command line.  Each module declares its public
names in its own ``__all__``; the package re-exports them all.
"""

from . import fock, measures, states, sweep, witnesses
from .fock import *
from .measures import *
from .states import *
from .sweep import *
from .witnesses import *

__version__ = "0.1.0"

__all__ = fock.__all__ + measures.__all__ + states.__all__ + sweep.__all__ + witnesses.__all__
