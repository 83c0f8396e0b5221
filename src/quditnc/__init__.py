"""Finite-level coherent states and their nonclassicality toolbox.

Build linear (truncated Poissonian) or nonlinear (truncated displacement)
coherent states on d Fock levels, test them with moment-based witnesses,
quantify them with beam-splitter entanglement measures, and sweep the
parameter space from the command line.  Each module declares its public
names in its own ``__all__``; the package re-exports them all.

At the sizes the sweeps run (d of a few dozen levels) a BLAS call gains nothing
from a second thread.  So when this package is the one that loads numpy, and no
thread count that OpenBLAS reads is set, OpenBLAS starts with one thread: no
pool to start, spin or wait on.  A thread count set in the environment wins.
"""

import os
import sys

if "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import fock, measures, states, sweep, witnesses
from .fock import *
from .measures import *
from .states import *
from .sweep import *
from .witnesses import *

__version__ = "0.1.0"

__all__ = fock.__all__ + measures.__all__ + states.__all__ + sweep.__all__ + witnesses.__all__
