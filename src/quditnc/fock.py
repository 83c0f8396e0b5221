"""States with finite Fock support and the photon-number moments on them.

Every moment is computed on a ``StateBlock``: S states of one level count,
one per row of an (S, d) amplitude array, each moment one value per row.
A ``FockVector`` is a block of one row.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

__all__ = ["FockVector", "fock_state"]

#: Constructors renormalize amplitude vectors whose norm is off by less than
#: this and reject anything worse as a probable construction bug.
NORM_TOL = 1e-6


class NormError(ValueError):
    """A row's norm deviates from 1 by more than ``NORM_TOL``; ``row`` is its index."""

    def __init__(self, row: int, norm: float) -> None:
        super().__init__(f"amplitude norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        self.row = row


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dot product of each row of x with the same row of y (or with y itself).

    A stack of (1, n) @ (n, 1) products goes through the BLAS dot that
    ``np.dot`` applies to one pair of vectors, so each row reduces in the
    order it would alone; ``x @ y`` over the whole block would not.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


@lru_cache(maxsize=1)  # every verb works through one level count at a time
def _falling_factorials(d: int):
    """k -> perm(j, k) = j(j-1)..(j-k+1) for j = 0 .. d-1, read-only doubles, kept per order."""
    @lru_cache(maxsize=None)
    def order(k: int) -> np.ndarray:
        out = np.array([float(math.perm(j, k)) for j in range(d)])
        out.setflags(write=False)
        return out
    return order


def level_sum(x: np.ndarray, weights) -> np.ndarray:
    """sum_n weights[n] x[:, n] for each row of an (S, d) array, left to right over n:
    accumulate adds each row's terms in order, as a loop would, with no per-row call."""
    return np.add.accumulate(x * weights, axis=1)[:, -1]


@np.errstate(over="ignore", invalid="ignore")  # a norm that overflows reads inf, refused below
def normalized_rows(raw: np.ndarray) -> np.ndarray:
    """Each row of a complex (S, d) array divided in place by its norm; returns it read-only.

    The first row whose norm deviates from 1 by more than ``NORM_TOL``, or is not
    finite, is rejected with a ``NormError``; smaller deviations (numerical roundoff
    from upstream constructions) are silently renormalized.  The norm is
    ``np.linalg.norm``'s, row by row: the imaginary parts' dots are added only when
    some part is nonzero, as adding their +0.0 is exact.
    """
    dots = row_dots(raw.real, raw.real)
    if raw.imag.any():
        dots += row_dots(raw.imag, raw.imag)
    norms = np.sqrt(dots)
    off = ~(np.abs(norms - 1.0) <= NORM_TOL)  # a nan norm compares false
    if off.any():
        row = int(off.argmax())
        raise NormError(row, float(norms[row]))
    raw /= norms[:, None]
    raw.setflags(write=False)
    return raw


class StateBlock:
    """Normalized states on the same ``dim`` levels, one per row of ``rows``.

    What several quantities read (the probabilities, the mean and its
    powers, the factorial and number moments) is computed once per block
    and kept, read-only.  Every value of a row depends on that row alone.
    """

    __slots__ = ("rows", "dim", "kept")

    def __init__(self, rows: np.ndarray) -> None:
        # row_dots runs its BLAS dot on strided rows of any other layout, with other bits.
        self.rows = np.ascontiguousarray(rows)
        self.dim = int(rows.shape[1])
        self.kept: dict = {}

    def __len__(self) -> int:
        return self.rows.shape[0]

    def memo(self, key, compute):
        """compute() the first time key is asked for, the kept (read-only) value after."""
        if key not in self.kept:
            value = self.kept[key] = compute()
            value.setflags(write=False)
        return self.kept[key]

    @property
    def probabilities(self) -> np.ndarray:
        """|c_n|^2, shape (S, dim)."""
        return self.memo("p", lambda: np.abs(self.rows) ** 2)

    @property
    def mean(self) -> np.ndarray:
        return self.number_moment(1)  # x**1 == x: the same bits, kept once

    def mean_power(self, k: int) -> np.ndarray:
        # float_power runs Python's C pow; np.power's SIMD route differs in the last bit.
        return self.memo(("mean_power", k), lambda: np.float_power(self.mean, k))

    def factorial_moment(self, k: int) -> np.ndarray:
        """<N(N-1)..(N-k+1)> = <a+^k a^k>: sum_j j(j-1)..(j-k+1) p_j, left to right."""
        k = operator.index(k)  # 2.0 == 2: it would find order 2's weights and value
        return self.memo(("factorial_moment", k), lambda: level_sum(
            self.probabilities, _falling_factorials(self.dim)(k)))

    def number_moment(self, n: int) -> np.ndarray:
        """<N^n> = sum_j j^n p_j, for an integer order n >= 0."""
        if operator.index(n) < 0:  # operator.index refuses 1.5, and 2.0 before order 2's value
            raise ValueError("a number moment's order must be non-negative")
        return self.memo(("number_moment", n), lambda: row_dots(
            self.probabilities, np.arange(self.dim, dtype=float) ** n))


class FockVector(StateBlock):
    """Normalized pure state on the Fock levels |0> .. |dim-1>: a block of one row.

    Amplitude vectors whose norm deviates from 1 by more than ``NORM_TOL``
    are rejected; smaller deviations (numerical roundoff from upstream
    constructions) are silently renormalized.
    """

    __slots__ = ()

    def __init__(self, amps) -> None:
        arr = np.atleast_1d(np.array(amps, dtype=complex))  # a copy: it is normalized in place
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("amps must be a non-empty one-dimensional sequence")
        super().__init__(normalized_rows(arr[None, :]))

    @classmethod
    def _of_normalized(cls, rows: np.ndarray) -> FockVector:
        # A read-only (1, d) block that normalized_rows already produced.
        state = object.__new__(cls)
        StateBlock.__init__(state, rows)
        return state

    @property
    def amps(self) -> np.ndarray:
        """The amplitudes c_0 .. c_(dim-1): the read-only row ``rows[0]``."""
        return self.rows[0]

    def __repr__(self) -> str:
        return f"FockVector(dim={self.dim})"


def fock_state(n: int, dim: int | None = None) -> FockVector:
    """The number state |n> embedded in ``dim`` levels (default: n + 1)."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if dim is None:
        dim = n + 1
    if dim <= n:
        raise ValueError(f"dim={dim} cannot hold |{n}>")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps)

