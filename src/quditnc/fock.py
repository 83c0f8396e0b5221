"""States with finite Fock support and the photon-number moments on them.

Every moment is computed on a ``StateBlock``: S states of one level count,
one per row of an (S, d) amplitude array.  The per-state functions below
evaluate a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Constructors renormalize amplitude vectors whose norm is off by less than
#: this and reject anything worse as a probable construction bug.
NORM_TOL = 1e-6


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dot product of each row of x with the same row of y (or with y itself).

    A stack of (1, n) @ (n, 1) products goes through the BLAS dot that
    ``np.dot`` applies to one pair of vectors, so each row reduces in the
    order it would alone; ``x @ y`` over the whole block would not.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def libm_pow(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k for each non-negative element, through the C pow that Python floats use.

    numpy's array power takes a SIMD route that differs from it in the last
    bit.  A power beyond the double range reads inf where Python would raise.
    """

    def one(v: float) -> float:
        try:
            return v**k
        except OverflowError:
            return math.inf

    return np.array([one(v) for v in x.ravel().tolist()]).reshape(x.shape)


def normalized_rows(raw: np.ndarray) -> np.ndarray:
    """Each row of a complex (S, d) array divided by its norm, read-only.

    Rows whose norm deviates from 1 by more than ``NORM_TOL`` are rejected;
    smaller deviations (numerical roundoff from upstream constructions) are
    silently renormalized.  The norm is ``np.linalg.norm``'s, row by row.
    """
    if not np.all(np.isfinite(raw.real)) or not np.all(np.isfinite(raw.imag)):
        raise ValueError("amps must be finite")
    norms = np.sqrt(row_dots(raw.real, raw.real) + row_dots(raw.imag, raw.imag))
    off = np.abs(norms - 1.0) > NORM_TOL
    if off.any():
        norm = float(norms[off.argmax()])
        raise ValueError(f"amplitude norm {norm!r} deviates from 1 by more than {NORM_TOL}")
    out = raw / norms[:, None]
    out.setflags(write=False)
    return out


class FockVector:
    """Normalized pure state on the Fock levels |0> .. |dim-1>.

    Amplitude vectors whose norm deviates from 1 by more than ``NORM_TOL``
    are rejected; smaller deviations (numerical roundoff from upstream
    constructions) are silently renormalized.
    """

    __slots__ = ("dim", "amps")

    def __init__(self, amps) -> None:
        arr = np.atleast_1d(np.asarray(amps, dtype=complex))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("amps must be a non-empty one-dimensional sequence")
        self.dim = int(arr.size)
        self.amps = normalized_rows(arr[None, :])[0]

    @classmethod
    def _of_normalized(cls, row: np.ndarray) -> FockVector:
        # A read-only row that normalized_rows already produced.
        state = object.__new__(cls)
        state.dim, state.amps = int(row.size), row
        return state

    def __repr__(self) -> str:
        return f"FockVector(dim={self.dim})"


class StateBlock:
    """Normalized states on the same ``dim`` levels, one per row of ``amps``.

    What several quantities read (the probabilities, the mean and its
    powers, the factorial and number moments) is computed once per block
    and kept.  Every value of a row depends on that row alone.
    """

    __slots__ = ("amps", "dim", "kept")

    def __init__(self, amps: np.ndarray) -> None:
        self.amps = amps
        self.dim = int(amps.shape[1])
        self.kept: dict = {}

    @classmethod
    def of(cls, state: FockVector) -> StateBlock:
        return cls(state.amps[None, :])

    def __len__(self) -> int:
        return self.amps.shape[0]

    def memo(self, key, compute):
        """compute() the first time key is asked for, the kept value after."""
        if key not in self.kept:
            self.kept[key] = compute()
        return self.kept[key]

    @property
    def probabilities(self) -> np.ndarray:
        """|c_n|^2, shape (S, dim)."""
        return self.memo("p", lambda: np.abs(self.amps) ** 2)

    @property
    def mean(self) -> np.ndarray:
        return self.memo(
            "mean", lambda: row_dots(self.probabilities, np.arange(self.dim, dtype=float))
        )

    def mean_power(self, k: int) -> np.ndarray:
        return self.memo(("mean_power", k), lambda: libm_pow(self.mean, k))

    def factorial_moment(self, k: int) -> np.ndarray:
        """<N(N-1)..(N-k+1)> = <a+^k a^k>: sum_j j(j-1)..(j-k+1) p_j, left to right."""

        def compute() -> np.ndarray:
            p = self.probabilities
            total = np.zeros(len(self))
            for j in range(k, self.dim):
                total = total + float(math.perm(j, k)) * p[:, j]
            return total

        return self.memo(("factorial_moment", k), compute)

    def number_moment(self, n: int) -> np.ndarray:
        """<N^n> = sum_j j^n p_j."""
        return self.memo(
            ("number_moment", n),
            lambda: row_dots(self.probabilities, np.arange(self.dim, dtype=float) ** n),
        )


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


def photon_probabilities(state: FockVector) -> np.ndarray:
    """|c_n|^2 for n = 0 .. dim-1."""
    return StateBlock.of(state).probabilities[0]


def mean_photon(state: FockVector) -> float:
    return float(StateBlock.of(state).mean[0])


def factorial_moment(state: FockVector, k: int) -> float:
    """<N(N-1)..(N-k+1)> = <a+^k a^k>: sum_j j(j-1)..(j-k+1) p_j."""
    return float(StateBlock.of(state).factorial_moment(k)[0])


def normal_moment(state: FockVector, n: int) -> float:
    """Normal-ordered moment <a+^n a^n>, the n-th factorial moment.

    Orders 1 through 4 are supported, which is all the moment-matrix
    criteria downstream require.
    """
    if not 1 <= n <= 4:
        raise ValueError("normal_moment supports orders 1..4")
    return factorial_moment(state, n)


def number_moment(state: FockVector, n: int) -> float:
    """Photon-number moment <N^n> = sum_j j^n p_j, for orders 1 through 4."""
    if not 1 <= n <= 4:
        raise ValueError("number_moment supports orders 1..4")
    return float(StateBlock.of(state).number_moment(n)[0])


@dataclass(frozen=True)
class MomentTable:
    """Normal-ordered moments m_1..m_4 and photon-number moments mu_1..mu_4."""

    m: tuple[float, float, float, float]
    mu: tuple[float, float, float, float]


def build_moment_table(state: FockVector) -> MomentTable:
    block = StateBlock.of(state)
    m = tuple(float(block.factorial_moment(n)[0]) for n in range(1, 5))
    mu = tuple(float(block.number_moment(n)[0]) for n in range(1, 5))
    return MomentTable(m=m, mu=mu)
