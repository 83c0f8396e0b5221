"""States with finite Fock support and the photon-number moments on them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Constructors renormalize amplitude vectors whose norm is off by less than
#: this and reject anything worse as a probable construction bug.
NORM_TOL = 1e-6


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
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("amps must be finite")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(
                f"amplitude norm {norm!r} deviates from 1 by more than {NORM_TOL}"
            )
        arr = arr / norm
        arr.setflags(write=False)
        self.dim = int(arr.size)
        self.amps = arr

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


def photon_probabilities(state: FockVector) -> np.ndarray:
    """|c_n|^2 for n = 0 .. dim-1."""
    return np.abs(state.amps) ** 2


def mean_photon(state: FockVector) -> float:
    p = photon_probabilities(state)
    return float(np.dot(np.arange(state.dim), p))


def factorial_moment(state: FockVector, k: int) -> float:
    """<N(N-1)..(N-k+1)> = <a+^k a^k>: sum_j j(j-1)..(j-k+1) p_j."""
    p = photon_probabilities(state)
    return float(sum(math.perm(j, k) * p[j] for j in range(state.dim)))


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
    p = photon_probabilities(state)
    return float(np.dot(np.arange(state.dim, dtype=float) ** n, p))


@dataclass(frozen=True)
class MomentTable:
    """Normal-ordered moments m_1..m_4 and photon-number moments mu_1..mu_4."""

    m: tuple[float, float, float, float]
    mu: tuple[float, float, float, float]


def build_moment_table(state: FockVector) -> MomentTable:
    m = tuple(normal_moment(state, n) for n in range(1, 5))
    mu = tuple(number_moment(state, n) for n in range(1, 5))
    return MomentTable(m=m, mu=mu)
