"""Moment-based nonclassicality witnesses.

Sign convention: every witness here is built so that a negative value
certifies nonclassicality and classical (coherent, Poissonian) statistics
drive it to zero or above.  A value of exactly zero is not flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FockVector, StateBlock, libm_pow, row_dots

#: Below this the difference of moment-matrix determinants counts as singular.
A3_SINGULAR_TOL = 1e-12


class SingularMomentMatrix(ArithmeticError):
    """The moment-matrix ratio is undefined: its denominator vanishes."""


# Each witness is computed on a StateBlock, one value per row, in numpy's
# ignore mode: a value that leaves the double range reads inf or nan, which
# callers test for.  The per-state functions evaluate a block of one.


@np.errstate(all="ignore")
def hoa_block(block: StateBlock, l: int) -> np.ndarray:
    """``hoa`` of every state of the block."""
    if l < 1:
        raise ValueError("order must be at least 1")
    return block.factorial_moment(l + 1) - block.mean_power(l + 1)


def hoa(state: FockVector, l: int) -> float:
    """Antibunching witness of order l: factorial moment minus mean power.

    Negative values mean the (l+1)-quantum coincidences fall below what the
    mean photon number alone would give.
    """
    return float(hoa_block(StateBlock.of(state), l)[0])


@np.errstate(all="ignore")
def hm_quadrature_block(block: StateBlock, n: int) -> np.ndarray:
    """``hm_quadrature_moment`` of every state of the block."""
    if n % 2 != 0 or not 2 <= n <= 8:
        raise ValueError("order must be even and within 2..8")
    v = np.zeros((len(block), block.dim + n // 2), dtype=complex)
    v[:, : block.dim] = block.amps
    hop = np.sqrt(np.arange(1.0, v.shape[1]) / 2.0)

    def apply_x(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        out[:, :-1] = hop * u[:, 1:]
        out[:, 1:] += hop * u[:, :-1]
        return out

    mean = row_dots(v.conj(), apply_x(v)).real
    for _ in range(n // 2):
        v = apply_x(v) - mean[:, None] * v
    return row_dots(v.conj(), v).real


def hm_quadrature_moment(state: FockVector, n: int) -> float:
    """Central quadrature moment <(X - <X>)^n>, X = (a + a+)/sqrt(2).

    The state is embedded in d + n/2 levels, on which the tridiagonal
    X - <X> acts exactly n/2 times; the moment is the squared norm of the
    result.
    """
    return float(hm_quadrature_block(StateBlock.of(state), n)[0])


def hos_block(block: StateBlock, n: int) -> np.ndarray:
    """``hos_witness`` of every state of the block."""
    return hm_quadrature_block(block, n) - math.prod(range(n - 1, 0, -2)) / 2.0 ** (0.5 * n)


def hos_witness(state: FockVector, n: int) -> float:
    """Squeezing witness: the n-th central quadrature moment minus its
    coherent-state value (n-1)!! / 2^(n/2).  Negative means squeezed."""
    return float(hos_block(StateBlock.of(state), n)[0])


@lru_cache(maxsize=None)
def _s2(r: int, k: int) -> int:
    # Stirling number of the second kind: partitions of an r-set into k blocks.
    if r == k:
        return 1
    if k == 0 or k > r:
        return 0
    return k * _s2(r - 1, k) + _s2(r - 1, k - 1)


@np.errstate(all="ignore")
def hosps_block(block: StateBlock, l: int) -> np.ndarray:
    """``hosps`` of every state of the block.

    Raises OverflowError when a coefficient leaves the double range.
    """
    if l < 1:
        raise ValueError("order must be at least 1")
    excess = [block.factorial_moment(k) - block.mean_power(k) for k in range(1, l + 1)]
    total = np.zeros(len(block))
    for r in range(l + 1):
        shell = float(math.comb(l, r)) * (-1.0 if r % 2 else 1.0) * block.mean_power(l - r)
        for k in range(1, r + 1):
            total = total + shell * float(_s2(r, k)) * excess[k - 1]
    return total


def hosps(state: FockVector, l: int) -> float:
    """Sub-Poissonian witness of order l.

    A signed Stirling-number resummation of the antibunching excesses;
    at l = 2 it reduces to variance minus mean of the photon number.
    """
    return float(hosps_block(StateBlock.of(state), l)[0])


def _hankel3(moments: list[np.ndarray]) -> np.ndarray:
    # [[1, x1, x2], [x1, x2, x3], [x2, x3, x4]] for each row.
    x1, x2, x3, x4 = moments
    one = np.ones_like(x1)
    return np.stack([one, x1, x2, x1, x2, x3, x2, x3, x4], axis=-1).reshape(-1, 3, 3)


@np.errstate(all="ignore")
def agarwal_tara_block(block: StateBlock) -> tuple[np.ndarray, np.ndarray]:
    """``agarwal_tara`` of every state of the block, and its denominator.

    Where the denominator is at most A3_SINGULAR_TOL in magnitude the
    ratio is undefined.
    """
    m = [block.factorial_moment(n) for n in range(1, 5)]
    mu = [block.number_moment(n) for n in range(1, 5)]
    det_m = np.linalg.det(_hankel3(m))
    denom = np.linalg.det(_hankel3(mu)) - det_m
    return det_m / denom, denom


def agarwal_tara(state: FockVector) -> float:
    """Normalized moment-matrix criterion built from 3x3 Hankel determinants.

    Returns det(m) / (det(mu) - det(m)) where m collects normal-ordered
    moments and mu photon-number moments.  Raises SingularMomentMatrix when
    the denominator is below A3_SINGULAR_TOL in magnitude.
    """
    value, denom = (float(x[0]) for x in agarwal_tara_block(StateBlock.of(state)))
    if abs(denom) <= A3_SINGULAR_TOL:
        raise SingularMomentMatrix(
            f"moment-matrix denominator {denom!r} is numerically singular"
        )
    return value


@np.errstate(all="ignore")
def klyshko_block(block: StateBlock, levels) -> np.ndarray:
    """``klyshko`` of every state of the block, one column per level n of ``levels``."""
    n = np.asarray(levels, dtype=int)
    if (n < 0).any():
        raise ValueError("level index must be non-negative")
    p = block.probabilities

    def at(i: np.ndarray) -> np.ndarray:
        return np.where(i < block.dim, p[:, np.minimum(i, block.dim - 1)], 0.0)

    return (n + 2) * at(n) * at(n + 2) - (n + 1) * libm_pow(at(n + 1), 2)


def klyshko(state: FockVector, n: int) -> float:
    """Three-level probability test (n+2) p_n p_(n+2) - (n+1) p_(n+1)^2.

    Probabilities beyond the supported levels read as zero.
    """
    return float(klyshko_block(StateBlock.of(state), [n])[0, 0])


@dataclass(frozen=True)
class WitnessEntry:
    name: str
    order: int | None
    value: float
    nonclassical: bool


@dataclass(frozen=True)
class WitnessReport:
    """A bundle of witness evaluations for one state."""

    entries: tuple[WitnessEntry, ...]

    def as_dicts(self) -> list[dict]:
        return [
            {
                "name": e.name,
                "order": e.order,
                "value": e.value,
                "nonclassical": e.nonclassical,
            }
            for e in self.entries
        ]


def witness_report(
    state: FockVector,
    hoa_orders=(1, 2, 3),
    hos_orders=(2, 4),
    hosps_orders=(2, 3, 4),
    klyshko_orders=None,
) -> WitnessReport:
    """Evaluate the standard witness battery on one state.

    The moment-matrix entry is omitted when its denominator is singular
    (on |0>, |1> and every two-level state), so every reported value is
    finite.  Flags are strict: zero does not count as nonclassical.
    """
    entries: list[WitnessEntry] = []

    def add(name: str, order: int | None, value: float) -> None:
        entries.append(WitnessEntry(name, order, value, value < 0.0))

    for l in hoa_orders:
        add("hoa", l, hoa(state, l))
    for n in hos_orders:
        add("hos", n, hos_witness(state, n))
    for l in hosps_orders:
        add("hosps", l, hosps(state, l))
    try:
        add("a3", None, agarwal_tara(state))
    except SingularMomentMatrix:
        pass
    if klyshko_orders is None:
        klyshko_orders = range(max(state.dim - 2, 1))
    for n in klyshko_orders:
        add("klyshko", n, klyshko(state, n))
    return WitnessReport(entries=tuple(entries))
