"""Moment-based nonclassicality witnesses.

Sign convention: every witness here is built so that a negative value
certifies nonclassicality and classical (coherent, Poissonian) statistics
drive it to zero or above.  A value of exactly zero is not flagged.

Each witness takes a ``StateBlock`` and gives one value per row, in numpy's
ignore mode: a value that leaves the double range reads inf or nan, which
callers test for.  A ``FockVector`` is a block of one, so ``hoa(state, 1)[0]``
is one state's value.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .fock import StateBlock, row_dots

__all__ = ["agarwal_tara", "hm_quadrature_moment", "hoa", "hos_witness", "hosps", "klyshko"]

#: Below this the difference of moment-matrix determinants counts as singular.
A3_SINGULAR_TOL = 1e-12


@np.errstate(all="ignore")
def hoa(block: StateBlock, l: int) -> np.ndarray:
    """Antibunching witness of order l of each state: factorial moment minus mean power.

    Negative values mean the (l+1)-quantum coincidences fall below what the
    mean photon number alone would give.
    """
    if l < 1:
        raise ValueError("order must be at least 1")
    return block.factorial_moment(l + 1) - block.mean_power(l + 1)


@np.errstate(all="ignore")
def hm_quadrature_moment(block: StateBlock, n: int) -> np.ndarray:
    """Central quadrature moment <(X - <X>)^n> of each state, X = (a + a+)/sqrt(2).

    Each state is embedded in d + n/2 levels, on which the tridiagonal
    X - <X> acts exactly n/2 times; the moment is the squared norm of the
    result.
    """
    if n % 2 != 0 or not 2 <= n <= 8:
        raise ValueError("order must be even and within 2..8")
    v = np.zeros((len(block), block.dim + n // 2), dtype=complex)
    v[:, : block.dim] = block.rows
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


def hos_witness(block: StateBlock, n: int) -> np.ndarray:
    """Squeezing witness of each state: the n-th central quadrature moment minus
    its coherent-state value (n-1)!! / 2^(n/2).  Negative means squeezed."""
    return hm_quadrature_moment(block, n) - math.prod(range(n - 1, 0, -2)) / 2.0 ** (0.5 * n)


@np.errstate(all="ignore")
def hosps(block: StateBlock, l: int) -> np.ndarray:
    """Sub-Poissonian witness of order l of each state.

    A signed Stirling-number resummation of the antibunching excesses;
    at l = 2 it reduces to variance minus mean of the photon number.
    Raises OverflowError when a coefficient leaves the double range.
    """
    if l < 1:
        raise ValueError("order must be at least 1")
    # s2: the Stirling numbers of the second kind S(r, 0 .. r), exact, each row from the last.
    total, excess, s2 = np.zeros(len(block)), [], [1]
    for r in range(l + 1):
        shell = float(math.comb(l, r)) * (-1.0 if r % 2 else 1.0) * block.mean_power(l - r)
        if r:  # after the binomial: a huge order overflows before its moments are built
            excess.append(block.factorial_moment(r) - block.mean_power(r))
            s2 = [0] + [k * a + b for k, (a, b) in enumerate(zip([*s2[1:], 0], s2), 1)]
        for k in range(1, r + 1):
            total = total + shell * float(s2[k]) * excess[k - 1]
    return total


def _hankel3(moments: list[np.ndarray]) -> np.ndarray:
    # [[1, x1, x2], [x1, x2, x3], [x2, x3, x4]] for each row.
    x1, x2, x3, x4 = moments
    one = np.ones_like(x1)
    return np.stack([one, x1, x2, x1, x2, x3, x2, x3, x4], axis=-1).reshape(-1, 3, 3)


@np.errstate(all="ignore")
def agarwal_tara(block: StateBlock) -> tuple[np.ndarray, np.ndarray]:
    """Normalized moment-matrix criterion of each state, built from 3x3 Hankel
    determinants, and the mask of the states where it is undefined.

    The value is det(m) / (det(mu) - det(m)) where m collects normal-ordered
    moments and mu photon-number moments.  It is undefined (masked) where the
    denominator is at most A3_SINGULAR_TOL in magnitude.
    """
    m = [block.factorial_moment(n) for n in range(1, 5)]
    mu = [block.number_moment(n) for n in range(1, 5)]
    det_m = np.linalg.det(_hankel3(m))
    denom = np.linalg.det(_hankel3(mu)) - det_m
    return det_m / denom, np.abs(denom) <= A3_SINGULAR_TOL


@np.errstate(all="ignore")
def klyshko(block: StateBlock, levels) -> np.ndarray:
    """Three-level probability test (n+2) p_n p_(n+2) - (n+1) p_(n+1)^2 of each
    state, one column per level n of ``levels``: an (S, L) array.

    Probabilities beyond the supported levels read as zero, so a level from d on
    reads exactly 0: it is taken as level d, decided on the Python int, so no
    level meets int64 overflow.  A level that is not an integer raises TypeError.
    """
    d = block.dim
    n = np.array([level if level < d else d for level in map(operator.index, levels)], dtype=int)
    if (n < 0).any():
        raise ValueError("level index must be non-negative")
    p = np.zeros((len(block), d + 3))  # the probabilities, then levels d .. d + 2 at 0
    p[:, :d] = block.probabilities
    return (n + 2) * p[:, n] * p[:, n + 2] - (n + 1) * np.float_power(p[:, n + 1], 2)


def klyshko_levels(d: int) -> range:
    """Levels 0 .. d - 3, whose three probabilities sit in the support; 0 even at d = 2."""
    return range(max(d - 2, 1))
