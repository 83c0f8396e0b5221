"""Constructions of coherent states on a finite number of Fock levels.

Two inequivalent truncations of the optical coherent state are provided.
``nonlinear_qcs`` applies the truncated displacement exponential to the
vacuum; its amplitudes are evaluated in the eigenbasis of the truncated
quadrature a + a+, whose eigenvalues, the roots of the degree-d probabilists'
Hermite polynomial, pair as +-x: the sum splits into cosine (even levels) and sine
(odd levels) parts and is exactly real at a real amplitude >= 0.  ``he_roots``
computes the eigenbasis once per d and caches it, and any d >= 2 is allowed.  ``linear_qcs``
truncates the Poissonian Fock expansion and renormalizes.  In both families the
state at a real -a is (-1)^n c_n(a), and ``state_block`` builds it so.  The two
families behave very differently: the nonlinear state is periodic in the
amplitude argument while the linear one is not.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .fock import FockVector, StateBlock, normalized_rows, row_dots

__all__ = [
    "HermiteRootSet", "StateKind", "build_state", "he_roots", "linear_qcs", "nonlinear_qcs",
    "period",
]

# Cephes lgam (Moshier, Methods and Programs for Mathematical Functions, 1989): log sqrt(2 pi)
# and the correction to Stirling's series, a polynomial in 1/x^2, highest power first. Cephes
# sums a shorter one from x = 1000; up to its next branch, x = 1e8, both round alike.
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)


@lru_cache(maxsize=None)
def _log_factorials(d: int) -> np.ndarray:
    """log n! for n = 0 .. d-1, read-only, bit for bit as cephes lgam(n + 1): the log of
    the exact product below 13, then (x - 1/2) log x - x + log sqrt(2 pi) + poly(1/x^2) / x."""
    out = np.empty(d)
    for n in range(d):
        x = n + 1.0
        if x < 13.0:
            out[n] = math.log(math.factorial(n))
            continue
        p = 1.0 / (x * x)
        poly = 0.0
        for coef in _STIRLING:
            poly = poly * p + coef
        out[n] = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI + poly / x
    out.setflags(write=False)
    return out


#: The most entries (1 GiB of float64) that one state build, or one sweep grid, may hold.
MAX_ENTRIES = 2**27


class StateKind(str, Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"


class HermiteRootSet(NamedTuple):
    """The roots x_k of He_degree, ascending, and the unit eigenvectors of its
    Jacobi matrix as columns: vectors[n, k] = +-He_n(x_k) sqrt(w_k / n!), with w_k
    the Gauss weights (Golub and Welsch, Math. Comp. 23, 1969)."""

    degree: int
    roots: np.ndarray
    vectors: np.ndarray


@lru_cache(maxsize=None)
def he_roots(d: int) -> HermiteRootSet:
    """The eigensystem, read-only, of the truncated quadrature a + a+ on d levels: the
    Jacobi matrix of He_d, with zero diagonal and off-diagonal sqrt(1) .. sqrt(d-1)."""
    if d < 1:
        raise ValueError("root degree must be at least 1")
    # eigh reads only the lower triangle, so the subdiagonal suffices.
    roots, vectors = np.linalg.eigh(np.diag(np.sqrt(np.arange(1.0, d)), k=-1))
    roots.setflags(write=False)
    vectors.setflags(write=False)
    return HermiteRootSet(degree=d, roots=roots, vectors=vectors)


@np.errstate(over="ignore", invalid="ignore")  # a huge amplitude gives nan rows, refused later
def _nonlinear_coefficients(d: int, alphas) -> np.ndarray:
    """Raw amplitudes exp(alpha a+ - alpha* a)|0>, one row per amplitude, before renormalizing.

    The generator is e^{i phi0} a+ - e^{-i phi0} a, which the level phases
    e^{i n (phi0 - pi/2)} turn into i |alpha| (a + a+).  Expanding the vacuum
    in the eigenbasis V of a + a+ gives, for level n,

        c_n = e^{i n (phi0 - pi/2)} sum_k V[n, k] V[0, k] e^{i x_k |alpha|},

    which does not depend on the signs of V's columns.  The roots pair as
    +-x_k, and V[n, k] V[0, k] is even in x_k for even n and odd for odd n, so
    the sum keeps its cosine part at even n and its sine part at odd n:

        c_n = e^{i n phi0} (1, 1, -1, -1)[n mod 4] sum_k V[n, k] V[0, k] cs_n(x_k |alpha|).

    A real alpha >= 0 (phi0 = 0) thus gives real amplitudes; only rows with phi0 != 0 take the
    phase, and ``state_block`` sends no real alpha < 0 here.  Each row is its own
    (2, d) @ (d, d) product: its bits do not depend on its block.
    """
    basis = he_roots(d)
    alphas = np.atleast_1d(np.asarray(alphas, complex))
    levels = np.arange(d)
    x = basis.roots * np.hypot(alphas.real, alphas.imag)[:, None]
    sums = np.matmul(basis.vectors[0] * np.stack([np.cos(x), np.sin(x)], axis=1), basis.vectors.T)
    sign = np.array([1.0, 1.0, -1.0, -1.0])[levels % 4]
    c = (np.where(levels % 2, sums[:, 1], sums[:, 0]) * sign).astype(complex)
    phi0 = np.arctan2(alphas.imag, alphas.real)
    turned = phi0 != 0.0
    c[turned] *= np.exp(1j * levels * phi0[turned, None])
    return c


def _linear_coefficients(d: int, betas: list[complex]) -> np.ndarray:
    """Unit rows proportional to beta^n / sqrt(n!), one per amplitude.

    Magnitudes are evaluated in the log domain so large |beta| stays
    well-conditioned; beta = 0 gives the vacuum.
    """
    levels = np.arange(d)
    c = np.zeros((len(betas), d), dtype=complex)
    c[:, 0] = 1.0
    rows = [i for i, beta in enumerate(betas) if beta != 0]
    if rows:
        log_modulus = np.array([math.log(abs(betas[i])) for i in rows])
        phase = np.array([math.atan2(betas[i].imag, betas[i].real) for i in rows])
        log_mag = levels * log_modulus[:, None] - 0.5 * _log_factorials(d)
        log_mag -= log_mag.max(axis=1, keepdims=True)
        mag = np.exp(log_mag)
        mag /= np.sqrt(row_dots(mag, mag))[:, None]
        c[rows] = mag * np.exp(1j * levels * phase[:, None])
    return c


def state_block(
    kind: StateKind | str, d: int, amplitudes: Iterable[complex]
) -> StateBlock:
    """The normalized states of one family and level count, one row per amplitude.

    Each row equals the single state ``nonlinear_qcs(d, amplitude)`` or
    ``linear_qcs(d, amplitude)`` bit for bit.  A real amplitude a < 0 is built
    at |a|, and the real parts of its odd levels are negated.  A build whose
    largest array would hold more than MAX_ENTRIES entries is refused before it starts.
    """
    kind = StateKind(kind)
    if d < 2:
        raise ValueError("dim must be at least 2")
    amps = np.asarray(list(amplitudes), complex)
    # The largest array the build makes: the block, or the nonlinear family's d x d eigenproblem.
    entries = max(len(amps), d if kind is StateKind.NONLINEAR else 0) * d
    if entries > MAX_ENTRIES:
        raise ValueError(f"the state build holds {entries} entries, more than {MAX_ENTRIES}")
    if not np.isfinite(amps).all():
        raise ValueError("amplitude must be finite")
    # A real a < 0 gives (-1)^n c_n(|a|) in both families: built so, its row is exactly real.
    mirrored = (amps.imag == 0) & (amps.real < 0)
    amps = np.where(mirrored, -amps.real, amps)
    if kind is StateKind.LINEAR:
        raw = _linear_coefficients(d, amps.tolist())
    else:
        raw = _nonlinear_coefficients(d, amps)
    rows = normalized_rows(raw)
    if mirrored.any():  # negating the real parts of the odd levels is exact
        rows = rows.copy()
        rows.real[mirrored, 1::2] *= -1
        rows.setflags(write=False)
    return StateBlock(rows)


def nonlinear_qcs(d: int, alpha: complex) -> FockVector:
    """Truncated-displacement coherent state on d levels.

    Applies exp(alpha a+ - alpha* a), with the ladder operators cut to the
    first d levels, to the vacuum.  At alpha = 0 this is the vacuum; for
    d = 2 and d = 3 the amplitude dependence is exactly periodic.
    """
    return build_state(StateKind.NONLINEAR, d, alpha)


def linear_qcs(d: int, beta: complex) -> FockVector:
    """Renormalized truncation of the Poissonian coherent expansion.

    Amplitudes are proportional to beta^n / sqrt(n!) on the surviving
    levels.  Magnitudes are evaluated in the log domain so large |beta|
    stays well-conditioned.
    """
    return build_state(StateKind.LINEAR, d, beta)


def period(d: int) -> float:
    """Period of the nonlinear family's amplitude dependence.

    Exact for d = 2 (pi) and d = 3 (2 pi / sqrt 3); for larger d the
    returned sqrt(4d + 2) is the approximate recurrence scale, since the
    He_d roots are no longer commensurate.
    """
    if d < 2:
        raise ValueError("dim must be at least 2")
    if d == 2:
        return math.pi
    if d == 3:
        return 2.0 * math.pi / math.sqrt(3.0)
    return math.sqrt(4.0 * d + 2.0)


def build_state(kind: StateKind | str, d: int, amplitude: complex) -> FockVector:
    """One state of a family on d levels: row 0 of ``state_block``."""
    return FockVector._of_normalized(state_block(kind, d, [amplitude]).amps[0])


#: Entries (amplitudes x levels) that state_blocks builds together: 256 amplitudes at
#: d = 60.  It bounds the (block, d) arrays of a long amplitude grid.
BLOCK_ENTRIES = 256 * 60

#: The fewest amplitudes in a block, whatever d: from d = 60 on, each block's
#: loops over the levels run once per STATE_BLOCK states.
STATE_BLOCK = 256


def block_rows(d: int) -> int:
    """Amplitudes per block at d levels: as many as fit in BLOCK_ENTRIES, at least STATE_BLOCK."""
    return max(STATE_BLOCK, BLOCK_ENTRIES // max(d, 1))  # state_block refuses d < 2


def state_blocks(
    kind: StateKind | str, d: int, amplitudes: Iterable[complex]
) -> Iterator[StateBlock]:
    """``state_block`` over ``block_rows(d)`` amplitudes at a time, in order."""
    amps = list(amplitudes)
    step = block_rows(d)
    for first in range(0, len(amps), step):
        yield state_block(kind, d, amps[first : first + step])
