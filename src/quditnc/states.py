"""Constructions of coherent states on a finite number of Fock levels.

Two inequivalent truncations of the optical coherent state are provided, each
selected by its kind in ``build_state`` (one state) and ``state_block`` (many).
The nonlinear family applies the truncated displacement exponential to the
vacuum; its amplitudes are evaluated in the eigenbasis of the truncated
quadrature a + a+, whose eigenvalues, the roots of the degree-d probabilists'
Hermite polynomial, pair as +-x: the sum splits into cosine (even levels) and sine
(odd levels) parts and is exactly real.  ``he_roots`` computes the eigenbasis
once per d and keeps the one in use, and any d >= 2 is allowed.  The linear family
truncates the Poissonian Fock expansion and renormalizes, with the magnitudes
evaluated in the log domain so a large amplitude stays well-conditioned.  Both
families are built at the modulus r = |a| and take the amplitude's phase in
``state_block`` alone.  The two families behave very differently: the nonlinear
state is periodic in the amplitude argument (exactly at d = 2 and 3) while the
linear one is not.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

import numpy as np

from .fock import FockVector, NormError, StateBlock, normalized_rows, row_dots

__all__ = [
    "KINDS", "NumericalError", "build_state", "he_roots", "period",
]


class NumericalError(RuntimeError):
    """Valid input gave an invalid result: a state built off its norm, or a non-finite
    value outside the singular-ratio path."""


# Cephes lgam (Moshier, Methods and Programs for Mathematical Functions, 1989): log sqrt(2 pi)
# and the correction to Stirling's series, a polynomial in 1/x^2, highest power first. Cephes
# sums a shorter one from x = 1000; up to its next branch, x = 1e8, both round alike.
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)


@lru_cache(maxsize=1)  # every verb works through one level count at a time
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


#: The most entries one state build or sweep grid may hold: 2 GiB of complex128 amplitudes.
MAX_ENTRIES = 2**27


#: The two families, by the names that select them everywhere.
KINDS = ("linear", "nonlinear")


@lru_cache(maxsize=1)  # d x d: every verb works through one level count at a time
def he_roots(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystem, read-only, of the truncated quadrature a + a+ on d levels, the Jacobi
    matrix of He_d (zero diagonal, off-diagonal sqrt(1) .. sqrt(d-1)): the roots x_k of He_d,
    ascending, and the unit eigenvectors as columns, vectors[n, k] = +-He_n(x_k) sqrt(w_k / n!)
    with w_k the Gauss weights (Golub and Welsch, Math. Comp. 23, 1969)."""
    if d < 1:
        raise ValueError("root degree must be at least 1")
    # eigh reads only the lower triangle, so the subdiagonal suffices.
    roots, vectors = np.linalg.eigh(np.diag(np.sqrt(np.arange(1.0, d)), k=-1))
    roots.setflags(write=False)
    vectors.setflags(write=False)
    return roots, vectors


@np.errstate(over="ignore", invalid="ignore")  # a huge amplitude gives nan rows, refused later
def _nonlinear_coefficients(d: int, moduli: np.ndarray) -> np.ndarray:
    """Raw real amplitudes exp(r (a+ - a))|0>, one row per modulus r > 0, before normalizing.

    The level phases i^(-n) turn the generator r (a+ - a) into i r (a + a+).
    Expanding the vacuum in the eigenbasis V of a + a+ gives, for level n,

        c_n = i^(-n) sum_k V[n, k] V[0, k] e^{i x_k r},

    which does not depend on the signs of V's columns.  The roots pair as
    +-x_k, and V[n, k] V[0, k] is even in x_k for even n and odd for odd n, so
    the sum keeps its cosine part at even n and its sine part at odd n:

        c_n = (1, 1, -1, -1)[n mod 4] sum_k V[n, k] V[0, k] cs_n(x_k r).

    Each row is its own (2, d) @ (d, d) product: its bits do not depend on its block.
    The rows are the cosine half of the products, the odd levels' sine sums copied over it.
    """
    roots, vectors = he_roots(d)
    x = roots * moduli[:, None]
    cs = np.empty((len(moduli), 2, d))
    np.cos(x, out=cs[:, 0])
    np.sin(x, out=cs[:, 1])
    cs *= vectors[0]
    sums = np.matmul(cs, vectors.T)
    sums[:, 0, 1::2] = sums[:, 1, 1::2]
    sums[:, 0] *= np.array([1.0, 1.0, -1.0, -1.0])[np.arange(d) % 4]
    return sums[:, 0]


def _linear_coefficients(d: int, moduli: np.ndarray) -> np.ndarray:
    """Unit rows proportional to r^n / sqrt(n!), one per modulus r > 0, in the log domain."""
    log_modulus = np.array([math.log(r) for r in moduli.tolist()])
    log_mag = np.arange(d) * log_modulus[:, None] - 0.5 * _log_factorials(d)
    log_mag -= log_mag.max(axis=1, keepdims=True)
    mag = np.exp(log_mag)
    mag /= np.sqrt(row_dots(mag, mag))[:, None]
    return mag


def state_block(kind: str, d: int, amplitudes: Iterable[complex]) -> StateBlock:
    """The normalized states of one family and level count, one row per amplitude.

    Both families are phase covariant: the state at r e^{i phi} is e^{i n phi} times the
    state at r.  So each row is built at r = |a|, as the exact vacuum at r = 0 and by the
    family's coefficient function above it, and normalized.  Then a complex amplitude's
    row is multiplied by e^{i n phi}, and a real a < 0 negates the real parts of its odd
    levels, which is exact and leaves the row real.  Each row equals the single state
    ``build_state(kind, d, a)`` bit for bit.  A build whose largest
    array would hold more than MAX_ENTRIES entries is refused before it starts, and a
    built row whose norm is off by more than ``NORM_TOL``, or not finite, raises
    NumericalError.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be {' or '.join(map(repr, KINDS))}, got {kind!r}")
    if d < 2:
        raise ValueError("dim must be at least 2")
    amps = np.asarray(amplitudes if isinstance(amplitudes, np.ndarray) else list(amplitudes), complex)
    # The largest array the build makes: the block, or the nonlinear family's d x d eigenproblem.
    entries = max(len(amps), d if kind == "nonlinear" else 0) * d
    if entries > MAX_ENTRIES:
        raise ValueError(f"the state build holds {entries} entries, more than {MAX_ENTRIES}")
    if not np.isfinite(amps).all():
        raise ValueError("amplitude must be finite")
    r = np.hypot(amps.real, amps.imag)
    built = r > 0
    build = _linear_coefficients if kind == "linear" else _nonlinear_coefficients
    coefficients = build(d, r[built]) if built.any() else np.empty((0, d))  # no he_roots call
    # Complex as the rows end (real rows' norms round otherwise), made once the build is done,
    # then normalized, turned and mirrored in place: the block is this call's own.
    raw = np.zeros((len(amps), d), complex)
    raw[~built, 0] = 1.0
    raw.real[built] = coefficients
    try:
        rows = normalized_rows(raw)
    except NormError as exc:  # the amplitude was valid: the build lost unitarity
        a = complex(amps[exc.row])
        where = f"kind={kind} d={d} amplitude={a.real if a.imag == 0 else a!r}"
        raise NumericalError(f"the built state's {exc} at {where}") from None
    turned, mirrored = amps.imag != 0, (amps.imag == 0) & (amps.real < 0)
    rows[turned] *= np.exp(1j * np.arange(d) * np.arctan2(amps.imag, amps.real)[turned, None])
    rows.real[mirrored, 1::2] *= -1
    return StateBlock(rows)


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


def build_state(kind: str, d: int, amplitude: complex) -> FockVector:
    """One state of a family on d levels: the one-row block that ``state_block`` builds.

    At amplitude 0 it is the vacuum exactly, and at any real amplitude it is exactly real.
    """
    return FockVector._of_normalized(state_block(kind, d, [amplitude]).rows)


#: The most amplitude entries (amplitudes x levels) in one sweep block: 256 states at d = 60.
BLOCK_ENTRIES = 256 * 60


def block_rows(d: int) -> int:
    """Amplitudes per block at d levels: as many as fit in BLOCK_ENTRIES, at least one."""
    return max(1, BLOCK_ENTRIES // d)
