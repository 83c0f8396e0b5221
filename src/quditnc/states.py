"""Constructions of coherent states on a finite number of Fock levels.

Two inequivalent truncations of the optical coherent state are provided.
``nonlinear_qcs`` applies the truncated displacement exponential to the
vacuum; its amplitudes are evaluated through a spectral sum over the roots
of the degree-d probabilists' Hermite polynomial, with Christoffel-style
weights.  ``linear_qcs`` truncates the Poissonian Fock expansion and
renormalizes.  The two families behave very differently: the nonlinear
state is periodic in the amplitude argument while the linear one is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np
from scipy.special import gammaln

from .fock import FockVector, StateBlock, normalized_rows, row_dots

MAX_HERMITE_DEGREE = 200
MAX_ROOT_DEGREE = 60


class StateKind(str, Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class QcsSpec:
    """Parameters naming one coherent state: family, level count, amplitude."""

    kind: StateKind
    dim: int
    amplitude: complex

    def __post_init__(self) -> None:
        if not isinstance(self.kind, StateKind):
            object.__setattr__(self, "kind", StateKind(self.kind))
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        amp = complex(self.amplitude)
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValueError("amplitude must be finite")
        object.__setattr__(self, "amplitude", amp)


@dataclass(frozen=True)
class HermiteRootSet:
    """The real roots of He_degree, sorted ascending."""

    degree: int
    roots: np.ndarray


def _he_values(n: int, x: np.ndarray) -> np.ndarray:
    # Three-term recurrence He_{m+1} = x He_m - m He_{m-1}, vectorized over x.
    h_prev = np.zeros_like(x)
    h = np.ones_like(x)
    for m in range(n):
        h, h_prev = x * h - m * h_prev, h
    return h


def he_eval(n: int, x: float) -> float:
    """Probabilists' Hermite polynomial He_n(x) by the three-term recurrence."""
    if n < 0 or n > MAX_HERMITE_DEGREE:
        raise ValueError(f"degree must be within 0..{MAX_HERMITE_DEGREE}")
    return float(_he_values(n, np.asarray([x], dtype=float))[0])


def he_roots(d: int) -> HermiteRootSet:
    """All d roots of He_d, ascending, polished to near machine precision.

    The roots are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    with zero diagonal and off-diagonal sqrt(1) .. sqrt(d-1).  One Newton
    step against the recurrence (using He_d' = d He_{d-1}) tightens each
    eigenvalue, and averaging against the negated reversal enforces the
    exact symmetry x_k = -x_{d-1-k}.
    """
    if not 1 <= d <= MAX_ROOT_DEGREE:
        raise ValueError(f"root degree must be within 1..{MAX_ROOT_DEGREE}")
    # eigvalsh reads only the lower triangle, so the subdiagonal suffices.
    jacobi = np.diag(np.sqrt(np.arange(1.0, d)), k=-1)
    x = np.linalg.eigvalsh(jacobi)
    x = x - _he_values(d, x) / (d * _he_values(d - 1, x))
    x = 0.5 * (x - x[::-1])
    x.setflags(write=False)
    return HermiteRootSet(degree=d, roots=x)


@dataclass(frozen=True)
class _SpectralBasis:
    """Everything in the nonlinear spectral sum that depends on d alone."""

    roots: np.ndarray  # x_k, shape (d,)
    weights: np.ndarray  # w_k, shape (d,)
    he_table: np.ndarray  # He_n(x_k), shape (d, d), row n
    inv_sqrt_factorial: np.ndarray  # (n!)^{-1/2}, shape (d,)


@lru_cache(maxsize=None)
def _spectral_basis(d: int) -> _SpectralBasis:
    x = np.asarray(he_roots(d).roots, dtype=float)
    log_w = gammaln(d) - math.log(d) - 2.0 * np.log(np.abs(_he_values(d - 1, x)))
    table = np.empty((d, d))
    table[0] = 1.0
    h_prev = np.ones_like(x)
    h = x.copy()
    for n in range(1, d):
        table[n] = h
        h, h_prev = x * h - n * h_prev, h
    basis = _SpectralBasis(
        roots=x,
        weights=np.exp(log_w),
        he_table=table,
        inv_sqrt_factorial=np.exp(-0.5 * gammaln(np.arange(d) + 1.0)),
    )
    for arr in vars(basis).values():
        arr.setflags(write=False)
    return basis


def _nonlinear_coefficients(d: int, alphas) -> np.ndarray:
    """Raw spectral-sum amplitudes, one row per amplitude, before renormalizing.

    The truncated displacement generator is a Jacobi matrix whose spectrum
    is the He_d root set; expanding the vacuum column of its exponential in
    that eigenbasis gives, for level n,

        c_n = (n!)^{-1/2} e^{i n (phi0 - pi/2)}
              * sum_k w_k He_n(x_k) e^{i x_k |alpha|},

    with weights w_k = (d-1)! / (d * He_{d-1}(x_k)^2) that sum to one.
    Each level is reduced on its own row of He_n(x_k), so every amplitude
    sees the same summation order as a single-state evaluation.
    """
    basis = _spectral_basis(d)
    alphas = [complex(a) for a in np.atleast_1d(alphas)]
    moduli = np.array([abs(a) for a in alphas])
    phi0 = np.array([math.atan2(a.imag, a.real) for a in alphas])
    weighted_phase = basis.weights * np.exp(1j * basis.roots * moduli[:, None])

    c = np.empty((len(alphas), d), dtype=complex)
    c[:, 0] = weighted_phase.sum(axis=1)
    for n in range(1, d):
        c[:, n] = (basis.he_table[n] * weighted_phase).sum(axis=1)

    levels = np.arange(d)
    c *= basis.inv_sqrt_factorial
    c *= np.exp(1j * levels * (phi0[:, None] - 0.5 * math.pi))
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
        log_mag = levels * log_modulus[:, None] - 0.5 * gammaln(levels + 1.0)
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
    ``linear_qcs(d, amplitude)`` bit for bit.
    """
    kind = StateKind(kind)
    if d < 2:
        raise ValueError("dim must be at least 2")
    amps = [complex(a) for a in amplitudes]
    if not all(math.isfinite(a.real) and math.isfinite(a.imag) for a in amps):
        raise ValueError("amplitude must be finite")
    if kind is StateKind.LINEAR:
        raw = _linear_coefficients(d, amps)
    else:
        raw = _nonlinear_coefficients(d, amps)
    return StateBlock(normalized_rows(raw))


def nonlinear_qcs(d: int, alpha: complex) -> FockVector:
    """Truncated-displacement coherent state on d levels.

    Applies exp(alpha a+ - alpha* a), with the ladder operators cut to the
    first d levels, to the vacuum.  At alpha = 0 this is the vacuum; for
    d = 2 and d = 3 the amplitude dependence is exactly periodic.
    """
    return FockVector._of_normalized(state_block(StateKind.NONLINEAR, d, [alpha]).amps[0])


def linear_qcs(d: int, beta: complex) -> FockVector:
    """Renormalized truncation of the Poissonian coherent expansion.

    Amplitudes are proportional to beta^n / sqrt(n!) on the surviving
    levels.  Magnitudes are evaluated in the log domain so large |beta|
    stays well-conditioned.
    """
    return FockVector._of_normalized(state_block(StateKind.LINEAR, d, [beta]).amps[0])


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


def build_state(spec: QcsSpec) -> FockVector:
    """Construct the state a QcsSpec names."""
    if spec.kind is StateKind.LINEAR:
        return linear_qcs(spec.dim, spec.amplitude)
    return nonlinear_qcs(spec.dim, spec.amplitude)


#: Amplitudes whose states state_blocks builds together; bounds the (block, d)
#: arrays of a long amplitude grid.
STATE_BLOCK = 256


def state_blocks(
    kind: StateKind | str, d: int, amplitudes: Iterable[complex]
) -> Iterator[StateBlock]:
    """``state_block`` over STATE_BLOCK amplitudes at a time, in order."""
    amps = list(amplitudes)
    for first in range(0, len(amps), STATE_BLOCK):
        yield state_block(kind, d, amps[first : first + STATE_BLOCK])


def build_states(
    kind: StateKind | str, d: int, amplitudes: Iterable[complex]
) -> Iterator[FockVector]:
    """The states of one family and level count, one per amplitude, lazily.

    Each is a row of ``state_blocks``, so it equals ``nonlinear_qcs(d,
    amplitude)`` or ``linear_qcs(d, amplitude)`` bit for bit.
    """
    for block in state_blocks(kind, d, amplitudes):
        for row in block.amps:
            yield FockVector._of_normalized(row)
