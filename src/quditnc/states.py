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

import numpy as np
from scipy.special import gammaln

from .fock import FockVector

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


@lru_cache(maxsize=None)
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


def _nonlinear_coefficients(d: int, alpha: complex) -> np.ndarray:
    """Raw spectral-sum amplitudes, before the normalization safety net.

    The truncated displacement generator is a Jacobi matrix whose spectrum
    is the He_d root set; expanding the vacuum column of its exponential in
    that eigenbasis gives, for level n,

        c_n = (n!)^{-1/2} e^{i n (phi0 - pi/2)}
              * sum_k w_k He_n(x_k) e^{i x_k |alpha|},

    with weights w_k = (d-1)! / (d * He_{d-1}(x_k)^2) that sum to one.
    """
    alpha = complex(alpha)
    root_set = he_roots(d)
    x = np.asarray(root_set.roots, dtype=float)
    h_top = _he_values(d - 1, x)
    log_w = gammaln(d) - math.log(d) - 2.0 * np.log(np.abs(h_top))
    weighted_phase = np.exp(log_w) * np.exp(1j * x * abs(alpha))

    c = np.empty(d, dtype=complex)
    c[0] = weighted_phase.sum()
    if d > 1:
        h_prev = np.ones_like(x)
        h = x.copy()
        for n in range(1, d):
            c[n] = np.sum(h * weighted_phase)
            h, h_prev = x * h - n * h_prev, h

    phi0 = math.atan2(alpha.imag, alpha.real)
    levels = np.arange(d)
    c *= np.exp(-0.5 * gammaln(levels + 1.0))
    c *= np.exp(1j * levels * (phi0 - 0.5 * math.pi))
    return c


def nonlinear_qcs(d: int, alpha: complex) -> FockVector:
    """Truncated-displacement coherent state on d levels.

    Applies exp(alpha a+ - alpha* a), with the ladder operators cut to the
    first d levels, to the vacuum.  At alpha = 0 this is the vacuum; for
    d = 2 and d = 3 the amplitude dependence is exactly periodic.
    """
    if d < 2:
        raise ValueError("dim must be at least 2")
    return FockVector(_nonlinear_coefficients(d, alpha))


def linear_qcs(d: int, beta: complex) -> FockVector:
    """Renormalized truncation of the Poissonian coherent expansion.

    Amplitudes are proportional to beta^n / sqrt(n!) on the surviving
    levels.  Magnitudes are evaluated in the log domain so large |beta|
    stays well-conditioned.
    """
    if d < 2:
        raise ValueError("dim must be at least 2")
    beta = complex(beta)
    if not (math.isfinite(beta.real) and math.isfinite(beta.imag)):
        raise ValueError("amplitude must be finite")
    if beta == 0:
        amps = np.zeros(d, dtype=complex)
        amps[0] = 1.0
        return FockVector(amps)
    levels = np.arange(d)
    log_mag = levels * math.log(abs(beta)) - 0.5 * gammaln(levels + 1.0)
    log_mag -= log_mag.max()
    mag = np.exp(log_mag)
    mag /= np.linalg.norm(mag)
    phase = math.atan2(beta.imag, beta.real)
    return FockVector(mag * np.exp(1j * levels * phase))


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
