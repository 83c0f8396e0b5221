"""Quantitative nonclassicality measures via a balanced beam splitter.

A single-mode state sent through a 50:50 beam splitter (vacuum in the other
port) becomes two-mode; its entanglement quantifies the nonclassicality of
the input.  Two routes are provided for both negativity and concurrence:
an entrywise closed form, and the exact evaluation from the two-mode
amplitudes.  The closed forms coincide with the exact values on number
states and upper-bound them on superpositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FockVector, StateBlock, libm_pow

TWO_MODE_NORM_TOL = 1e-9

#: Complex entries in one stack of two-mode amplitude matrices that the exact
#: measures build at a time (at least one state per stack), which bounds
#: their memory on long grids at large d.
TWO_MODE_CHUNK = 8192


@dataclass(frozen=True)
class TwoModeAmplitudes:
    """Two-mode amplitudes after the splitter; entry [j, i] pairs |j> with |i>.

    Total photon number is conserved, so everything below the main
    anti-diagonal (j + i > dim - 1) is exactly zero.
    """

    dim: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amps, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise ValueError("amplitude matrix shape must be (dim, dim)")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > TWO_MODE_NORM_TOL:
            raise ValueError(f"two-mode norm {norm!r} deviates from 1")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)


@dataclass(frozen=True)
class _SplitTable:
    """The splitter's factors on d levels, over the entries (j, n - j), n < d.

    ``level``, ``left`` and ``right`` index n, j and n - j of each entry and
    ``sqrt_binomial`` holds its sqrt(C(n, j)); ``row_sums`` is that summed
    over j (left to right) and ``scale`` is 2^(-n/2), both per level n.
    """

    level: np.ndarray
    left: np.ndarray
    right: np.ndarray
    sqrt_binomial: np.ndarray
    row_sums: np.ndarray
    scale: np.ndarray


@lru_cache(maxsize=None)
def _split_table(d: int) -> _SplitTable:
    rows = [[math.sqrt(math.comb(n, j)) for j in range(n + 1)] for n in range(d)]
    level = np.repeat(np.arange(d), np.arange(1, d + 1))
    left = np.concatenate([np.arange(n + 1) for n in range(d)])
    table = _SplitTable(
        level=level,
        left=left,
        right=level - left,
        sqrt_binomial=np.array([v for row in rows for v in row]),
        row_sums=np.array([sum(row) for row in rows]),
        scale=np.array([2.0 ** (-0.5 * n) for n in range(d)]),
    )
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


def _split_stack(amps: np.ndarray) -> np.ndarray:
    """Two-mode amplitudes after the splitter for each row of an (S, d) array.

    |n> splits into a superposition over (j, n-j) with amplitude
    2^(-n/2) sqrt(C(n, j)); the result has shape (S, d, d).
    """
    d = amps.shape[1]
    table = _split_table(d)
    scaled = amps * table.scale
    out = np.zeros((amps.shape[0], d, d), dtype=complex)
    out[:, table.left, table.right] = scaled[:, table.level] * table.sqrt_binomial
    return out


def beamsplit(state: FockVector) -> TwoModeAmplitudes:
    """Send the state through a balanced splitter with vacuum in port two.

    |n> splits into a superposition over (j, n-j) with amplitude
    2^(-n/2) sqrt(C(n, j)).
    """
    return TwoModeAmplitudes(dim=state.dim, amps=_split_stack(state.amps[None, :])[0])


def _moduli(block: StateBlock) -> np.ndarray:
    # |c_n| as abs() gives it for one amplitude (libm hypot); np.abs on a
    # complex array takes a SIMD route that differs in the last bit.
    return block.memo("moduli", lambda: np.hypot(block.amps.real, block.amps.imag))


def negativity_closed_form_block(block: StateBlock) -> np.ndarray:
    """``negativity_potential_closed_form`` of every state of the block."""
    table = _split_table(block.dim)
    moduli = _moduli(block)
    total = np.zeros(len(block))
    for n in range(block.dim):
        total = total + moduli[:, n] * table.scale[n] * table.row_sums[n]
    return np.array([2.0 * math.log2(t) for t in total.tolist()])


def negativity_potential_closed_form(state: FockVector) -> float:
    """Logarithmic negativity of the split state, entrywise closed form.

    2 log2 of the absolute sum of the two-mode amplitudes.  Exact on number
    states; an upper bound on superpositions (the absolute entry sum
    dominates the trace norm).
    """
    return float(negativity_closed_form_block(StateBlock.of(state))[0])


def _log_negativity_stack(stack: np.ndarray) -> list[float]:
    # 2 log2 of the singular-value sum of each amplitude matrix.
    sigma_sums = np.linalg.svd(stack, compute_uv=False).sum(axis=1)
    return [2.0 * math.log2(s) for s in sigma_sums.tolist()]


def log_negativity_exact(two_mode: TwoModeAmplitudes) -> float:
    """Exact logarithmic negativity: 2 log2 of the singular-value sum.

    For a pure two-mode state the trace norm of the partial transpose is
    the squared sum of Schmidt coefficients, i.e. of singular values of the
    amplitude matrix.
    """
    return _log_negativity_stack(two_mode.amps[None])[0]


def _purity_proxy(block: StateBlock) -> np.ndarray:
    # Diagonal-in-n part of the reduced purity: sum |c_n|^4 4^-n sum_j C(n,j)^2,
    # where sum_j C(n,j)^2 = C(2n, n) (Vandermonde).
    fourth = libm_pow(_moduli(block), 4)
    total = np.zeros(len(block))
    for n in range(block.dim):
        total = total + fourth[:, n] * 4.0 ** (-n) * float(math.comb(2 * n, n))
    return total


def concurrence_closed_form_block(block: StateBlock) -> np.ndarray:
    """``concurrence_closed_form`` of every state of the block."""
    return np.sqrt(np.maximum(2.0 * (1.0 - _purity_proxy(block)), 0.0))


def concurrence_closed_form(state: FockVector) -> float:
    """Concurrence of the split state from the closed-form purity proxy.

    sqrt(2 (1 - T)) where T keeps only the diagonal-in-n part of the
    reduced purity; exact on number states, an overestimate otherwise.
    """
    return float(concurrence_closed_form_block(StateBlock.of(state))[0])


def _concurrence_stack(stack: np.ndarray) -> list[float]:
    # From the exact reduced purity of one output mode of each matrix.
    rho = stack @ stack.conj().transpose(0, 2, 1)
    purity = (np.abs(rho) ** 2).reshape(len(stack), -1).sum(axis=1)
    return np.sqrt(np.maximum(2.0 * (1.0 - purity), 0.0)).tolist()


def concurrence_exact(two_mode: TwoModeAmplitudes) -> float:
    """Concurrence from the exact reduced purity of one output mode."""
    return _concurrence_stack(two_mode.amps[None])[0]


def exact_measures(block: StateBlock, idents) -> dict[str, np.ndarray]:
    """The exact measures of the split states among the sweep quantity ids
    ``idents`` ("negativity_exact", "concurrence_exact"), for every row.

    The values are kept on the block.  Those not kept yet are computed
    together, at most TWO_MODE_CHUNK two-mode amplitudes at a time: each
    chunk's amplitudes are built once and serve every measure asked for.
    """
    kernels = {"negativity_exact": _log_negativity_stack, "concurrence_exact": _concurrence_stack}
    names = [ident for ident in dict.fromkeys(idents) if ident in kernels]
    missing = [name for name in names if ("exact", name) not in block.kept]
    if missing:
        rows = max(1, TWO_MODE_CHUNK // block.dim**2)
        values: dict[str, list] = {name: [] for name in missing}
        for first in range(0, len(block), rows):
            stack = _split_stack(block.amps[first : first + rows])
            for name in missing:
                values[name].extend(kernels[name](stack))
        for name in missing:
            block.kept["exact", name] = np.array(values[name])
    return {name: block.kept["exact", name] for name in names}


def anticlassicality_block(
    block: StateBlock, exclude_vacuum: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``anticlassicality`` of every state of the block, as two arrays."""
    p = block.probabilities
    if exclude_vacuum:
        if block.dim < 2:
            raise ValueError("excluding the vacuum needs at least two levels")
        idx = 1 + p[:, 1:].argmax(axis=1)
    else:
        idx = p.argmax(axis=1)
    return p[np.arange(len(block)), idx], idx


def anticlassicality(state: FockVector, exclude_vacuum: bool) -> tuple[float, int]:
    """Largest number-state population and where it sits.

    With exclude_vacuum the search starts at level 1 (the vacuum population
    is not counted as nonclassical).  Ties resolve to the smaller level.
    """
    value, idx = anticlassicality_block(StateBlock.of(state), exclude_vacuum)
    return float(value[0]), int(idx[0])


@dataclass(frozen=True)
class MeasureReport:
    """All measures for one state, both closed-form and exact routes."""

    negativity_closed_form: float
    negativity_exact: float
    concurrence_closed_form: float
    concurrence_exact: float
    anticlassicality: float
    anticlassicality_excl_vacuum: float
    argmax_n: int

    def as_dict(self) -> dict:
        return {
            "negativity_closed_form": self.negativity_closed_form,
            "negativity_exact": self.negativity_exact,
            "concurrence_closed_form": self.concurrence_closed_form,
            "concurrence_exact": self.concurrence_exact,
            "anticlassicality": self.anticlassicality,
            "anticlassicality_excl_vacuum": self.anticlassicality_excl_vacuum,
            "argmax_n": self.argmax_n,
        }


def measure_report(state: FockVector) -> MeasureReport:
    two_mode = beamsplit(state)
    a_all, _ = anticlassicality(state, exclude_vacuum=False)
    a_one, argmax_n = anticlassicality(state, exclude_vacuum=True)
    return MeasureReport(
        negativity_closed_form=negativity_potential_closed_form(state),
        negativity_exact=log_negativity_exact(two_mode),
        concurrence_closed_form=concurrence_closed_form(state),
        concurrence_exact=concurrence_exact(two_mode),
        anticlassicality=a_all,
        anticlassicality_excl_vacuum=a_one,
        argmax_n=argmax_n,
    )
