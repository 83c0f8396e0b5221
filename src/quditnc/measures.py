"""Quantitative nonclassicality measures via a balanced beam splitter.

A single-mode state sent through a 50:50 beam splitter (vacuum in the other
port) becomes two-mode; its entanglement quantifies the nonclassicality of
the input.  Two routes are provided for both negativity and concurrence:
an entrywise closed form, and the exact evaluation from the two-mode
amplitudes.  The closed forms coincide with the exact values on number
states and upper-bound them on superpositions.

Each measure takes a ``StateBlock`` and gives one value per row; a
``FockVector`` is a block of one.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fock import StateBlock, level_sum
from .states import block_rows

__all__ = [
    "anticlassicality", "concurrence_closed_form", "concurrence_exact", "log_negativity_exact",
    "negativity_potential_closed_form",
]

class _SplitTable(NamedTuple):
    """The splitter's factors on d levels.

    ``sqrt_binomial`` is the (d, d) matrix of sqrt(C(j + i, j)) at [j, i],
    0 from j + i = d on; ``row_sums`` is sqrt(C(n, j)) summed over j (left
    to right) and ``scale`` is 2^(-n/2), both per level n.
    """

    sqrt_binomial: np.ndarray
    row_sums: np.ndarray
    scale: np.ndarray


@lru_cache(maxsize=1)  # d x d: every verb works through one level count at a time
def _split_table(d: int) -> _SplitTable:
    # The largest C(n, j) with n < d is the central one: if it leaves the double
    # range, raise the OverflowError of math.sqrt before building any row.
    float(math.comb(d - 1, (d - 1) // 2))
    sqrt_binomial, row_sums = np.zeros((d, d)), np.empty(d)
    pascal = [1]  # C(n, 0..n) as exact integers, each row from the last by addition
    for n in range(d):
        row = list(map(math.sqrt, pascal))
        # [j, n - j] for j = 0..n: the n-th anti-diagonal, every (d - 1)-th flat entry.
        sqrt_binomial.reshape(-1)[n : n * d + 1 : max(d - 1, 1)] = row
        row_sums[n] = sum(row)
        pascal = list(map(operator.add, [0, *pascal], [*pascal, 0]))
    table = _SplitTable(sqrt_binomial, row_sums, np.array([2.0 ** (-0.5 * n) for n in range(d)]))
    for arr in table:
        arr.setflags(write=False)
    return table


def _moduli(block: StateBlock) -> np.ndarray:
    # |c_n| as abs() gives it for one amplitude (libm hypot); np.abs on a
    # complex array takes a SIMD route that differs in the last bit.
    return block.memo("moduli", lambda: np.hypot(block.rows.real, block.rows.imag))


def _log_negativities(norms: np.ndarray) -> np.ndarray:
    # 2 log2 of each trace norm, or of the entry sum that bounds it.
    return np.array([2.0 * math.log2(s) for s in norms.tolist()])


def negativity_potential_closed_form(block: StateBlock) -> np.ndarray:
    """Logarithmic negativity of each split state, entrywise closed form.

    2 log2 of the absolute sum of the two-mode amplitudes.  Exact on number
    states; an upper bound on superpositions (the absolute entry sum
    dominates the trace norm).
    """
    table = _split_table(block.dim)
    return _log_negativities(level_sum(_moduli(block) * table.scale, table.row_sums))


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    # The singular-value sum of each amplitude matrix.  A real stack is real
    # symmetric, so its singular values are |eigenvalues|.
    if np.iscomplexobj(stack):
        return np.linalg.svd(stack, compute_uv=False).sum(axis=1)
    return np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)


@lru_cache(maxsize=1)  # every verb works through one level count at a time
def _purity_weights(d: int) -> np.ndarray:
    # C(2n, n)/4^n for n < d: below 1, and correctly rounded as the division would be.  It is
    # v 2^s, v a 128-bit integer stepped from n to n + 1 by (2n + 1)/(2n + 2) and truncated,
    # which leaves v below the exact value by less than 8(n + 1) units.  The top 64 bits of v,
    # their lowest one set if any bit below them is (a sticky bit), round once to a double
    # and ldexp scales it exactly; where a rounding boundary of the double lies within that
    # bound of v, math.comb gives the entry.  Linear in d: C(2n, n) itself grows by a bit
    # per level.
    weights, v, s = np.empty(d), 1 << 127, -127
    for n in range(d):
        if abs((v & (1 << 75) - 1) - (1 << 74)) <= 8 * (n + 1):
            weights[n] = math.comb(2 * n, n) / 4**n
        else:
            top = v >> 64
            weights[n] = math.ldexp(top | (top << 64 != v), s + 64)
        v, s = v * (4 * n + 2) // (2 * n + 2), s - 1
        if v >> 128:
            v, s = v >> 1, s + 1
    weights.setflags(write=False)
    return weights


def _purity_proxy(block: StateBlock) -> np.ndarray:
    # Diagonal-in-n part of the reduced purity: sum |c_n|^4 4^-n sum_j C(n,j)^2,
    # where sum_j C(n,j)^2 = C(2n, n) (Vandermonde).
    return level_sum(np.float_power(_moduli(block), 4), _purity_weights(block.dim))


def _concurrences(purities: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(2.0 * (1.0 - purities), 0.0))


def concurrence_closed_form(block: StateBlock) -> np.ndarray:
    """Concurrence of each split state from the closed-form purity proxy.

    sqrt(2 (1 - T)) where T keeps only the diagonal-in-n part of the
    reduced purity; exact on number states, an overestimate otherwise.
    """
    return _concurrences(_purity_proxy(block))


def _purities(stack: np.ndarray) -> np.ndarray:
    # The exact reduced purity of one output mode of each matrix: the
    # squared sum of the entries of A A^H.
    if np.iscomplexobj(stack):
        rho = np.abs(stack @ stack.conj().transpose(0, 2, 1)) ** 2
    else:
        rho = stack @ stack.transpose(0, 2, 1)
        rho *= rho
    return rho.reshape(len(stack), -1).sum(axis=1)


def _two_mode_sums(block: StateBlock, kernel) -> np.ndarray:
    """``kernel``'s value (``_trace_norms`` or ``_purities``) of each row's split state.

    The two-mode matrices are built ``block_rows(d * d)`` at a time, the sweep's block
    rule: each chunk is one product of the rows' Hankel windows with the splitter's
    sqrt(C) matrix.  The rows whose amplitudes have no imaginary part are chunked apart
    from the others and split into float64 matrices, so each row takes its route
    (eigenvalues or SVD) whatever block it sits in.
    """
    d, table = block.dim, _split_table(block.dim)
    step, sums = block_rows(d * d), np.empty(len(block))
    complex_rows = block.rows.imag.any(axis=1)
    for picked, amps in ((~complex_rows, block.rows.real), (complex_rows, block.rows)):
        index = np.flatnonzero(picked)
        # W[s, j, i] = c_{j+i} 2^(-(j+i)/2), 0 from j + i = d on: the Hankel windows of each
        # scaled row, zero-padded to 2d - 1.  Times sqrt_binomial it is the two-mode matrix
        # after the splitter: |n> goes to (j, n - j) with amplitude 2^(-n/2) sqrt(C(n, j)).
        padded = np.zeros((len(index), 2 * d - 1), amps.dtype)
        np.multiply(amps[index], table.scale, out=padded[:, :d])
        windows = sliding_window_view(padded, d, axis=1)
        for first in range(0, len(index), step):
            chunk = slice(first, first + step)
            sums[index[chunk]] = kernel(windows[chunk] * table.sqrt_binomial)
    return sums


def log_negativity_exact(block: StateBlock) -> np.ndarray:
    """Exact logarithmic negativity of each split state: 2 log2 of the
    singular-value sum of its two-mode amplitude matrix.

    For a pure two-mode state the trace norm of the partial transpose is
    the squared sum of Schmidt coefficients, i.e. of singular values of the
    amplitude matrix.  A real amplitude matrix is symmetric, and its
    singular values are the moduli of its eigenvalues.
    """
    return _log_negativities(_two_mode_sums(block, _trace_norms))


def concurrence_exact(block: StateBlock) -> np.ndarray:
    """Concurrence of each split state from the exact reduced purity of one output mode."""
    return _concurrences(_two_mode_sums(block, _purities))


def anticlassicality(block: StateBlock, exclude_vacuum: bool) -> tuple[np.ndarray, np.ndarray]:
    """Largest number-state population of each state, and the level where it sits.

    With exclude_vacuum the search starts at level 1 (the vacuum population
    is not counted as nonclassical).  Ties resolve to the smaller level.
    """
    p = block.probabilities
    if exclude_vacuum:
        if block.dim < 2:
            raise ValueError("excluding the vacuum needs at least two levels")
        idx = 1 + p[:, 1:].argmax(axis=1)
    else:
        idx = p.argmax(axis=1)
    return p[np.arange(len(block)), idx], idx
