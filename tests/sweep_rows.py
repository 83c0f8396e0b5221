"""The rows of a sweep result, for tests that check cells one row at a time."""

import numpy as np

from quditnc.sweep import SINGULAR_SENTINEL


def sweep_rows(result):
    """Each row's d, amplitude and cells (column name -> float or sentinel)."""
    for d, cells, singular in result.levels:
        columns = np.where(singular, SINGULAR_SENTINEL, cells.astype(object)).tolist()
        for amp, *row in zip(*columns):
            yield d, amp, dict(zip(result.names, row))
