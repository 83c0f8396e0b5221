"""The rows of a sweep result, for tests that check cells one row at a time."""

import numpy as np

from quditnc.sweep import SINGULAR_SENTINEL


def sweep_rows(result):
    """Each row's d, amplitude and cells (column name -> float or sentinel)."""
    for d, amps, values, singular in result.levels:
        columns = np.where(singular, SINGULAR_SENTINEL, values.astype(object)).tolist()
        for amp, *cells in zip(amps.tolist(), *columns):
            yield d, amp, dict(zip(result.names, cells))
