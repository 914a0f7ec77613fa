"""Inputs on which the engine's 8-bit row codes are coarse.

A sketch index bounds every sketch survivor from its resident row codes
before reading any row (``docs/ENGINE.md``, "The row-code stage").  On
ordinary rows that bound is tight, and an exact k-NN query reads little
more than its k answers.  Tests whose premise is that the exact tier
reads *more* — an ε skip, a corrupt row that some
query must reach — pass their rows and queries through :func:`spiked`.
The same large spike on the same day of every series stretches each
row's quantisation step to about ``SPIKE / 255``, and with it the code
bound's slack ``√n · step / 2``, past every distance in the database;
yet the spikes cancel in every difference, so distances, answers and
ties are the unspiked ones.
"""

import numpy as np

#: Spike height; the code bound's slack is about ``√n · SPIKE / 510``.
SPIKE = 1000.0


def spiked(rows, height=SPIKE):
    """``rows`` (one series or a matrix) with ``height`` added on day 0."""
    rows = np.array(rows, dtype=np.float64)
    rows[..., 0] += height
    return rows
