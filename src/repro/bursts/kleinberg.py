"""Kleinberg's burst-detection automaton — the paper's baseline [11].

Section 6 positions the moving-average detector against "the work of
[11], where the focus is on the modeling of text streams": Kleinberg's
*Bursty and hierarchical structure in streams* (KDD 2002).  To make that
comparison concrete, this module implements the batched (discrete-count)
variant of Kleinberg's model:

* a hidden automaton with states ``0 .. k-1``; state ``i`` emits daily
  counts from a Poisson distribution with rate ``base_rate * scaling**i``
  (state 0 is the baseline behaviour, higher states are bursts);
* per-day emission cost ``-log P(count | rate_i)``;
* a transition cost ``gamma * (j - i) * log(n)`` for climbing from state
  ``i`` to ``j`` (descending is free), discouraging spurious bursts;
* the optimal state sequence is found by Viterbi dynamic programming,
  and every maximal run in a state ``>= 1`` is reported as a
  :class:`~repro.bursts.protocol.BurstRegion` with its peak level
  (Kleinberg's hierarchical bursts when ``k > 2``) and its burst weight.

The ablation benchmark compares this model-based detector with the
paper's moving-average detector on the synthetic query logs: they agree
on the obvious bursts, while the MA detector is simpler, parameter-light
and much cheaper — exactly the trade-off the paper claims ("our method is
also simpler and less computationally intensive").
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from repro.bursts.protocol import BurstModel, BurstRegion, mask_regions
from repro.timeseries.preprocessing import as_float_array

__all__ = ["KleinbergModel"]


class KleinbergModel(BurstModel):
    """Batched two-(or multi-)state Kleinberg burst automaton.

    The online form is the replay fallback, honestly so: the Poisson
    base rate is the mean of *all* days seen and the Viterbi path is a
    global optimum, so one new day can legitimately re-label history.
    Regions may therefore retract between prefixes; the equivalence
    contract (online == batch at every prefix) still holds exactly,
    because the online form *is* the batch form.

    Parameters
    ----------
    scaling:
        Rate multiplier ``s`` between adjacent states (Kleinberg's
        default 2.0): state ``i`` expects ``s**i`` times the baseline rate.
    gamma:
        Transition-cost coefficient; larger values demand stronger
        evidence before entering (or climbing) a burst state.
    states:
        Number of automaton states ``k >= 2``; 2 reproduces the classic
        two-state detector, more states give a burst hierarchy.
    """

    name = "kleinberg"

    def __init__(
        self, scaling: float = 2.0, gamma: float = 1.0, states: int = 2
    ) -> None:
        if scaling <= 1.0:
            raise ValueError(f"scaling must exceed 1, got {scaling}")
        if gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if states < 2:
            raise ValueError(f"need at least 2 states, got {states}")
        self.scaling = scaling
        self.gamma = gamma
        self.states = states

    # ------------------------------------------------------------------
    # Model pieces
    # ------------------------------------------------------------------
    def _rates(self, counts: np.ndarray) -> np.ndarray:
        base = float(counts.mean())
        if base <= 0.0:
            base = 1e-9
        return base * self.scaling ** np.arange(self.states)

    @staticmethod
    def _emission_costs(counts: np.ndarray, rates: np.ndarray) -> np.ndarray:
        """-log Poisson(count; rate) for every (day, state) pair."""
        counts = counts[:, None]
        rates = rates[None, :]
        return rates - counts * np.log(rates) + gammaln(counts + 1.0)

    def _transition_cost(self, from_state: int, to_state: int, n: int) -> float:
        if to_state <= from_state:
            return 0.0
        return self.gamma * (to_state - from_state) * math.log(n)

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def state_sequence(self, counts) -> np.ndarray:
        """The optimal (Viterbi) automaton state per day."""
        states, _ = self.weighted_states(counts)
        return states

    def weighted_states(self, counts) -> tuple[np.ndarray, np.ndarray]:
        """Optimal states plus the per-day burst weight of each day.

        The weight of day ``t`` is Kleinberg's emission-cost saving
        ``cost(count_t | state 0) - cost(count_t | state_t)`` — how much
        cheaper the day is to explain from its assigned state than from
        the baseline.  Summed over a bursty run it is the run's burst
        weight (zero on baseline days by construction).
        """
        arr = np.maximum(np.round(as_float_array(counts)), 0.0)
        n = arr.size
        rates = self._rates(arr)
        emission = self._emission_costs(arr, rates)
        states = self._viterbi(n, emission)
        days = np.arange(n)
        savings = emission[days, 0] - emission[days, states]
        return states, savings

    def _viterbi(self, n: int, emission: np.ndarray) -> np.ndarray:
        """First-minimum Viterbi path, on Python floats.

        ``k`` states make a day ``k * k`` scalar additions, far below what
        one numpy call costs; a strict ``<`` keeps the lowest state on a
        tie, as ``np.argmin`` does, and the additions are the numpy
        recurrence's in the same order, so the path is bit-for-bit its.
        The default two states run the same additions on two scalars; a
        back-pointer ``True`` (index 1) means the high state was cheaper.
        """
        states = range(self.states)
        # into[j][i]: the cost of entering state j from state i.
        into = [
            [self._transition_cost(i, j, n) for i in states] for j in states
        ]
        days = emission.tolist()
        # Streams start in the baseline state.
        cost = [days[0][0]] + [into[j][0] + days[0][j] for j in states[1:]]
        backpointers = []
        if self.states == 2:
            (stay, fall), (climb, hold) = into
            low, high = cost
            for e_low, e_high in days[1:]:
                a, b, c, d = low + stay, high + fall, low + climb, high + hold
                fell, held = b < a, d < c
                backpointers.append((fell, held))
                low, high = (b if fell else a) + e_low, (d if held else c) + e_high
            cost = [low, high]
        else:
            for today in days[1:]:
                arrived, best_from = [], []
                for climb, emitted in zip(into, today):
                    best, source = cost[0] + climb[0], 0
                    for i in states[1:]:
                        step = cost[i] + climb[i]
                        if step < best:
                            best, source = step, i
                    arrived.append(best + emitted)
                    best_from.append(source)
                cost = arrived
                backpointers.append(best_from)

        path = [min(states, key=cost.__getitem__)]
        for best_from in reversed(backpointers):
            path.append(best_from[path[-1]])
        return np.array(path[::-1], dtype=np.intp)

    def detect(self, values) -> list[BurstRegion]:
        """Maximal bursty runs (state >= 1), with peak level and weight."""
        states, savings = self.weighted_states(values)
        regions: list[BurstRegion] = []
        for start, end in mask_regions(states >= 1):
            level = int(np.maximum.reduce(states[start : end + 1]))
            weight = float(np.add.reduce(savings[start : end + 1]))
            regions.append(BurstRegion(start, end, weight, level=level))
        return regions
