"""The opt-in approximate search tier: one policy object, one knob.

The engine is exact by construction — LB-ordered refinement around the
:math:`\\sigma_{UB}` filter (fig. 11).  The Lernaean Hydra evaluations
(Echihabi et al.) show that relaxing exactly this loop buys most of the
approximate-search latency win while keeping a proven quality bound,
and the relaxation is a pure *restriction* of the exact engine's work:

**ε-relaxed pruning** (``epsilon``): k-NN refinement terminates once
the next lower bound exceeds :math:`cutoff / (1+\\varepsilon)`, where
the cutoff is the running best-so-far k-th distance — a distance the
engine *does* report.  Every member left behind has true distance at
least its lower bound, hence more than
:math:`reported_k / (1+\\varepsilon)` — the classic guarantee: every
reported distance is within :math:`(1+\\varepsilon)` of the true
k-th-NN distance.  (The relaxation deliberately does **not** touch the
σ_UB filter: the members achieving σ_UB could themselves be skipped by
a relaxed filter, which would void the guarantee.)  Range search
relaxes against its fixed radius instead, so missed matches are
confined to the :math:`(r/(1+\\varepsilon), r]` annulus.

``ApproxPolicy(0.0)`` — the default — is bit-identical to the exact
engine: the relaxation factor multiplies lower bounds by exactly
``1.0`` (an IEEE no-op), so the exact tier remains the executable
specification (see docs/APPROX.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ReproError

__all__ = [
    "DEFAULT_EPSILON",
    "ApproxPolicy",
    "resolve_policy",
]

#: The documented opt-in knob (:meth:`ApproxPolicy.default`).
DEFAULT_EPSILON = 0.05


@dataclass(frozen=True)
class ApproxPolicy:
    """How much exactness a query trades for speed.

    Attributes
    ----------
    epsilon:
        Relative pruning slack.  ``0.0`` keeps the exact thresholds;
        ``0.1`` lets the verifier skip any candidate provably more than
        10% further than the reported k-th distance.
    """

    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.epsilon, (int, float)) or not math.isfinite(
            self.epsilon
        ):
            raise ReproError(
                f"ApproxPolicy.epsilon must be a finite number, "
                f"got {self.epsilon!r}"
            )
        if self.epsilon < 0:
            raise ReproError(
                f"ApproxPolicy.epsilon must be >= 0, got {self.epsilon!r}"
            )

    @property
    def exact(self) -> bool:
        """``True`` when this policy cannot change any answer."""
        return self.epsilon == 0.0

    @property
    def relax_sq(self) -> float:
        """The squared-domain relaxation factor :math:`(1+\\varepsilon)^2`.

        The verifier compares ``lb_sq * relax_sq`` against its squared
        thresholds — equivalent to relaxing the threshold itself to
        :math:`t/(1+\\varepsilon)` but computed on the candidate side so
        the exact case multiplies by exactly ``1.0`` (bitwise no-op).
        """
        return (1.0 + self.epsilon) ** 2

    @classmethod
    def default(cls) -> "ApproxPolicy":
        """The documented opt-in knob; ``bench/`` measures its recall."""
        return cls(epsilon=DEFAULT_EPSILON)

    def wire(self) -> tuple[float]:
        """The policy as a plain ``(epsilon,)`` tuple."""
        return (self.epsilon,)


def resolve_policy(policy: ApproxPolicy | None) -> ApproxPolicy:
    """An explicit policy as given; ``None`` is the exact policy."""
    if policy is None:
        return ApproxPolicy()
    if not isinstance(policy, ApproxPolicy):
        raise ReproError(
            f"policy must be an ApproxPolicy or None, got {policy!r}"
        )
    return policy
