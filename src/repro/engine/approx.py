"""The opt-in approximate search tier: one policy object, two knobs.

The engine is exact by construction — LB-ordered refinement around the
:math:`\\sigma_{UB}` filter (fig. 11).  The Lernaean Hydra evaluations
(Echihabi et al.) show that two small relaxations of exactly this loop
buy most of the approximate-search latency win while staying honest
about quality, and both are pure *restrictions* of the exact engine's
work:

* **ε-relaxed pruning** (``epsilon``): k-NN refinement terminates once
  the next lower bound exceeds :math:`cutoff / (1+\\varepsilon)`, where
  the cutoff is the running best-so-far k-th distance — a distance the
  engine *does* report.  Every member left behind has true distance at
  least its lower bound, hence more than
  :math:`reported_k / (1+\\varepsilon)` — the classic guarantee: every
  reported distance is within :math:`(1+\\varepsilon)` of the true
  k-th-NN distance.  (The relaxation deliberately does **not** touch
  the σ_UB filter: the members achieving σ_UB could themselves be
  skipped by a relaxed filter, which would void the guarantee.)  Range
  search relaxes against its fixed radius instead, so missed matches
  are confined to the :math:`(r/(1+\\varepsilon), r]` annulus.
* **patience early-stop** (``patience``): refinement stops after that
  many consecutive candidates are consumed with no top-k improvement.
  This is a heuristic — it carries no ε-guarantee — so its quality is
  *measured*, not assumed: ``bench/`` reports ``recall_at_10`` of the
  default knobs against a brute-force oracle on ``knn-sharded-pool``.

``ApproxPolicy(0.0, None)`` — the default — is bit-identical to the
exact engine: the relaxation factor multiplies lower bounds by exactly
``1.0`` (an IEEE no-op) and no stop counter is armed, so the exact tier
remains the executable specification (see docs/APPROX.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ReproError

__all__ = [
    "DEFAULT_EPSILON",
    "DEFAULT_PATIENCE",
    "ApproxPolicy",
    "resolve_policy",
]

#: The documented opt-in knobs (:meth:`ApproxPolicy.default`), tuned
#: once for recall@10 >= 0.95 with measurable work saved
#: (docs/APPROX.md): 0.981 recall at 0.49x the exact tier's retrievals.
DEFAULT_EPSILON = 0.05
DEFAULT_PATIENCE = 128


@dataclass(frozen=True)
class ApproxPolicy:
    """How much exactness a query trades for speed.

    Attributes
    ----------
    epsilon:
        Relative pruning slack.  ``0.0`` keeps the exact thresholds;
        ``0.1`` lets the verifier skip any candidate provably more than
        10% further than the reported k-th distance.
    patience:
        Consecutive consumed candidates without a top-k improvement
        before refinement stops (``None``: never stop early).  The unit
        is a candidate at every verify block size, so the knob's meaning
        does not depend on ``REPRO_VERIFY_BLOCK``.
    """

    epsilon: float = 0.0
    patience: int | None = None

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
        if self.patience is not None and (
            not isinstance(self.patience, int) or self.patience < 1
        ):
            raise ReproError(
                f"ApproxPolicy.patience must be None or an integer >= 1, "
                f"got {self.patience!r}"
            )

    @property
    def exact(self) -> bool:
        """``True`` when this policy cannot change any answer."""
        return self.epsilon == 0.0 and self.patience is None

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
        """The documented opt-in knobs; ``bench/`` measures their recall."""
        return cls(epsilon=DEFAULT_EPSILON, patience=DEFAULT_PATIENCE)

    def wire(self) -> tuple[float, int | None]:
        """The policy as a plain ``(epsilon, patience)`` tuple."""
        return (self.epsilon, self.patience)


def resolve_policy(policy: ApproxPolicy | None) -> ApproxPolicy:
    """An explicit policy as given; ``None`` is the exact policy."""
    if policy is None:
        return ApproxPolicy()
    if not isinstance(policy, ApproxPolicy):
        raise ReproError(
            f"policy must be an ApproxPolicy or None, got {policy!r}"
        )
    return policy
