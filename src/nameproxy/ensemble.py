"""Equal-weight averaging over whichever member models made a prediction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import NO_MEMBER, REASON_CODE, Scores, renormalize_rows

#: The predict models an ensemble member may name (every one but the
#: ensemble itself).
MEMBER_MODELS = ("first_last", "first_last_zcta", "bisg", "bifsg")

#: Member ids may name the improved (merged-table) variants; they run the
#: same machinery, the tables in the config decide the rest.
MEMBER_ALIASES = {"ibisg": "bisg", "ibifsg": "bifsg"}

#: Default member ids: the geography-augmented name model plus the two
#: Bayes predictors built on merged (internal + external) tables.
DEFAULT_MEMBERS = ("first_last_zcta", "ibisg", "ibifsg")


@dataclass(frozen=True)
class EnsembleSpec:
    """Ordered member model ids and their positive weights."""

    members: tuple[str, ...] = DEFAULT_MEMBERS
    weights: tuple[float, ...] = field(default=None)

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        weights = self.weights
        if weights is None:
            weights = (1.0,) * len(members)
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(members):
            raise ValueError("weights must align with members")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "weights", weights)


def ensemble_predict(predictions, spec: EnsembleSpec) -> np.ndarray | None:
    """Weighted mean of the present member predictions, renormalized.

    ``predictions`` aligns with ``spec.members``; ``None`` entries are
    members that declined.  Weights are renormalized over the present
    members for each call, so every member that can predict carries its
    full relative weight.  Returns ``None`` only when every member
    declined.  One row of :func:`ensemble_scores`.
    """
    if len(predictions) != len(spec.members):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(spec.members)} members"
        )
    present = [np.asarray(p, dtype=np.float64) for p in predictions if p is not None]
    if not present:
        return None
    width = present[0].size
    members = [
        Scores(np.zeros((1, width)), np.array([REASON_CODE[NO_MEMBER]], dtype=np.int8))
        if p is None
        else Scores(np.asarray(p, dtype=np.float64).reshape(1, -1), np.zeros(1, dtype=np.int8))
        for p in predictions
    ]
    return ensemble_scores(members, spec).row(0)[0]


def ensemble_scores(members, spec: EnsembleSpec) -> Scores:
    """:func:`ensemble_predict` over columns: one :class:`Scores` per member.

    Per record, members that agree exactly pass their vector through
    unchanged; otherwise the present members' weighted sum, divided by
    their total weight, is renormalized.  A record no member covers
    declines as ``no_member``.
    """
    if len(members) != len(spec.members):
        raise ValueError(f"got {len(members)} members for {len(spec.members)} in the spec")
    n, width = members[0].probs.shape
    covered = [m.covered for m in members]
    first = np.zeros((n, width))
    seen = np.zeros(n, dtype=bool)
    for member, cov in zip(members, covered):
        take = cov & ~seen
        first[take] = member.probs[take]
        seen |= cov
    unanimous = seen.copy()
    for member, cov in zip(members, covered):
        unanimous &= ~cov | (member.probs == first).all(axis=1)
    mixed = seen & ~unanimous
    acc = np.zeros((int(mixed.sum()), width))
    total = np.zeros(acc.shape[0])
    for member, cov, weight in zip(members, covered, spec.weights):
        # a member adds to a record's sums only where it covers it
        rows = cov[mixed]
        acc[rows] += weight * member.probs[mixed][rows]
        total[rows] += weight
    probs = np.where(unanimous[:, None], first, 0.0)
    probs[mixed] = renormalize_rows(acc / total[:, None])
    reason = np.where(seen, 0, REASON_CODE[NO_MEMBER]).astype(np.int8)
    return Scores(probs, reason)
