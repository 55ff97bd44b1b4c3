"""Core domain types shared by every predictor and the evaluation harness.

Probability vectors are plain float64 numpy arrays ordered like the active
:class:`RaceSet`.  A model that cannot score a record declines it: its row
of :class:`Scores` holds zeros and a reason code from
:data:`DECLINE_REASONS`, and the coverage metric counts the rows with
code 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NameproxyError

#: Canonical four-category race set, in fixed index order.
DEFAULT_RACES = ("asian", "black", "hispanic", "white")

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RaceSet:
    """Ordered, immutable list of race category labels.

    Index ``i`` refers to the same category for the lifetime of a run;
    every probability vector in the system is ordered this way.
    """

    labels: tuple[str, ...] = DEFAULT_RACES

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("race set must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError(f"race labels must be unique, got {labels!r}")
        # each label is a CSV header field and a race cell, read back as is
        for label in labels:
            if not (isinstance(label, str) and label and label == label.strip()) or (
                {*label} & {*",\r\n"}
            ):
                raise ValueError(f"race label {label!r} is empty, padded, or holds , \\r or \\n")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def __contains__(self, label: str) -> bool:
        return label in self.labels


@dataclass(frozen=True, eq=False)
class People:
    """Columns of voter-style records, one entry per person in each.

    ``race[i]`` is the index of person ``i``'s race in ``races``, or -1
    when it is not known.  Geography ids are compared as they are, so a
    reader strips them before they get here.
    """

    first: list[str]
    last: list[str]
    geo: list[str]
    race: np.ndarray
    races: RaceSet = field(default_factory=RaceSet)

    def __post_init__(self):
        race = np.asarray(self.race, dtype=np.intp).reshape(-1)
        if not len(self.first) == len(self.last) == len(self.geo) == race.size:
            raise ValueError("people columns must have equal lengths")
        if race.size and (race.min() < -1 or race.max() >= len(self.races)):
            raise ValueError(f"race indices must lie in [-1, {len(self.races)})")
        object.__setattr__(self, "race", race)

    def __len__(self) -> int:
        return len(self.first)

    def take(self, rows) -> "People":
        """The people at ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        first, last, geo = (
            [column[i] for i in rows.tolist()] for column in (self.first, self.last, self.geo)
        )
        return People(first, last, geo, self.race[rows], self.races)


#: Why a model declined a record; a record's int reason code is its index
#: here, and code 0 means the model covered it.
UNKNOWN_SURNAME = "unknown_surname"
UNKNOWN_FIRSTNAME = "unknown_firstname"
UNKNOWN_GEO = "unknown_geo"
ZERO_MASS = "zero_mass"
UNENCODABLE_NAME = "unencodable_name"
#: a decline read back from a predictions file, which does not say why
DECLINED = "declined"
NO_MEMBER = "no_member"
DECLINE_REASONS = (
    None,
    UNKNOWN_SURNAME,
    UNKNOWN_FIRSTNAME,
    UNKNOWN_GEO,
    ZERO_MASS,
    UNENCODABLE_NAME,
    DECLINED,
    NO_MEMBER,
)
REASON_CODE = {reason: code for code, reason in enumerate(DECLINE_REASONS)}


class Scores(NamedTuple):
    """One model's output over a column of records.

    ``probs`` is ``(n, races)`` with all-zero rows where the model
    declined; ``reason`` holds each row's code in :data:`DECLINE_REASONS`.
    """

    probs: np.ndarray
    reason: np.ndarray

    @property
    def covered(self) -> np.ndarray:
        return self.reason == 0

    def row(self, i: int):
        """``(probability vector or None, decline reason or None)`` of row ``i``."""
        code = int(self.reason[i])
        return (self.probs[i] if code == 0 else None), DECLINE_REASONS[code]

    def histogram(self) -> dict[str, int]:
        """Rows per decline reason (``"covered"`` for code 0)."""
        counts = np.bincount(self.reason, minlength=len(DECLINE_REASONS))
        return {
            reason or "covered": int(count)
            for reason, count in zip(DECLINE_REASONS, counts)
            if count
        }


def renormalize_rows(raw) -> np.ndarray:
    """Scale each row of a 2-d array of non-negative reals so it sums to 1.

    Exactly idempotent: a row whose sum already sits within the
    floating-point error band of 1.0 is returned unchanged, and a single
    division always lands inside that band.

    Raises:
        NameproxyError: some row is all zeros.
        ValueError: any entry is negative or non-finite.
    """
    x = np.asarray(raw, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("probability mass must be finite")
    if (x < 0).any():
        raise ValueError("probability mass must be non-negative")
    s = x.sum(axis=1)
    if (s == 0.0).any():
        raise NameproxyError("cannot normalize a vector of zeros")
    in_band = np.abs(s - 1.0) <= 64.0 * x.shape[1] * _EPS
    return np.where(in_band[:, None], x, x / s[:, None])
