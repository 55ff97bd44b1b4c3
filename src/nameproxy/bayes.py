"""Closed-form Bayes predictors over the probability tables.

Three predictors share one pattern: multiply a race prior by per-race
likelihood factors and renormalize.

* ``bisg``        -- posterior from surname prior and geography:
  ``P(r | s, g) ∝ P(r | s) * P(g | r)``
* ``bifsg``       -- adds a first-name likelihood factor:
  ``P(r | s, f, g) ∝ P(r | s) * P(f | r) * P(g | r)``
* ``geo_augment`` -- applies the geography factor to any name-only
  model's output: ``P(r | n, g) ∝ P(r | n) * P(g | r)``

Every failure mode (unknown surname, unknown first name, unknown
geography, zero posterior mass) produces a declined prediction rather
than an error; the decline reason is available for diagnostics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import RaceSet, renormalize
from .errors import MissingFirstnameTableError
from .names import DEFAULT_SUFFIXES, table_key
from .tables import GeoTable, NameTable

logger = logging.getLogger(__name__)

UNKNOWN_SURNAME = "unknown_surname"
UNKNOWN_FIRSTNAME = "unknown_firstname"
UNKNOWN_GEO = "unknown_geo"
ZERO_MASS = "zero_mass"


@dataclass
class BayesContext:
    """Tables a Bayes predictor draws its factors from."""

    surname_table: NameTable
    geo_table: GeoTable
    firstname_table: NameTable | None = None
    races: RaceSet | None = None
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES

    def __post_init__(self):
        if self.races is None:
            self.races = self.surname_table.races
        for table in (self.surname_table, self.firstname_table, self.geo_table):
            if table is not None and table.races != self.races:
                raise ValueError("all tables must share one race set")


def bisg(ctx: BayesContext, last: str, geo: str) -> np.ndarray | None:
    """Surname-geography posterior; ``None`` when the model declines."""
    probs, reason = bisg_reason(ctx, last, geo)
    if reason:
        logger.debug("bisg declined (%s): last=%r geo=%r", reason, last, geo)
    return probs


def bisg_reason(ctx: BayesContext, last: str, geo: str):
    """Like :func:`bisg` but also returns the decline reason, if any."""
    prior = _surname_prior(ctx, last)
    if prior is None:
        return None, UNKNOWN_SURNAME
    geo_like = ctx.geo_table.geo_likelihood(geo)
    if geo_like is None:
        return None, UNKNOWN_GEO
    return _posterior(prior * geo_like)


def bifsg(ctx: BayesContext, first: str, last: str, geo: str) -> np.ndarray | None:
    """Surname-firstname-geography posterior; ``None`` when any factor is missing."""
    probs, reason = bifsg_reason(ctx, first, last, geo)
    if reason:
        logger.debug(
            "bifsg declined (%s): first=%r last=%r geo=%r", reason, first, last, geo
        )
    return probs


def bifsg_reason(ctx: BayesContext, first: str, last: str, geo: str):
    """Like :func:`bifsg` but also returns the decline reason, if any."""
    if ctx.firstname_table is None:
        raise MissingFirstnameTableError("bifsg needs a first-name table")
    prior = _surname_prior(ctx, last)
    if prior is None:
        return None, UNKNOWN_SURNAME
    first_like = _name_likelihood(ctx.firstname_table, first, ctx.suffixes)
    if first_like is None:
        return None, UNKNOWN_FIRSTNAME
    geo_like = ctx.geo_table.geo_likelihood(geo)
    if geo_like is None:
        return None, UNKNOWN_GEO
    return _posterior(prior * first_like * geo_like)


def geo_augment(name_probs, geo_likelihood, races: RaceSet) -> np.ndarray | None:
    """Fold a geography likelihood into a name-only model's output.

    ``geo_likelihood`` is the per-race ``P(geo | race)`` vector, or ``None``
    for an unknown geography.  Returns ``None`` on unknown geography or zero
    posterior mass.
    """
    probs, _ = geo_augment_reason(name_probs, geo_likelihood, races)
    return probs


def geo_augment_reason(name_probs, geo_likelihood, races: RaceSet):
    p = np.asarray(name_probs, dtype=np.float64)
    if p.size != len(races):
        raise ValueError(f"name probabilities have {p.size} entries for {len(races)} races")
    if geo_likelihood is None:
        return None, UNKNOWN_GEO
    g = np.asarray(geo_likelihood, dtype=np.float64)
    return _posterior(p * g)


def _posterior(numerator: np.ndarray):
    if numerator.sum() <= 0.0:
        return None, ZERO_MASS
    return renormalize(numerator), None


def _surname_prior(ctx: BayesContext, last: str):
    key = table_key(last, ctx.suffixes)
    if key is None:
        return None
    return ctx.surname_table.race_given_name(key)


def _name_likelihood(table: NameTable, name: str, suffixes):
    key = table_key(name, suffixes)
    if key is None:
        return None
    return table.name_likelihood(key)

