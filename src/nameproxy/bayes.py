"""Closed-form Bayes predictors over the probability tables.

Three predictors share one formula: a race prior times per-race
likelihood factors, renormalized.

* ``bisg``        -- posterior from surname prior and geography:
  ``P(r | s, g) ∝ P(r | s) * P(g | r)``
* ``bifsg``       -- adds a first-name likelihood factor:
  ``P(r | s, f, g) ∝ P(r | s) * P(f | r) * P(g | r)``
* ``geo_augment`` -- applies the geography factor to any name-only
  model's output: ``P(r | n, g) ∝ P(r | n) * P(g | r)``

Every failure mode (unknown surname, unknown first name, unknown
geography, zero posterior mass) produces a declined prediction rather
than an error; the decline reason is available for diagnostics.

The work is done over whole columns of records (:func:`bayes_scores`,
:func:`geo_augment_scores`): keys resolve to rows of per-table factor
matrices, and both functions hand their factors, in multiplication
order, to :func:`_posterior`, the one place a posterior is built.  The
one-record functions (``bisg``, ``bifsg_reason``, ...) are one-row calls
into the same code.  The surname prior's Laplace smoothing is a
:class:`BayesContext` setting, not table state.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial, reduce

import numpy as np

from .core import (
    REASON_CODE,
    UNKNOWN_FIRSTNAME,
    UNKNOWN_GEO,
    UNKNOWN_SURNAME,
    ZERO_MASS,
    RaceSet,
    Scores,
    renormalize_rows,
)
from .errors import NameproxyError
from .names import DEFAULT_SUFFIXES, column_keys, normalize_table
from .tables import GeoTable, NameTable

logger = logging.getLogger(__name__)


class Factor:
    """One table's per-key factor rows: ``matrix[index[k]]`` for key ``k``.

    Raw strings resolve to keys through ``key`` (:func:`names.column_keys`):
    a name key for names, ``None`` for geo ids, which are used as they are.
    """

    def __init__(self, index: dict[str, int], matrix: np.ndarray, key=None):
        self.index = index
        self.matrix = matrix
        self.key = key
        self._raws = self._rows = None

    def rows(self, raws) -> np.ndarray:
        """Row of each raw string's key, or -1 when the table lacks it.

        Asked again for the same column, the factor returns the rows it
        resolved last time.
        """
        raws = list(raws)
        if raws != self._raws:
            keys, codes = column_keys(raws, self.key)
            by_key = np.array([self.index.get(key, -1) for key in keys], dtype=np.intp)
            self._raws, self._rows = raws, by_key[codes]
        return self._rows


@dataclass
class BayesContext:
    """Tables a Bayes predictor draws its factors from.

    Each table is given as a table, or as a zero-argument function that
    loads it; a loader is called when a factor first needs its table, so
    a context serves models that need only some of the tables.  The
    factor matrices are built from the tables once per context, on first
    use.  A column of raw keys is resolved to factor rows once per context
    too (:meth:`Factor.rows`): BISG, BIFSG and geography augmentation over
    the same records share the surname and geography rows.
    ``smoothing_alpha`` is added to every surname count of the prior.
    """

    surname_table: NameTable | Callable[[], NameTable]
    geo_table: GeoTable | Callable[[], GeoTable]
    firstname_table: NameTable | Callable[[], NameTable] | None = None
    races: RaceSet | None = None
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES
    smoothing_alpha: float = 0.0

    def __post_init__(self):
        if self.races is None:
            if callable(self.surname_table):
                self.surname_table = self.surname_table()
            self.races = self.surname_table.races
        for name in ("surname_table", "firstname_table", "geo_table"):
            if not callable(getattr(self, name)):
                self.table(name)

    def table(self, name: str):
        """The named table (``surname_table``, ``firstname_table`` or
        ``geo_table``), loaded now if it was given as a loader."""
        table = getattr(self, name)
        if callable(table):
            table = table()
            setattr(self, name, table)
        if table is not None and table.races != self.races:
            raise ValueError("all tables must share one race set")
        return table

    @cached_property
    def surname_prior(self) -> Factor:
        """``P(race | surname)`` rows; NaN rows for surnames with no mass."""
        table = self.table("surname_table")
        prior = table.prior_rows(self.smoothing_alpha)
        return Factor(table.index, prior, partial(normalize_table, suffixes=self.suffixes))

    @cached_property
    def firstname_likelihood(self) -> Factor:
        """``P(first name | race)`` rows."""
        table = self.table("firstname_table")
        if table is None:
            raise NameproxyError("bifsg needs a first-name table")
        key = partial(normalize_table, suffixes=self.suffixes)
        return Factor(table.index, table.likelihood_rows(), key)

    @cached_property
    def geo_likelihood(self) -> Factor:
        """``P(geo | race)`` rows."""
        table = self.table("geo_table")
        return Factor(table.index, table.likelihood_rows())


def bayes_scores(ctx: BayesContext, lasts, geos, firsts=None) -> Scores:
    """BISG over columns of surnames and geo ids; BIFSG when ``firsts`` is given.

    A record declines for the first factor its key is missing from, in
    the order surname, first name, geography, and then for zero
    posterior mass.

    Raises:
        NameproxyError: ``firsts`` given without a first-name table, or a
            known surname's entry has no mass to normalize.
        ValueError: a known surname's entry has negative or non-finite counts.
    """
    if firsts is not None:
        first_like = ctx.firstname_likelihood
    prior = ctx.surname_prior
    surname = prior.rows(lasts)
    known = surname[surname >= 0]
    unusable = known[np.isnan(prior.matrix[known]).any(axis=1)]
    if unusable.size:  # raise what normalizing the first such entry raises
        counts = ctx.table("surname_table").counts[unusable[:1]]
        renormalize_rows(counts.astype(np.float64) + ctx.smoothing_alpha)
    terms = [(surname, prior.matrix, UNKNOWN_SURNAME)]
    if firsts is not None:
        terms.append((first_like.rows(firsts), first_like.matrix, UNKNOWN_FIRSTNAME))
    geo = ctx.geo_likelihood
    terms.append((geo.rows(geos), geo.matrix, UNKNOWN_GEO))
    return _posterior(np.zeros(surname.size, dtype=np.int8), terms)


def geo_augment_scores(name: Scores, geo_rows: np.ndarray, geo_likelihood: np.ndarray) -> Scores:
    """Fold geography into a name-only model's scores, row by row.

    ``geo_rows[i]`` is record ``i``'s row of ``geo_likelihood`` (the
    ``P(geo | race)`` matrix), or -1 for an unknown geography.  Records
    the name model declined keep its reason.

    Raises:
        ValueError: the likelihood's rows and the name probabilities differ
            in width.
    """
    n, width = name.probs.shape
    if geo_likelihood.shape[1] != width:
        raise ValueError(
            f"geography likelihood has {geo_likelihood.shape[1]} entries per geography "
            f"for {width} name probabilities"
        )
    terms = [(np.arange(n), name.probs, None), (geo_rows, geo_likelihood, UNKNOWN_GEO)]
    return _posterior(name.reason.copy(), terms)


def bisg(ctx: BayesContext, last: str, geo: str) -> np.ndarray | None:
    """Surname-geography posterior; ``None`` when the model declines."""
    probs, reason = bisg_reason(ctx, last, geo)
    if reason:
        logger.debug("bisg declined (%s): last=%r geo=%r", reason, last, geo)
    return probs


def bisg_reason(ctx: BayesContext, last: str, geo: str):
    """Like :func:`bisg` but also returns the decline reason, if any."""
    return bayes_scores(ctx, [last], [geo]).row(0)


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
    return bayes_scores(ctx, [last], [geo], firsts=[first]).row(0)


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
    name = Scores(p.reshape(1, -1), np.zeros(1, dtype=np.int8))
    if geo_likelihood is None:
        # row -1 of an empty matrix: the kernel declines it as unknown
        return geo_augment_scores(name, np.array([-1]), np.zeros((0, p.size))).row(0)
    g = np.asarray(geo_likelihood, dtype=np.float64).reshape(1, -1)
    return geo_augment_scores(name, np.array([0]), g).row(0)


def _posterior(reason: np.ndarray, terms) -> Scores:
    """Each record's product of its terms' rows, in term order, renormalized.

    A term ``(rows, matrix, why)`` gives record ``i`` the factor
    ``matrix[rows[i]]``, or declines it for ``why`` when ``rows[i] < 0``.
    A record not declined yet (``reason`` 0, updated in place) declines
    for its first missing term, or as zero mass when its product has none.
    """
    for rows, _, why in terms:
        if why is not None:
            reason[(reason == 0) & (rows < 0)] = REASON_CODE[why]
    live = np.flatnonzero(reason == 0)
    numerator = reduce(np.multiply, (matrix[rows[live]] for rows, matrix, _ in terms))
    no_mass = numerator.sum(axis=1) <= 0.0
    reason[live[no_mass]] = REASON_CODE[ZERO_MASS]
    probs = np.zeros((reason.size, terms[0][1].shape[1]))
    probs[live[~no_mass]] = renormalize_rows(numerator[~no_mass])
    return Scores(probs, reason)
