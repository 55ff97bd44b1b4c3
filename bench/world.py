"""Seeded synthetic voter data with race-specific Zipf-like name and geo preferences.

Every race draws surnames, first names and geography ids from its own
Zipf-like distribution over a shared vocabulary of thousands of keys.  Each
race mixes a ranking of its own with one shared ranking, so common keys are
common everywhere while the head of each race's list is mostly its own.  That
gives tables whose sizes, suppression rates and decline rates look like those
of a real voter file: a long tail of rare surnames is suppressed, so a
separately drawn file has records that the Bayes models decline.

A small share of rows carries the mess real files have: upper-case names, a
generational suffix on the surname, and business entries that ``sample``
filters out.  Names are letters only, so the table key of a name is its
lower-case form without the suffix (see :func:`table_key`).
"""

from __future__ import annotations

import csv

import numpy as np

RACES = ("asian", "black", "hispanic", "white")
#: Race shares of the drawn population, close to US voter files.
POPULATION_SHARES = np.array([0.06, 0.13, 0.19, 0.62])

N_SURNAMES = 6000
N_FIRSTNAMES = 3000
N_GEOS = 1500

UPPER_SHARE = 0.10
SUFFIX_SHARE = 0.02
BUSINESS_SHARE = 0.005

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "y", "z", "ch", "sh", "th", "br", "kr", "st")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ee")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "ng", "t")


def _vocabulary(rng: np.random.Generator, size: int, min_syllables: int) -> list[str]:
    """Distinct capitalized letter-only names built from syllables."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < size:
        count = int(rng.integers(min_syllables, min_syllables + 3))
        parts = []
        for _ in range(count):
            parts.append(_ONSETS[int(rng.integers(len(_ONSETS)))])
            parts.append(_VOWELS[int(rng.integers(len(_VOWELS)))])
            parts.append(_CODAS[int(rng.integers(len(_CODAS)))])
        name = "".join(parts)
        if len(name) >= 4 and name not in seen:
            seen.add(name)
            names.append(name.capitalize())
    return names


def _preferences(rng: np.random.Generator, size: int, exponent: float, own: float) -> np.ndarray:
    """(races, size) rows of P(key | race): own ranking mixed with a shared one."""
    zipf = 1.0 / np.arange(1, size + 1) ** exponent
    zipf /= zipf.sum()
    shared = zipf[np.argsort(rng.permutation(size))]
    rows = []
    for _ in RACES:
        mine = zipf[np.argsort(rng.permutation(size))]
        rows.append(own * mine + (1.0 - own) * shared)
    return np.array(rows)


class World:
    """Vocabularies and per-race preferences, all derived from one seed."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.surnames = _vocabulary(rng, N_SURNAMES, 2)
        self.firstnames = _vocabulary(rng, N_FIRSTNAMES, 1)
        self.geos = [f"{10000 + 37 * i:05d}" for i in range(N_GEOS)]
        self.p_surname = _preferences(rng, N_SURNAMES, 1.05, own=0.6)
        self.p_firstname = _preferences(rng, N_FIRSTNAMES, 1.0, own=0.5)
        self.p_geo = _preferences(rng, N_GEOS, 0.8, own=0.7)
        self.seed = seed

    def people(self, stream: int, n: int) -> list[tuple[str, str, str, str]]:
        """``n`` (first, last, geo, race) rows; ``stream`` picks an independent draw."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1, stream]))
        races = rng.choice(len(RACES), size=n, p=POPULATION_SHARES)
        last = np.empty(n, dtype=np.int64)
        first = np.empty(n, dtype=np.int64)
        geo = np.empty(n, dtype=np.int64)
        for r in range(len(RACES)):
            idx = np.nonzero(races == r)[0]
            last[idx] = rng.choice(N_SURNAMES, size=idx.size, p=self.p_surname[r])
            first[idx] = rng.choice(N_FIRSTNAMES, size=idx.size, p=self.p_firstname[r])
            geo[idx] = rng.choice(N_GEOS, size=idx.size, p=self.p_geo[r])
        mess = rng.random((n, 4))
        rows = []
        for i in range(n):
            f = self.firstnames[first[i]]
            s = self.surnames[last[i]]
            if mess[i, 0] < UPPER_SHARE:
                s = s.upper()
            if mess[i, 1] < UPPER_SHARE:
                f = f.upper()
            if mess[i, 2] < SUFFIX_SHARE:
                s = f"{s} Jr"
            if mess[i, 3] < BUSINESS_SHARE:
                s = f"{s} Services LLC"
            rows.append((f, s, self.geos[geo[i]], RACES[races[i]]))
        return rows

    def distinct_people(self, stream: int, n: int) -> list[tuple[str, str, str, str]]:
        """``n`` person rows, no business among them, with pairwise distinct names."""
        rows = []
        seen = set()
        batch = 0
        while len(rows) < n:
            for row in self.people(stream * 1000 + batch, 2 * n):
                key = (row[0].lower(), table_key(row[1]))
                if key in seen or row[1].endswith(" LLC"):
                    continue
                seen.add(key)
                rows.append(row)
                if len(rows) == n:
                    break
            batch += 1
        return rows


def table_key(raw: str) -> str:
    """Table key of a generated name: lower-case, suffix and blanks removed."""
    out = raw.lower()
    if out.endswith(" jr"):
        out = out[: -len(" jr")]
    return out.replace(" ", "")


def write_people_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["first_name", "last_name", "geo_id", "race"])
        writer.writerows(rows)
