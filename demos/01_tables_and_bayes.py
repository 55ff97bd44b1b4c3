"""Build probability tables from a synthetic voter file and run the Bayes
predictors on them.

Walks through the full table pipeline: normalization, the small-cell
suppression rule, merging an external (probability-style) surname table,
and BISG / BIFSG posteriors with their decline reasons.
"""

import numpy as np

from nameproxy.core import People, RaceSet
from nameproxy.bayes import BayesContext, bifsg_reason, bisg_reason
from nameproxy.tables import (
    EXTERNAL,
    FIRSTNAME,
    SOURCES,
    SURNAME,
    build_geo_table,
    build_name_table,
    merge_tables,
    NameTable,
)

races = RaceSet()
rng = np.random.default_rng(7)

# ---------------------------------------------------------------- data --
# A tiny synthetic electorate: each surname leans toward one race, each
# geography has its own racial mix, and first names carry signal too.
surname_mix = {
    "chen": (60, 2, 2, 8),
    "okafor": (1, 45, 1, 3),
    "washington": (1, 58, 2, 10),
    "garcia": (2, 3, 70, 9),
    "miller": (3, 8, 4, 80),
    "rareish": (0, 16, 0, 0),   # 15-29 observations, single race: kept
    "dropme": (10, 19, 0, 0),   # 29 observations over two races: suppressed
}
firstname_pool = {
    "asian": ["wei", "mei"],
    "black": ["lakisha", "jamal"],
    "hispanic": ["maria", "jose"],
    "white": ["brad", "amy"],
}
geos = {"10001": (40, 10, 15, 60), "20002": (5, 55, 10, 30), "30003": (8, 12, 70, 25)}

# People are columns: names and geo ids, plus each race as an index into
# the race set.
firsts, lasts, geo_ids, race_ids = [], [], [], []
for last, counts in surname_mix.items():
    for ridx, (race, count) in enumerate(zip(races, counts)):
        weights = np.array([geos[g][ridx] for g in geos], dtype=float)
        weights /= weights.sum()
        for _ in range(count):
            firsts.append(firstname_pool[race][int(rng.integers(2))])
            lasts.append(last)
            geo_ids.append(list(geos)[int(rng.choice(len(geos), p=weights))])
            race_ids.append(ridx)
people = People(firsts, lasts, geo_ids, np.array(race_ids), races)
print(f"synthetic voter file: {len(people)} records, {len(surname_mix)} surnames")

# ------------------------------------------------------------- tables --
surname_table = build_name_table(people, SURNAME, seed=1)
firstname_table = build_name_table(people, FIRSTNAME, seed=1)
geo_table = build_geo_table(people)

print(f"\nsurname table kept {len(surname_table)} of {len(surname_mix)} surnames:")
for name, counts in sorted(zip(surname_table.keys, surname_table.counts.tolist())):
    print(f"  {name:12s} counts={counts}")
print('note: "dropme" fails the suppression rule (29 observations, two races);')
print('      "rareish" passes it (16 observations, one race)')

# An external source published as probabilities plus a total is converted
# to pseudo-counts and merged; on a collision the external entry wins.
external = NameTable(
    kind=SURNAME,
    races=races,
    keys=["chen", "yu"],
    counts=np.array([[850, 20, 30, 100], [390, 2, 3, 5]]),
    race_totals=np.array([5000, 5000, 5000, 5000]),
    sources=np.full(2, SOURCES.index(EXTERNAL)),
)
merged = merge_tables(surname_table, external, prefer=EXTERNAL)
print(f"\nafter merging the external table: {len(merged)} surnames")
print(f'  "chen" now carries the external counts: {merged.counts[merged.index["chen"]].tolist()}')

# ------------------------------------------------------------ posteriors --
ctx = BayesContext(merged, geo_table, firstname_table=firstname_table)

print("\nBISG posteriors P(race | surname, geo):")
for last, geo in [("chen", "10001"), ("washington", "20002"), ("garcia", "30003")]:
    probs, _ = bisg_reason(ctx, last, geo)
    top = races.labels[int(np.argmax(probs))]
    print(f"  {last:12s} @ {geo}: {np.round(probs, 3).tolist()} -> {top}")

print("\nBIFSG sharpens the call when the first name is informative:")
for first, last, geo in [("lakisha", "miller", "20002"), ("brad", "miller", "20002")]:
    two, _ = bisg_reason(ctx, last, geo)
    three, _ = bifsg_reason(ctx, first, last, geo)
    print(f"  {first} {last} @ {geo}:")
    print(f"    surname+geo only : {np.round(two, 3).tolist()}")
    print(f"    with first name  : {np.round(three, 3).tolist()}")

print("\ndeclines carry a reason instead of a guess:")
for first, last, geo in [("wei", "unknownname", "10001"), ("wei", "chen", "99999"),
                         ("zork", "chen", "10001")]:
    probs, reason = bifsg_reason(ctx, first, last, geo)
    print(f"  {first} {last} @ {geo}: covered={probs is not None} reason={reason}")
