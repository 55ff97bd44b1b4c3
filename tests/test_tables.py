"""Probability table construction, suppression, merging, and persistence."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nameproxy import tables
from nameproxy.core import RaceSet
from nameproxy.csvio import write_csv
from nameproxy.errors import NameproxyError, SchemaError
from nameproxy.tables import (
    EXTERNAL,
    FIRSTNAME,
    INTERNAL,
    SURNAME,
    GeoTable,
    NameTable,
    build_geo_table,
    build_name_table,
    count_name_table,
    merge_tables,
    passes_suppression,
)
from nameproxy.names import normalize_table

from conftest import Row, entries_of, geo_table, name_table, people_of, provenance_of

RACES = RaceSet()
NOTHING_SURVIVES = "no names survived normalization and suppression"


def records_for(name_counts, kind=SURNAME, geo="00001"):
    """Expand {name: (counts per race)} into people."""
    records = []
    for name, counts in name_counts.items():
        for race, count in zip(RACES, counts):
            for _ in range(count):
                if kind == SURNAME:
                    records.append(("anna", name, geo, race))
                else:
                    records.append((name, "smith", geo, race))
    return people_of(records)


class TestSuppressionRule:
    @pytest.mark.parametrize(
        "counts,kept",
        [
            ((10, 19, 0, 0), False),  # total 29, two races
            ((0, 17, 0, 0), True),  # total 17, one race
            ((10, 10, 5, 5), True),  # total 30
            ((14, 0, 0, 0), False),  # below the single-race band
            ((7, 7, 0, 0), False),  # total 14, two races
            ((0, 0, 31, 0), True),
            ((16, 15, 0, 0), True),  # total 31 >= 30
        ],
    )
    def test_rule(self, counts, kept):
        assert passes_suppression(np.array(counts)) is kept

    def test_exhaustive_threshold_matrix(self):
        """Totals {14,15,29,30,31} x {1,2} nonzero races, checked exhaustively."""
        for total in (14, 15, 29, 30, 31):
            one = np.array([total, 0, 0, 0])
            two = np.array([total - 7, 7, 0, 0])
            expected_one = total >= 30 or 15 <= total <= 29
            expected_two = total >= 30
            assert passes_suppression(one) is expected_one, total
            assert passes_suppression(two) is expected_two, total

    def test_matrix_gives_each_row_its_entry_result(self):
        counts = np.array([[10, 19, 0, 0], [0, 17, 0, 0], [10, 10, 5, 5], [14, 0, 0, 0]])
        kept = passes_suppression(counts)
        assert kept.dtype == bool
        assert kept.tolist() == [passes_suppression(row) for row in counts] == [
            False, True, True, False
        ]
        assert passes_suppression(counts[:0]).shape == (0,)


class TestBuildNameTable:
    def test_applies_suppression_and_normalization(self):
        data = {
            "Kept-One": (0, 17, 0, 0),  # single race in band -> kept, as "keptone"
            "DroppedTwo": (10, 19, 0, 0),  # two races, total 29 -> dropped
            "BigName": (10, 10, 5, 5),  # total 30 -> kept
            "Xu JR": (0, 0, 0, 16),  # suffix stripped -> "xu"
        }
        # one record of a missing race would raise; add a white-only filler
        table = build_name_table(records_for(data), SURNAME)
        assert set(table.keys) == {"keptone", "bigname", "xu"}
        np.testing.assert_array_equal(entries_of(table)["keptone"], [0, 17, 0, 0])
        assert provenance_of(table)["xu"] == INTERNAL

    def test_single_char_names_dropped(self):
        data = {"K": (40, 0, 0, 0), "Li": (0, 31, 35, 33)}
        table = build_name_table(records_for(data), SURNAME)
        assert set(table.keys) == {"li"}

    def test_race_totals_count_prescreen_population(self):
        data = {"Aa": (31, 0, 0, 1), "Bb": (5, 31, 31, 31)}  # "Aa" dropped? no: total 32 kept
        table = build_name_table(records_for(data), SURNAME)
        np.testing.assert_array_equal(table.race_totals, [36, 31, 31, 32])

    def test_likelihood_mass_bounded_by_one(self):
        rng = np.random.default_rng(5)
        data = {}
        for i in range(60):
            data[f"name{i:02d}x"] = tuple(int(c) for c in rng.integers(0, 25, size=4))
        for name, counts in list(data.items()):
            if sum(counts) == 0:
                data[name] = (1, 1, 1, 1)
        table = build_name_table(records_for(data), SURNAME)
        mass = np.zeros(4)
        for name in table.keys:
            mass += table.name_likelihood(name)
        assert (mass <= 1.0 + 1e-12).all()

    def test_missing_race_raises(self):
        data = {"Solo": (30, 30, 30, 0)}  # no white records at all
        with pytest.raises(NameproxyError, match="no records for race\\(s\\): white"):
            build_name_table(records_for(data), SURNAME)

    def test_nothing_survives(self):
        data = {"Rare": (1, 1, 1, 1)}
        with pytest.raises(NameproxyError, match=NOTHING_SURVIVES):
            build_name_table(records_for(data), SURNAME)

    def test_firstname_kind_uses_first_field(self):
        data = {"Keisha": (1, 40, 1, 1)}
        table = build_name_table(records_for(data, kind=FIRSTNAME), FIRSTNAME)
        assert "keisha" in table
        assert table.kind == FIRSTNAME

    def test_rebuild_same_seed_identical(self):
        rng = np.random.default_rng(9)
        data = {
            f"fam{i:02d}": tuple(int(c) for c in rng.integers(1, 60, size=4))
            for i in range(40)
        }
        recs = records_for(data)
        shares = (0.1, 0.2, 0.3, 0.4)
        t1 = build_name_table(recs, SURNAME, seed=77, target_shares=shares)
        t2 = build_name_table(recs, SURNAME, seed=77, target_shares=shares)
        assert set(t1.keys) == set(t2.keys)
        for name in t1.keys:
            np.testing.assert_array_equal(entries_of(t1)[name], entries_of(t2)[name])
        np.testing.assert_array_equal(t1.race_totals, t2.race_totals)

    def test_resampling_shifts_totals_toward_shares(self):
        data = {
            "Majority": (5, 5, 5, 400),
            "Minority": (120, 120, 120, 5),
        }
        table = build_name_table(
            records_for(data), SURNAME, seed=3, target_shares=(0.25, 0.25, 0.25, 0.25)
        )
        # equal shares: every race total equals the feasible minimum-driven quota
        assert len(set(table.race_totals.tolist())) == 1

    def test_unsuppressed_build_keeps_everything(self):
        data = {"Tiny": (1, 1, 1, 2)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables, "MIN_TOTAL", 0)
            table = build_name_table(records_for(data), SURNAME)
        assert "tiny" in table

    def test_counting_reads_the_thresholds_when_called(self):
        # "ab" 4 observations over two races, "cd" 3 of one race
        args = (SURNAME, RACES, ["ab", "cd"], np.array([0, 0, 0, 0, 1, 1, 1]),
                np.array([0, 0, 1, 1, 2, 2, 2]))
        with pytest.raises(NameproxyError, match=NOTHING_SURVIVES):
            count_name_table(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables, "MIN_TOTAL", 4)
            assert count_name_table(*args).keys == ["ab"]
            mp.setattr(tables, "SINGLE_RACE_BAND", (3, 3))
            assert count_name_table(*args).keys == ["ab", "cd"]
        with pytest.raises(NameproxyError, match=NOTHING_SURVIVES):
            count_name_table(*args)


class TestQueryDirections:
    def test_race_given_name_renormalizes(self):
        table = name_table(
            kind=SURNAME,
            races=RACES,
            entries={"lee": np.array([5, 5, 0, 0])},
            race_totals=np.array([100, 100, 100, 100]),
        )
        np.testing.assert_allclose(table.race_given_name("lee"), [0.5, 0.5, 0, 0])

    def test_name_given_race_uses_race_totals(self):
        table = name_table(
            kind=SURNAME,
            races=RACES,
            entries={"ng": np.array([30, 0, 0, 0])},
            race_totals=np.array([300, 100, 100, 100]),
        )
        np.testing.assert_allclose(table.name_likelihood("ng"), [0.1, 0, 0, 0])

    def test_unknown_key_is_absent(self):
        table = name_table(SURNAME, RACES, {}, np.zeros(4, dtype=np.int64))
        assert table.race_given_name("ghost") is None
        assert table.name_likelihood("ghost") is None

    def test_smoothing_flag(self):
        table = name_table(
            kind=SURNAME,
            races=RACES,
            entries={"lee": np.array([3, 1, 0, 0])},
            race_totals=np.array([10, 10, 10, 10]),
        )
        smoothed = [0.5, 0.25, 0.125, 0.125]
        np.testing.assert_allclose(table.race_given_name("lee", smoothing_alpha=1.0), smoothed)
        np.testing.assert_allclose(table.prior_rows(smoothing_alpha=1.0), [smoothed])
        np.testing.assert_allclose(table.race_given_name("lee"), [0.75, 0.25, 0, 0])


class TestGeoTable:
    def test_single_record(self):
        table = build_geo_table(people_of([Row("a b", "cd", "11111", "black")]))
        like = table.geo_likelihood("11111")
        np.testing.assert_allclose(like, [0, 1.0, 0, 0])

    def test_two_geos_split_evenly(self):
        recs = [
            Row("aa", "bb", "11111", "white"),
            Row("aa", "bb", "22222", "white"),
        ]
        table = build_geo_table(people_of(recs))
        assert table.geo_likelihood("11111")[3] == 0.5
        assert table.geo_likelihood("22222")[3] == 0.5

    def test_counting_oracle_10k(self):
        """P(geo|race) must match a brute-force counting script exactly."""
        rng = np.random.default_rng(123)
        geos = [f"{g:05d}" for g in range(25)]
        recs = [
            Row("aa", "bb", geos[int(rng.integers(25))], RACES.labels[int(rng.integers(4))])
            for _ in range(10_000)
        ]
        table = build_geo_table(people_of(recs))

        # independent oracle: plain dict counting
        geo_race: dict[tuple[str, str], int] = {}
        race_n: dict[str, int] = {}
        for r in recs:
            geo_race[(r.geo, r.race)] = geo_race.get((r.geo, r.race), 0) + 1
            race_n[r.race] = race_n.get(r.race, 0) + 1
        for geo in geos:
            expected = [geo_race.get((geo, race), 0) / race_n[race] for race in RACES]
            np.testing.assert_allclose(table.geo_likelihood(geo), expected, atol=1e-12)

    def test_column_sums_equal_totals(self):
        rng = np.random.default_rng(4)
        recs = [
            Row("aa", "bb", f"{int(rng.integers(9)):05d}", RACES.labels[int(rng.integers(4))])
            for _ in range(1000)
        ]
        table = build_geo_table(people_of(recs))
        np.testing.assert_array_equal(
            table.counts.sum(axis=0), table.race_totals
        )

    def test_empty_input(self):
        with pytest.raises(NameproxyError, match="no records to build a geography table from"):
            build_geo_table(people_of([]))


class TestMergeTables:
    def surname_tables(self):
        internal = name_table(
            kind=SURNAME,
            races=RACES,
            entries={"shared": np.array([10, 20, 0, 0]), "only-int": np.array([30, 0, 0, 0])},
            race_totals=np.array([100, 100, 100, 100]),
            provenance={"shared": INTERNAL, "only-int": INTERNAL},
        )
        external = name_table(
            kind=SURNAME,
            races=RACES,
            entries={"shared": np.array([0, 0, 40, 0]), "only-ext": np.array([0, 50, 0, 0])},
            race_totals=np.array([200, 200, 200, 200]),
            provenance={"shared": EXTERNAL, "only-ext": EXTERNAL},
        )
        return internal, external

    def test_prefer_external_for_surnames(self):
        internal, external = self.surname_tables()
        merged = merge_tables(internal, external, prefer=EXTERNAL)
        np.testing.assert_array_equal(entries_of(merged)["shared"], [0, 0, 40, 0])
        assert provenance_of(merged)["shared"] == EXTERNAL

    def test_prefer_internal_for_firstnames(self):
        internal, external = self.surname_tables()
        internal.kind = external.kind = FIRSTNAME
        merged = merge_tables(internal, external, prefer=INTERNAL)
        np.testing.assert_array_equal(entries_of(merged)["shared"], [10, 20, 0, 0])
        assert provenance_of(merged)["shared"] == INTERNAL

    def test_union_keeps_singletons(self):
        internal, external = self.surname_tables()
        merged = merge_tables(internal, external, prefer=EXTERNAL)
        assert set(merged.keys) == {"shared", "only-int", "only-ext"}
        assert provenance_of(merged)["only-int"] == INTERNAL
        assert provenance_of(merged)["only-ext"] == EXTERNAL

    def test_merge_idempotent(self):
        internal, external = self.surname_tables()
        once = merge_tables(internal, external, prefer=EXTERNAL)
        twice = merge_tables(once, external, prefer=EXTERNAL)
        assert set(once.keys) == set(twice.keys)
        for name in once.keys:
            np.testing.assert_array_equal(entries_of(once)[name], entries_of(twice)[name])
            assert provenance_of(once)[name] == provenance_of(twice)[name]

    def test_likelihood_respects_entry_source(self):
        internal, external = self.surname_tables()
        merged = merge_tables(internal, external, prefer=EXTERNAL)
        # external entry over external universe totals (200 each)
        np.testing.assert_allclose(merged.name_likelihood("only-ext"), [0, 0.25, 0, 0])
        # internal entry over internal universe totals (100 each)
        np.testing.assert_allclose(merged.name_likelihood("only-int"), [0.3, 0, 0, 0])

    def test_kind_mismatch(self):
        internal, external = self.surname_tables()
        external.kind = FIRSTNAME
        with pytest.raises(NameproxyError, match="cannot merge 'surname' with 'firstname'"):
            merge_tables(internal, external, prefer=EXTERNAL)


MERGE_COUNTS = st.lists(st.integers(0, 50), min_size=4, max_size=4)


@st.composite
def merge_sides(draw):
    """One side of a merge: keys from a small pool (so two sides overlap),
    each row's source or none, and universe totals for some sources."""
    keys = draw(st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "ee", "ff"]), unique=True,
                         max_size=6))
    entries = {key: draw(MERGE_COUNTS) for key in keys}
    provenance = draw(st.one_of(st.none(), st.fixed_dictionaries(
        {key: st.sampled_from([INTERNAL, EXTERNAL]) for key in keys})))
    source_totals = draw(st.dictionaries(st.sampled_from([INTERNAL, EXTERNAL]),
                                         MERGE_COUNTS.map(np.array)))
    return name_table(SURNAME, RACES, entries, np.array(draw(MERGE_COUNTS)), provenance,
                      source_totals=source_totals)


def ref_merge(internal, external, prefer):
    """Merging as a dict union: the other side's entries, updated by the
    preferred side's, with sources and per-source totals alike."""
    preferred, other = (internal, external) if prefer == INTERNAL else (external, internal)
    entries, provenance = entries_of(other), provenance_of(other)
    entries.update(entries_of(preferred))
    provenance.update(provenance_of(preferred))
    source_totals = {**other.source_totals, **preferred.source_totals}
    return entries, provenance, {src: tot.tolist() for src, tot in source_totals.items()}


class TestMergeMatchesDictUnion:
    @settings(max_examples=200, deadline=None)
    @given(merge_sides(), merge_sides(), st.sampled_from([INTERNAL, EXTERNAL]))
    def test_rows_sources_order_and_totals(self, internal, external, prefer):
        merged = merge_tables(internal, external, prefer)
        entries, provenance, source_totals = ref_merge(internal, external, prefer)
        assert merged.keys == list(entries)
        assert entries_of(merged) == entries
        assert provenance_of(merged) == provenance
        assert {src: tot.tolist() for src, tot in merged.source_totals.items()} == source_totals
        preferred = internal if prefer == INTERNAL else external
        assert merged.race_totals.tolist() == preferred.race_totals.tolist()


class TestPersistence:
    def test_name_table_roundtrip(self, tmp_path):
        internal = name_table(
            kind=SURNAME,
            races=RACES,
            entries={"zz": np.array([1, 2, 3, 4]), "aa": np.array([30, 0, 0, 0])},
            race_totals=np.array([31, 2, 3, 4]),
            provenance={"zz": INTERNAL, "aa": EXTERNAL},
            source_totals={
                INTERNAL: np.array([1, 2, 3, 4]),
                EXTERNAL: np.array([30, 0, 0, 0]),
            },
        )
        path = tmp_path / "surname.csv"
        internal.save(path)
        loaded = NameTable.load(path)
        assert loaded.kind == SURNAME
        assert set(loaded.keys) == {"zz", "aa"}
        np.testing.assert_array_equal(entries_of(loaded)["zz"], [1, 2, 3, 4])
        assert provenance_of(loaded) == provenance_of(internal)
        np.testing.assert_array_equal(loaded.race_totals, internal.race_totals)
        np.testing.assert_array_equal(loaded.source_totals[EXTERNAL], [30, 0, 0, 0])

    def test_save_is_byte_deterministic(self, tmp_path):
        table = name_table(
            kind=SURNAME,
            races=RACES,
            entries={"bb": np.array([0, 16, 0, 0]), "aa": np.array([31, 0, 0, 0])},
            race_totals=np.array([31, 16, 0, 0]),
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        table.save(p1)
        table.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_geo_table_roundtrip(self, tmp_path):
        table = geo_table(
            races=RACES,
            entries={"11111": np.array([1, 0, 2, 0])},
            race_totals=np.array([1, 0, 2, 0]),
        )
        path = tmp_path / "geo.csv"
        table.save(path)
        loaded = GeoTable.load(path)
        np.testing.assert_array_equal(entries_of(loaded)["11111"], [1, 0, 2, 0])
        np.testing.assert_array_equal(loaded.race_totals, [1, 0, 2, 0])

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# races: asian,black,hispanic,white\n# kind: surname\n"
                        "# race_totals: 1,1,1,1\nname,wrong\n")
        with pytest.raises(SchemaError):
            NameTable.load(path)

    @pytest.mark.parametrize("table_cls,header", [
        (GeoTable, "geo,count_asian,count_black,count_hispanic,count_white"),
        (NameTable, "name,count_asian,count_black,count_hispanic,count_white,source"),
    ])
    def test_load_rejects_duplicate_key(self, tmp_path, table_cls, header):
        source = ",internal" if table_cls is NameTable else ""
        path = tmp_path / "dup.csv"
        path.write_text(
            "# races: asian,black,hispanic,white\n# kind: surname\n"
            "# race_totals: 2,0,1,0\n"
            f"{header}\n"
            f"10037,1,0,0,0{source}\n"
            f"10038,0,0,1,0{source}\n"
            f"10037,1,0,0,0{source}\n"
        )
        with pytest.raises(SchemaError, match="line 7: duplicate key '10037'"):
            table_cls.load(path)

    def test_load_rejects_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# races: asian,black,hispanic,white\n# kind: surname\n"
            "# race_totals: 1,1,1,1\n"
            "name,count_asian,count_black,count_hispanic,count_white,source\n"
            "aa,1,x,0,0,internal\n"
        )
        with pytest.raises(SchemaError, match="line 5"):
            NameTable.load(path)

    @pytest.mark.parametrize("table_cls,header", [
        (GeoTable, "geo,count_asian,count_black,count_hispanic,count_white"),
        (NameTable, "name,count_asian,count_black,count_hispanic,count_white,source"),
    ])
    def test_load_without_race_totals_names_file(self, tmp_path, table_cls, header):
        path = tmp_path / "no_totals.csv"
        path.write_text(f"# races: asian,black,hispanic,white\n# kind: surname\n{header}\n")
        with pytest.raises(SchemaError, match="no_totals.csv: missing 'race_totals'"):
            table_cls.load(path)

    @pytest.mark.parametrize("table_cls,header", [
        (GeoTable, "geo,count_asian,count_black,count_hispanic,count_white"),
        (NameTable, "name,count_asian,count_black,count_hispanic,count_white,source"),
    ])
    def test_load_rejects_metadata_not_utf8(self, tmp_path, table_cls, header):
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            b"# races: asian,black,hispanic,white\n# kind: surname\n# note: Bogot\xe1\n"
            b"# race_totals: 1,1,1,1\n" + header.encode() + b"\n"
        )
        with pytest.raises(SchemaError, match=r"latin1.csv: line 3: not UTF-8 text \(byte 0xe1"):
            table_cls.load(path)

    def test_load_rejects_padded_race_label(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text(
            "# races: asian, black\n# race_totals: 1,1\n"
            "geo,count_asian,count_ black\n10037,1,1\n"
        )
        with pytest.raises(SchemaError, match="padded.csv: bad races"):
            GeoTable.load(path)

    @pytest.mark.parametrize("table_cls,header", [
        (GeoTable, "geo,count_asian,count_black,count_hispanic,count_white"),
        (NameTable, "name,count_asian,count_black,count_hispanic,count_white,source"),
    ])
    def test_load_rejects_count_beyond_int64(self, tmp_path, table_cls, header):
        source = ",internal" if table_cls is NameTable else ""
        path = tmp_path / "big.csv"
        path.write_text(
            "# races: asian,black,hispanic,white\n# kind: surname\n"
            f"# race_totals: 1,1,1,1\n{header}\n10037,1,0,0,0{source}\n"
            f"10038,{10**23},0,0,0{source}\n"
        )
        with pytest.raises(SchemaError, match="big.csv: line 6: bad count"):
            table_cls.load(path)

    def test_load_rejects_race_totals_beyond_int64(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(
            f"# races: asian,black,hispanic,white\n# race_totals: 1,{10**23},1,1\n"
            "geo,count_asian,count_black,count_hispanic,count_white\n10037,1,0,0,0\n"
        )
        with pytest.raises(SchemaError, match="big.csv: bad count in"):
            GeoTable.load(path)

    @pytest.mark.parametrize("table_cls,meta_key", [
        (NameTable, "race_totals"),
        (NameTable, "source_totals internal"),
        (GeoTable, "race_totals"),
    ])
    def test_load_rejects_negative_metadata_totals(self, tmp_path, table_cls, meta_key):
        # a negative universe total zeroes every likelihood of its race
        meta = {"races": "asian,black,hispanic,white", "kind": "surname",
                "race_totals": "1,1,1,1", meta_key: "1,-5,1,1"}
        header, row = "geo,count_asian,count_black,count_hispanic,count_white", "aa,1,0,0,0"
        if table_cls is NameTable:
            header, row = header.replace("geo", "name") + ",source", row + ",internal"
        path = tmp_path / "neg.csv"
        path.write_text("".join(f"# {k}: {v}\n" for k, v in meta.items()) + f"{header}\n{row}\n")
        with pytest.raises(SchemaError, match="neg.csv: negative count in '1,-5,1,1'"):
            table_cls.load(path)

    NAME_ROWS = ("name,count_asian,count_black,count_hispanic,count_white,source\n"
                 "aa,1,0,0,0,internal\n")

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "kind.csv"
        path.write_text("# races: asian,black,hispanic,white\n# kind: bogus\n"
                        "# race_totals: 1,1,1,1\n" + self.NAME_ROWS)
        with pytest.raises(SchemaError, match="kind.csv: unknown table kind 'bogus'"):
            NameTable.load(path)

    def test_load_rejects_unknown_source_totals_source(self, tmp_path):
        path = tmp_path / "src.csv"
        path.write_text("# races: asian,black,hispanic,white\n# kind: surname\n"
                        "# race_totals: 1,1,1,1\n# source_totals bogus: 1,1,1,1\n" + self.NAME_ROWS)
        with pytest.raises(SchemaError, match="src.csv: unknown source 'bogus'"):
            NameTable.load(path)

    TWO_SOURCE_ROWS = NAME_ROWS + "bb,0,1,0,0,external\n"

    def test_load_rejects_row_source_without_its_totals(self, tmp_path):
        # scoring the external row over race_totals would mix universes
        path = tmp_path / "src.csv"
        path.write_text("# races: asian,black,hispanic,white\n# kind: surname\n"
                        "# race_totals: 1,2,1,1\n# source_totals internal: 1,1,1,1\n"
                        + self.TWO_SOURCE_ROWS)
        with pytest.raises(SchemaError) as info:
            NameTable.load(path)
        assert str(info.value) == (
            f"{path}: no 'source_totals external' line for rows tagged external"
        )

    def test_load_without_source_totals_scores_over_race_totals(self, tmp_path):
        path = tmp_path / "src.csv"
        path.write_text("# races: asian,black,hispanic,white\n# kind: surname\n"
                        "# race_totals: 1,2,1,1\n" + self.TWO_SOURCE_ROWS)
        table = NameTable.load(path)
        np.testing.assert_array_equal(table.likelihood_rows(), [[1, 0, 0, 0], [0, 0.5, 0, 0]])

    def test_probability_csv_pseudo_counts(self, tmp_path):
        path = tmp_path / "census.csv"
        path.write_text(
            "name,total,p_asian,p_black,p_hispanic,p_white\n"
            "garcia,1000,0.01,0.005,0.92,0.065\n"
            "nobody,0,0.5,0.5,0.0,0.0\n"
        )
        table = NameTable.from_probability_csv(path, SURNAME)
        assert set(table.keys) == {"garcia"}  # zero-total row dropped
        np.testing.assert_array_equal(entries_of(table)["garcia"], [10, 5, 920, 65])
        assert provenance_of(table)["garcia"] == EXTERNAL


def saved_tables(tmp_path):
    """A saved name table (two sources) and a saved geography table, with
    the class that loads each."""
    name_path, geo_path = tmp_path / "surname.csv", tmp_path / "geo.csv"
    name_table(
        SURNAME, RACES, {"lee": [1, 2, 3, 4], "kim": [5, 0, 7, 8], "o'neil": [0, 0, 0, 9]},
        np.array([6, 2, 10, 21]), {"kim": EXTERNAL},
        source_totals={INTERNAL: np.array([1, 2, 3, 13]), EXTERNAL: np.array([5, 0, 7, 8])},
    ).save(name_path)
    geo_table(RACES, {"10001": [1, 2, 3, 4], "20002": [0, 1, 0, 0]}, [1, 3, 3, 4]).save(geo_path)
    return [(NameTable, name_path), (GeoTable, geo_path)]


class TestRowsLine:
    def test_saved_tables_state_their_row_count(self, tmp_path):
        for _, path in saved_tables(tmp_path):
            lines = path.read_text().splitlines()
            header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
            assert lines[header - 1] == f"# rows: {len(lines) - header - 1}"

    def test_table_cut_at_every_line_boundary_fails_naming_the_file(self, tmp_path):
        for cls, path in saved_tables(tmp_path):
            lines = path.read_bytes().splitlines(keepends=True)
            for kept in range(len(lines)):
                path.write_bytes(b"".join(lines[:kept]))
                with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "):
                    cls.load(path)
            path.write_bytes(b"".join(lines))
            cls.load(path)

    def test_table_cut_inside_its_last_row_fails_naming_the_file(self, tmp_path):
        # without its line break the last row parses: the geo table's last
        # count 45 reads 4, and the name table's last row loses only "\n"
        wide = tmp_path / "wide.csv"
        geo_table(RACES, {"10001": [1, 2, 3, 45]}, [1, 2, 3, 45]).save(wide)
        cuts = [(cls, path, 1) for cls, path in saved_tables(tmp_path)] + [(GeoTable, wide, 2)]
        for cls, path, cut in cuts:
            whole = path.read_bytes()
            path.write_bytes(whole[:-cut])
            message = f"{path}: the file does not end in a line break, so it was cut"
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                cls.load(path)

    def test_row_count_that_disagrees_names_both_counts(self, tmp_path):
        for cls, path in saved_tables(tmp_path):
            rows = len(cls.load(path))
            text = path.read_text()
            last = text.splitlines()[-1]
            path.write_text(f"{text}zz{last[last.index(','):]}\n")  # one row more
            message = f"{path}: the 'rows' metadata line says {rows}, the file holds {rows + 1}"
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                cls.load(path)

    def test_table_without_the_rows_line_loads_as_before(self, tmp_path):
        for cls, path in saved_tables(tmp_path):
            whole = cls.load(path)
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(line for line in lines if not line.startswith("# rows:")))
            loaded = cls.load(path)
            assert loaded.keys == whole.keys
            np.testing.assert_array_equal(loaded.counts, whole.counts)
            np.testing.assert_array_equal(loaded.race_totals, whole.race_totals)


# keys with the characters CSV must quote: commas, quotes, spaces and
# line breaks, plus a leading '#' that could pass for a metadata line
TABLE_KEYS = st.text(
    alphabet=st.sampled_from(list("ab,\" '#\n\r-")), min_size=0, max_size=8
)
TABLE_COUNTS = st.lists(st.integers(0, 10**12), min_size=4, max_size=4)


class TestRoundTripAnyKey:
    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(TABLE_KEYS, st.tuples(TABLE_COUNTS, st.sampled_from([INTERNAL, EXTERNAL])),
                        min_size=1, max_size=8),
        TABLE_COUNTS,
        TABLE_COUNTS,
    )
    def test_name_table(self, rows, internal_totals, external_totals):
        table = name_table(
            kind=FIRSTNAME,
            races=RACES,
            entries={key: np.array(c, dtype=np.int64) for key, (c, _) in rows.items()},
            race_totals=np.array(internal_totals),
            provenance={key: src for key, (_, src) in rows.items()},
            source_totals={
                INTERNAL: np.array(internal_totals), EXTERNAL: np.array(external_totals)
            },
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            table.save(path)
            loaded = NameTable.load(path)
            again = Path(tmp) / "again.csv"
            loaded.save(again)
            assert again.read_bytes() == path.read_bytes()
        assert loaded.kind == FIRSTNAME
        assert provenance_of(loaded) == provenance_of(table)
        assert entries_of(loaded) == entries_of(table)
        assert loaded.source_totals[EXTERNAL].tolist() == external_totals

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(TABLE_KEYS, TABLE_COUNTS, min_size=1, max_size=8), TABLE_COUNTS)
    def test_geo_table(self, rows, totals):
        table = geo_table(
            races=RACES,
            entries={key: np.array(c, dtype=np.int64) for key, c in rows.items()},
            race_totals=np.array(totals),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.csv"
            table.save(path)
            loaded = GeoTable.load(path)
        assert entries_of(loaded) == rows
        assert loaded.race_totals.tolist() == totals

    def test_comma_geo_id(self, tmp_path):
        table = geo_table(RACES, {"a,b": np.array([1, 2, 3, 4])}, np.array([1, 2, 3, 4]))
        table.save(tmp_path / "g.csv")
        assert entries_of(GeoTable.load(tmp_path / "g.csv"))["a,b"] == [1, 2, 3, 4]


class TestExternalKeysNormalized:
    HEADER = "name,total,p_asian,p_black,p_hispanic,p_white\n"

    def test_census_style_keys_match_lookup_keys(self, tmp_path):
        path = tmp_path / "census.csv"
        path.write_text(self.HEADER + "GARCIA,1000,0.01,0.005,0.92,0.065\n"
                        "O'BRIEN,200,0,0,0.05,0.95\nSMITH JR,100,0.1,0.2,0.3,0.4\n")
        table = NameTable.from_probability_csv(path, SURNAME)
        assert set(table.keys) == {"garcia", "obrien", "smith"}
        assert entries_of(table)["garcia"] == [10, 5, 920, 65]
        assert provenance_of(table)["obrien"] == EXTERNAL

    def test_keys_with_nothing_or_one_character_left_dropped(self, tmp_path):
        path = tmp_path / "census.csv"
        path.write_text(self.HEADER + "!!,100,0.25,0.25,0.25,0.25\n"
                        "X.,100,0.25,0.25,0.25,0.25\nLI,100,0.9,0,0,0.1\n")
        table = NameTable.from_probability_csv(path, SURNAME)
        assert set(table.keys) == {"li"}
        assert table.race_totals.tolist() == [90, 0, 0, 10]

    def test_colliding_rows_add_pseudo_counts(self, tmp_path):
        path = tmp_path / "census.csv"
        path.write_text(self.HEADER + "GARCIA,1000,0.01,0.005,0.92,0.065\n"
                        "Garcia,100,0.1,0.1,0.7,0.1\n")
        table = NameTable.from_probability_csv(path, SURNAME)
        assert entries_of(table)["garcia"] == [20, 15, 990, 75]
        assert table.race_totals.tolist() == [20, 15, 990, 75]

    def test_suffix_list_is_the_callers(self, tmp_path):
        path = tmp_path / "census.csv"
        path.write_text(self.HEADER + "NGUYEN ESQ,100,0.9,0,0,0.1\n")
        table = NameTable.from_probability_csv(path, SURNAME, suffixes=("esq",))
        assert set(table.keys) == {"nguyen"}


PROBABILITY_HEADER = ["name", "total", *(f"p_{r}" for r in RACES)]
# published names: upper case, punctuation, suffixes, line breaks
PUBLISHED_NAMES = st.text(alphabet=st.sampled_from(list("abAB '-.,!\"jJrR\n\r")), max_size=8)
PROBABILITY_ROWS = st.lists(
    st.tuples(
        PUBLISHED_NAMES,
        st.integers(0, 2**40),
        st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([5e-324, 2.0**-1070, 1.0])),
            min_size=len(RACES),
            max_size=len(RACES),
        ),
    ),
    max_size=8,
)


class TestProbabilityCsvRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(PROBABILITY_ROWS)
    def test_matches_per_row_reference(self, rows):
        expected: dict[str, list[int]] = {}
        for name, total, probs in rows:
            key = normalize_table(name)
            if key is not None and len(key) > 1:
                counts = [round(p * total) for p in probs]  # round half to even, as np.rint
                expected[key] = [a + b for a, b in zip(expected.get(key, [0] * 4), counts)]
        expected = {key: counts for key, counts in expected.items() if any(counts)}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "census.csv"
            write_csv(path, PROBABILITY_HEADER, [[n, t, *p] for n, t, p in rows], text=(0,))
            if not expected:
                with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: no usable rows$"):
                    NameTable.from_probability_csv(path, SURNAME, RACES)
                return
            table = NameTable.from_probability_csv(path, SURNAME, RACES)
        assert table.keys == list(expected)
        assert entries_of(table) == expected
        assert table.race_totals.tolist() == np.sum(list(expected.values()), axis=0).tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        PROBABILITY_ROWS.filter(lambda rows: not any("\n" in n or "\r" in n for n, _, _ in rows)),
        st.sampled_from([
            ["garcia", 100, 0.1, "nan", 0.9, 0],
            ["garcia", 100, "inf", 0, 0, 0],
            ["garcia", 100, 0.5, 0, 0.5, "-inf"],
            ["garcia", 2**53 + 1, 0.5, 0, 0.5, 0],
            ["garcia", 10**23, 0.5, 0, 0.5, 0],
        ]),
        st.data(),
    )
    def test_nan_inf_and_oversized_total_name_line(self, rows, bad, data):
        at = data.draw(st.integers(0, len(rows)))
        rows = [[n, t, *p] for n, t, p in rows]
        rows.insert(at, bad)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "census.csv"
            write_csv(path, PROBABILITY_HEADER, rows, text=(0,))
            with pytest.raises(SchemaError, match=f"census.csv: line {at + 2}: values out of range"):
                NameTable.from_probability_csv(path, SURNAME, RACES)
