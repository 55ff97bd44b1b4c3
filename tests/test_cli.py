"""End-to-end pipeline through the command-line interface."""

import csv
import json
import logging
import re
import tracemalloc
import unicodedata

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nameproxy.bayes as bayes
import nameproxy.cli as cli
import nameproxy.names as names
from nameproxy.bayes import BayesContext, bayes_scores
from nameproxy.cli import (
    main,
    prediction_header,
    read_people_csv,
    read_predictions_csv,
    write_people_csv,
    write_predictions_csv,
)
import nameproxy.config as config
from nameproxy.config import RunConfig, load_config
from nameproxy.core import DECLINED, REASON_CODE, People, RaceSet, Scores
from nameproxy.csvio import write_csv as write_framed_csv
from nameproxy.errors import SchemaError
from nameproxy.lstm import TrainConfig, init_params, save_params
from nameproxy.sampling import representative_sample_indices
from nameproxy.tables import (
    EXTERNAL,
    FIRSTNAME,
    INTERNAL,
    SURNAME,
    GeoTable,
    NameTable,
    build_name_table,
)

from conftest import (
    SURNAME_MIX,
    entries_of,
    people_of,
    provenance_of,
    synthetic_voter_rows,
    write_csv,
)

RACES = RaceSet()


def run(*argv):
    return main([str(a) for a in argv])


# train values of the right type that training cannot use
TRAIN_OUT_OF_RANGE = {
    "epochs_zero": {"epochs": 0},
    "embed_dim_zero": {"embed_dim": 0},
    "hidden_zero": {"hidden": 0},
    "layers_zero": {"layers": 0},
    "lr_negative": {"lr": -1},
    "lr_zero": {"lr": 0.0},
    "lr_nan": {"lr": float("nan")},
    "weight_decay_negative": {"weight_decay": -0.5},
    "weight_decay_inf": {"weight_decay": float("inf")},
    "seed_negative": {"seed": -3},
}


class TestConfig:
    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"paths": {}}))
        with pytest.raises(SchemaError, match="seed"):
            load_config(path)

    def test_negative_seed_names_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": -1}))
        message = f"{path}: 'seed' must be a non-negative integer, got -1"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_config(path)
        rc = run("sample", "--config", path, "--input", "x.csv", "--n", 1, "--out", "y.csv")
        assert rc == 1
        assert capsys.readouterr().err == f"nameproxy: {message}\n"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "surprise": True}))
        with pytest.raises(SchemaError, match="surprise"):
            load_config(path)

    def test_unknown_ensemble_key_rejected(self, tmp_path, capsys):
        # a misspelt "members" must not fall back to the default members
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "ensemble": {"member": ["bisg"]}}))
        message = f"{path}: unknown config keys: ['ensemble.member']"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_config(path)
        rc = run("sample", "--config", path, "--input", "x.csv", "--n", 1, "--out", "y.csv")
        assert rc == 1
        assert capsys.readouterr().err == f"nameproxy: {message}\n"

    def test_accepted_keys_are_pinned(self, tmp_path):
        keys = {
            "races", "seed", "suffixes", "filter_words_file", "target_shares", "sample_shares",
            "smoothing_alpha", "strict_metrics", "ensemble", "paths", "train",
        }
        assert config._KEYS == keys
        (tmp_path / "words.txt").write_text("acme\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "races": list(RACES.labels), "seed": 1, "suffixes": ["jr"],
            "filter_words_file": "words.txt", "target_shares": [1, 1, 1, 1],
            "sample_shares": [1, 2, 3, 4], "smoothing_alpha": 0.5, "strict_metrics": True,
            "ensemble": {"members": ["bisg"]}, "paths": {"params": "p.bin"},
            "train": {"epochs": 2},
        }))
        loaded = load_config(path)
        assert loaded.filter_words == {"acme"}
        assert loaded.train == TrainConfig(seed=1, epochs=2)
        # the field a key fills is not itself a key
        path.write_text(json.dumps({"seed": 1, "filter_words": ["acme"]}))
        with pytest.raises(SchemaError, match=re.escape("unknown config keys: ['filter_words']")):
            load_config(path)

    def test_omitted_keys_take_the_field_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        loaded = load_config(path)
        assert loaded == RunConfig(seed=7)
        assert loaded.train == TrainConfig(seed=7)
        assert loaded.ensemble.members == ("first_last_zcta", "ibisg", "ibifsg")
        assert loaded.sample_shares == (0.059, 0.126, 0.189, 0.593)
        assert loaded.target_shares is None and loaded.paths == {}

    def test_train_section_without_seed_takes_the_run_seed(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "train": {"epochs": 3}}))
        assert load_config(path).train == TrainConfig(seed=7, epochs=3)
        path.write_text(json.dumps({"seed": 7, "train": {"epochs": 3, "seed": 9}}))
        assert load_config(path).train == TrainConfig(seed=9, epochs=3)

    def test_unframeable_race_label_is_bad_races(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "races": ["a,b", "c"]}))
        with pytest.raises(SchemaError, match="bad races"):
            load_config(path)

    def test_relative_paths_resolve_against_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "paths": {"params": "x/p.bin"}}))
        cfg = load_config(path)
        assert cfg.path("params") == tmp_path / "x" / "p.bin"

    def test_bad_json_is_validation_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        rc = run("sample", "--config", path, "--input", "x.csv", "--n", 1, "--out", "y.csv")
        assert rc == 1

    @pytest.mark.parametrize(
        "entry",
        [
            {"strict_metrics": "false"},
            {"smoothing_alpha": -5},
            {"smoothing_alpha": "x"},
            {"races": "abc"},
            {"ensemble": {"members": "ibisg"}},
            {"ensemble": {"members": ["bisg", "bifsg"], "weights": "12"}},
            {"sample_shares": "1234"},
            {"suffixes": ["jr", 3]},
            {"train": {"epochs": "2", "embed_dim": 4, "hidden": 4, "layers": 1}},
            {"ensemble": {"members": ["ensemble", "bisg"]}},
            {"ensemble": {"members": ["bogus"]}},
            {"ensemble": {"members": ["bisg", "bifsg"], "weights": [float("nan"), 1]}},
            {"ensemble": {"members": ["bisg", "bifsg"], "weights": [float("inf"), 1]}},
            {"sample_shares": [float("nan"), 1, 1, 1]},
            {"sample_shares": [-0.1, 1, 1, 1]},
            {"sample_shares": [0, 0, 0, 0]},
            {"target_shares": [float("inf"), 1, 1, 1]},
            {"target_shares": [0.5, 0.5, -1, 1]},
            {"filter_words_file": 5},
            {"filter_words_file": ["a"]},
            *(
                {"train": {"embed_dim": 4, "hidden": 4, "layers": 1, **bad}}
                for bad in TRAIN_OUT_OF_RANGE.values()
            ),
        ],
        ids=[
            "strict", "alpha_negative", "alpha_text", "races", "members", "weights", "shares",
            "suffixes", "train", "member_ensemble", "member_unknown", "weights_nan",
            "weights_inf", "shares_nan", "shares_negative", "shares_zero", "target_inf",
            "target_negative", "words_number", "words_list", *TRAIN_OUT_OF_RANGE,
        ],
    )
    def test_value_of_wrong_type_names_file(self, tmp_path, capsys, entry):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, **entry}))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "):
            load_config(path)
        rc = run("sample", "--config", path, "--input", "x.csv", "--n", 1, "--out", "y.csv")
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"nameproxy: {path}: ")

    @pytest.mark.parametrize(
        "entry,message",
        [
            ({"ensemble": {"members": ["ensemble", "ibisg"]}},
             "bad ensemble spec: unknown member 'ensemble'; choose from first_last, "
             "first_last_zcta, bisg, bifsg, ibisg, ibifsg"),
            ({"ensemble": {"members": ["ibisg", "bogus"]}},
             "bad ensemble spec: unknown member 'bogus'; choose from "),
            ({"train": {"epochs": 0}}, "bad train section: epochs must be >= 1"),
            ({"train": {"lr": -1}}, "bad train section: lr must be finite and > 0"),
            ({"train": {"seed": -3}}, "bad train section: seed must be >= 0"),
        ],
        ids=["member_ensemble", "member_unknown", "epochs_zero", "lr_negative", "seed_negative"],
    )
    def test_unusable_value_names_its_section(self, tmp_path, entry, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, **entry}))
        with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_config(path)

    def test_every_member_model_loads(self, tmp_path):
        members = [*cli.MODEL_CHOICES[:-1], "ibisg", "ibifsg"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "ensemble": {"members": members}}))
        assert load_config(path).ensemble.members == tuple(members)

    def test_not_utf8_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"seed": 1,\n "suffixes": ["jr", "h\xedjo"]}')  # Latin-1
        message = f"{path}: line 2: not UTF-8 text (byte 0xed: invalid continuation byte)"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_config(path)
        rc = run("sample", "--config", path, "--input", "x.csv", "--n", 1, "--out", "y.csv")
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"nameproxy: {message}")

    def test_missing_config_file_is_io_error(self, tmp_path):
        rc = run(
            "sample",
            "--config", tmp_path / "nope.json",
            "--input", "x.csv", "--n", 1, "--out", "y.csv",
        )
        assert rc == 2


class TestIngestion:
    def test_malformed_row_names_line(self, tmp_path):
        rows = [("aa", "bb", "10001", "white")] * 15
        path = tmp_path / "data.csv"
        write_csv(path, rows)
        with open(path, "a", newline="", encoding="utf-8") as fh:
            fh.write("only,three,fields\n")  # file line 17
        with pytest.raises(SchemaError, match="line 17"):
            read_people_csv(path, RACES, require_race=True)

    def test_unknown_race_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, [("aa", "bb", "10001", "martian")])
        with pytest.raises(SchemaError, match="line 2"):
            read_people_csv(path, RACES, require_race=True)

    def test_optional_race(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, [("aa", "bb", "10001", "")])
        people = read_people_csv(path, RACES, require_race=False)
        assert people.race.tolist() == [-1]

    def test_lone_carriage_return_survives_write_and_read(self, tmp_path):
        path = tmp_path / "people.csv"
        write_people_csv(people_of([("a\rb", "c", "10001", "white")]), path)
        people = read_people_csv(path, RACES, require_race=True)
        assert people.first == ["a\rb"]

    def test_helper_writer_quotes_lone_carriage_return(self, tmp_path):
        path = tmp_path / "people.csv"
        write_csv(path, [("a\rb", "c\r", "10001\r", "white"), ("d", "e", "20002", "black")])
        people = read_people_csv(path, RACES, require_race=True)
        assert (people.first, people.last, people.geo) == (
            ["a\rb", "d"], ["c\r", "e"], ["10001", "20002"]
        )

    def test_one_string_object_per_distinct_value(self, tmp_path):
        # 4 names and 3 geo ids (one padded) over 40 rows
        rows = [(f"ann{i % 2}", f"lee{i % 3}", (" 10001 ", "10001", "10002")[i % 3], "white")
                for i in range(40)]
        path = tmp_path / "people.csv"
        write_csv(path, rows)
        people = read_people_csv(path, RACES, require_race=True)
        taken = people.take(np.arange(39, -1, -3))
        for column in (people.first, people.last, people.geo, taken.first, taken.last, taken.geo):
            assert len({id(value) for value in column}) == len(set(column))
        assert len(set(people.geo)) == 2

    def test_column_memory_does_not_grow_with_repeats(self, tmp_path):
        # 20,000 rows drawn from 50 names and 50 geo ids: each row costs a
        # pointer per column, a race index and list slack, 43 bytes at
        # peak; a string object per row and column (54-56 bytes each) read
        # 209
        rng = np.random.default_rng(3)
        pool = [f"name{i:02d}x" for i in range(50)]
        n = 20_000
        drawn = rng.integers(0, 50, size=(n, 4)).tolist()
        rows = [(pool[a], pool[b], f"1{c:04d}", RACES.labels[d % 4]) for a, b, c, d in drawn]
        path = tmp_path / "people.csv"
        write_csv(path, rows)
        read_people_csv(path, RACES, require_race=True)
        tracemalloc.start()
        try:
            read_people_csv(path, RACES, require_race=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 56

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.tuples(
                st.text(min_size=1),
                st.text(min_size=1),
                st.text(),
                st.integers(-1, len(RACES) - 1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_people_round_trip(self, tmp_path, rows):
        first, last, geo, race = (list(column) for column in zip(*rows))
        path = tmp_path / "people.csv"
        write_people_csv(People(first, last, geo, np.array(race), RACES), path)
        people = read_people_csv(path, RACES, require_race=False)
        assert people.first == first
        assert people.last == last
        assert people.geo == [g.strip() for g in geo]
        assert people.race.tolist() == race


class TestLineNumbers:
    """Errors name the file line of the faulty record, after a record whose
    quoted field spans lines 2 and 3."""

    def test_people(self, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text(
            'first_name,last_name,geo_id,race\n"a\nb",bb,10001,white\n,bb,10001,white\n'
        )
        with pytest.raises(SchemaError, match="people.csv: line 4: empty name field"):
            read_people_csv(path, RACES, require_race=True)

    def test_predictions(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(
            ",".join(prediction_header(RACES)) + "\n"
            '0,"a\nb",0.25,0.25,0.25,0.25,asian,1\n'
            "0,m,x,0.25,0.25,0.25,asian,1\n"
        )
        with pytest.raises(SchemaError, match="preds.csv: line 4: bad probability"):
            read_predictions_csv(path, RACES, n_rows=1)

    def test_external_table(self, tmp_path):
        path = tmp_path / "census.csv"
        path.write_text(
            "name,total,p_asian,p_black,p_hispanic,p_white\n"
            '"gar\ncia",100,0.25,0.25,0.25,0.25\n'
            "lee,-5,0.25,0.25,0.25,0.25\n"
        )
        with pytest.raises(SchemaError, match="census.csv: line 4: values out of range"):
            NameTable.from_probability_csv(path, SURNAME, RACES)

    def test_field_count(self, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text('first_name,last_name,geo_id,race\n"a\nb",bb,10001,white\naa,bb\n')
        with pytest.raises(SchemaError, match="line 4: expected 4 fields, got 2"):
            read_people_csv(path, RACES, require_race=True)

    @pytest.mark.parametrize("good_rows", [0, 2000])
    def test_not_utf8(self, world, tmp_path, capsys, good_rows):
        # text decodes a block at a time; with 2000 rows (about 40 kB)
        # before it, the bad byte lies blocks past the first
        path = tmp_path / "people.csv"
        path.write_bytes(
            b'first_name,last_name,geo_id,race\n"a\nb",bb,10001,white\n'
            + b"aa,bb,10001,white\n" * good_rows
            + b"jose,gar\xeda,10001,white\n"  # Latin-1
        )
        line = 4 + good_rows
        message = f"{path}: line {line}: not UTF-8 text (byte 0xed: invalid continuation byte)"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            read_people_csv(path, RACES, require_race=True)
        rc = run("sample", "--config", world["config"], "--input", path,
                 "--n", 1, "--out", tmp_path / "out.csv")
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"nameproxy: {message}")

    def test_not_utf8_header(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_bytes(b"r\xe9cord,model\n")
        with pytest.raises(SchemaError, match=r"preds.csv: line 1: not UTF-8 text \(byte 0xe9"):
            read_predictions_csv(path, RACES, n_rows=1)


class TestBuildTables:
    def test_manifest_and_files(self, world):
        tables = world["tables"]
        manifest = json.loads((tables / "manifest.json").read_text())
        assert manifest["records"] == sum(sum(c) for c in SURNAME_MIX.values())
        assert manifest["surname"]["suppressed"] >= 0
        assert manifest["surname"]["kept_merged"] >= manifest["surname"]["kept_internal"]
        for name in ("surname_table.csv", "firstname_table.csv", "geo_table.csv"):
            assert (tables / name).exists()

    def test_external_surname_preferred_on_collision(self, world):
        table = NameTable.load(world["tables"] / "surname_table.csv")
        assert provenance_of(table)["chen"] == EXTERNAL
        np.testing.assert_array_equal(entries_of(table)["chen"], [810, 20, 20, 150])
        assert provenance_of(table)["miller"] == INTERNAL
        assert provenance_of(table)["yoder"] == EXTERNAL

    def test_rerun_is_byte_identical(self, world, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out in (out1, out2):
            rc = run(
                "build-tables",
                "--config", world["config"],
                "--voter", world["voter"],
                "--external-surname", world["external_surname"],
                "--out-dir", out,
            )
            assert rc == 0
        for name in ("surname_table.csv", "firstname_table.csv", "geo_table.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_external_firstname_internal_preferred_on_collision(self, world, tmp_path):
        external = tmp_path / "hmda_firstnames.csv"
        with open(external, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "total", "p_asian", "p_black", "p_hispanic", "p_white"])
            writer.writerow(["wei", 500, 0.55, 0.1, 0.1, 0.25])  # collides with internal
            writer.writerow(["zelda", 200, 0.05, 0.05, 0.05, 0.85])  # union-only
        out = tmp_path / "tables"
        rc = run(
            "build-tables",
            "--config", world["config"],
            "--voter", world["voter"],
            "--external-firstname", external,
            "--out-dir", out,
        )
        assert rc == 0
        table = NameTable.load(out / "firstname_table.csv")
        assert provenance_of(table)["wei"] == INTERNAL  # internal side wins first names
        assert provenance_of(table)["zelda"] == EXTERNAL

    def test_target_shares_sample_drawn_once_matches_per_kind_build(self, world, tmp_path):
        """Tables from the shared sample equal the tables each kind's own
        resampling (same seed) gives, byte for byte."""
        config = json.loads(world["config"].read_text())
        config["target_shares"] = [0.1, 0.2, 0.3, 0.4]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "tables"
        rc = run("build-tables", "--config", cfg_path, "--voter", world["voter"], "--out-dir", out)
        assert rc == 0
        cfg = load_config(cfg_path)
        people = read_people_csv(world["voter"], cfg.races, require_race=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["target_shares"] == [0.1, 0.2, 0.3, 0.4]
        for kind in (SURNAME, FIRSTNAME):
            table = build_name_table(
                people, kind, seed=cfg.seed, target_shares=cfg.target_shares,
                suffixes=cfg.suffixes,
            )
            table.save(tmp_path / f"{kind}.csv")
            written = (out / f"{kind}_table.csv").read_bytes()
            assert written == (tmp_path / f"{kind}.csv").read_bytes()
            assert manifest[kind]["kept_internal"] == len(table)
        # the tables were counted from a sample smaller than the file
        sampled = NameTable.load(out / "surname_table.csv")
        unsampled = build_name_table(people, SURNAME, suffixes=cfg.suffixes)
        assert sampled.race_totals.sum() < unsampled.race_totals.sum()

    def test_upper_case_external_keys_match(self, world, tmp_path):
        external = tmp_path / "census.csv"
        with open(external, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "total", "p_asian", "p_black", "p_hispanic", "p_white"])
            writer.writerow(["YODER", 400, 0.01, 0.02, 0.02, 0.95])
            writer.writerow(["O'BRIEN", 300, 0.01, 0.02, 0.02, 0.95])
        out = tmp_path / "tables"
        rc = run(
            "build-tables", "--config", world["config"], "--voter", world["voter"],
            "--external-surname", external, "--out-dir", out,
        )
        assert rc == 0
        table = NameTable.load(out / "surname_table.csv")
        assert provenance_of(table)["yoder"] == EXTERNAL
        assert provenance_of(table)["obrien"] == EXTERNAL
        assert "YODER" not in table

    def test_composed_and_decomposed_spellings_make_one_key(self, world, tmp_path):
        voter = tmp_path / "voter.csv"
        accented = [("ana", unicodedata.normalize(form, "Pérez"), "30003", "hispanic")
                    for form in ("NFC", "NFD") for _ in range(20)]
        write_csv(voter, synthetic_voter_rows() + accented)
        out = tmp_path / "tables"
        rc = run("build-tables", "--config", world["config"], "--voter", voter, "--out-dir", out)
        assert rc == 0
        table = NameTable.load(out / "surname_table.csv")
        assert entries_of(table)["perez"] == [0, 0, 40, 0]
        assert len(table) == len(SURNAME_MIX) + 1

    def test_missing_voter_file_is_io_error(self, world, tmp_path):
        rc = run(
            "build-tables",
            "--config", world["config"],
            "--voter", tmp_path / "ghost.csv",
            "--out-dir", tmp_path / "t",
        )
        assert rc == 2


class TestTrainCommand:
    def test_log_has_one_row_per_epoch(self, world):
        lines = world["train_log"].read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_accuracy"
        assert len(lines) == 3  # header + 2 epochs

    def test_rerun_is_byte_identical(self, world, tmp_path):
        p1, p2 = tmp_path / "p1.bin", tmp_path / "p2.bin"
        for params_path, log_path in ((p1, tmp_path / "l1.csv"), (p2, tmp_path / "l2.csv")):
            rc = run(
                "train",
                "--config", world["config"],
                "--voter", world["voter"],
                "--out-params", params_path,
                "--out-log", log_path,
            )
            assert rc == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "l1.csv").read_bytes() == (tmp_path / "l2.csv").read_bytes()

    def test_single_class_file_fails_validation(self, world, tmp_path):
        path = tmp_path / "mono.csv"
        write_csv(path, [("aa", "bb", "10001", "white")] * 30)
        rc = run(
            "train",
            "--config", world["config"],
            "--voter", path,
            "--out-params", tmp_path / "p.bin",
            "--out-log", tmp_path / "l.csv",
        )
        assert rc == 1


DEFAULT_INPUT_ROWS = [
    ("wei", "chen", "10001", "asian"),
    ("lakisha", "washington", "20002", "black"),
    ("maria", "garcia", "30003", "hispanic"),
    ("brad", "miller", "40004", "white"),
    ("zork", "meister", "10001", "white"),  # unknown to every table
    ("brad", "olson", "99999", "white"),  # unknown geography
]


def predict_to(world, tmp_path, models, rows=None, name="preds.csv"):
    input_csv = tmp_path / "input.csv"
    write_csv(input_csv, rows if rows is not None else DEFAULT_INPUT_ROWS)
    out = tmp_path / name
    rc = run(
        "predict",
        "--config", world["config"],
        "--input", input_csv,
        "--models", models,
        "--out", out,
    )
    assert rc == 0
    return input_csv, out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPredictCommand:
    def test_output_schema_and_coverage(self, world, tmp_path):
        _, out = predict_to(world, tmp_path, "first_last,bisg,ensemble")
        rows = read_rows(out)
        assert rows[0] == [
            "row_id", "model",
            "p_asian", "p_black", "p_hispanic", "p_white",
            "max_race", "covered",
        ]
        assert len(rows) == 1 + 6 * 3
        by_key = {(r[0], r[1]): r for r in rows[1:]}
        for i in range(6):
            assert by_key[(str(i), "first_last")][-1] == "1"
        decline = by_key[("4", "bisg")]
        assert decline[-1] == "0" and decline[2] == "" and decline[6] == ""
        covered = by_key[("0", "bisg")]
        probs = [float(v) for v in covered[2:6]]
        assert abs(sum(probs) - 1.0) < 1e-9
        assert covered[6] == "asian"

    def test_ensemble_equals_single_covering_member(self, world, tmp_path):
        """With members (ibisg, ibifsg), a record only BISG covers passes through."""
        config = json.loads(world["config"].read_text())
        config["ensemble"] = {"members": ["ibisg", "ibifsg"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        for key in config["paths"]:
            config["paths"][key] = str(world["root"] / config["paths"][key])
        cfg_path.write_text(json.dumps(config))
        # "zelda" is absent from the first-name table, so ibifsg declines
        rows = [("zelda", "chen", "10001", "asian")]
        input_csv = tmp_path / "input.csv"
        write_csv(input_csv, rows)
        out = tmp_path / "preds.csv"
        rc = run(
            "predict",
            "--config", cfg_path,
            "--input", input_csv,
            "--models", "bisg,bifsg,ensemble",
            "--out", out,
        )
        assert rc == 0
        by_model = {r[1]: r for r in read_rows(out)[1:]}
        assert by_model["bifsg"][-1] == "0"
        assert by_model["bisg"][-1] == "1"
        assert by_model["ensemble"][2:6] == by_model["bisg"][2:6]

    def test_each_model_computed_once(self, world, tmp_path, monkeypatch):
        calls = {"predict_scores": 0, "bayes_scores": 0}

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        counted("predict_scores")
        counted("bayes_scores")
        _, out = predict_to(world, tmp_path, "first_last,first_last_zcta,ensemble")
        assert calls["predict_scores"] == 1
        # the shared vectors give the same rows as a run of each model alone
        together = {(r[0], r[1]): r for r in read_rows(out)[1:]}
        for model in ("first_last_zcta", "ensemble"):
            _, alone = predict_to(world, tmp_path, model, name=f"{model}.csv")
            for row in read_rows(alone)[1:]:
                assert together[(row[0], row[1])] == row

        config = json.loads(world["config"].read_text())
        config["ensemble"] = {"members": ["ibisg"]}
        for key in config["paths"]:
            config["paths"][key] = str(world["root"] / config["paths"][key])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        input_csv = tmp_path / "input.csv"
        calls["bayes_scores"] = 0
        rc = run(
            "predict",
            "--config", cfg_path,
            "--input", input_csv,
            "--models", "bisg,ensemble",
            "--out", tmp_path / "bisg.csv",
        )
        assert rc == 0
        # one column-kernel call scores every record for bisg and ensemble[ibisg]
        assert calls["bayes_scores"] == 1

    def test_each_surname_normalized_once(self, world, tmp_path, monkeypatch):
        calls = []
        real = names.normalize_table

        def counted(raw, *args, **kwargs):
            calls.append(raw)
            return real(raw, *args, **kwargs)

        # where the Bayes models look it up
        monkeypatch.setattr(bayes, "normalize_table", counted)
        rows = DEFAULT_INPUT_ROWS + [("ana", "Garcia ", "30003", ""), ("li", "chen", "10001", "")]
        predict_to(world, tmp_path, "bisg,bifsg,ensemble", rows=rows)
        # bisg, bifsg and the ensemble's ibisg/ibifsg share one resolution of
        # the surname column; the first-name column is normalized once too
        counts = {raw: calls.count(raw) for raw in calls}
        firsts = {row[0] for row in rows}
        for last in {row[1] for row in rows}:
            assert counts[last] == 1 + (last in firsts)

    def test_geo_factor_shared_by_zcta_and_bayes_members(self, world, tmp_path, monkeypatch):
        calls = []
        real = GeoTable.likelihood_rows

        def counted(table):
            calls.append(table)
            return real(table)

        monkeypatch.setattr(GeoTable, "likelihood_rows", counted)
        # ensemble members: first_last_zcta, ibisg, ibifsg
        predict_to(world, tmp_path, "first_last_zcta,ensemble")
        assert len(calls) == 1

    def test_first_last_zcta_needs_no_surname_table(self, world, tmp_path):
        config = json.loads(world["config"].read_text())
        del config["paths"]["surname_table"]
        for key in config["paths"]:
            config["paths"][key] = str(world["root"] / config["paths"][key])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        input_csv, full = predict_to(world, tmp_path, "first_last_zcta", name="full.csv")
        out = tmp_path / "no_surname.csv"
        rc = run(
            "predict",
            "--config", cfg_path,
            "--input", input_csv,
            "--models", "first_last_zcta",
            "--out", out,
        )
        assert rc == 0
        assert out.read_bytes() == full.read_bytes()

    def test_geo_id_whitespace_stripped(self, world, tmp_path):
        rows = [("wei", "chen", "10001", ""), ("wei", "chen", " 10001 ", ""),
                ("wei", "chen", "\t10001", "")]
        _, out = predict_to(world, tmp_path, "bisg,bifsg", rows=rows)
        by_row = {}
        for row in read_rows(out)[1:]:
            by_row.setdefault(row[0], []).append(row[1:])
        assert by_row["0"][0][-1] == "1"
        assert by_row["1"] == by_row["0"]
        assert by_row["2"] == by_row["0"]

    def test_decline_reasons_logged(self, world, tmp_path, caplog):
        rows = DEFAULT_INPUT_ROWS + [("!!", "..", "10001", "")]
        with caplog.at_level(logging.INFO, logger="nameproxy.cli"):
            predict_to(world, tmp_path, "first_last,bisg,bifsg,ensemble", rows=rows)
        by_model = {
            r.args[0]: r.args[2] for r in caplog.records if r.msg.startswith("%s over")
        }
        assert by_model["bisg"] == {"covered": 4, "unknown_surname": 2, "unknown_geo": 1}
        assert by_model["bifsg"]["unknown_surname"] == 2
        assert by_model["first_last"] == {"covered": 6, "unencodable_name": 1}
        # members first_last_zcta, ibisg, ibifsg: the unknown geography and
        # the unencodable name leave no member
        assert by_model["ensemble"] == {"covered": 5, "no_member": 2}

    def test_rerun_is_byte_identical(self, world, tmp_path):
        _, out1 = predict_to(world, tmp_path, "ensemble", name="p1.csv")
        _, out2 = predict_to(world, tmp_path, "ensemble", name="p2.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_model_fails_validation(self, world, tmp_path, capsys):
        input_csv = tmp_path / "input.csv"
        write_csv(input_csv, DEFAULT_INPUT_ROWS)
        rc = run(
            "predict",
            "--config", world["config"],
            "--input", input_csv,
            "--models", "oracle9000",
            "--out", tmp_path / "p.csv",
        )
        assert rc == 1
        # the error and the help list every accepted id, aliases included
        choices = "first_last, first_last_zcta, bisg, bifsg, ensemble, ibisg, ibifsg"
        assert capsys.readouterr().err == (
            f"nameproxy: unknown model 'oracle9000'; choose from {choices}\n"
        )
        with pytest.raises(SystemExit):
            run("predict", "--help")
        assert choices in " ".join(capsys.readouterr().out.split())

    def test_missing_artifact_fails_validation(self, world, tmp_path):
        config = json.loads(world["config"].read_text())
        config["paths"] = {}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        input_csv = tmp_path / "input.csv"
        write_csv(input_csv, DEFAULT_INPUT_ROWS)
        rc = run(
            "predict",
            "--config", cfg_path,
            "--input", input_csv,
            "--models", "bisg",
            "--out", tmp_path / "p.csv",
        )
        assert rc == 1

    def config_with(self, world, tmp_path, **paths):
        """The world's config with absolute paths, some of them replaced."""
        config = json.loads(world["config"].read_text())
        for key in config["paths"]:
            config["paths"][key] = str(world["root"] / config["paths"][key])
        config["paths"].update({key: str(path) for key, path in paths.items()})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        return cfg_path

    def test_params_class_count_must_match_races(self, world, tmp_path, capsys):
        params = tmp_path / "three.bin"
        save_params(init_params(embed_dim=4, hidden=3, layers=1, n_classes=3, seed=0), params)
        input_csv = tmp_path / "input.csv"
        write_csv(input_csv, DEFAULT_INPUT_ROWS)
        rc = run(
            "predict",
            "--config", self.config_with(world, tmp_path, params=params),
            "--input", input_csv,
            "--models", "first_last",
            "--out", tmp_path / "p.csv",
        )
        assert rc == 1
        assert "three.bin: parameters have 3 classes for 4 races" in capsys.readouterr().err

    def test_params_are_cast_once_to_float32(self, world, tmp_path):
        path = tmp_path / "params.bin"
        saved = init_params(embed_dim=4, hidden=3, layers=1, seed=0)
        save_params(saved, path)
        artifacts = cli.Artifacts(load_config(self.config_with(world, tmp_path, params=path)))
        params = artifacts.params
        assert params.flat.dtype == np.float32
        assert np.array_equal(params.flat, saved.flat.astype(np.float32))
        assert artifacts.params is params

    def test_weight_beyond_float32_fails_naming_the_file(self, world, tmp_path, capsys):
        path = tmp_path / "huge.bin"
        params = init_params(embed_dim=4, hidden=3, layers=1, seed=0)
        params.dense_w[0, 0] = 1e300  # finite in the float64 file
        save_params(params, path)
        input_csv = tmp_path / "input.csv"
        write_csv(input_csv, DEFAULT_INPUT_ROWS)
        rc = run(
            "predict",
            "--config", self.config_with(world, tmp_path, params=path),
            "--input", input_csv,
            "--models", "first_last",
            "--out", tmp_path / "p.csv",
        )
        assert rc == 1
        assert capsys.readouterr().err == f"nameproxy: {path}: a weight does not fit float32\n"
        assert not (tmp_path / "p.csv").exists()

    def test_missing_surname_table_names_its_key(self, world, tmp_path, capsys):
        cfg_path = self.config_with(world, tmp_path)
        config = json.loads(cfg_path.read_text())
        del config["paths"]["surname_table"]
        cfg_path.write_text(json.dumps(config))
        input_csv = tmp_path / "input.csv"
        write_csv(input_csv, DEFAULT_INPUT_ROWS)
        rc = run(
            "predict",
            "--config", cfg_path,
            "--input", input_csv,
            "--models", "bisg",
            "--out", tmp_path / "p.csv",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "nameproxy: config paths.surname_table is required for the requested model\n"

    @pytest.mark.parametrize("model", ["bisg", "bifsg"])
    def test_smoothing_alpha_reaches_bisg(self, world, tmp_path, model):
        cfg_path = self.config_with(world, tmp_path)
        config = json.loads(cfg_path.read_text())
        config["smoothing_alpha"] = 0.5
        cfg_path.write_text(json.dumps(config))
        input_csv = tmp_path / "input.csv"
        write_csv(input_csv, DEFAULT_INPUT_ROWS)
        out = tmp_path / "p.csv"
        rc = run(
            "predict", "--config", cfg_path, "--input", input_csv, "--models", model, "--out", out
        )
        assert rc == 0
        people = read_people_csv(input_csv, RACES, require_race=False)
        tables = world["tables"]
        surname = NameTable.load(tables / "surname_table.csv")
        firstname = NameTable.load(tables / "firstname_table.csv")
        geo = GeoTable.load(tables / "geo_table.csv")
        firsts = people.first if model == "bifsg" else None

        def scores(alpha):
            ctx = BayesContext(surname, geo, firstname, races=RACES, smoothing_alpha=alpha)
            return bayes_scores(ctx, people.last, people.geo, firsts)

        got = read_predictions_csv(out, RACES, len(people))[model]
        want = scores(0.5)
        assert want.covered.any()
        np.testing.assert_array_equal(got.reason, np.where(want.covered, 0, REASON_CODE[DECLINED]))
        np.testing.assert_array_equal(got.probs, want.probs)  # bit for bit
        assert not np.array_equal(scores(0.0).probs, want.probs)

    def test_count_beyond_int64_names_file_and_line(self, world, tmp_path, capsys):
        geo = tmp_path / "geo.csv"
        geo.write_text(
            "# races: asian,black,hispanic,white\n# race_totals: 1,1,1,1\n"
            f"geo,count_asian,count_black,count_hispanic,count_white\n10001,{10**23},0,0,0\n"
        )
        input_csv = tmp_path / "input.csv"
        write_csv(input_csv, DEFAULT_INPUT_ROWS)
        rc = run(
            "predict",
            "--config", self.config_with(world, tmp_path, geo_table=geo),
            "--input", input_csv,
            "--models", "bisg",
            "--out", tmp_path / "p.csv",
        )
        assert rc == 1
        assert "geo.csv: line 4: bad count" in capsys.readouterr().err


def write_predictions(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(prediction_header(RACES))
        writer.writerows(rows)


class TestReadPredictions:
    COVERED = [0.25, 0.25, 0.25, 0.25, "asian", 1]
    DECLINED = ["", "", "", "", "", 0]

    def test_scores_per_model(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions(path, [
            [0, "m", *self.COVERED], [1, "m", *self.DECLINED],
            [1, "k", *self.COVERED], [0, "k", *self.COVERED],
        ])
        scores = read_predictions_csv(path, RACES, n_rows=2)
        assert scores["m"].covered.tolist() == [True, False]
        assert scores["k"].covered.tolist() == [True, True]
        np.testing.assert_array_equal(scores["m"].probs, [[0.25] * 4, [0.0] * 4])

    def test_second_line_for_a_row_names_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions(path, [
            [0, "m", *self.COVERED], [1, "m", *self.COVERED], [0, "m", *self.DECLINED],
        ])
        with pytest.raises(SchemaError, match="line 4"):
            read_predictions_csv(path, RACES, n_rows=2)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_write_then_read_round_trip(self, tmp_path, data):
        n_rows = data.draw(st.integers(1, 6))
        models = data.draw(st.lists(st.sampled_from(cli.MODEL_CHOICES), min_size=1, unique=True))
        probability = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
        outputs = {}
        for model in models:
            covered = np.array(data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
            # a covered row has some mass; a declined row is all zeros
            cells = st.lists(probability, min_size=len(RACES), max_size=len(RACES))
            massed = cells.filter(lambda row: sum(row) > 0.0)
            probs = np.array(
                [data.draw(massed) if c else [0.0] * len(RACES) for c in covered], dtype=float
            )
            reason = np.where(covered, 0, REASON_CODE[DECLINED]).astype(np.int8)
            outputs[model] = Scores(probs, reason)
        path = tmp_path / "preds.csv"
        write_predictions_csv(outputs, RACES, path)
        read = read_predictions_csv(path, RACES, n_rows)
        assert list(read) == models
        for model, scores in outputs.items():
            assert read[model].probs.tobytes() == scores.probs.tobytes()
            assert read[model].covered.tolist() == scores.covered.tolist()

    def test_equal_rows_of_other_bits_keep_their_own_text(self, tmp_path):
        probs = np.array([[-0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-0.0, 1.0, 0.0, 0.0]])
        path = tmp_path / "preds.csv"
        write_predictions_csv({"m": Scores(probs, np.zeros(3, dtype=np.int8))}, RACES, path)
        assert path.read_text().splitlines()[1:] == [
            "0,m,-0.0,1.0,0.0,0.0,black,1",
            "1,m,0.0,1.0,0.0,0.0,black,1",
            "2,m,-0.0,1.0,0.0,0.0,black,1",
        ]

    # the line a record starts on, though the quoted "\r" ends a file line
    @pytest.mark.parametrize("model,line", [("m/x", 3), ("m\rx", 3)])
    def test_model_id_that_cannot_name_a_report_names_line(self, tmp_path, model, line):
        path = tmp_path / "preds.csv"
        rows = [[0, "m", *self.COVERED], [0, model, *self.COVERED]]
        write_framed_csv(path, prediction_header(RACES), rows, text=(1,))
        with pytest.raises(SchemaError, match=f"preds.csv: line {line}: model id"):
            read_predictions_csv(path, RACES, n_rows=1)

    @pytest.mark.parametrize(
        "bad",
        [["nan", 0.25, 0.25, 0.25], ["-5", 0.25, 0.25, 0.25], ["inf", 0.25, 0.25, 0.25],
         [0, 0, 0, 0]],
        ids=["nan", "-5", "inf", "no_mass"],
    )
    def test_negative_or_non_finite_probability_names_line(self, tmp_path, bad):
        path = tmp_path / "preds.csv"
        write_predictions(path, [
            [0, "m", *self.COVERED], [1, "m", *bad, "asian", 1],
        ])
        with pytest.raises(SchemaError, match="line 3"):
            read_predictions_csv(path, RACES, n_rows=2)


class TestEvaluateCommand:
    def test_reports_for_internal_and_external_predictions(self, world, tmp_path):
        input_csv, preds = predict_to(world, tmp_path, "first_last,ensemble")
        # hand-made third-party prediction file in the same format
        external = tmp_path / "thirdparty.csv"
        with open(external, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(read_rows(preds)[0])
            for i, row in enumerate(DEFAULT_INPUT_ROWS):
                vec = [0.25, 0.25, 0.25, 0.25]
                writer.writerow([i, "thirdparty"] + [repr(v) for v in vec] + ["asian", 1])
        out_dir = tmp_path / "reports"
        rc = run(
            "evaluate",
            "--config", world["config"],
            "--truth", input_csv,
            "--predictions", preds, external,
            "--out-dir", out_dir,
        )
        assert rc == 0
        for model in ("first_last", "ensemble", "thirdparty"):
            assert (out_dir / f"metrics_{model}.csv").exists()
        lines = (out_dir / "f1_comparison.csv").read_text().splitlines()
        assert lines[0] == "model,race,f1"
        assert len(lines) == 1 + 3 * 4

    def test_intersect_covered_subsets_all_models(self, world, tmp_path):
        input_csv, preds = predict_to(world, tmp_path, "first_last,bisg")
        out_dir = tmp_path / "reports"
        rc = run(
            "evaluate",
            "--config", world["config"],
            "--truth", input_csv,
            "--predictions", preds,
            "--out-dir", out_dir,
            "--intersect-covered",
        )
        assert rc == 0
        metrics = read_rows(out_dir / "metrics_first_last.csv")
        # rows 4 and 5 are uncovered by bisg, so support shrinks to the rest
        support = {row[0]: int(row[6]) for row in metrics[1:]}
        assert sum(support.values()) == 4

    def test_row_id_mismatch_fails(self, world, tmp_path):
        input_csv, preds = predict_to(world, tmp_path, "first_last")
        truncated = tmp_path / "short.csv"
        rows = read_rows(preds)
        with open(truncated, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows[:-1])
        rc = run(
            "evaluate",
            "--config", world["config"],
            "--truth", input_csv,
            "--predictions", truncated,
            "--out-dir", tmp_path / "r",
        )
        assert rc == 1

    def test_negative_sample_fails_validation(self, world, tmp_path, capsys):
        input_csv, preds = predict_to(world, tmp_path, "bisg")
        rc = run(
            "evaluate",
            "--config", world["config"],
            "--truth", input_csv,
            "--predictions", preds,
            "--out-dir", tmp_path / "r",
            "--sample", -7,
        )
        assert rc == 1
        assert capsys.readouterr().err == "nameproxy: sample size must be >= 0, got -7\n"
        assert not (tmp_path / "r").exists()

    def test_rerun_is_byte_identical(self, world, tmp_path):
        input_csv, preds = predict_to(world, tmp_path, "ensemble")
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for out_dir in (d1, d2):
            rc = run(
                "evaluate",
                "--config", world["config"],
                "--truth", input_csv,
                "--predictions", preds,
                "--out-dir", out_dir,
                "--sample", 4,
            )
            assert rc == 0
        assert (d1 / "metrics_ensemble.csv").read_bytes() == (
            d2 / "metrics_ensemble.csv"
        ).read_bytes()
        assert (d1 / "roc_ensemble.csv").read_bytes() == (d2 / "roc_ensemble.csv").read_bytes()


class TestSampleCommand:
    def make_pool(self, tmp_path):
        rows = []
        for race in RACES:
            for i in range(40):
                rows.append((f"fn{chr(ord('a') + i % 26)}", f"ln{race}", "10001", race))
        rows.append(("acme", "llc", "10001", "white"))  # filtered out
        rows.append(rows[0])  # duplicate (first, last, geo)
        path = tmp_path / "pool.csv"
        write_csv(path, rows)
        return path

    def test_filters_dedupes_and_stratifies(self, world, tmp_path):
        pool = self.make_pool(tmp_path)
        out = tmp_path / "sampled.csv"
        rc = run(
            "sample",
            "--config", world["config"],
            "--input", pool, "--n", 40, "--out", out,
        )
        assert rc == 0
        people = read_people_csv(out, RACES, require_race=True)
        assert len(people) == 40
        counts = dict(zip(RACES, np.bincount(people.race, minlength=len(RACES)).tolist()))
        assert counts == {race: 10 for race in RACES}  # equal shares in test config
        assert "llc" not in people.last
        keys = list(zip(people.first, people.last, people.geo))
        assert len(keys) == len(set(keys))

    def test_matches_per_record_filter_and_dedupe(self, world, tmp_path):
        """The column filter and dedupe pick the rows a per-record loop picks."""
        rng = np.random.default_rng(17)
        firsts = ["ann", "Acme", "bo", "bo inc", "cy", "LLC", "di"]
        lasts = ["lee", "smith co", "kim", "ray", "Services", "ng", "ox"]
        geos = ["10001", "20002", " 10001"]
        rows = [
            (firsts[int(rng.integers(7))], lasts[int(rng.integers(7))],
             geos[int(rng.integers(3))], RACES.labels[int(rng.integers(4))])
            for _ in range(400)
        ]
        pool = tmp_path / "pool.csv"
        write_csv(pool, rows)
        out = tmp_path / "sampled.csv"
        rc = run("sample", "--config", world["config"], "--input", pool, "--n", 8, "--out", out)
        assert rc == 0
        # per-record reference: the filter on "first last", the first row
        # of each (first, last, stripped geo), then the stratified draw
        seen, unique = set(), []
        for first, last, geo, race in rows:
            key = (first, last, geo.strip())
            if names.is_person_name(f"{first} {last}") and key not in seen:
                seen.add(key)
                unique.append((first, last, geo.strip(), race))
        cfg = load_config(world["config"])
        picks = representative_sample_indices(
            people_of(unique).race, 8, cfg.sample_shares, cfg.seed, RACES
        )
        want = tmp_path / "want.csv"
        write_csv(want, [unique[i] for i in picks])
        assert out.read_bytes() == want.read_bytes()

    def test_oversized_n_fails_validation(self, world, tmp_path):
        pool = self.make_pool(tmp_path)
        rc = run(
            "sample",
            "--config", world["config"],
            "--input", pool, "--n", 100000, "--out", tmp_path / "s.csv",
        )
        assert rc == 1

    def test_negative_n_fails_validation(self, world, tmp_path, capsys):
        pool = self.make_pool(tmp_path)
        out = tmp_path / "s.csv"
        rc = run("sample", "--config", world["config"], "--input", pool, "--n", -5, "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == "nameproxy: sample size must be >= 0, got -5\n"
        assert not out.exists()

    def test_rerun_is_byte_identical(self, world, tmp_path):
        pool = self.make_pool(tmp_path)
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (s1, s2):
            rc = run(
                "sample",
                "--config", world["config"],
                "--input", pool, "--n", 40, "--out", out,
            )
            assert rc == 0
        assert s1.read_bytes() == s2.read_bytes()
