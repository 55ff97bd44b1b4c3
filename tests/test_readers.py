"""The contract every file reader keeps: a file loads, or it fails with a
:class:`NameproxyError` that names it.

Checked three ways: byte mutations of a small valid file for each of the
eight readers, a UTF-8 byte order mark (which Excel and Notepad write),
and a quote left open in a file longer than the csv module's field size
limit (128 KB), where the reader stops far below the faulty line.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nameproxy.cli import (
    main,
    read_people_csv,
    read_predictions_csv,
    write_people_csv,
    write_predictions_csv,
)
from nameproxy.config import load_config
from nameproxy.core import RaceSet, Scores
from nameproxy.errors import NameproxyError, SchemaError
from nameproxy.lstm import init_params, load_params, save_params
from nameproxy.names import is_person_name, load_filter_words
from nameproxy.tables import EXTERNAL, SURNAME, GeoTable, NameTable

from conftest import geo_table, name_table, people_of

RACES = RaceSet()
BOM = b"\xef\xbb\xbf"
PREDICTION_ROWS = 3


def write_people(path):
    rows = [("ann", "lee", "10001", "white"), ("bo", "o'neil", " 20002 ", ""),
            ('a"b', "kim, jr", "30003", "asian")]
    write_people_csv(people_of(rows), path)


def write_predictions(path):
    probs = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    reason = np.array([0, 1, 0], dtype=np.int8)
    outputs = {"bisg": Scores(probs, reason), "bifsg": Scores(probs[::-1].copy(), reason)}
    write_predictions_csv(outputs, RACES, path)


def write_name_table(path):
    entries = {"lee": [1, 2, 3, 4], "kim": [5, 0, 7, 8], "o'neil": [0, 0, 0, 9]}
    totals = {"internal": np.array([6, 2, 10, 12]), "external": np.array([9, 9, 9, 9])}
    table = name_table(SURNAME, RACES, entries, totals["internal"], {"kim": EXTERNAL},
                       source_totals=totals)
    table.save(path)


def write_geo_table(path):
    geo_table(RACES, {"10001": [1, 2, 3, 4], "2 0": [0, 1, 0, 0]}, [1, 3, 3, 4]).save(path)


def write_probability_csv(path):
    path.write_text(
        "name,total,p_asian,p_black,p_hispanic,p_white\n"
        "CHEN,1000,0.81,0.02,0.02,0.15\nyoder,400,0.01,0.02,0.02,0.95\n"
        '"o\'brien, jr",50,0.1,0.1,0.1,0.7\n'
    )


def write_params(path):
    save_params(init_params(embed_dim=3, hidden=2, layers=1, n_classes=4, seed=5), path)


def write_config(path):
    path.write_text(json.dumps({
        "seed": 7,
        "races": list(RACES),
        "suffixes": ["jr", "iii"],
        "sample_shares": [0.25, 0.25, 0.25, 0.25],
        "smoothing_alpha": 0.5,
        "ensemble": {"members": ["bisg", "first_last"], "weights": [1, 2]},
        "paths": {"geo_table": "geo.csv"},
        "train": {"epochs": 2, "hidden": 8},
    }))


def write_filter_words(path):
    path.write_text("llc\n# business words\nholdings  # inline\nINC\n")


def people_columns(path):
    people = read_people_csv(path, RACES, require_race=False)
    return people.first, people.last, people.geo, people.race.tolist()


def prediction_columns(path):
    outputs = read_predictions_csv(path, RACES, PREDICTION_ROWS)
    return {model: (s.probs.tolist(), s.reason.tolist()) for model, s in outputs.items()}


def table_columns(table):
    sources = getattr(table, "sources", None)
    totals = getattr(table, "source_totals", {})
    return (table.keys, table.counts.tolist(), table.race_totals.tolist(),
            None if sources is None else sources.tolist(),
            {src: tot.tolist() for src, tot in totals.items()})


def params_of(path):
    return load_params(path).flat.tolist()


#: reader id -> (file name, writer of a small valid file, reader returning
#: something comparable)
READERS = {
    "read_people_csv": ("people.csv", write_people, people_columns),
    "read_predictions_csv": ("pred.csv", write_predictions, prediction_columns),
    "NameTable.load": ("surname.csv", write_name_table,
                       lambda path: table_columns(NameTable.load(path))),
    "GeoTable.load": ("geo.csv", write_geo_table,
                      lambda path: table_columns(GeoTable.load(path))),
    "from_probability_csv": ("census.csv", write_probability_csv,
                             lambda path: table_columns(
                                 NameTable.from_probability_csv(path, SURNAME, RACES))),
    "load_params": ("params.bin", write_params, params_of),
    "load_config": ("cfg.json", write_config, load_config),
    "load_filter_words": ("words.txt", write_filter_words, load_filter_words),
}
TEXT_READERS = [reader for reader in READERS if reader != "load_params"]


def mutated(data: bytes, op: int, at: int, new: bytes) -> bytes:
    """``data`` with ``len(new)`` bytes at ``at`` overwritten by ``new``
    (op 0), ``new`` inserted there (op 1), or ``len(new)`` bytes deleted
    (op 2)."""
    at %= len(data) + 1
    if op == 0:
        return data[:at] + new + data[at + len(new):]
    if op == 1:
        return data[:at] + new + data[at:]
    return data[:at] + data[at + len(new):]


@pytest.mark.parametrize("reader", READERS)
@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    op=st.integers(0, 2),
    at=st.integers(0, 2**16),
    new=st.binary(min_size=1, max_size=4),
)
def test_mutated_file_loads_or_raises_a_package_error(reader, tmp_path, op, at, new):
    name, write, read = READERS[reader]
    valid = tmp_path / f"valid_{name}"
    if not valid.exists():
        write(valid)
        read(valid)
    path = tmp_path / name
    path.write_bytes(mutated(valid.read_bytes(), op, at, new))
    try:
        read(path)
    except NameproxyError:
        pass


@pytest.mark.parametrize("reader", TEXT_READERS)
def test_byte_order_mark_is_skipped(reader, tmp_path):
    name, write, read = READERS[reader]
    plain = tmp_path / name
    write(plain)
    marked = tmp_path / f"bom_{name}"
    marked.write_bytes(BOM + plain.read_bytes())
    assert read(marked) == read(plain)


def test_byte_order_mark_keeps_the_first_filter_word(tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(BOM + b"llc\ninc\n")
    assert not is_person_name("acme llc", load_filter_words(path))


#: about 144 KB of records after the faulty line: past the field size limit
PADDING = 8000


def config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "sample_shares": [0.25, 0.25, 0.25, 0.25]}))
    return path


@pytest.mark.parametrize("line", [1, 5])
def test_unclosed_quote_in_people_file_names_its_line(tmp_path, capsys, line):
    path = tmp_path / "people.csv"
    lines = ["first_name,last_name,geo_id,race\n"] + ["ann,lee,1001,white\n"] * (PADDING + 4)
    lines[line - 1] = '"' + lines[line - 1]
    path.write_text("".join(lines))
    prefix = f"{path}: line {line}: cannot parse the record that starts here"
    with pytest.raises(SchemaError, match="field larger than field limit") as err:
        read_people_csv(path, RACES, require_race=True)
    assert str(err.value).startswith(prefix)
    rc = main(["sample", "--config", str(config_file(tmp_path)), "--input", str(path),
               "--n", "1", "--out", str(tmp_path / "out.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"nameproxy: {prefix}")


@pytest.mark.parametrize("line,after,fields", [
    (5, [], 1),  # the open field runs on to the end of the file
    (3, ['bo,"kim",1002,black\n'], 3),  # to the next quote, on line 4
])
def test_record_below_the_field_size_limit_names_its_first_line(tmp_path, line, after, fields):
    path = tmp_path / "people.csv"
    lines = ["first_name,last_name,geo_id,race\n"] + ["ann,lee,1001,white\n"] * 6
    lines[line - 1] = '"ann,lee,1001,white\n'
    lines[line : line + len(after)] = after
    path.write_text("".join(lines))
    message = f"{path}: line {line}: expected 4 fields, got {fields}"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        read_people_csv(path, RACES, require_race=True)


def test_unclosed_quote_in_probability_file_names_its_line(tmp_path):
    path = tmp_path / "census.csv"
    path.write_text(
        "name,total,p_asian,p_black,p_hispanic,p_white\n"
        '"chen,1000,0.81,0.02,0.02,0.15\n' + "lee,10,0.25,0.25,0.25,0.25\n" * PADDING
    )
    with pytest.raises(SchemaError) as err:
        NameTable.from_probability_csv(path, SURNAME, RACES)
    assert str(err.value).startswith(f"{path}: line 2: cannot parse the record that starts here")


def test_unclosed_quote_in_table_file_counts_its_metadata_lines(tmp_path):
    path = tmp_path / "surname.csv"
    write_name_table(path)
    lines = path.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert header == 5  # races, kind, race_totals and two source_totals lines
    faulty = header + 2  # the second record
    rows = [f"k{i:06d},1,1,1,1,internal\n" for i in range(PADDING)]
    path.write_text("".join(lines[:faulty] + ['"' + lines[faulty]] + rows))
    with pytest.raises(SchemaError) as err:
        NameTable.load(path)
    line = faulty + 1
    assert str(err.value).startswith(
        f"{path}: line {line}: cannot parse the record that starts here"
    )
