"""Every writer replaces its target whole or not at all.

A writer writes a temporary file beside its target and moves it over the
target only once it has written everything, so a writer that fails
part-way leaves the old file byte for byte and no temporary file.  A
target that exists and is not a regular file is written in place.
"""

import os
import stat
import threading
import types

import pytest

from nameproxy import cli, lstm
from nameproxy.cli import main
from nameproxy.csvio import check_writable, write_csv
from nameproxy.lstm import init_params, save_params


def failing_rows(k):
    for i in range(k):
        yield (f"row{i}", "x")
    raise RuntimeError("the row iterator failed")


@pytest.mark.parametrize("k", [0, 1, 5, 5000])
def test_row_iterator_that_raises_leaves_the_old_file(tmp_path, k):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [("1", "2")] * 10)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="row iterator failed"):
        write_csv(path, ["a", "b"], failing_rows(k))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_written_file_has_the_permissions_of_a_new_file(tmp_path):
    made = tmp_path / "made.csv"
    made.touch()  # open()'s mode: 0o666 less the umask
    path = tmp_path / "out.csv"
    write_csv(path, ["a"], [("1",)])
    assert path.read_bytes() == b"a\n1\n"
    assert path.stat().st_mode == made.stat().st_mode


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o604])
def test_rewritten_file_keeps_its_permissions(tmp_path, mode):
    path = tmp_path / "out.csv"
    write_csv(path, ["a"], [("1",)])
    path.chmod(mode)
    write_csv(path, ["a"], [("2",)])
    assert path.read_bytes() == b"a\n2\n"
    assert path.stat().st_mode & 0o777 == mode


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_a_target_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    path = tmp_path / "pipe"
    os.mkfifo(path)
    read = []
    reader = threading.Thread(target=lambda: read.append(path.read_bytes()), daemon=True)
    reader.start()
    write_csv(path, ["a"], [("1",)])
    reader.join(timeout=10)
    assert read == [b"a\n1\n"]
    assert stat.S_ISFIFO(path.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_save_params_that_fails_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    save_params(init_params(embed_dim=4, hidden=3, layers=2, seed=1), path)
    before = path.read_bytes()

    def fails(*args):
        raise OSError("no space left on device")

    # the header's length is packed after the magic bytes are written
    monkeypatch.setattr(lstm, "struct", types.SimpleNamespace(pack=fails))
    with pytest.raises(OSError, match="no space left on device"):
        save_params(init_params(embed_dim=4, hidden=3, layers=2, seed=2), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_build_tables_manifest_that_fails_leaves_the_old_one(world, tmp_path, monkeypatch):
    out = tmp_path / "tables"
    argv = ["build-tables", "--config", world["config"], "--voter", world["voter"],
            "--out-dir", out]
    assert main([str(a) for a in argv]) == 0
    before = (out / "manifest.json").read_bytes()

    def fails(obj, fh, **kwargs):
        fh.write("{")
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dump=fails))
    assert main([str(a) for a in argv]) == 2
    assert (out / "manifest.json").read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_check_writable_leaves_the_target_and_no_temporary_file(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a"], [("1",)])
    check_writable(path)
    check_writable(tmp_path / "new" / "new.csv")
    assert path.read_bytes() == b"a\n1\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["new", "out.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_check_writable_does_not_open_a_fifo(tmp_path):
    """Opening a FIFO to write blocks until a reader comes: the check
    returns at once, and the write alone opens it."""
    path = tmp_path / "pipe"
    os.mkfifo(path)
    checker = threading.Thread(target=check_writable, args=(path,), daemon=True)
    checker.start()
    checker.join(timeout=10)
    assert not checker.is_alive()
    assert stat.S_ISFIFO(path.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.mark.parametrize("option", ["--out-params", "--out-log"])
def test_train_fails_before_its_first_epoch(world, tmp_path, capsys, monkeypatch, option):
    steps = []
    real = lstm.adam_step

    def counted(*args, **kwargs):
        steps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lstm, "adam_step", counted)
    params, log = tmp_path / "model.bin", tmp_path / "log.csv"
    target = params if option == "--out-params" else log
    target.mkdir()
    argv = ["train", "--config", world["config"], "--voter", world["voter"],
            "--out-params", params, "--out-log", log]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    assert steps == []
    assert capsys.readouterr().err == (
        f"nameproxy: io error: failed writing {target}: Is a directory\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_predict_fails_before_it_scores(world, tmp_path, capsys, monkeypatch):
    scored = []
    monkeypatch.setattr(cli, "predict_model", lambda *args: scored.append(args))
    target = tmp_path / "pred.csv"
    target.mkdir()
    argv = ["predict", "--config", world["config"], "--input", world["voter"],
            "--models", "bisg", "--out", target]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    assert scored == []
    assert capsys.readouterr().err == (
        f"nameproxy: io error: failed writing {target}: Is a directory\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["pred.csv"]


@pytest.mark.parametrize("command", ["predict", "sample", "train", "evaluate", "build-tables"])
def test_a_failed_write_names_its_target(world, tmp_path, capsys, command):
    """The first file each command writes is a directory already."""
    voter, out_dir = world["voter"], tmp_path / "out"
    predictions = tmp_path / "pred.csv"
    args, target = {
        "predict": (["--input", voter, "--models", "bisg", "--out", out_dir / "pred.csv"],
                    out_dir / "pred.csv"),
        "sample": (["--input", voter, "--n", 20, "--out", out_dir / "sample.csv"],
                   out_dir / "sample.csv"),
        "train": (["--voter", voter, "--out-params", out_dir / "model.bin",
                   "--out-log", tmp_path / "log.csv"], out_dir / "model.bin"),
        "evaluate": (["--truth", voter, "--predictions", predictions, "--out-dir", out_dir],
                     out_dir / "metrics_bisg.csv"),
        "build-tables": (["--voter", voter, "--out-dir", out_dir], out_dir / "surname_table.csv"),
    }[command]
    config = ["--config", world["config"]]
    if command == "evaluate":
        predict = ["predict", *config, "--input", voter, "--models", "bisg", "--out", predictions]
        assert main([str(a) for a in predict]) == 0
    target.mkdir(parents=True)
    capsys.readouterr()
    assert main([str(a) for a in [command, *config, *args]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"nameproxy: io error: failed writing {target}: ")
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("command", ["predict", "sample", "train", "evaluate", "build-tables"])
def test_a_command_makes_the_directories_above_its_targets(world, tmp_path, capsys, command):
    """Missing directories above a target are made; where a regular file
    stands in the way, the failure names the target."""
    voter, config = world["voter"], ["--config", world["config"]]
    predictions = tmp_path / "pred.csv"
    if command == "evaluate":
        predict = ["predict", *config, "--input", voter, "--models", "bisg", "--out", predictions]
        assert main([str(a) for a in predict]) == 0

    def run(out):
        """The command's exit code writing below ``out``, and its first target."""
        args, target = {
            "predict": (["--input", voter, "--models", "bisg", "--out", out / "pred.csv"],
                        out / "pred.csv"),
            "sample": (["--input", voter, "--n", 20, "--out", out / "sample.csv"],
                       out / "sample.csv"),
            "train": (["--voter", voter, "--out-params", out / "model.bin",
                       "--out-log", out / "log.csv"], out / "model.bin"),
            "evaluate": (["--truth", voter, "--predictions", predictions, "--out-dir", out],
                         out / "metrics_bisg.csv"),
            "build-tables": (["--voter", voter, "--out-dir", out], out / "surname_table.csv"),
        }[command]
        return main([str(a) for a in [command, *config, *args]]), target

    code, target = run(tmp_path / "a" / "b")
    assert code == 0 and target.is_file()
    (tmp_path / "afile").write_text("")
    capsys.readouterr()
    code, target = run(tmp_path / "afile" / "sub")
    assert code == 2
    assert capsys.readouterr().err == (
        f"nameproxy: io error: failed writing {target}: Not a directory\n"
    )
