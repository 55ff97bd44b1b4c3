"""End-to-end and per-layer benchmark of the nameproxy CLI.

Usage, from the root of a nameproxy checkout::

    python3 bench/run.py --workload tables_pipeline --seed 1 --seconds 25 --trace 0

The benchmark makes its inputs from ``--seed`` in a set-up that it repeats
and times, and runs the workload's commands as passes, one ``nameproxy``
child process per command and never two at a time.  It starts another pass
while the passes should still end within ``--seconds``, and always runs at
least one.  Each command's outputs are checked, and must repeat byte for
byte from pass to pass.

``--trace 0`` reports the end-to-end metrics, medians over passes.
``--trace 1`` alternates untraced and traced passes.  It reports the
per-layer metrics of the traced passes, the per-command figures of the
untraced ones and the tracing overhead, all medians over passes.  The last
line of standard output is the result object; the line before it holds the
environment and every per-pass figure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import spans

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
#: After the set-up that makes the passes' inputs, set-up is repeated
#: back to back for SETUP_SLOT_S before the first pass and again after each
#: pass, and ``setup_s`` is the median time of all set-ups.  The slots
#: spread the set-ups over the whole run, so the median does not rest on
#: the few seconds of one phase of the host's speed.
SETUP_SLOT_S = 2.0
#: A child still running this many seconds after the start is killed, so a
#: run ends within 180 s.
DEADLINE_S = 170.0


def child_env(blas_threads: int) -> dict:
    """The children's environment; BLAS threads are pinned here and nowhere else."""
    threads = str(min(blas_threads, os.cpu_count() or 1))
    env = dict(os.environ)
    env.pop("NAMEPROXY_LOG", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def run_child(argv, cwd: Path, env: dict, timeout: float) -> dict:
    """Run one command; wall time and the child's own peak RSS from ``wait4``."""
    with open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *argv],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "stderr": (cwd / "stderr.txt").read_text(errors="replace")[-2000:],
    }


def digest(path: Path) -> str:
    """sha256 over a file, or over every file under a directory in name order."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(str(f.relative_to(path.parent)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_pass(commands, work: Path, env: dict, traced: bool, index: int,
             deadline: float) -> dict:
    """Every command once, in order; a pass stops at its first failed command."""
    results = []
    for n, cmd in enumerate(commands):
        if time.monotonic() >= deadline:
            results.append({"stage": cmd.stage, "problem": "not started: out of time"})
            break
        argv = list(cmd.argv)
        trace_file = None
        if traced:
            trace_file = work.parent / f"trace-{index}-{n}.npz"
            argv = ["--trace-out", str(trace_file)] + argv
        res = run_child(argv, work, env, deadline - time.monotonic())
        res["stage"] = cmd.stage
        res["trace"] = trace_file
        if res["exit"] != 0:
            res["problem"] = f"exit {res['exit']}: {res['stderr']}"
        else:
            try:
                res["problem"], res["facts"] = cmd.check(work)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                res["problem"] = f"output check raised {exc!r}"
            res["outputs"] = {out: digest(work / out) for out in cmd.outputs}
        del res["stderr"]
        results.append(res)
        if res["problem"]:
            break
    return {"traced": traced, "commands": results}


def mark_repeats(passes) -> None:
    """A command whose outputs differ from its first pass has failed.

    Equal outputs also give equal facts, such as coverage counts.
    """
    first = {}
    for p in passes:
        for n, res in enumerate(p["commands"]):
            if res["problem"] is not None:
                continue
            seen = first.setdefault(n, res)
            if res["outputs"] != seen["outputs"]:
                res["problem"] = "outputs differ from the first pass"


def pass_figures(p: dict, info: dict) -> dict:
    """Wall time and peak RSS of a pass, and the per-command figures."""
    cmds = p["commands"]

    def stage_s(stage):
        return sum(c["wall_s"] for c in cmds if c["stage"] == stage)

    def rate(count_key, stage):
        return info[count_key] / stage_s(stage) if stage_s(stage) > 0 else 0.0

    return {
        "wall_s": sum(c["wall_s"] for c in cmds),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in cmds),
        "build_tables_s": stage_s("build_tables"),
        "predict_records_per_s": rate("predict_records", "predict"),
        "evaluate_s": stage_s("evaluate"),
        "sample_s": stage_s("sample"),
        "train_samples_per_s": rate("train_samples", "train"),
    }


def per_layer(p: dict, info: dict) -> dict:
    """Layer figures of one traced pass, summed over its commands."""
    calls, incl, own, counters = {}, {}, {}, {}
    predict_calls, predict_counters = {}, {}
    for c in p["commands"]:
        s = spans.summarize(c["trace"])
        for total, part in ((calls, s["calls"]), (incl, s["inclusive_s"]),
                            (own, s["self_s"]), (counters, s["counters"])):
            for k, v in part.items():
                total[k] = total.get(k, 0) + v
        if c["stage"] == "predict":
            predict_calls, predict_counters = s["calls"], s["counters"]

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(k, 0) for k in names)

    lookups = ("tables.NameTable.race_given_name", "tables.NameTable.name_likelihood",
               "tables.GeoTable.geo_likelihood")
    posteriors = ("bayes.bisg_reason", "bayes.bifsg_reason", "bayes.geo_augment_reason")
    normalizers = ("names.normalize", "names.normalize_table")
    records = info.get("predict_records", 0)
    forward_s = t("lstm.forward")
    gflop = counters.get("lstm.forward_flop", 0) / 1e9
    return {
        "cli.read_people_csv_s": t("cli.read_people_csv"),
        "cli.predict_emit_s": own.get("cli.cmd_predict", 0.0),
        "cli.read_predictions_csv_s": t("cli.read_predictions_csv"),
        "cli.predict_model_calls": n("cli.predict_model"),
        "cli.predict_model_s": t("cli.predict_model"),
        "names.normalize_calls": n(*normalizers),
        "names.normalize_s": t(*normalizers),
        "names.encode_name_calls": n("names.encode_name"),
        "tables.build_name_table_s": t("tables.build_name_table"),
        "tables.build_geo_table_s": t("tables.build_geo_table"),
        "tables.save_s": t("tables.NameTable.save", "tables.GeoTable.save"),
        "tables.load_s": t("tables.NameTable.load", "tables.GeoTable.load"),
        "tables.lookup_calls": n(*lookups),
        "tables.lookup_s": t(*lookups),
        "bayes.posterior_calls": n(*posteriors),
        "bayes.posterior_calls_per_record":
            sum(predict_calls.get(k, 0) for k in posteriors) / records if records else 0.0,
        "bayes.posterior_s": t(*posteriors),
        "bayes.covered_ratio": counters.get("bayes.covered", 0) / max(n(*posteriors), 1),
        "ensemble.predict_calls": n("ensemble.ensemble_predict"),
        "ensemble.predict_s": t("ensemble.ensemble_predict"),
        "lstm.forward_calls": n("lstm.forward"),
        "lstm.forward_rows": counters.get("lstm.forward_rows", 0),
        "lstm.forward_rows_per_record":
            predict_counters.get("lstm.forward_rows", 0) / records if records else 0.0,
        "lstm.forward_s": forward_s,
        "lstm.forward_gflop": gflop,
        "lstm.forward_gflops": gflop / forward_s if forward_s > 0 else 0.0,
        "lstm.load_params_s": t("lstm.load_params"),
        "lstm.loss_and_gradients_s": t("lstm.loss_and_gradients"),
        "lstm.adam_step_calls": n("lstm.adam_step"),
        "lstm.adam_step_s": t("lstm.adam_step"),
        "lstm.save_params_s": t("lstm.save_params"),
        "evaluation.class_metrics_s": t("evaluation.class_metrics"),
        "evaluation.roc_curve_s": t("evaluation.roc_curve"),
        "evaluation.emit_report_s": t("evaluation.emit_report"),
        "sampling.sample_indices_s": t("sampling.representative_sample_indices"),
    }


def declared_units(trace: bool) -> dict:
    """{metric: unit} that BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def median_of(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    mem_mb = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_mb = int(next(l for l in fh if l.startswith("MemTotal")).split()[1]) // 1024
    except (OSError, StopIteration):
        pass
    return {
        "machine": f"{platform.machine()} {cpu}",
        "platform": platform.platform(),
        "cores": os.cpu_count(),
        "memory_mb": mem_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(wl, seed: int, seconds: float, trace: bool, work_root: Path, deadline: float):
    """Set up, run passes, check; returns (details, attempted, failed, metrics)."""
    setup_s, problems = [], []
    setups = 0
    env = child_env(wl.blas_threads)

    def set_up(d: Path):
        """One timed set-up into ``d``: (info, digests), or (None, None) if it failed."""
        nonlocal setups
        setups += 1
        d.mkdir(parents=True)

        def cli(argv):
            res = run_child(argv, d, env, deadline - time.monotonic())
            if res["exit"] != 0:
                raise RuntimeError(f"set-up command {argv} failed: {res['stderr']}")

        t0 = time.perf_counter()
        try:
            info = wl.setup(d, seed, cli)
        except Exception as exc:  # a failed set-up is a failed operation, not a crash
            problems.append(f"set-up {setups - 1} failed: {exc!r}")
            return None, None
        setup_s.append(time.perf_counter() - t0)
        return info, {p.name: digest(p) for p in sorted(d.iterdir())}

    work = work_root / "run"
    info, reference = set_up(work)

    def set_up_again():
        """One slot of set-ups into a scratch directory; each must match set-up 0."""
        start = time.perf_counter()
        while time.perf_counter() - start < SETUP_SLOT_S:
            _, dg = set_up(work_root / "again")
            shutil.rmtree(work_root / "again")
            if dg is None:
                return
            if dg != reference:
                problems.append(f"set-up {setups - 1} made different inputs from set-up 0")

    commands = wl.commands(seed)
    passes = []
    if reference is not None:
        modes = (False, True) if trace else (False,)
        measured = 0.0
        set_up_again()
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(commands, work, env, modes[len(passes) % len(modes)],
                                   len(passes), deadline))
            last = time.monotonic() - t0
            measured += last
            set_up_again()
            if len(passes) >= len(modes) and measured + last > seconds:
                break
            if time.monotonic() + last > deadline:
                break
        mark_repeats(passes)

    ran = [c for p in passes for c in p["commands"]]
    problems += [f"{c['stage']}: {c['problem']}" for c in ran if c["problem"]]
    attempted, failed = setups + len(ran), len(problems)
    complete = [p for p in passes if len(p["commands"]) == len(commands)
                and all(c["problem"] is None for c in p["commands"])]
    plain = [pass_figures(p, info) for p in complete if not p["traced"]]
    traced = [p for p in complete if p["traced"]]

    values = {}
    if plain and not trace:
        e2e = median_of(plain)
        values = {"setup_s": statistics.median(setup_s), "wall_s": e2e["wall_s"],
                  "peak_rss_mb": e2e["peak_rss_mb"]}
    elif plain and traced:
        e2e = median_of(plain)
        values = median_of([per_layer(p, info) for p in traced])
        for key in ("build_tables_s", "predict_records_per_s", "evaluate_s", "sample_s",
                    "train_samples_per_s"):
            values[key] = e2e[key]
        traced_wall = statistics.median(pass_figures(p, info)["wall_s"] for p in traced)
        values["trace_overhead_ratio"] = traced_wall / e2e["wall_s"]
        values["ops_failed_ratio"] = failed / attempted
    units = declared_units(trace)
    if not values:
        problems.append("no complete pass to measure")
    elif values.keys() != units.keys():
        problems.append(f"measured metrics {sorted(values.keys() ^ units.keys())}"
                        " are not the ones BENCHMARK.json declares, or the reverse")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units}

    for p in passes:
        for c in p["commands"]:
            c.pop("trace", None)
    details = {"blas_threads": int(env["OPENBLAS_NUM_THREADS"]), "setup_s": setup_s,
               "setup_info": info, "passes": passes, "problems": problems}
    return details, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nameproxy" / "cli.py").is_file():
        print("bench: src/nameproxy not found; run from the root of a nameproxy checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import compileall

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # the build: byte-compile the package once so no pass pays for it
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    started = time.monotonic()
    base = ROOT / ".bench_work"
    work_root = base / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        details, attempted, failed, metrics = measure(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            work_root, started + DEADLINE_S,
        )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    for line in details["problems"]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, environment=environment(),
                   elapsed_s=time.monotonic() - started)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": not details["problems"], "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
