"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Expected values come from independent oracles coded
inline (enumeration, brute-force counting, central finite differences,
pairwise statistics), never from the code paths under test.
"""

import json
import time

import numpy as np
import pytest

from nameproxy.bayes import (
    BayesContext,
    bayes_scores,
    bifsg_reason,
    bisg_reason,
    geo_augment,
    geo_augment_scores,
)
from nameproxy.cli import main
from nameproxy.core import (
    REASON_CODE,
    UNKNOWN_GEO,
    UNKNOWN_SURNAME,
    ZERO_MASS,
    RaceSet,
    Scores,
)
from nameproxy.ensemble import EnsembleSpec, ensemble_predict
from nameproxy.evaluation import class_metrics, roc_curve
from nameproxy.lstm import TrainConfig, init_params, loss_and_gradients, predict_scores, train
from nameproxy.names import encode_name
from nameproxy.sampling import largest_remainder_quotas, representative_sample_indices
from nameproxy.tables import (
    FIRSTNAME,
    SURNAME,
    build_geo_table,
    build_name_table,
)

from conftest import Row, name_table, people_of, synthetic_voter_rows, write_csv
from test_lstm import pass_probs, synthetic_records

RACES = RaceSet()

US_SHARES = (0.059, 0.126, 0.189, 0.593)


def _pass(name):
    print(f"[acceptance] {name}: PASS")


def max_label(p):
    """The Max rule: the label of the highest probability, the first on a tie."""
    return RACES.labels[int(np.argmax(p))]


def race_indices(labels):
    """Race indices of labels; None (a decline) becomes -1."""
    return np.array([-1 if label is None else RACES.index(label) for label in labels])


def _letters(i, width=2):
    out = []
    for _ in range(width):
        out.append(chr(ord("a") + i % 26))
        i //= 26
    return "".join(out)


class TestC01BayesOracleEquivalence:
    """BISG/BIFSG posteriors equal enumerated conditionals within 1e-9
    on populations with exact conditional independence given race."""

    def test_bisg(self):
        start = time.monotonic()
        rng = np.random.default_rng(12345)
        surnames = [f"fam{_letters(i)}" for i in range(50)]
        geos = [f"{g:05d}" for g in range(20)]
        u = rng.integers(0, 53, size=(50, 4))
        v = rng.integers(0, 4, size=(20, 4))
        records = []
        for si, s in enumerate(surnames):
            for gi, g in enumerate(geos):
                for ri, race in enumerate(RACES):
                    count = int(u[si, ri]) * int(v[gi, ri])
                    if count:
                        records.extend([Row("anna", s, g, race)] * count)
        assert len(records) >= 100_000

        people = people_of(records)
        ctx = BayesContext(build_name_table(people, SURNAME), build_geo_table(people))
        joint: dict[tuple[str, str], np.ndarray] = {}
        for rec in records:  # independent enumeration oracle
            joint.setdefault((rec.last, rec.geo), np.zeros(4))[
                RACES.index(rec.race)
            ] += 1
        covered = 0
        for (s, g), counts in joint.items():
            probs, reason = bisg_reason(ctx, s, g)
            if probs is None:
                continue
            covered += 1
            np.testing.assert_allclose(probs, counts / counts.sum(), atol=1e-9)
        assert covered >= 0.9 * len(joint)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        _pass(f"bisg oracle equivalence ({len(records)} records, {covered} pairs)")

    def test_bifsg(self):
        start = time.monotonic()
        rng = np.random.default_rng(777)
        surnames = [f"sur{_letters(i)}" for i in range(50)]
        firsts = [f"fn{_letters(i)}" for i in range(30)]
        geos = [f"{g:05d}" for g in range(20)]
        u = rng.integers(0, 5, size=(50, 4))
        w = rng.integers(0, 3, size=(30, 4))
        v = rng.integers(0, 3, size=(20, 4))
        records = []
        for si, s in enumerate(surnames):
            for fi, f in enumerate(firsts):
                for gi, g in enumerate(geos):
                    for ri, race in enumerate(RACES):
                        count = int(u[si, ri]) * int(w[fi, ri]) * int(v[gi, ri])
                        if count:
                            records.extend([Row(f, s, g, race)] * count)
        people = people_of(records)
        ctx = BayesContext(
            build_name_table(people, SURNAME),
            build_geo_table(people),
            firstname_table=build_name_table(people, FIRSTNAME),
        )
        joint: dict[tuple[str, str, str], np.ndarray] = {}
        for rec in records:
            joint.setdefault((rec.first, rec.last, rec.geo), np.zeros(4))[
                RACES.index(rec.race)
            ] += 1
        covered = 0
        for (f, s, g), counts in joint.items():
            probs, reason = bifsg_reason(ctx, f, s, g)
            if probs is None:
                continue
            covered += 1
            np.testing.assert_allclose(probs, counts / counts.sum(), atol=1e-9)
        assert covered >= 0.9 * len(joint)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        _pass(f"bifsg oracle equivalence ({len(records)} records, {covered} triples)")


class TestC02NeutralFactorIdentities:
    """A constant factor must drop out of the posterior exactly (1e-12)."""

    def test_bifsg_with_constant_firstname_equals_bisg(self):
        rng = np.random.default_rng(5)
        surname_entries = {
            f"sur{_letters(i)}": rng.integers(1, 80, size=4).astype(np.int64)
            for i in range(25)
        }
        totals = np.array([1000, 1000, 1000, 1000])
        surname = name_table(SURNAME, RACES, surname_entries, totals)
        # every race's likelihood for "neutral" is exactly 50/1000
        firstname = name_table(
            FIRSTNAME, RACES, {"neutral": np.array([50, 50, 50, 50])}, totals
        )
        geo_records = [
            ("aa", "bb", f"{g:05d}", RACES.labels[int(rng.integers(4))])
            for g in range(10)
            for _ in range(30)
        ]
        geo = build_geo_table(people_of(geo_records))
        ctx = BayesContext(surname, geo, firstname_table=firstname)
        checked = 0
        for s in surname_entries:
            for g in geo.keys:
                two_factor, _ = bisg_reason(ctx, s, g)
                three_factor, _ = bifsg_reason(ctx, "neutral", s, g)
                if two_factor is None:
                    assert three_factor is None
                    continue
                checked += 1
                np.testing.assert_allclose(three_factor, two_factor, atol=1e-12)
        assert checked > 100
        _pass(f"bifsg(constant first name) == bisg over {checked} pairs")

    def test_uniform_geography_returns_name_model(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = rng.random(4)
            p /= p.sum()
            c = float(rng.uniform(0.01, 5.0))
            out = geo_augment(p, np.full(4, c), RACES)
            np.testing.assert_allclose(out, p, atol=1e-12)
        _pass("geo_augment(uniform geography) == name model (200 draws)")

    def test_bisg_is_geo_augmented_surname_prior(self):
        """BISG is geography augmentation of the name model ``P(r | s)``,
        bit for bit, declines included."""
        rng = np.random.default_rng(8)
        entries = {}
        for i in range(40):
            own_race = np.arange(4) == i % 4
            counts = rng.integers(0, 40, 4)
            if i < 10:  # single-race surnames make zero-mass posteriors
                counts = np.where(own_race, counts, 0)
            entries[f"sur{_letters(i)}"] = counts + own_race  # never all zero
        surname = name_table(SURNAME, RACES, entries, np.array([1000, 1000, 1000, 1000]))
        geo = build_geo_table(people_of([
            ("aa", "bb", f"{g:05d}", RACES.labels[int(rng.integers(4))])
            for g in range(12) for _ in range(3)
        ]))
        n = 3000
        lasts = [f"sur{_letters(i)}" for i in rng.integers(0, 45, n)]  # 5 unknown
        geos = [f"{g:05d}" for g in rng.integers(0, 14, n)]  # 2 unknown
        for alpha in (0.0, 0.5):
            ctx = BayesContext(surname, geo, smoothing_alpha=alpha)
            rows = ctx.surname_prior.rows(lasts)
            known = rows >= 0
            name = Scores(
                np.where(known[:, None], ctx.surname_prior.matrix[rows], 0.0),
                np.where(known, 0, REASON_CODE[UNKNOWN_SURNAME]).astype(np.int8),
            )
            geo_like = ctx.geo_likelihood
            augmented = geo_augment_scores(name, geo_like.rows(geos), geo_like.matrix)
            bisg = bayes_scores(ctx, lasts, geos)
            assert augmented.reason.tobytes() == bisg.reason.tobytes()
            assert augmented.probs.tobytes() == bisg.probs.tobytes()
            seen = set(bisg.reason.tolist())
            assert {0, REASON_CODE[UNKNOWN_SURNAME], REASON_CODE[UNKNOWN_GEO]} <= seen
            assert (REASON_CODE[ZERO_MASS] in seen) == (alpha == 0.0)
        _pass(f"bisg == geo_augment(surname prior) bit for bit over {n} records")


class TestC03GradientCheck:
    """Analytic BPTT gradients vs central finite differences on the tiny
    network: every parameter entry, relative error < 1e-4, float64."""

    @pytest.mark.parametrize("seed", [None, 99], ids=["eval-0", "train-99"])
    def test_every_parameter_entry(self, seed):
        start = time.monotonic()
        params = init_params(embed_dim=8, hidden=8, layers=2, n_classes=4, seed=3)
        rng = np.random.default_rng(11)
        codes = rng.integers(1, 30, size=(4, 6))
        labels = np.array([0, 1, 2, 3])

        def loss_only():
            # independent path: the forward pass (under a seed the training
            # one, as scoring has no dropout) + hand-rolled cross-entropy
            probs = pass_probs(params, codes, seed)
            return float(-np.log(probs[np.arange(4), labels]).mean())

        _, analytic = loss_and_gradients(params, codes, labels, dropout_seed=seed)
        h = 1e-5
        flat = params.flat
        numeric = np.empty_like(analytic)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_only()
            flat[j] = orig - h
            down = loss_only()
            flat[j] = orig
            numeric[j] = (up - down) / (2 * h)
        # relative error where the gradient is meaningfully sized;
        # below 1e-6 the finite-difference noise floor dominates, so
        # those entries get an absolute bound instead
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        big = scale > 1e-6
        worst = 0.0
        if big.any():
            rel = np.abs(analytic[big] - numeric[big]) / scale[big]
            worst = float(rel.max())
            assert worst < 1e-4, f"entry {np.flatnonzero(big)[rel.argmax()]}: max rel err {worst:.2e}"
        small = ~big
        if small.any():
            assert np.abs(analytic[small] - numeric[small]).max() < 1e-7
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        _pass(
            f"gradient check [dropout_seed {seed}]: {flat.size} entries, "
            f"max rel err {worst:.2e}, {elapsed:.0f}s"
        )


class TestC04Learnability:
    """Desk-scale training solves a first-letter-determines-class task."""

    def test_validation_accuracy(self):
        start = time.monotonic()
        records = synthetic_records(4000, seed=77)
        cfg = TrainConfig(
            seed=5,
            epochs=10,
            batch_size=128,
            embed_dim=32,
            hidden=64,
            layers=2,
            lr=0.01,
            weight_decay=0.0,  # decay would dominate this few-step run
            dropout=0.2,
        )
        params, log = train(records, cfg)
        best = max(row.val_accuracy for row in log)
        elapsed = time.monotonic() - start
        assert best >= 0.95, f"best validation accuracy {best:.3f}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        _pass(f"learnability: val accuracy {best:.3f} in {elapsed:.0f}s")
        # the trained model scores held-out names in float32 as predict does
        held_out = synthetic_records(5000, seed=78)
        double = predict_scores(params, held_out.first, held_out.last).probs
        single = params.like(params.flat.astype(np.float32))
        single = predict_scores(single, held_out.first, held_out.last).probs
        assert np.array_equal(double.argmax(axis=1), single.argmax(axis=1))
        gap = np.abs(double - single).max()
        assert gap <= 1e-6, f"max |dp| {gap:.2e}"
        _pass(f"learnability: float32 scores of {len(held_out)} held-out names, "
              f"same argmax, max |dp| {gap:.1e}")


class TestC05EncodingFidelity:
    def test_worked_example(self):
        codes = encode_name("smith", "lee")
        assert list(codes[:5]) == [19, 13, 9, 20, 8]
        _pass('encoding: "smith" -> [19, 13, 9, 20, 8]')

    def test_window_pad_truncate_properties(self):
        rng = np.random.default_rng(41)
        alphabet = "abcdefghijklmnopqrstuvwxyz'-"
        oracle_map = {c: i + 1 for i, c in enumerate("abcdefghijklmnopqrstuvwxyz")}
        oracle_map.update({"-": 27, "'": 28, " ": 29})
        for _ in range(500):
            first = "".join(rng.choice(list(alphabet), size=int(rng.integers(2, 21))))
            last = "".join(rng.choice(list(alphabet), size=int(rng.integers(2, 21))))
            codes = encode_name(first, last)
            full = f"{first} {last}"
            expected = [oracle_map[c] for c in full[:30]]
            expected += [0] * (30 - len(expected))
            assert codes.shape == (30,)
            assert list(codes) == expected
            nonzero = np.nonzero(codes)[0]
            if nonzero.size:
                assert nonzero.max() == min(len(full), 30) - 1  # right padding only
        _pass("encoding: window/pad/truncate properties (500 random names)")


class TestC06SuppressionRule:
    """Exhaustive unit matrix over totals {14,15,29,30,31} x {1,2} races."""

    def test_matrix_through_table_construction(self):
        cases = {}
        records = []
        idx = 0
        for total in (14, 15, 29, 30, 31):
            for n_races in (1, 2):
                name = f"case{_letters(idx)}"
                idx += 1
                counts = [0, 0, 0, 0]
                if n_races == 1:
                    counts[1] = total
                else:
                    counts[0], counts[1] = 7, total - 7
                for race, count in zip(RACES, counts):
                    records.extend([("anna", name, "0", race)] * count)
                cases[name] = total >= 30 or (15 <= total <= 29 and n_races == 1)
        # filler keeps every race populated and the table non-empty
        for race in RACES:
            records.extend([("anna", "filler", "0", race)] * 40)
        table = build_name_table(people_of(records), SURNAME)
        for name, expected in cases.items():
            assert (name in table) is expected, (name, expected)
        _pass("suppression matrix: totals {14,15,29,30,31} x {1,2} races")


class TestC07MetricsOracle:
    def test_confusion_metrics_vs_counting_script(self):
        rng = np.random.default_rng(2718)
        truths = [RACES.labels[i] for i in rng.integers(0, 4, size=10_000)]
        preds = [
            None if rng.random() < 0.2 else RACES.labels[int(rng.integers(0, 4))]
            for _ in range(10_000)
        ]
        report = class_metrics(race_indices(truths), race_indices(preds))
        for race in RACES:
            tp = fp = fn = tn = 0
            for t, p in zip(truths, preds):
                if p is None:
                    continue
                if p == race and t == race:
                    tp += 1
                elif p == race:
                    fp += 1
                elif t == race:
                    fn += 1
                else:
                    tn += 1
            row = report[race]
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert abs(row.precision - precision) < 1e-12
            assert abs(row.recall - recall) < 1e-12
            assert abs(row.f1 - f1) < 1e-12
            assert abs(row.accuracy - (tp + tn) / (tp + tn + fp + fn)) < 1e-12
        _pass("metrics: 10k-record counting oracle at 1e-12")

    def test_auc_vs_mann_whitney(self):
        rng = np.random.default_rng(314)
        truths = [RACES.labels[int(rng.integers(0, 4))] for _ in range(1000)]
        scores = [np.round(rng.dirichlet(np.ones(4)), 2) for _ in range(1000)]
        for race in RACES:
            curve = roc_curve(race_indices(truths), scores, race)
            idx = RACES.index(race)
            pos = np.array([s[idx] for t, s in zip(truths, scores) if t == race])
            neg = np.array([s[idx] for t, s in zip(truths, scores) if t != race])
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle = (wins + 0.5 * ties) / (pos.size * neg.size)
            assert abs(curve.auc - oracle) < 1e-9
        _pass("AUC: pairwise Mann-Whitney oracle at 1e-9")

    def test_uniform_output_loss_is_ln4(self):
        params = init_params(embed_dim=4, hidden=3, layers=1, n_classes=4, seed=0)
        params.flat[...] = 0.0
        codes = np.random.default_rng(0).integers(1, 30, size=(8, 30))
        labels = np.random.default_rng(1).integers(0, 4, size=8)
        loss, _ = loss_and_gradients(params, codes, labels, dropout_seed=None)
        assert abs(loss - np.log(4.0)) < 1e-12
        _pass("uniform-output cross-entropy == ln 4 at 1e-12")


class TestC08Sampling:
    def test_population_shares(self):
        rng = np.random.default_rng(9)
        pool = []
        for label, size in zip(RACES, (1500, 3000, 4500, 13000)):
            for i in range(size):
                pool.append((f"fn{_letters(i, 3)}", "ln", "0", label))
        n = 20_000
        quotas = largest_remainder_quotas(n, US_SHARES)
        assert int(quotas.sum()) == n
        people = people_of(pool)
        rows = representative_sample_indices(people.race, n, US_SHARES, seed=31)
        sample = [pool[i][3] for i in rows]
        assert len(sample) == n
        targets = np.array(US_SHARES) / sum(US_SHARES)
        for label, target in zip(RACES, targets):
            got = sum(1 for race in sample if race == label) / n
            assert abs(got - target) < 1.0 / n, (label, got, target)
        _pass(f"sampling: quotas sum to {n}, shares within 1/n of targets")


class TestC09EnsembleCoverageDominance:
    def test_union_coverage_and_f1_recomputation(self):
        rng = np.random.default_rng(55)
        n = 1000
        truths = [RACES.labels[int(rng.integers(0, 4))] for _ in range(n)]
        spec = EnsembleSpec(members=("m1", "m2", "m3"))
        members = []
        for coverage in (0.7, 0.6, 0.5):
            preds = []
            for _ in range(n):
                if rng.random() < coverage:
                    v = rng.dirichlet(np.ones(4))
                    preds.append(v)
                else:
                    preds.append(None)
            members.append(preds)
        combined = [
            ensemble_predict([m[i] for m in members], spec) for i in range(n)
        ]
        union = [any(m[i] is not None for m in members) for i in range(n)]
        assert [c is not None for c in combined] == union
        for member in members:
            member_covered = sum(p is not None for p in member)
            assert sum(union) >= member_covered

        # ensemble F1 must match a direct recomputation from its own labels
        labels = [max_label(c) if c is not None else None for c in combined]
        report = class_metrics(race_indices(truths), race_indices(labels))
        for race in RACES:
            tp = fp = fn = 0
            for t, p in zip(truths, labels):
                if p is None:
                    continue
                if p == race and t == race:
                    tp += 1
                elif p == race:
                    fp += 1
                elif t == race:
                    fn += 1
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert abs(report[race].f1 - f1) < 1e-12

        # unanimous members: ensemble output and F1 equal the member's exactly
        unanimous = [
            [p if p is None else p.copy() for p in members[0]] for _ in range(3)
        ]
        agreed = [
            ensemble_predict([m[i] for m in unanimous], spec) for i in range(n)
        ]
        agreed_labels = [
            max_label(p) if p is not None else None for p in agreed
        ]
        member_labels = [
            max_label(p) if p is not None else None for p in members[0]
        ]
        assert agreed_labels == member_labels
        assert class_metrics(race_indices(truths), race_indices(agreed_labels)) == class_metrics(
            race_indices(truths), race_indices(member_labels)
        )
        _pass("ensemble: union coverage + F1 recomputation + unanimity")


class TestC10Determinism:
    """Each command re-run with the same config and seed is byte-identical."""

    def test_full_pipeline_reruns(self, tmp_path):
        root = tmp_path
        voter = root / "voter.csv"
        write_csv(voter, synthetic_voter_rows())
        # the sample stage dedupes on (first, last, geo), so it gets a pool
        # with distinct names per row
        pool = root / "pool.csv"
        write_csv(
            pool,
            [
                (f"fn{_letters(i, 3)}", f"ln{race}", "10001", race)
                for race in RACES
                for i in range(60)
            ],
        )
        config_path = root / "config.json"
        config = {
            "seed": 777,
            "sample_shares": [0.25, 0.25, 0.25, 0.25],
            "paths": {
                "surname_table": "tables/surname_table.csv",
                "firstname_table": "tables/firstname_table.csv",
                "geo_table": "tables/geo_table.csv",
                "params": "params.bin",
            },
            "train": {
                "epochs": 2,
                "batch_size": 64,
                "embed_dim": 8,
                "hidden": 8,
                "layers": 1,
                "lr": 0.01,
            },
        }
        config_path.write_text(json.dumps(config, indent=2))

        def run_all():
            rc = main([
                "build-tables", "--config", str(config_path),
                "--voter", str(voter), "--out-dir", str(root / "tables"),
            ])
            assert rc == 0
            rc = main([
                "train", "--config", str(config_path), "--voter", str(voter),
                "--out-params", str(root / "params.bin"),
                "--out-log", str(root / "log.csv"),
            ])
            assert rc == 0
            rc = main([
                "predict", "--config", str(config_path), "--input", str(voter),
                "--models", "first_last,first_last_zcta,bisg,bifsg,ensemble",
                "--out", str(root / "preds.csv"),
            ])
            assert rc == 0
            rc = main([
                "evaluate", "--config", str(config_path), "--truth", str(voter),
                "--predictions", str(root / "preds.csv"),
                "--out-dir", str(root / "reports"),
                "--sample", "200", "--intersect-covered",
            ])
            assert rc == 0
            rc = main([
                "sample", "--config", str(config_path), "--input", str(pool),
                "--n", "100", "--out", str(root / "sampled.csv"),
            ])
            assert rc == 0
            outputs = {}
            for path in sorted(root.rglob("*")):
                if path.is_file() and path not in (voter, pool, config_path):
                    outputs[str(path.relative_to(root))] = path.read_bytes()
            return outputs

        first = run_all()
        second = run_all()
        assert first.keys() == second.keys()
        diffs = [name for name in first if first[name] != second[name]]
        assert not diffs, f"outputs changed between runs: {diffs}"
        _pass(f"determinism: {len(first)} pipeline artifacts byte-identical on re-run")
