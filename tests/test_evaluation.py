"""Metrics, ROC/AUC, covered-subset intersection, and report files."""

import csv
import re

import numpy as np
import pytest

from nameproxy.core import RaceSet
from nameproxy.errors import NameproxyError
from nameproxy.evaluation import (
    class_metrics,
    emit_report,
    intersect_covered,
    roc_curve,
)

RACES = RaceSet()


def idx(labels):
    """Race indices of labels; None (a decline) becomes -1."""
    return np.array([-1 if label is None else RACES.index(label) for label in labels])


def brute_force_counts(truths, predictions, race):
    """Independent confusion-count oracle over covered records."""
    tp = fp = fn = tn = 0
    for t, p in zip(truths, predictions):
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
    return tp, fp, fn, tn


class TestClassMetrics:
    def test_textbook_confusion_counts(self):
        # asian one-vs-rest: TP=2, FP=1, FN=1, TN=6
        truths = ["asian"] * 3 + ["black"] * 7
        preds = ["asian", "asian", "black", "asian"] + ["black"] * 6
        report = class_metrics(idx(truths), idx(preds))
        row = report["asian"]
        assert row.precision == pytest.approx(2 / 3, abs=1e-12)
        assert row.recall == pytest.approx(2 / 3, abs=1e-12)
        assert row.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert row.accuracy == pytest.approx(0.8, abs=1e-12)
        assert row.coverage == 1.0 and row.support == 3

    def test_perfect_classifier(self):
        truths = [RACES.labels[i % 4] for i in range(40)]
        report = class_metrics(idx(truths), idx(truths))
        for race in RACES:
            row = report[race]
            assert (row.accuracy, row.precision, row.recall, row.f1, row.coverage) == (
                1.0,
                1.0,
                1.0,
                1.0,
                1.0,
            )
            assert row.support == 10

    def test_counting_oracle_10k(self):
        rng = np.random.default_rng(2024)
        truths = [RACES.labels[i] for i in rng.integers(0, 4, size=10_000)]
        preds = [
            None if rng.random() < 0.15 else RACES.labels[int(rng.integers(0, 4))]
            for _ in range(10_000)
        ]
        report = class_metrics(idx(truths), idx(preds))
        for race in RACES:
            tp, fp, fn, tn = brute_force_counts(truths, preds, race)
            row = report[race]
            assert abs(row.precision - (tp / (tp + fp) if tp + fp else 0.0)) < 1e-12
            assert abs(row.recall - (tp / (tp + fn) if tp + fn else 0.0)) < 1e-12
            p, r = row.precision, row.recall
            assert abs(row.f1 - (2 * p * r / (p + r) if p + r else 0.0)) < 1e-12
            assert abs(row.accuracy - (tp + tn) / (tp + tn + fp + fn)) < 1e-12
            truth_n = sum(1 for t in truths if t == race)
            support = sum(
                1 for t, pr in zip(truths, preds) if t == race and pr is not None
            )
            assert row.support == support
            assert abs(row.coverage - support / truth_n) < 1e-12

    def test_declined_not_scored_as_wrong(self):
        truths = ["asian", "asian", "black", "black"]
        preds = ["asian", None, "black", None]
        report = class_metrics(idx(truths), idx(preds))
        assert report["asian"].precision == 1.0
        assert report["asian"].recall == 1.0
        assert report["asian"].coverage == 0.5
        assert report["asian"].support == 1

    def test_strict_mode_scores_declines_as_misses(self):
        truths = ["asian", "asian", "black", "black"]
        preds = ["asian", None, "black", None]
        report = class_metrics(idx(truths), idx(preds), strict=True)
        assert report["asian"].recall == 0.5  # the decline became a false negative
        assert report["asian"].precision == 1.0
        assert report["asian"].support == 1  # support still counts covered records

    def test_length_mismatch(self):
        with pytest.raises(NameproxyError, match="1 truths vs 2 predictions"):
            class_metrics(idx(["asian"]), idx(["asian", "black"]))

    def test_unknown_truth_label(self):
        with pytest.raises(ValueError):
            class_metrics([len(RACES)], idx(["asian"]))


class TestRocCurve:
    def test_perfect_separation(self):
        truths = ["asian"] * 5 + ["white"] * 5
        scores = [np.array([0.9, 0.03, 0.03, 0.04])] * 5 + [
            np.array([0.1, 0.2, 0.2, 0.5])
        ] * 5
        curve = roc_curve(idx(truths), scores, "asian")
        assert curve.auc == pytest.approx(1.0, abs=1e-12)

    def test_constant_scores_give_half(self):
        truths = ["asian"] * 3 + ["white"] * 7
        scores = [np.array([0.25, 0.25, 0.25, 0.25])] * 10
        curve = roc_curve(idx(truths), scores, "asian")
        assert curve.auc == pytest.approx(0.5, abs=1e-12)
        # single tie group: one step from (0,0) to (1,1)
        assert curve.fpr.tolist() == [0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0]

    def test_monotone_endpoints(self):
        rng = np.random.default_rng(3)
        truths = [RACES.labels[int(rng.integers(0, 4))] for _ in range(200)]
        scores = [rng.dirichlet(np.ones(4)) for _ in range(200)]
        curve = roc_curve(idx(truths), scores, "black")
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()
        assert 0.0 <= curve.auc <= 1.0

    def test_mann_whitney_oracle(self):
        """Trapezoidal AUC equals the tie-corrected pairwise statistic."""
        rng = np.random.default_rng(77)
        truths = [RACES.labels[int(rng.integers(0, 4))] for _ in range(1000)]
        # coarse scores force plenty of ties
        scores = [np.round(rng.dirichlet(np.ones(4)), 2) for _ in range(1000)]
        for race in RACES:
            curve = roc_curve(idx(truths), scores, race)
            col = RACES.index(race)
            pos = np.array([s[col] for t, s in zip(truths, scores) if t == race])
            neg = np.array([s[col] for t, s in zip(truths, scores) if t != race])
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle = (wins + 0.5 * ties) / (pos.size * neg.size)
            assert curve.auc == pytest.approx(oracle, abs=1e-9)

    def test_single_class_raises(self):
        message = re.escape("ROC for 'asian' needs both positives and negatives (got 2 positive, 0")
        with pytest.raises(NameproxyError, match=message):
            roc_curve(idx(["asian", "asian"]), [np.ones(4) / 4] * 2, "asian")
        message = re.escape("ROC for 'asian' needs both positives and negatives (got 0 positive, 2")
        with pytest.raises(NameproxyError, match=message):
            roc_curve(idx(["white", "white"]), [np.ones(4) / 4] * 2, "asian")


class TestIntersectCovered:
    def test_patterns(self):
        a = [True, True, False]
        b = [True, False, True]
        assert intersect_covered([a, b]).tolist() == [0]

    def test_full_coverage_model_is_neutral(self):
        a = [True] * 3
        b = [True, False, True]
        assert intersect_covered([a, b]).tolist() == intersect_covered([b]).tolist()

    def test_no_overlap(self):
        a = [True, False]
        b = [False, True]
        assert intersect_covered([a, b]).tolist() == []

    def test_order_invariance_of_subset_metrics(self):
        rng = np.random.default_rng(21)
        truths = [RACES.labels[int(rng.integers(0, 4))] for _ in range(500)]
        model_preds = []
        for _ in range(3):
            model_preds.append(
                [
                    None if rng.random() < 0.3 else RACES.labels[int(rng.integers(0, 4))]
                    for _ in range(500)
                ]
            )
        covered = [idx(preds) >= 0 for preds in model_preds]
        subset_a = intersect_covered(covered).tolist()
        subset_b = intersect_covered(covered[::-1]).tolist()
        assert subset_a == subset_b
        report_a = class_metrics(
            idx([truths[i] for i in subset_a]), idx([model_preds[0][i] for i in subset_a])
        )
        report_b = class_metrics(
            idx([truths[i] for i in subset_b]), idx([model_preds[0][i] for i in subset_b])
        )
        assert report_a == report_b

    def test_length_mismatch(self):
        with pytest.raises(NameproxyError, match="covered masks differ in length"):
            intersect_covered([[False], [False, False]])


class TestEmitReport:
    def make_report(self):
        truths = ["asian", "black", "hispanic", "white"] * 5
        preds = list(truths)
        preds[3] = "asian"
        return class_metrics(idx(truths), idx(preds))

    def test_table_shape(self, tmp_path):
        report = self.make_report()
        written = emit_report({"demo": report}, None, tmp_path)
        table = (tmp_path / "metrics_demo.csv").read_text().splitlines()
        assert table[0] == "race,accuracy,precision,recall,f1,coverage,support"
        assert len(table) == 5  # header + one row per race
        assert table[1].startswith("asian,")
        assert str(tmp_path / "f1_comparison.csv") in written

    def test_f1_comparison_keyed_by_model_race(self, tmp_path):
        report = self.make_report()
        emit_report({"m2": report, "m1": report}, None, tmp_path)
        lines = (tmp_path / "f1_comparison.csv").read_text().splitlines()
        assert lines[0] == "model,race,f1"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["m1"] * 4 + ["m2"] * 4

    def test_roc_points_file(self, tmp_path):
        rng = np.random.default_rng(5)
        truths = [RACES.labels[int(rng.integers(0, 4))] for _ in range(50)]
        scores = [rng.dirichlet(np.ones(4)) for _ in range(50)]
        curves = {race: roc_curve(idx(truths), scores, race) for race in RACES}
        emit_report({"demo": self.make_report()}, {"demo": curves}, tmp_path)
        lines = (tmp_path / "roc_demo.csv").read_text().splitlines()
        assert lines[0] == "model,race,fpr,tpr"
        assert lines[1].startswith("demo,asian,0.000000,0.000000")

    def test_roc_model_id_that_needs_quoting_reads_back(self, tmp_path):
        rng = np.random.default_rng(6)
        truths = idx([RACES.labels[int(rng.integers(0, 4))] for _ in range(30)])
        scores = rng.dirichlet(np.ones(4), size=30)
        curves = {race: roc_curve(truths, scores, race) for race in RACES}
        model = 'm,1\n"x"'
        emit_report({model: self.make_report()}, {model: curves}, tmp_path)
        with open(tmp_path / f"roc_{model}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        points = [
            [model, race, f"{x:.6f}", f"{t:.6f}"]
            for race, curve in curves.items()
            for x, t in zip(curve.fpr.tolist(), curve.tpr.tolist())
        ]
        assert rows == [["model", "race", "fpr", "tpr"], *points]

    def test_byte_identical_reruns(self, tmp_path):
        report = self.make_report()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_report({"demo": report}, None, d1)
        emit_report({"demo": report}, None, d2)
        for name in ("metrics_demo.csv", "f1_comparison.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
