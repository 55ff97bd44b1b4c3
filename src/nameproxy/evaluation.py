"""Confusion-matrix metrics, ROC curves, and report emission.

Metrics are one-vs-rest per race.  Records a model declined are excluded
from the confusion counts and show up only through the coverage and
support columns; that separation is what lets partially-covering models
(the Bayes predictors) be compared fairly against always-on models.
A strict mode that scores declines as misses is available for callers
who want a single blended number.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import RaceSet
from .csvio import framed, write_csv
from .errors import LengthMismatchError, SingleClassError


@dataclass(frozen=True)
class MetricRow:
    accuracy: float
    precision: float
    recall: float
    f1: float
    coverage: float
    support: int


@dataclass(frozen=True)
class ClassReport:
    races: RaceSet
    rows: dict[str, MetricRow]

    def __getitem__(self, race: str) -> MetricRow:
        return self.rows[race]


@dataclass(frozen=True)
class RocCurve:
    """One-vs-rest ROC points from (0,0) to (1,1) and the trapezoidal AUC."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def class_metrics(truth, predicted, races: RaceSet | None = None, strict: bool = False) -> ClassReport:
    """Per-race one-vs-rest metrics.

    ``truth`` and ``predicted`` hold race indices into ``races`` per
    record; a predicted index of -1 is a decline.  Declines are excluded
    from the confusion counts unless ``strict`` is set, in which case they
    count as a false negative for the true race.  Support is the covered
    count among records whose truth is the given race; coverage is support
    over that race's truth count.
    """
    races = races or RaceSet()
    k = len(races)
    truth = np.asarray(truth, dtype=np.intp).reshape(-1)
    predicted = np.asarray(predicted, dtype=np.intp).reshape(-1)
    if truth.size != predicted.size:
        raise LengthMismatchError(f"{truth.size} truths vs {predicted.size} predictions")
    if ((truth < 0) | (truth >= k)).any():
        raise ValueError(f"truth indices must lie in [0, {k})")
    if ((predicted < -1) | (predicted >= k)).any():
        raise ValueError(f"predicted indices must lie in [-1, {k})")
    covered = predicted >= 0
    scored = np.ones_like(covered) if strict else covered
    # confusion[t, p] over the scored records; column k holds declines
    confusion = np.bincount(
        truth[scored] * (k + 1) + np.where(covered, predicted, k)[scored],
        minlength=k * (k + 1),
    ).reshape(k, k + 1)
    truth_count = np.bincount(truth, minlength=k)
    support = np.bincount(truth[covered], minlength=k)
    n_scored = int(scored.sum())
    rows: dict[str, MetricRow] = {}
    for i, race in enumerate(races):
        tp = int(confusion[i, i])
        fp = int(confusion[:, i].sum()) - tp
        fn = int(confusion[i].sum()) - tp
        tn = n_scored - tp - fp - fn
        denom = tp + tn + fp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        accuracy = (tp + tn) / denom if denom else 0.0
        coverage = int(support[i]) / int(truth_count[i]) if truth_count[i] else 0.0
        rows[race] = MetricRow(accuracy, precision, recall, f1, coverage, int(support[i]))
    return ClassReport(races=races, rows=rows)


def roc_curve(truth, scores, race: str, races: RaceSet | None = None) -> RocCurve:
    """One-vs-rest ROC for ``race`` over per-record probability vectors.

    ``truth`` holds each record's race index into ``races`` and ``scores``
    its probability vector, one row per record.  Sweeps every distinct
    score of that race's probability; tied scores collapse into one step.
    AUC is trapezoidal, which matches the tie-corrected pairwise
    (Mann-Whitney) statistic exactly.

    Raises:
        SingleClassError: the one-vs-rest truth set has no positives or
            no negatives.
    """
    races = races or RaceSet()
    truth = np.asarray(truth, dtype=np.intp).reshape(-1)
    if truth.size != len(scores):
        raise LengthMismatchError(f"{truth.size} truths vs {len(scores)} score vectors")
    idx = races.index(race)
    y = truth == idx
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"ROC for {race!r} needs both positives and negatives "
            f"(got {n_pos} positive, {n_neg} negative)"
        )
    s = np.asarray(scores, dtype=np.float64)[:, idx]
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    # indices where the threshold changes (last element of each tie group)
    distinct = np.nonzero(np.diff(s_sorted))[0]
    boundaries = np.concatenate([distinct, [y.size - 1]])
    tps = np.cumsum(y_sorted)[boundaries]
    fps = np.cumsum(~y_sorted)[boundaries]
    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def intersect_covered(covered) -> np.ndarray:
    """Indices where every model covered the record, given each model's
    boolean covered mask."""
    masks = [np.asarray(mask, dtype=bool) for mask in covered]
    if not masks:
        return np.zeros(0, dtype=np.intp)
    if any(mask.shape != masks[0].shape for mask in masks):
        raise LengthMismatchError("covered masks differ in length")
    return np.flatnonzero(np.logical_and.reduce(masks))


def emit_report(
    reports: dict[str, ClassReport],
    rocs: dict[str, dict[str, RocCurve]] | None,
    out_dir,
) -> list[str]:
    """Write per-model metric tables, ROC points, and an F1 comparison.

    Output is deterministic: models sorted by id, races in race-set order
    (each model's curves in the order given), values printed with 6
    decimal places.  Returns the written paths.
    """
    out_dir = Path(out_dir)
    written: list[str] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        header = ["race", "accuracy", "precision", "recall", "f1", "coverage", "support"]
        for model in sorted(reports):
            path = out_dir / f"metrics_{model}.csv"
            rows = (
                [race, *(f"{getattr(m, key):.6f}" for key in header[1:-1]), m.support]
                for race, m in reports[model].rows.items()
            )
            write_csv(path, header, rows)
            written.append(str(path))
        for model in sorted(rocs or {}):
            path = out_dir / f"roc_{model}.csv"
            # each curve's model and race framed once, then joined to every point
            lines = []
            for race, curve in rocs[model].items():
                start = framed([model, race])
                lines.append("".join(
                    f"{start},{x:.6f},{t:.6f}\n"
                    for x, t in zip(curve.fpr.tolist(), curve.tpr.tolist())
                ))
            write_csv(path, ["model", "race", "fpr", "tpr"], lines=lines)
            written.append(str(path))
        if reports:
            path = out_dir / "f1_comparison.csv"
            rows = (
                [model, race, f"{m.f1:.6f}"]
                for model in sorted(reports)
                for race, m in reports[model].rows.items()
            )
            write_csv(path, ["model", "race", "f1"], rows)
            written.append(str(path))
    except OSError as exc:
        raise OSError(f"failed writing report under {out_dir}: {exc}") from exc
    return written
