"""Combine partially-covering predictors and evaluate them side by side.

Builds three synthetic "models" with different strengths and coverage,
averages them with the equal-weight ensemble, and produces the metric
tables and ROC point files the evaluation harness emits.
"""

import tempfile
from pathlib import Path

import numpy as np

from nameproxy.core import RaceSet
from nameproxy.ensemble import EnsembleSpec, ensemble_predict
from nameproxy.evaluation import class_metrics, emit_report, intersect_covered, roc_curve

races = RaceSet()
rng = np.random.default_rng(13)

n = 3000
# each record's true race, as an index into the race set
truth = np.array([int(rng.integers(4)) for _ in range(n)])


def noisy_model(quality, coverage):
    """A synthetic predictor: mostly right with prob=quality, else random."""
    preds = []
    for t in truth:
        if rng.random() > coverage:
            preds.append(None)
            continue
        target = t if rng.random() < quality else int(rng.integers(4))
        probs = rng.dirichlet(np.ones(4) * 0.5)
        probs[target] += 2.0
        preds.append(probs / probs.sum())
    return preds


models = {
    "wide_but_noisy": noisy_model(quality=0.65, coverage=1.0),
    "sharp_but_narrow": noisy_model(quality=0.9, coverage=0.6),
    "middling": noisy_model(quality=0.75, coverage=0.85),
}

spec = EnsembleSpec(members=tuple(models))
combined = [
    ensemble_predict([models[m][i] for m in spec.members], spec) for i in range(n)
]
models["ensemble"] = combined

# the evaluation harness reads columns: a probability row and a covered
# flag per record, and the argmax race index (-1 for a decline)
probs = {name: np.array([np.zeros(4) if p is None else p for p in preds])
         for name, preds in models.items()}
covered = {name: np.array([p is not None for p in preds]) for name, preds in models.items()}
predicted = {name: np.where(covered[name], probs[name].argmax(axis=1), -1) for name in models}

print("coverage per model:")
for name in models:
    print(f"  {name:18s} {covered[name].sum() / n:.3f}")

print("\nper-race F1 (declines excluded from the confusion counts):")
reports = {}
rocs = {}
for name in models:
    report = class_metrics(truth, predicted[name])
    reports[name] = report
    mask = covered[name]
    rocs[name] = {race: roc_curve(truth[mask], probs[name][mask], race) for race in races}
    f1s = " ".join(f"{race}={report[race].f1:.3f}" for race in races)
    print(f"  {name:18s} {f1s}")

subset = intersect_covered(covered.values())
print(f"\nsubset where every model predicts: {len(subset)} of {n} records")
for name in models:
    report = class_metrics(truth[subset], predicted[name][subset])
    mean_f1 = np.mean([report[race].f1 for race in races])
    print(f"  {name:18s} mean F1 on shared subset: {mean_f1:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    written = emit_report(reports, rocs, tmp)
    print(f"\nemit_report wrote {len(written)} files:")
    for path in written:
        print(f"  {Path(path).name}")
    sample = Path(written[0]).read_text().splitlines()
    print(f"\nfirst rows of {Path(written[0]).name}:")
    for line in sample[:3]:
        print(f"  {line}")
