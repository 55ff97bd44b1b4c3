"""Train the character-level BiLSTM on a synthetic separable task.

The task: the class is a deterministic function of the first letter of
the first name, so a working model should approach perfect validation
accuracy within a few epochs.  Uses desk-scale dimensions; the
production defaults (embedding 256, hidden 512, 4 layers) train the same
way, just slower.
"""

import tempfile
from pathlib import Path

import numpy as np

from nameproxy.core import People, RaceSet
from nameproxy.lstm import (
    TrainConfig,
    load_params,
    predict_proba,
    save_params,
    train,
)

races = RaceSet()
rng = np.random.default_rng(3)

groups = {"asian": "abcdef", "black": "ghijklm", "hispanic": "nopqrs", "white": "tuvwxyz"}
firsts, lasts, race_ids = [], [], []
for _ in range(2000):
    ridx = int(rng.integers(4))
    letters = groups[races.labels[ridx]]
    firsts.append(letters[int(rng.integers(len(letters)))] + "".join(
        chr(ord("a") + int(c)) for c in rng.integers(0, 26, size=5)
    ))
    lasts.append("".join(chr(ord("a") + int(c)) for c in rng.integers(0, 26, size=6)))
    race_ids.append(ridx)
people = People(firsts, lasts, ["00000"] * len(firsts), np.array(race_ids), races)
print(f"{len(people)} synthetic records; class = f(first letter)")

cfg = TrainConfig(
    seed=11,
    epochs=5,
    batch_size=128,
    embed_dim=32,
    hidden=64,
    layers=2,
    lr=0.01,
    weight_decay=0.0,
    dropout=0.2,
)
print(f"training: {cfg.layers} BiLSTM layers, hidden {cfg.hidden}, embed {cfg.embed_dim}")
params, log = train(people, cfg)
for row in log:
    print(f"  epoch {row.epoch}: train loss {row.train_loss:.4f}, "
          f"val accuracy {row.val_accuracy:.3f}")

print("\nsample predictions (first letter decides the class):")
for first, last in [("amy", "zzzz"), ("karen", "aaaa"), ("pablo", "qqqq"), ("xena", "mmmm")]:
    probs = predict_proba(params, first, last)
    top = races.labels[int(np.argmax(probs))]
    print(f"  {first:6s} {last}: {np.round(probs, 3).tolist()} -> {top}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "params.bin"
    save_params(params, path)
    reloaded = load_params(path)
    same = np.array_equal(params.flat, reloaded.flat)
    print(f"\nsaved {path.stat().st_size} bytes; reload bit-identical: {same}")
