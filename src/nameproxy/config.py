"""Run configuration shared by the command-line pipeline.

One JSON file carries everything a command needs: the race set, explicit
seeds (no wall-clock defaults anywhere), artifact paths, the ensemble
spec, normalization options, and training hyperparameters.  Keeping the
seeds in the config is what makes every pipeline stage replayable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import RaceSet
from .ensemble import EnsembleSpec, resolve_model
from .errors import SchemaError
from .lstm import TrainConfig
from .names import DEFAULT_FILTER_WORDS, DEFAULT_SUFFIXES, load_filter_words

#: July 2022 US population shares for (asian, black, hispanic, white); they
#: sum to 0.967 because the four categories do not cover everyone, and are
#: renormalized wherever quotas are computed.
US_POPULATION_SHARES = (0.059, 0.126, 0.189, 0.593)


@dataclass
class RunConfig:
    races: RaceSet = field(default_factory=RaceSet)
    seed: int = 0
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES
    filter_words: frozenset[str] = DEFAULT_FILTER_WORDS
    target_shares: tuple[float, ...] | None = None
    sample_shares: tuple[float, ...] = US_POPULATION_SHARES
    smoothing_alpha: float = 0.0
    strict_metrics: bool = False
    ensemble: EnsembleSpec = field(default_factory=EnsembleSpec)
    paths: dict[str, str] = field(default_factory=dict)
    train: TrainConfig | None = None

    def train_config(self) -> TrainConfig:
        return self.train if self.train is not None else TrainConfig(seed=self.seed)

    def path(self, key: str) -> Path | None:
        value = self.paths.get(key)
        return Path(value) if value else None


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises:
        SchemaError: structurally invalid configuration (including a
            missing or non-integer seed: seeds must be explicit).
    """
    base = Path(path).parent
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    known = {
        "races",
        "seed",
        "suffixes",
        "filter_words_file",
        "target_shares",
        "sample_shares",
        "smoothing_alpha",
        "strict_metrics",
        "ensemble",
        "paths",
        "train",
    }
    unknown = set(raw) - known
    if unknown:
        raise SchemaError(f"{path}: unknown config keys: {sorted(unknown)}")
    if "seed" not in raw or isinstance(raw["seed"], bool) or not isinstance(raw["seed"], int):
        raise SchemaError(f"{path}: 'seed' must be present and an integer")

    def check(key, value, ok: bool, what: str):
        if not ok:
            raise SchemaError(f"{path}: '{key}' must be {what}, got {value!r}")
        return value

    def strings(key, value) -> tuple[str, ...]:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        return tuple(check(key, value, ok, "a list of strings"))

    def numbers(key, value) -> tuple[float, ...]:
        ok = isinstance(value, list) and all(type(v) in (int, float) for v in value)
        return tuple(float(v) for v in check(key, value, ok, "a list of numbers"))

    alpha, strict = raw.get("smoothing_alpha", 0.0), raw.get("strict_metrics", False)
    ok = type(alpha) in (int, float) and 0 <= alpha < math.inf  # bool is not a number here
    check("smoothing_alpha", alpha, ok, "a finite number >= 0")
    check("strict_metrics", strict, isinstance(strict, bool), "true or false")
    suffixes = strings("suffixes", raw.get("suffixes", list(DEFAULT_SUFFIXES)))

    try:
        races = RaceSet(strings("races", raw.get("races", list(RaceSet().labels))))
    except ValueError as exc:
        raise SchemaError(f"{path}: bad races: {exc}") from exc

    filter_words = DEFAULT_FILTER_WORDS
    if raw.get("filter_words_file"):
        words_path = Path(raw["filter_words_file"])
        if not words_path.is_absolute():
            words_path = base / words_path
        filter_words = load_filter_words(words_path)

    ensemble_raw = raw.get("ensemble", {})
    check("ensemble", ensemble_raw, isinstance(ensemble_raw, dict), "an object")
    members = ensemble_raw.get("members", list(EnsembleSpec().members))
    weights = ensemble_raw.get("weights")
    try:
        ensemble = EnsembleSpec(
            members=strings("ensemble.members", members),
            weights=numbers("ensemble.weights", weights) if "weights" in ensemble_raw else None,
        )
        # predict runs each member as a model of its own: the ensemble
        # itself cannot be one
        for member in ensemble.members:
            resolve_model(member)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: bad ensemble spec: {exc}") from exc

    train = None
    if "train" in raw:
        train_raw = dict(check("train", raw["train"], isinstance(raw["train"], dict), "an object"))
        train_raw.setdefault("seed", raw["seed"])
        try:
            train = TrainConfig(**train_raw)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: bad train section: {exc}") from exc

    paths = raw.get("paths", {})
    if not isinstance(paths, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in paths.items()
    ):
        raise SchemaError(f"{path}: 'paths' must map names to strings")
    paths = {
        key: str(value if Path(value).is_absolute() else base / value)
        for key, value in paths.items()
    }

    def shares_of(key, default):
        if key not in raw or raw[key] is None:
            return raw.get(key, default)
        shares = numbers(key, raw[key])
        ok = all(0 <= s < math.inf for s in shares) and sum(shares) > 0
        check(key, raw[key], ok, "finite, non-negative and not all zero")
        if len(shares) != len(races):
            raise SchemaError(f"{path}: {key} must have one share per race")
        return shares

    return RunConfig(
        races=races,
        seed=raw["seed"],
        suffixes=tuple(s.lower() for s in suffixes),
        filter_words=filter_words,
        target_shares=shares_of("target_shares", None),
        sample_shares=shares_of("sample_shares", US_POPULATION_SHARES),
        smoothing_alpha=float(alpha),
        strict_metrics=strict,
        ensemble=ensemble,
        paths=paths,
        train=train,
    )
