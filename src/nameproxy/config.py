"""Run configuration shared by the command-line pipeline.

One JSON file carries everything a command needs: the race set, explicit
seeds (no wall-clock defaults anywhere), artifact paths, the ensemble
spec, normalization options, and training hyperparameters.  Keeping the
seeds in the config is what makes every pipeline stage replayable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .core import RaceSet
from .csvio import not_utf8
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
    """The settings of a run, one field per config key (``filter_words`` is
    read from ``filter_words_file``).  A key a config omits keeps its
    default, and ``train`` has the run's ``seed`` unless it gives its own."""

    seed: int = 0
    races: RaceSet = field(default_factory=RaceSet)
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES
    filter_words: frozenset[str] = DEFAULT_FILTER_WORDS
    target_shares: tuple[float, ...] | None = None
    sample_shares: tuple[float, ...] | None = US_POPULATION_SHARES
    smoothing_alpha: float = 0.0
    strict_metrics: bool = False
    ensemble: EnsembleSpec = field(default_factory=EnsembleSpec)
    paths: dict[str, str] = field(default_factory=dict)
    train: TrainConfig | None = None  # None becomes TrainConfig(seed=seed)

    def __post_init__(self):
        if self.train is None:
            self.train = TrainConfig(seed=self.seed)

    def path(self, key: str) -> Path | None:
        value = self.paths.get(key)
        return Path(value) if value else None


#: the :class:`RunConfig` fields filled from a config key of another name
_FILE_KEYS = {"filter_words": "filter_words_file"}
_KEYS = frozenset(_FILE_KEYS.get(f.name, f.name) for f in fields(RunConfig))


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration: each key the file holds
    is checked and converted, and :class:`RunConfig` supplies the rest.

    Raises:
        SchemaError: structurally invalid configuration (including a
            missing, non-integer or negative seed: seeds must be explicit),
            or a file that is not UTF-8 text.
    """
    base = Path(path).parent
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    unknown = set(raw) - _KEYS
    if unknown:
        raise SchemaError(f"{path}: unknown config keys: {sorted(unknown)}")
    if "seed" not in raw or isinstance(raw["seed"], bool) or not isinstance(raw["seed"], int):
        raise SchemaError(f"{path}: 'seed' must be present and an integer")

    def check(key, value, ok: bool, what: str):
        if not ok:
            raise SchemaError(f"{path}: '{key}' must be {what}, got {value!r}")
        return value

    check("seed", raw["seed"], raw["seed"] >= 0, "a non-negative integer")

    def strings(key, value) -> tuple[str, ...]:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        return tuple(check(key, value, ok, "a list of strings"))

    def numbers(key, value) -> tuple[float, ...]:
        ok = isinstance(value, list) and all(type(v) in (int, float) for v in value)
        return tuple(float(v) for v in check(key, value, ok, "a list of numbers"))

    def section(key) -> dict:
        return check(key, raw[key], isinstance(raw[key], dict), "an object")

    def shares(key, value) -> tuple[float, ...]:
        shares = numbers(key, value)
        ok = all(0 <= s < math.inf for s in shares) and sum(shares) > 0
        check(key, value, ok, "finite, non-negative and not all zero")
        if len(shares) != len(config.races):
            raise SchemaError(f"{path}: {key} must have one share per race")
        return shares

    config = RunConfig(seed=raw["seed"])
    if "smoothing_alpha" in raw:
        alpha = raw["smoothing_alpha"]
        ok = type(alpha) in (int, float) and 0 <= alpha < math.inf  # bool is not a number here
        config.smoothing_alpha = float(check("smoothing_alpha", alpha, ok, "a finite number >= 0"))
    if "strict_metrics" in raw:
        strict = raw["strict_metrics"]
        config.strict_metrics = check("strict_metrics", strict, isinstance(strict, bool),
                                      "true or false")
    if "suffixes" in raw:
        config.suffixes = tuple(s.lower() for s in strings("suffixes", raw["suffixes"]))
    if "races" in raw:
        try:
            config.races = RaceSet(strings("races", raw["races"]))
        except ValueError as exc:
            raise SchemaError(f"{path}: bad races: {exc}") from exc

    words_file = raw.get("filter_words_file")
    check("filter_words_file", words_file, words_file is None or isinstance(words_file, str),
          "a string")
    if words_file:
        config.filter_words = load_filter_words(base / words_file)

    if "ensemble" in raw:
        given = section("ensemble")
        convert = {"members": strings, "weights": numbers}
        unknown = [f"ensemble.{key}" for key in sorted(given.keys() - convert.keys())]
        if unknown:
            raise SchemaError(f"{path}: unknown config keys: {unknown}")
        try:
            config.ensemble = EnsembleSpec(**{
                key: convert[key](f"ensemble.{key}", value) for key, value in given.items()
            })
            # predict runs each member as a model of its own: the ensemble
            # itself cannot be one
            for member in config.ensemble.members:
                resolve_model(member)
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"{path}: bad ensemble spec: {exc}") from exc

    if "train" in raw:
        try:
            config.train = replace(config.train, **section("train"))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: bad train section: {exc}") from exc

    if "paths" in raw:
        paths = raw["paths"]
        if not isinstance(paths, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in paths.items()
        ):
            raise SchemaError(f"{path}: 'paths' must map names to strings")
        config.paths = {key: str(base / value) for key, value in paths.items()}

    for key in ("target_shares", "sample_shares"):
        if key in raw:  # null stays None
            setattr(config, key, None if raw[key] is None else shares(key, raw[key]))
    return config
