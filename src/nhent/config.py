"""Run-configuration parsing with strict schema validation.

Configs are JSON documents.  Unknown keys are rejected at every level with
the offending field path, because a silently ignored typo in a physics
sweep wastes hours.  Complex numbers never appear in configs; fractions may
be written as strings like "1/2".
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .correlations import Partition
from .entanglement import CLAMP_TOL, MIDGAP_TOL
from .errors import (ConfigError, PartitionError, SizeError, ToolkitError,
                     UnsupportedError)
from .models import FAMILIES, ModelSpec
from .oracle import MAX_MODES, ORACLE_ENTROPY_TOL, oracle_equivalence_suite
from .pipeline import dual_momentum_partition
from .scaling import FIT_IMAG_TOL
from .spectra import OCCUPATION_POLICIES

__all__ = ["RunConfig", "Tolerances", "load_config", "parse_config"]


@dataclass
class Tolerances:
    clamp: float = CLAMP_TOL
    midgap: float = MIDGAP_TOL
    fit_imag: float = FIT_IMAG_TOL
    oracle: float = ORACLE_ENTROPY_TOL

    def override(self, name: str, value: float) -> None:
        known = tuple(f.name for f in fields(self))
        if name not in known:
            raise ConfigError(f"unknown tolerance {name!r}; "
                              f"known: {known}", "tolerances")
        setattr(self, name, _parse_float(value, f"tolerances.{name}"))


def _expect(value, kind: type, path: str):
    """``value`` if it is a ``kind`` (dict or list), else a ConfigError."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ConfigError(f"expected {name}, got {type(value).__name__}", path)
    return value


def _require_keys(d: dict, required, optional, path: str) -> None:
    _expect(d, dict, path)
    for k in required:
        if k not in d:
            raise ConfigError(f"missing required key {k!r}", path)
    allowed = set(required) | set(optional)
    unknown = [k for k in d if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown keys {unknown}; allowed: {sorted(allowed)}",
                          path)


def _parse_fraction(value, path: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        return Fraction(value).limit_denominator(10 ** 9)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ConfigError(f"not a valid fraction: {value!r} ({exc})", path)


def _parse_int(value, path: str) -> int:
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ConfigError(f"not an integer: {value!r}", path)
    try:
        return int(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"not an integer: {value!r} ({exc})", path)


def _parse_float(value, path: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"not a number: {value!r}", path)
    try:
        x = float(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"not a number: {value!r} ({exc})", path)
    if math.isnan(x):
        raise ConfigError(f"not a number: {value!r}", path)
    return x


def _parse_time(value, path: str) -> float:
    t = _parse_float(value, path)
    if not math.isfinite(t):
        raise ConfigError(f"time must be finite, got {t}", path)
    return t


def _parse_model(d: dict, path: str) -> tuple[ModelSpec, int]:
    """The model spec and the mode count of its kernel."""
    _require_keys(d, ("family", "params"), ("bc",), path)
    family = d["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; known: {sorted(FAMILIES)}",
                          f"{path}.family")
    params = dict(_expect(d["params"], dict, f"{path}.params"))
    return _built_spec(family, params, d.get("bc", "periodic"),
                       f"{path}.params", f"{path}.bc")


def _built_spec(family: str, params: dict, bc, path: str,
                bc_path: str) -> tuple[ModelSpec, int]:
    """The spec and the mode count of its kernel, which is built here: a
    parameter or a size it cannot be built from (a ``SizeError``, or a
    plain ValueError or TypeError) is a configuration error at ``path``,
    a refused bc one at ``bc_path``; any other numerical ToolkitError of
    the build passes through."""
    try:
        spec = ModelSpec(family, params, bc)
        return spec, spec.build().dim
    except UnsupportedError as exc:
        raise ConfigError(str(exc), bc_path)
    except SizeError as exc:
        raise ConfigError(str(exc), path)
    except ToolkitError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), path)


_PARTITION_TYPES = ("half", "central_half", "range", "indices", "dual_half",
                    "size_scan")


def parse_partition(d: dict, n_total: int, path: str):
    """One partition spec -> Partition, or a list for type size_scan."""
    _require_keys(d, ("type",), ("space", "start", "stop", "indices", "p",
                                 "min", "max", "step"), path)
    space = d.get("space", "position")
    kind = d["type"]
    if kind not in _PARTITION_TYPES:
        raise ConfigError(f"unknown partition type {kind!r}; "
                          f"known: {_PARTITION_TYPES}", f"{path}.type")

    def num(key, default=None):
        value = d[key] if default is None else d.get(key, default)
        return _parse_int(value, f"{path}.{key}")

    try:
        if kind == "half":
            return Partition.half(n_total, space)
        if kind == "central_half":
            return Partition.central_half(n_total, space)
        if kind == "range":
            return Partition.contiguous(num("start"), num("stop"), n_total, space)
        if kind == "indices":
            indices = _expect(d["indices"], list, f"{path}.indices")
            return Partition(space, tuple(_parse_int(i, f"{path}.indices")
                                          for i in indices), n_total)
        if kind == "dual_half":
            return dual_momentum_partition(n_total, num("p"))
        return [Partition.contiguous(0, la, n_total, space)
                for la in range(num("min", 4), num("max", n_total - 4) + 1,
                                num("step", 1))]
    except KeyError as exc:
        raise ConfigError(f"missing key {exc} for type {kind!r}", path)
    except PartitionError as exc:
        raise ConfigError(str(exc), path)


def parse_partitions(specs, n_total: int) -> list:
    """The ``config.partitions`` specs on ``n_total`` modes, in order, with
    each size_scan expanded in place."""
    got = [parse_partition(p, n_total, f"config.partitions[{i}]")
           for i, p in enumerate(_expect(specs, list, "config.partitions"))]
    return [part for g in got for part in (g if isinstance(g, list) else [g])]


@dataclass
class RunConfig:
    """Validated run configuration shared by the CLI subcommands; each of
    ``points`` is (sweep value or None, model spec, its own partitions)."""

    model: ModelSpec | None
    filling: Fraction
    policy: str
    points: list = field(default_factory=list)
    renyi: tuple = (2,)
    sweep: dict | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    fit: dict | None = None
    dynamics: dict | None = None
    oracle: dict | None = None
    raw: dict = field(default_factory=dict, repr=False)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


_TOP_KEYS = ("model", "filling", "policy", "partitions", "renyi", "sweep",
             "tolerances", "fit", "dynamics", "oracle")


def parse_config(doc: dict) -> RunConfig:
    _require_keys(doc, (), _TOP_KEYS, "config")
    model, dim = (_parse_model(doc["model"], "config.model") if "model" in doc
                  else (None, None))
    # (sweep value, spec, mode count) of each kernel to solve
    points = [(None, model, dim)] if model is not None else []

    filling = _parse_fraction(doc.get("filling", "1/2"), "config.filling")
    if not 0 < filling <= 1:
        raise ConfigError(f"filling must be in (0, 1], got {filling}",
                          "config.filling")

    policy = doc.get("policy", "real_part")
    if policy not in OCCUPATION_POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; "
                          f"known: {OCCUPATION_POLICIES}", "config.policy")

    renyi = tuple(_parse_int(n, "config.renyi")
                  for n in _expect(doc.get("renyi", [2]), list, "config.renyi"))
    for n in renyi:
        if n < 2:
            raise ConfigError(f"Renyi orders must be >= 2, got {n}",
                              "config.renyi")

    sweep = None
    if "sweep" in doc:
        _require_keys(doc["sweep"], ("parameter", "values"), (), "config.sweep")
        values = doc["sweep"]["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep values must be a nonempty list",
                              "config.sweep.values")
        seen, dedup = set(), []
        for v in values:
            if not isinstance(v, (int, float)) or v != v or v in (float("inf"), float("-inf")):
                raise ConfigError(f"sweep value {v!r} not a finite number",
                                  "config.sweep.values")
            if v not in seen:
                seen.add(v)
                dedup.append(v)
        param = doc["sweep"]["parameter"]
        if model is not None:
            if param not in FAMILIES[model.family][0]:
                raise ConfigError(
                    f"sweep parameter {param!r} not a parameter of family "
                    f"{model.family!r}", "config.sweep.parameter")
            # each point's kernel must build, e.g. from a size its family
            # takes; a periodic chain is built from its cell blocks
            points = [(v, *_built_spec(model.family, {**model.params, param: v},
                                       model.bc, "config.sweep.values",
                                       "config.sweep.values"))
                      for v in dedup]
        sweep = {"parameter": param, "values": dedup}

    tolerances = Tolerances()
    for name, value in _expect(doc.get("tolerances", {}), dict,
                               "config.tolerances").items():
        tolerances.override(name, value)

    fit = None
    if "fit" in doc:
        _require_keys(doc["fit"], ("geometry", "length"), ("window",),
                      "config.fit")
        if doc["fit"]["geometry"] not in ("chord", "open_log"):
            raise ConfigError("geometry must be 'chord' or 'open_log'",
                              "config.fit.geometry")
        fit = dict(doc["fit"])
        fit["length"] = _parse_int(fit["length"], "config.fit.length")
        if "window" in fit:
            w = fit["window"]
            if not isinstance(w, list) or len(w) != 2:
                raise ConfigError(f"expected two integers, got {w!r}",
                                  "config.fit.window")
            fit["window"] = [_parse_int(x, "config.fit.window") for x in w]

    dynamics = None
    if "dynamics" in doc:
        _require_keys(doc["dynamics"], ("t_grid",),
                      ("initial_state", "partition"), "config.dynamics")
        tg = doc["dynamics"]["t_grid"]
        path = "config.dynamics.t_grid"
        if isinstance(tg, dict):
            _require_keys(tg, ("start", "stop", "num"), (), path)
            tg = {k: (_parse_int if k == "num" else _parse_time)(v, f"{path}.{k}")
                  for k, v in tg.items()}
            if tg["num"] < 0:
                raise ConfigError(f"num must be >= 0, got {tg['num']}",
                                  f"{path}.num")
        elif isinstance(tg, list):
            tg = [_parse_time(t, f"{path}[{i}]") for i, t in enumerate(tg)]
        else:
            raise ConfigError("expected an object or a list", path)
        state = doc["dynamics"].get("initial_state", "domain_wall")
        if state not in ("domain_wall", "staggered", "hermitian_ground"):
            raise ConfigError(f"unknown initial state {state!r}",
                              "config.dynamics.initial_state")
        dynamics = {**doc["dynamics"], "t_grid": tg}

    oracle = None
    if "oracle" in doc:
        keys = ("n_cases", "n_modes", "subsystem", "seed")
        _require_keys(doc["oracle"], (), keys, "config.oracle")
        # the suite's own defaults fill the keys the config leaves out
        suite = inspect.signature(oracle_equivalence_suite).parameters
        oracle = {**{k: suite[k].default for k in keys}, **doc["oracle"]}
        for key in oracle:
            oracle[key] = _parse_int(oracle[key], f"config.oracle.{key}")
        if oracle["n_modes"] > MAX_MODES:
            raise ConfigError(f"n_modes must be at most {MAX_MODES}, got "
                              f"{oracle['n_modes']}", "config.oracle.n_modes")
        if not 1 <= oracle["subsystem"] < oracle["n_modes"]:
            raise ConfigError(
                f"subsystem must be in [1, n_modes = {oracle['n_modes']}), "
                f"got {oracle['subsystem']}", "config.oracle.subsystem")

    if "partitions" in doc and model is None:
        raise ConfigError("partitions require a model", "config.partitions")
    # every point's partitions are checked here, before any point is solved
    points = [(v, spec, parse_partitions(doc.get("partitions", []), n))
              for v, spec, n in points]

    return RunConfig(model=model, filling=filling, policy=policy,
                     points=points, renyi=renyi, sweep=sweep,
                     tolerances=tolerances, fit=fit, dynamics=dynamics,
                     oracle=oracle, raw=doc)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}", path)
    return parse_config(doc)
