"""Command-line front end.

Subcommands
-----------
model-list    print the model families and their parameter names
entanglement  ground-state reports over partitions and parameter sweeps
fit           central-charge fit of an entropy series CSV
dynamics      no-jump time evolution entropy series
duality       R P R vs P R P spectrum comparison
oracle        brute-force many-body cross-check suite

Common flags: --config PATH (JSON), --out DIR, --workers N,
--tolerance NAME=VALUE (repeatable).  Exit status: 0 success,
1 configuration/validation error (a lattice size that the model family
cannot take among them), 2 numerical failure (a MemoryError among them).

An entanglement sweep point solves its kernel once: position and momentum
partitions are cut from that one ground state.

Outputs are deterministic: rows follow config order regardless of worker
scheduling, floats are printed with 12 significant digits, CSV files are
UTF-8 with LF line endings, and complex quantities are split into Re/Im
columns.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys as _sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (RunConfig, load_config, parse_partition,
                     parse_partitions)
from .correlations import check_duality
from .dynamics import (domain_wall_state, evolve_no_jump,
                       hermitian_ground_state, staggered_state)
from .errors import ConfigError, ToolkitError
from .models import FAMILIES
from .oracle import oracle_equivalence_suite
from .pipeline import ground_state_system, report_for_partition
from .scaling import ScalingSeries, fit_central_charge

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL = 0, 1, 2


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _complex_json(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _manifest(config: RunConfig, points) -> dict:
    digest = hashlib.sha256(config.canonical_json().encode()).hexdigest()
    return {
        "config_digest": digest,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "points": points,
    }


def _report_json(report, label) -> dict:
    return {
        "partition": {"space": report.partition.space,
                      "size": report.partition.size,
                      "indices": list(report.partition.indices)},
        "label": label,
        "correlation_eigenvalues": [_complex_json(e)
                                    for e in report.correlation_eigenvalues],
        "single_particle_spectrum": [_complex_json(x)
                                     for x in report.single_particle_spectrum],
        "entropy_vn": _complex_json(report.entropy_vn),
        "entropy_renyi": {str(k): _complex_json(v)
                          for k, v in report.entropy_renyi.items()},
        "entropy_modified": report.entropy_modified,
        "n_midgap": int(report.n_midgap),
        "realness_residual": report.realness_residual,
        "clamped_modes": [int(i) for i in report.clamped_modes],
    }


def _failure_kind(exc: BaseException) -> str:
    """The class name of a numerical failure as it is printed; numpy
    raises a private MemoryError subclass, shown by the public name."""
    return "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__


_NUMERICAL_FAILURES = (ToolkitError, np.linalg.LinAlgError, MemoryError)


def _entanglement_point(config: RunConfig):
    """The one point of ``config.points``: build, diagonalize once, report
    every partition.

    Module-level so process pools can pickle it.  Returns (rows, reports,
    status, warnings, message); rows are already formatted strings.  A
    numerical failure of the point gives no rows or reports, the failure's
    class as its status and its text as the message (None when the status
    is "ok"); a ``ConfigError`` propagates.
    """
    (value, spec, partitions), = config.points
    tol = config.tolerances

    rows, reports = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sys_k, sel_k = ground_state_system(spec.build(), config.filling,
                                               config.policy)
            for part in partitions:
                report = report_for_partition(sys_k, sel_k, part,
                                              renyi_orders=config.renyi,
                                              clamp_tol=tol.clamp,
                                              midgap_tol=tol.midgap)
                s = complex(report.entropy_vn)
                s2 = complex(report.entropy_renyi.get(2, 0.0))
                label = (f"{part.space}"
                         f"[{part.indices[0]}:{part.indices[-1] + 1}]")
                rows.append([
                    _fmt(value) if value is not None else "",
                    label, str(part.size),
                    _fmt(s.real), _fmt(s.imag),
                    _fmt(s2.real), _fmt(s2.imag),
                    _fmt(report.entropy_modified),
                    str(report.n_midgap),
                ])
                reports.append(_report_json(report, label))
            status, message = "ok", None
        except ConfigError:
            raise
        except _NUMERICAL_FAILURES as exc:
            rows, reports = [], []
            status, message = _failure_kind(exc), str(exc)
        warn_msgs = sorted({str(w.message) for w in caught})
    return rows, reports, status, warn_msgs, message


_ENT_HEADER = ["sweep_value", "partition", "L_A", "Re_S", "Im_S",
               "Re_S_renyi2", "Im_S_renyi2", "S_modified", "n_midgap"]


def cmd_entanglement(config: RunConfig, out_dir: str, workers: int) -> int:
    if config.model is None:
        raise ConfigError("entanglement command requires a model", "config.model")
    if not any(partitions for _, _, partitions in config.points):
        raise ConfigError("entanglement command requires partitions",
                          "config.partitions")
    # each payload carries its own point only
    payloads = [replace(config, points=[point]) for point in config.points]
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_entanglement_point, payloads))
    else:
        results = [_entanglement_point(p) for p in payloads]

    all_rows, all_reports, points, failed = [], [], [], False
    for (v, _, _), (rows, reports, status, warns, message) in zip(
            config.points, results):
        all_rows.extend(rows)
        all_reports.extend(reports)
        points.append({"value": v, "status": status, "warnings": warns})
        if message is not None:
            print(f"numerical failure: {status}: {message}", file=_sys.stderr)
            failed = True

    _write_csv(f"{out_dir}/entanglement.csv", _ENT_HEADER, all_rows)
    _write_json(f"{out_dir}/reports.json", all_reports)
    _write_json(f"{out_dir}/manifest.json", _manifest(config, points))
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_fit(config: RunConfig, out_dir: str, series_path: str) -> int:
    if config.fit is None:
        raise ConfigError("fit command requires a 'fit' section", "config.fit")
    geometry = config.fit["geometry"]
    length = config.fit["length"]
    window = tuple(config.fit["window"]) if "window" in config.fit else None
    points = []
    try:
        fh = open(series_path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read series: {exc}", series_path) from exc
    with fh:
        reader = csv.DictReader(fh)
        if not {"L_A", "Re_S"} <= set(reader.fieldnames or ()):
            raise ConfigError("series CSV needs L_A and Re_S columns",
                              series_path)
        for row in reader:
            try:
                la = int(row["L_A"])
                s = complex(float(row["Re_S"]), float(row.get("Im_S", 0) or 0))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"line {reader.line_num}: {exc}",
                                  series_path) from exc
            points.append((la, s))
    points.sort(key=lambda p: p[0])
    try:
        series = ScalingSeries(length, points, geometry)
    except ValueError as exc:
        raise ConfigError(str(exc), series_path) from exc
    fit = fit_central_charge(series, window=window,
                             imag_tol=config.tolerances.fit_imag)
    _write_json(f"{out_dir}/fit.json", {
        "c": fit.c, "intercept": fit.intercept,
        "rms_residual": fit.rms_residual,
        "window": list(fit.window), "n_points": fit.n_points,
        "geometry": geometry,
    })
    _write_json(f"{out_dir}/manifest.json", _manifest(config, [
        {"value": None, "status": "ok", "warnings": []}]))
    return EXIT_OK


def cmd_dynamics(config: RunConfig, out_dir: str) -> int:
    if config.model is None or config.dynamics is None:
        raise ConfigError("dynamics command requires model and dynamics sections")
    K = config.model.build()
    tg = config.dynamics["t_grid"]
    t_grid = np.linspace(tg["start"], tg["stop"], tg["num"]) \
        if isinstance(tg, dict) else tg
    state_kind = config.dynamics.get("initial_state", "domain_wall")
    n_half = K.dim // 2
    psi0 = {"domain_wall": lambda: domain_wall_state(K.dim),
            "staggered": lambda: staggered_state(K.dim),
            "hermitian_ground": lambda: hermitian_ground_state(K, n_half),
            }[state_kind]()
    pspec = config.dynamics.get("partition", {"type": "half"})
    part = parse_partition(pspec, K.dim, "config.dynamics.partition")
    if isinstance(part, list):
        raise ConfigError("dynamics takes a single partition",
                          "config.dynamics.partition")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = evolve_no_jump(K, psi0, t_grid, part,
                                 renyi_orders=config.renyi,
                                 clamp_tol=config.tolerances.clamp)
    rows = []
    for t, C, report in records:
        s = complex(report.entropy_vn)
        trace_residual = C.source[2]
        rows.append([_fmt(t), _fmt(s.real), _fmt(s.imag), _fmt(trace_residual)])
    _write_csv(f"{out_dir}/dynamics.csv",
               ["time", "Re_S", "Im_S", "trace_residual"], rows)
    _write_json(f"{out_dir}/manifest.json", _manifest(config, [
        {"value": None, "status": "ok",
         "warnings": sorted({str(w.message) for w in caught})}]))
    return EXIT_OK


def cmd_duality(config: RunConfig, out_dir: str) -> int:
    if config.model is None:
        raise ConfigError("duality command requires model and partitions")
    # a sweep is not run: the partitions are resolved on the model's kernel
    K = config.model.build()
    partitions = parse_partitions(config.raw.get("partitions", []), K.dim)
    if not partitions:
        raise ConfigError("duality command requires model and partitions")
    payload = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sys_k, sel_k = ground_state_system(K, config.filling, config.policy)
        for part in partitions:
            rep = check_duality(sys_k, sel_k, part)
            payload.append({
                "partition_size": part.size,
                "max_mismatch": rep.max_mismatch,
                "spectrum_rpr": [_complex_json(z) for z in rep.spectrum_rpr],
                "spectrum_prp": [_complex_json(z) for z in rep.spectrum_prp],
            })
    _write_json(f"{out_dir}/duality.json", payload)
    _write_json(f"{out_dir}/manifest.json", _manifest(config, [
        {"value": None, "status": "ok",
         "warnings": sorted({str(w.message) for w in caught})}]))
    return EXIT_OK


def cmd_oracle(config: RunConfig, out_dir: str) -> int:
    results = oracle_equivalence_suite(
        **(config.oracle or {}), entropy_tol=config.tolerances.oracle)
    passed = all(r["passed"] for r in results)
    _write_json(f"{out_dir}/oracle.json", {
        "passed": passed,
        "cases": results,
    })
    _write_json(f"{out_dir}/manifest.json", _manifest(config, [
        {"value": r["case"], "status": "ok" if r["passed"] else "failed",
         "warnings": r["warnings"]} for r in results]))
    if not passed:
        print("oracle suite FAILED", file=_sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_model_list() -> int:
    for family in sorted(FAMILIES):
        print(f"{family}: parameters {', '.join(FAMILIES[family][0])}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhent",
        description="entanglement diagnostics for free-fermion lattice models")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        p.add_argument("--config", required=needs_config,
                       help="path to the JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel sweep workers")
        p.add_argument("--tolerance", action="append", default=[],
                       metavar="NAME=VALUE", help="override a named tolerance")

    sub.add_parser("model-list", help="list model families")
    add_common(sub.add_parser("entanglement", help="ground-state reports"))
    fit_p = sub.add_parser("fit", help="central-charge fit of a series CSV")
    add_common(fit_p)
    fit_p.add_argument("--series", required=True, help="entropy series CSV")
    add_common(sub.add_parser("dynamics", help="no-jump evolution"))
    add_common(sub.add_parser("duality", help="RPR vs PRP spectra"))
    oracle_p = sub.add_parser("oracle", help="many-body cross-check suite")
    add_common(oracle_p, needs_config=False)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of ``main``; parsing leaves it unchanged (an
    appended flag's list is a copy of its default)."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "model-list":
        return cmd_model_list()
    try:
        if getattr(args, "config", None):
            config = load_config(args.config)
        else:
            from .config import parse_config
            config = parse_config({})
        for item in args.tolerance:
            if "=" not in item:
                raise ConfigError(f"expected NAME=VALUE, got {item!r}",
                                  "--tolerance")
            name, value = item.split("=", 1)
            config.tolerances.override(name, value)
        # made before any computation, so that a bad --out costs no run
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}",
                              "--out") from exc

        if args.command == "entanglement":
            return cmd_entanglement(config, args.out, args.workers)
        if args.command == "fit":
            return cmd_fit(config, args.out, args.series)
        if args.command == "dynamics":
            return cmd_dynamics(config, args.out)
        if args.command == "duality":
            return cmd_duality(config, args.out)
        if args.command == "oracle":
            return cmd_oracle(config, args.out)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {_failure_kind(exc)}: {exc}",
              file=_sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
