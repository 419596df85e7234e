"""Self-tests of the benchmark: ``python3 -m pytest -q bench``.

They cover the tracer's self-time arithmetic, that tracing leaves outputs
bit-identical, that wrong and raising items count as failed ops, that op
counts depend on the seed and not on the pass count, that times are scaled
by the host probe, and that a run writes nothing under ``src/`` or
``tests/``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import nhent  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def test_self_time_of_nested_calls():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    leaf = tr.wrap("lapack.eigvals", "lapack", lambda a: None)
    inner = tr.wrap("correlations.f", "correlations", lambda: leaf(np.eye(2)))
    nested = tr.wrap("pipeline.g", "pipeline", lambda: leaf(np.eye(2)))
    outer = tr.wrap("pipeline.h", "pipeline", lambda: (inner(), nested()))
    outer()
    # outer [0, 9] > inner [1, 4] > leaf [2, 3]; outer > nested [5, 8] > leaf [6, 7]
    assert [s[2:5] for s in tr.spans] == [
        [0.0, 9.0, -1], [1.0, 4.0, 0], [2.0, 3.0, 1], [5.0, 8.0, 0],
        [6.0, 7.0, 3]]
    m = {k: v for k, (v, _) in layer_metrics(tr.spans).items()}
    assert m["pipeline.calls"] == 2
    assert m["pipeline.busy_s"] == 9.0  # the nested call does not re-enter
    assert m["pipeline.self_s"] == (9 - 3 - 3) + (3 - 1)
    assert (m["correlations.busy_s"], m["correlations.self_s"]) == (3.0, 2.0)
    assert (m["lapack.eigvals.calls"], m["lapack.eigvals.s"]) == (2, 2.0)
    assert m["lapack.eigvals.n3"] == 16
    assert m["pipeline.self_s"] + m["correlations.self_s"] \
        + m["lapack.eigvals.s"] == 9.0


def _same(a, b) -> bool:
    """Bit-for-bit equality of nested outputs."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes()
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("workload, item", [
    ("ring_chord", "A02-nhssh-L64"), ("open_ladder", "A04-hn-n128"),
    ("no_jump", "NJ-L64-G0.25"), ("oracle_cli", None)])
def test_tracing_leaves_outputs_bit_identical(workload, item, tmp_path):
    items = workloads.build(workload, 7, str(tmp_path))[0]
    it = next(i for i in items if item in (None, i.name))
    plain = it.run()
    originals = (nhent.entropy_series, nhent.pipeline.correlation_matrix,
                 np.linalg.eigvals)
    tr = Tracer()
    tr.install()
    try:
        traced = it.run()
    finally:
        tr.uninstall()
    assert tr.spans
    assert _same(plain, traced)
    assert originals == (nhent.entropy_series,
                         nhent.pipeline.correlation_matrix, np.linalg.eigvals)


def test_wrong_and_raising_items_are_failed_ops(tmp_path):
    item = next(i for i in workloads.build("no_jump", 1, str(tmp_path))[0]
                if i.name == "NJ-L64-G0")
    refs = harness.references([item])
    assert harness.run_pass([item], refs).ops == {item.name: None}

    def perturbed():
        out = item.run()
        return {**out, "S": out["S"] + 1e-6}

    def raising():
        raise nhent.CollapseError("synthetic")

    def raising_check(out, ref):
        raise KeyError("S")

    result = harness.run_pass([
        dataclasses.replace(item, run=perturbed),
        dataclasses.replace(item, name="boom", run=raising),
        dataclasses.replace(item, name="bad-check", check=raising_check)],
        refs)
    assert str(result.ops[item.name]).startswith("max |S - S_ref| = 1e-06")
    assert str(result.ops["boom"]) == "raised CollapseError: synthetic"
    assert str(result.ops["bad-check"]) == "check raised KeyError: 'S'"
    assert not any(workloads.is_known_failure("no_jump", op, miss)
                   for op, miss in result.ops.items())


@pytest.mark.parametrize("workload, op, miss, known", [
    ("no_jump", "NJ-L64-G0.5", ("deviation", 0.62), True),
    ("no_jump", "NJ-L64-G0.5", ("deviation", 1e-3), False),
    ("no_jump", "NJ-L64-G0.5", ("CollapseError", 0.25), False),
    ("no_jump", "NJ-L128-G0.5", ("CollapseError", 0.5), True),
    ("no_jump", "NJ-L128-G0.5", ("CollapseError", 5.0), False),
    ("no_jump", "NJ-L64-G0", ("deviation", 0.62), False),
    ("ring_chord", "A02-nhssh-L64", ("c", float("nan")), False),
    ("ring_chord", "A02-nhssh-L64", ("c", -3088.3), False),
])
def test_known_failure_needs_same_kind_and_size(workload, op, miss, known):
    assert workloads.is_known_failure(
        workload, op, workloads.Miss(*miss, "")) is known


def test_times_are_scaled_by_the_host_probe(monkeypatch):
    probes = iter([1.0, 3.0])  # in units of PROBE_REF_S, around the item
    monkeypatch.setattr(harness, "host_probe",
                        lambda: next(probes) * harness.PROBE_REF_S)
    item = workloads.Item("sleep", lambda: time.sleep(0.02) or {},
                          lambda out, ref: {"sleep": None})
    p = harness.run_pass([item], {})
    assert p.raw_wall >= 0.02
    assert p.wall == pytest.approx(p.raw_wall / 2, rel=1e-12)
    assert p.cpu < p.wall


def test_op_counts_do_not_depend_on_the_pass_count():
    miss = workloads.Miss("deviation", 0.62, "")
    p = harness.PassResult(0.0, 0.0, 0.0,
                           {"NJ-L64-G0": None, "NJ-L64-G0.5": miss})
    for n in (1, 3):
        attempted, failures = harness.count_ops("no_jump", [p] * n)
        assert attempted == 2
        assert failures == {"NJ-L64-G0.5": (miss, True, n)}


def test_oracle_cycle_depends_on_the_seed_alone(tmp_path):
    def names(seed):
        return [it.name for items in workloads.build("oracle_cli", seed,
                                                     str(tmp_path))
                for it in items]
    assert names(3) == names(3) != names(4)
    assert len(set(names(3))) == workloads.ORACLE_INVOCATIONS


def _snapshot(*dirs):
    return {os.path.join(d, f): os.stat(os.path.join(d, f)).st_mtime_ns
            for top in dirs for d, _, files in os.walk(top) for f in files}


def test_run_writes_nothing_under_src_or_tests():
    watched = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    before = _snapshot(*watched)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "no_jump", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(result["metrics"]) == sorted(m["name"]
                                               for m in spec["end_to_end"])
    assert result["correct"] and result["failed"] * 2 == result["attempted"]
    assert _snapshot(*watched) == before


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "no_jump", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
