"""Timed passes, set-up measurement, environment record and result line.

``run.py`` pins the BLAS thread count and puts ``src/`` on the path before
this module (and with it numpy) is imported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

import workloads
from tracer import Tracer, layer_metrics

# Fresh set-up processes per run, spread evenly over the timed passes so
# that they sample the host's slow and fast phases; setup_s is the median.
SETUP_RUNS = 7

# The host probe: a fixed mix of LAPACK and interpreter work, timed around
# every timed item and set-up process.  On a shared host the same code runs
# at two speeds about 1.5x apart, in phases of tens of seconds, so whole
# runs land in one phase or the other.  Each timing is scaled by
# PROBE_REF_S / (probe round time around it): it reads in seconds of a host
# whose probe round takes PROBE_REF_S.  The probe is the benchmark's own
# code, bound here before a tracer can rebind numpy, so no change to
# ``nhent`` alters it.
PROBE_ROUNDS = 16
PROBE_REF_S = 1e-3
_PROBE_EIGH = np.linalg.eigh
_PROBE_MATRIX = np.random.default_rng(0).normal(size=(96, 96))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T


def host_probe() -> float:
    """Seconds per probe round (one 96 x 96 ``eigh``, one Python loop)."""
    t0 = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        _PROBE_EIGH(_PROBE_MATRIX)
        acc = 0
        for i in range(2000):
            acc += i * i
    return (time.perf_counter() - t0) / PROBE_ROUNDS


@dataclass
class PassResult:
    wall: float  # host-normalised wall time (see PROBE_REF_S)
    cpu: float  # host-normalised process CPU time
    raw_wall: float
    ops: dict  # op name -> None (passed) or the workloads.Miss it failed by


def run_pass(items, refs, tracer=None) -> PassResult:
    """One timed pass over ``items``, then (untimed) their reference checks.

    Each item is timed on its own, between two host probes, and scaled by
    the mean of the two.  An item that raises, or whose check raises, is
    one failed op; the pass goes on.
    """
    outputs, ops = {}, {}
    wall = cpu = raw_wall = 0.0
    probe = host_probe()
    for item in items:
        if tracer is not None:
            tracer.item = item.name
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outputs[item.name] = item.run()
        except Exception as exc:  # a failed op is counted, not fatal
            ops[item.name] = workloads.raised(exc)
        dwall = time.perf_counter() - wall0
        dcpu = time.process_time() - cpu0
        probe_before, probe = probe, host_probe()
        scale = PROBE_REF_S / (0.5 * (probe_before + probe))
        wall, cpu, raw_wall = wall + dwall * scale, cpu + dcpu * scale, \
            raw_wall + dwall
    for item in items:
        if item.name in outputs:
            try:
                ops.update(item.check(outputs[item.name], refs.get(item.name)))
            except Exception as exc:
                ops[item.name] = workloads.raised(exc, "check raised")
    return PassResult(wall, cpu, raw_wall, ops)


def references(items) -> dict:
    return {item.name: item.reference() for item in items}


def warmup_item(workload, cycle):
    name = workloads.WARMUP.get(workload)
    return next(it for it in cycle[0] if name in (None, it.name))


def setup_child(workload: str, seed: int, t0: float) -> None:
    """In a fresh process: build the inputs, run the warm-up item untimed.

    ``t0`` was taken before ``nhent`` (and numpy) were imported.
    """
    with tempfile.TemporaryDirectory(dir=work_root()) as tmp:
        cycle = workloads.build(workload, seed, tmp)
        warmup_item(workload, cycle).run()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int) -> float:
    """Host-normalised ``setup_s`` of one fresh process (see
    ``setup_child``), scaled by host probes taken just before and after."""
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    probe_before = host_probe()
    proc = subprocess.run(
        [sys.executable, "-B", run_py, "--setup-child",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    probe_after = host_probe()
    setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    return setup_s * PROBE_REF_S / (0.5 * (probe_before + probe_after))


def work_root() -> str:
    """``.bench_out`` at the checkout root: temp dirs and span files."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": seed}


def noise_probe() -> float:
    """Best of three timings of a fixed 128 x 128 ``eigh``, in ms."""
    a = np.random.default_rng(0).normal(size=(128, 128))
    a = a + a.T
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        np.linalg.eigh(a)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _timed_passes(cycle, refs, seconds, tracer: Tracer | None, setup=None):
    """Passes until the next one would end past ``seconds``.

    Pass k runs ``cycle[k % len(cycle)]``; there are at least
    ``len(cycle)`` passes, so every item of the cycle runs.  With a tracer,
    untraced and traced passes alternate.  With ``setup`` (a function
    returning one set-up time), ``SETUP_RUNS`` set-up processes run between
    the passes, one before the first and the others spread evenly over the
    passes' time; their time does not count against ``seconds``.  Returns the untraced and traced passes and the set-up
    times.
    """
    plain, traced, setups = [], [], []
    per_round = 1 if tracer is None else 2
    start = time.perf_counter()
    paused = 0.0  # time spent in set-up processes

    def setups_until(n):
        nonlocal paused
        t0 = time.perf_counter()
        while setup is not None and len(setups) < n:
            setups.append(setup())
        paused += time.perf_counter() - t0

    setups_until(1)
    k = 0
    while True:
        plain.append(run_pass(cycle[k % len(cycle)], refs))
        k += 1
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(cycle[k % len(cycle)], refs, tracer))
            finally:
                tracer.uninstall()
            k += 1
        longest = max(p.raw_wall for p in plain + traced)
        elapsed = time.perf_counter() - start - paused
        if k >= len(cycle) and elapsed + per_round * longest > seconds:
            setups_until(SETUP_RUNS)
            return plain, traced, setups
        setups_until(min(SETUP_RUNS - 1,
                         1 + int((SETUP_RUNS - 1) * elapsed / seconds)))


def count_ops(workload: str, passes) -> tuple[int, dict]:
    """Attempted ops, and op -> (first miss, known, failed passes).

    An op counts once per run however many passes ran it, and it failed if
    it failed on any pass; it is a known failure only if every miss is.
    So both counts depend on the workload and seed alone, not on how many
    passes fitted into the run.
    """
    attempted, misses = set(), {}
    for p in passes:
        for op, miss in p.ops.items():
            attempted.add(op)
            if miss is not None:
                misses.setdefault(op, []).append(miss)
    return len(attempted), {
        op: (ms[0], all(workloads.is_known_failure(workload, op, m)
                        for m in ms), len(ms))
        for op, ms in misses.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    warnings.simplefilter("ignore")
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True))
    probe_start = noise_probe()
    tmp = tempfile.mkdtemp(dir=work_root())
    try:
        cycle = workloads.build(workload, seed, tmp)
        warmup_item(workload, cycle).run()
        refs = references([it for items in cycle for it in items])
        tracer = Tracer() if trace else None
        plain, traced, setup = _timed_passes(
            cycle, refs, seconds, tracer,
            None if trace else lambda: measure_setup(workload, seed))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    probe_end = noise_probe()
    print(f"noise_probe eigh128 start={probe_start:.3f} ms "
          f"end={probe_end:.3f} ms")

    attempted, failures = count_ops(workload, plain + traced)
    n_failed = len(failures)
    unexpected = [op for op, (_, known, _) in failures.items() if not known]
    for op, (miss, known, n) in sorted(failures.items()):
        tag = "known" if known else "unexpected"
        print(f"failed op {op} ({tag}, failed on {n} passes): {miss}")

    pass_s = statistics.median(p.wall for p in plain)
    print(f"pass wall time, not normalised: median "
          f"{statistics.median(p.raw_wall for p in plain):.4f} s")
    print(f"passes untraced={len(plain)} traced={len(traced)} "
          f"ops attempted={attempted} failed={n_failed} "
          f"failed_frac={n_failed / attempted:.4f}")
    if trace:
        metrics = layer_metrics(tracer.spans, len(traced))
        overhead = statistics.median(p.wall for p in traced) / pass_s - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        spans_path = os.path.join(work_root(),
                                  f"spans-{workload}-seed{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (pass_s, "s"),
            "pass_cpu_s": (statistics.median(p.cpu for p in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "ok_frac": ((attempted - n_failed) / attempted, "ratio"),
        }
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0
