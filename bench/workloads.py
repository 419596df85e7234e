"""The four benchmark workloads and their reference checks.

A workload is a list of items per pass.  An item has three parts:

* ``run()`` does the timed work through ``nhent``'s public functions and
  returns the values the check looks at;
* ``reference()`` computes what the check compares against.  It is called
  once per run, outside the timed passes and outside set-up;
* ``check(output, ref)`` maps each op of the item to ``None`` (passed) or
  a ``Miss``.  Most items are one op; an ``oracle_cli`` invocation is one
  op per oracle case.

Tolerances are those of the acceptance gates in ``tests/test_acceptance.py``.
Only ``oracle_cli`` consumes the seed; the other workloads are
deterministic.  ``KNOWN_FAILURES`` lists the ops that fail at the commit
that introduced the benchmark, with the way and the size of each failure,
so that a run can tell a known failure from a new one without hiding
either.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.linalg

import nhent
import nhent.cli

HALF = Fraction(1, 2)
CLAMP = 1e-12  # the clamp tolerance of nhent.entanglement

# The cheapest item of each workload: run once, untimed, before timing starts
WARMUP = {"ring_chord": "A02-nhssh-L64", "open_ladder": "A04-hn-n128",
          "no_jump": "NJ-L64-G0.25"}

# Ops that fail at the parent commit of the benchmark: op -> (kind, size) of
# the ``Miss`` recorded there.  A failure is known only if it has the same
# kind and a size within KNOWN_FACTOR of the recorded one (these sizes move
# by up to 1.8x with the BLAS thread count); any other failure of these ops
# is new.  Oracle failures are a class (see ``_oracle_known``), not fixed
# cases.  A04 at n=384 ends its balancing at cond ~1e11: with the
# benchmark's single BLAS thread its entropy is 2.6e-6 off (2.1e-7 with two
# threads).
KNOWN_FAILURES = {
    "ring_chord": {"A02-nhssh-L64": ("c", 3088.3),
                   "A02-nhssh-L128": ("c", 2224.0),
                   "A02-nhssh-L256": ("c", 1527.7)},
    "open_ladder": {"A04-hn-n384": ("deviation", 2.56e-6)},
    "no_jump": {"NJ-L64-G0.5": ("deviation", 0.622),
                "NJ-L128-G0.25": ("deviation", 0.209),
                "NJ-L128-G0.5": ("CollapseError", 0.25)},
}
KNOWN_FACTOR = 3.0


@dataclass(frozen=True)
class Miss:
    """Why an op failed: a kind, the size that missed, and a one-line text.

    The kind is the checked quantity (``c``, ``deviation``, ...) or, for an
    op that raised, the exception's class name; the size of a
    ``CollapseError`` is its collapse time.
    """

    kind: str
    size: float
    text: str

    def __str__(self) -> str:
        return self.text


def raised(exc: Exception, where: str = "raised") -> Miss:
    size = exc.time if isinstance(exc, nhent.CollapseError) else math.nan
    return Miss(type(exc).__name__, size,
                f"{where} {type(exc).__name__}: {exc}")


@dataclass
class Item:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict, object], dict]
    reference: Callable[[], object] = lambda: None


def _one(name, reason):
    return {name: reason}


def _vn(eps) -> float:
    """-sum [e ln e + (1-e) ln(1-e)] over real eigenvalues away from 0 and 1."""
    e = np.asarray(eps, dtype=float)
    e = e[(np.abs(e) > CLAMP) & (np.abs(1.0 - e) > CLAMP)]
    return float(-np.sum(e * np.log(e) + (1.0 - e) * np.log(1.0 - e)))


# ---------------------------------------------------------------------------
# ring_chord: periodic rings, full entropy series plus chord fit
# ---------------------------------------------------------------------------

def _series_output(series, fit):
    return {"S": np.array([s for _, s in series.points]), "c": fit.c}


def _a01():
    K = nhent.build_uniform_chain(128, 1.0, "periodic")
    sys_k, sel = nhent.ground_state_system(K, HALF)
    series = nhent.entropy_series(sys_k, sel, sizes=range(4, 125))
    return _series_output(series, nhent.fit_central_charge(series))


def _a05(gamma):
    def run():
        K = nhent.build_guo_chain(256, 2, 1.0, gamma, "periodic")
        sys_k = nhent.bloch_system(K)
        sel = nhent.select_occupied(sys_k, HALF)
        n_f = nhent.count_fermi_points(sys_k, sel)
        series = nhent.entropy_series(sys_k, sel, sizes=range(4, 253, 4))
        # the tie-broken k=pi pair injects ~1e-2 imaginary parts (A05 gate)
        fit = nhent.fit_central_charge(series, imag_tol=0.05)
        return {**_series_output(series, fit), "n_f": n_f}
    return run


def _a05_check(name, n_f):
    def check(out, _ref):
        if out["n_f"] != n_f:
            return _one(name, Miss("N_f", out["n_f"],
                                   f"N_f={out['n_f']} != {n_f}"))
        if abs(out["c"] - n_f / 2) > 0.1:
            return _one(name, Miss("c", out["c"], f"c={out['c']:.4f} not "
                                   f"within 0.1 of {n_f / 2}"))
        return _one(name, None)
    return check


def _a02(L):
    def run():
        K = nhent.build_nh_ssh_real(L // 2, 1.0, 0.3, 0.7, "periodic")
        sys_k, sel = nhent.ground_state_system(K, HALF)
        series = nhent.entropy_series(sys_k, sel, sizes=range(4, L - 3, 4))
        # A02 gate: the imaginary filter first, the raw real parts if it
        # leaves too few points
        try:
            fit = nhent.fit_central_charge(series, imag_tol=1e-6)
        except nhent.InsufficientDataError:
            fit = nhent.fit_central_charge(series, imag_tol=np.inf)
        return _series_output(series, fit)
    return run


def _c_check(name, target, tol, slope=False):
    def check(out, _ref):
        c = out["c"]
        ok = abs(c - target) <= tol
        if slope:
            ok = ok and abs(c / 3 + 0.666) <= 0.2 / 3
        return _one(name, None if ok else Miss(
            "c", c, f"c={c:.4f} not within {tol} of {target}"))
    return check


def ring_chord():
    items = [Item("A01-uniform-L128", _a01,
                  _c_check("A01-uniform-L128", 1.0, 0.05))]
    for gamma, n_f in ((3.5, 2), (4.5, 4)):
        name = f"A05-guo-L256-g{gamma}"
        items.append(Item(name, _a05(gamma), _a05_check(name, n_f)))
    for L in (64, 128, 256):
        name = f"A02-nhssh-L{L}"
        items.append(Item(name, _a02(L),
                          _c_check(name, -2.0, 0.2, slope=True)))
    return items


# ---------------------------------------------------------------------------
# open_ladder: open non-Hermitian chains through balanced_eig
# ---------------------------------------------------------------------------

A06_CELLS = tuple(range(24, 257, 16))


def _a06(gamma0):
    # at gamma0 = 0 the entropies carry imaginary artifacts and the A06 gate
    # fits the real parts; elsewhere it filters at 1e-6
    imag_tol = np.inf if gamma0 == 0.0 else 1e-6

    def run():
        pts = []
        for n_cells in A06_CELLS:
            K = nhent.build_eb_ssh(n_cells, 1.0, 0.5, gamma0, "open")
            sys_k, sel = nhent.ground_state_system(K, HALF)
            C = nhent.correlation_matrix(sys_k, sel,
                                         nhent.Partition.half(K.dim))
            pts.append((n_cells, nhent.vn_entropy(np.linalg.eigvals(C.entries))))
        series = nhent.ScalingSeries(A06_CELLS[-1] + 1, pts, "open_log")
        fit = nhent.fit_central_charge(series, window=(1, A06_CELLS[-1]),
                                       imag_tol=imag_tol)
        # one entanglement boundary: the charge is twice the chord-form fit
        return {"S": np.array([s for _, s in pts]), "c": 2.0 * fit.c}
    return run


def _a04(n):
    def run():
        K = nhent.build_hatano_nelson(n, 1.0, 0.5, "open")
        sys_k, sel = nhent.ground_state_system(K, HALF)
        rep = nhent.report_for_partition(sys_k, sel, nhent.Partition.half(n))
        return {"S": rep.entropy_vn}

    def reference():
        # the Hermitian alpha = 0 chain, straight from numpy
        h = np.diag(-np.ones(n - 1), 1) + np.diag(-np.ones(n - 1), -1)
        _, V = np.linalg.eigh(h)
        occ = V[:, :n // 2]
        C = occ[:n // 2] @ occ[:n // 2].T
        return _vn(np.linalg.eigvalsh(C))

    name = f"A04-hn-n{n}"

    def check(out, ref):
        dev = abs(out["S"] - ref)
        return _one(name, None if dev < 1e-6 else Miss(
            "deviation", dev, f"|S - S(alpha=0)| = {dev:.2e} >= 1e-6"))
    return Item(name, run, check, reference)


def open_ladder():
    items = []
    for gamma0, target in ((0.0, -2.0), (1e-3, -2.0), (4.0, 1.0)):
        name = f"A06-ebssh-g{gamma0:g}"
        items.append(Item(name, _a06(gamma0), _c_check(name, target, 0.3)))
    items.extend(_a04(n) for n in (128, 256, 384, 512))
    return items


# ---------------------------------------------------------------------------
# no_jump: monitored chain from the staggered state
# ---------------------------------------------------------------------------

NJ_TIMES = np.linspace(0.0, 20.0, 81)
NJ_SUBSTEPS = 10  # per output interval; once checked against 100: 1e-13


def nj_reference(K: np.ndarray, L: int):
    """Half-chain entropies by exact propagation with fine QR substeps.

    Independent of ``nhent.dynamics``: one ``scipy.linalg.expm`` per step
    size and a QR after every substep, so no amplification builds up.
    """
    M = np.zeros((L, L // 2), dtype=complex)
    M[np.arange(0, L, 2), np.arange(L // 2)] = 1.0
    h = (NJ_TIMES[1] - NJ_TIMES[0]) / NJ_SUBSTEPS
    U = scipy.linalg.expm(-1j * h * K)
    out = []
    for i, _t in enumerate(NJ_TIMES):
        if i:
            for _ in range(NJ_SUBSTEPS):
                M, _ = np.linalg.qr(U @ M)
        A = M[:L // 2]
        out.append(_vn(np.linalg.eigvalsh(A @ A.conj().T)))
    return np.array(out)


def _nj(L, gamma):
    name = f"NJ-L{L}-G{gamma:g}"
    K = nhent.build_measurement_heff(L, 1.0, gamma, "open")

    def run():
        recs = nhent.evolve_no_jump(K, nhent.staggered_state(L), NJ_TIMES,
                                    nhent.Partition.half(L))
        return {"S": np.array([rep.entropy_vn for _, _, rep in recs])}

    def check(out, ref):
        dev = float(np.max(np.abs(out["S"] - ref)))
        return _one(name, None if dev < 1e-8 else Miss(
            "deviation", dev, f"max |S - S_ref| = {dev:.3g} >= 1e-8"))
    return Item(name, run, check, lambda: nj_reference(K.entries, L))


def no_jump():
    return [_nj(L, g) for L in (64, 128) for g in (0.0, 0.25, 0.5)]


# ---------------------------------------------------------------------------
# oracle_cli: `nhent oracle` in-process
# ---------------------------------------------------------------------------

ORACLE_TOL = {"entropy": 1e-8, "spectrum": 1e-9, "purity": 1e-10}


def _oracle_reason(case):
    """Why a case failed, or None; its kind names the residuals over their
    tolerances and its size is the largest of them."""
    if case["passed"]:
        return None
    bad = [key for key, tol in ORACLE_TOL.items()
           if not case[key + "_residual"] < tol]
    return Miss(",".join(bad) or "passed=false",
                max((case[key + "_residual"] for key in bad), default=math.nan),
                ", ".join(f"{key} residual {case[key + '_residual']:.3g}"
                          for key in bad) or "passed=false")


def _oracle_known(op, miss):
    """A random case whose rho_A spectra agree but whose entropies differ.

    This is the branch-jump failure of the factorized entropy at strong
    non-Hermiticity; any other oracle failure is new.
    """
    return "/random-" in op and miss.kind == "entropy"


def _oracle_item(seed, workdir):
    name = f"oracle-seed{seed}"
    out_dir = os.path.join(workdir, name)
    cfg = os.path.join(workdir, f"{name}.json")

    def run():
        os.makedirs(out_dir, exist_ok=True)
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"oracle": {"n_modes": 10, "subsystem": 5,
                                  "n_cases": 3, "seed": seed}}, fh)
        code = nhent.cli.main(["oracle", "--config", cfg, "--out", out_dir])
        with open(os.path.join(out_dir, "oracle.json"), encoding="utf-8") as fh:
            cases = json.load(fh)["cases"]
        return {"exit": code, "cases": cases}

    def check(out, _ref):
        result = {f"{name}/{c['case']}": _oracle_reason(c)
                  for c in out["cases"]}
        if len(result) != 5 or out["exit"] not in (0, 2) or \
                (out["exit"] == 0) != all(r is None for r in result.values()):
            result[f"{name}/exit"] = Miss(
                "exit", out["exit"],
                f"exit {out['exit']} with {len(result)} cases")
        return result
    return Item(name, run, check)


ORACLE_INVOCATIONS = 8  # per run: 24 random cases + 16 lattice cases


def build(workload: str, seed: int, workdir: str) -> list:
    """The pass cycle: pass k runs the items ``cycle[k % len(cycle)]``.

    Only ``oracle_cli`` reads the seed.  The other workloads are one fixed
    item list, run on every pass.  ``oracle_cli`` cycles through
    ``ORACLE_INVOCATIONS`` invocations (3 random cases + the 2 lattice
    cases each), each with its own case seed drawn from the run seed, so a
    run samples many random cases and its failure share does not hinge on
    a handful of them.  A run makes at least one full cycle, so the ops it
    checks depend on the seed alone, not on how many passes fit its time.
    """
    if workload == "oracle_cli":
        case_seeds = np.random.default_rng(seed).integers(
            2 ** 31, size=ORACLE_INVOCATIONS)
        return [[_oracle_item(int(s), workdir)] for s in case_seeds]
    return [{"ring_chord": ring_chord, "open_ladder": open_ladder,
             "no_jump": no_jump}[workload]()]


def is_known_failure(workload: str, op: str, miss: Miss) -> bool:
    if workload == "oracle_cli":
        return _oracle_known(op, miss)
    known = KNOWN_FAILURES.get(workload, {}).get(op)
    if known is None or miss.kind != known[0]:
        return False
    ratio = miss.size / known[1]
    return 1.0 / KNOWN_FACTOR <= ratio <= KNOWN_FACTOR
