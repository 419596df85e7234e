"""Span tracer for the traced benchmark run.

``Tracer.install`` rebinds, in the current process only, every public
function of the ``nhent`` modules (wherever a module holds a reference to
it), and the LAPACK-backed entry points ``numpy.linalg.{eig, eigh, eigvals,
eigvalsh, inv, qr, cond}`` and ``scipy.linalg.expm``.  Each call records a
span ``[name, layer, start, end, parent, item]`` in memory; ``uninstall``
restores the originals.  Nothing under ``src/`` is edited.

Layers are the package's modules; ``config`` counts with ``cli`` and the
numpy/scipy routines form the ``lapack`` layer.  A few calls also record a
value computed from their arguments or result (``EXTRAS``), so that counts
are taken where the work happens.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

import numpy as np
import scipy.linalg

LAYER_OF_MODULE = {
    "nhent.models": "models",
    "nhent._linalg": "linalg",
    "nhent.spectra": "spectra",
    "nhent.correlations": "correlations",
    "nhent.entanglement": "entanglement",
    "nhent.scaling": "scaling",
    "nhent.pipeline": "pipeline",
    "nhent.dynamics": "dynamics",
    "nhent.oracle": "oracle",
    "nhent.cli": "cli",
    "nhent.config": "cli",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))
LAPACK = ("eig", "eigh", "eigvals", "eigvalsh", "inv", "qr", "cond", "expm")
SPECTRUM = ("lapack.eig", "lapack.eigh", "lapack.eigvals", "lapack.eigvalsh")

NAME, LAYER, START, END, PARENT, ITEM, EXTRA = range(7)


def _n3(args, kwargs, out):
    a = np.asarray(args[0])
    m, n = a.shape[-2:]
    return m * n * min(m, n)


def _spectrum_call(args, kwargs, out):
    """(n^3, whether the input is Hermitian to the repo's 1e-14 test)."""
    a = np.asarray(args[0])
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    herm = bool(np.abs(a - a.conj().T).max(initial=0.0) <= 1e-14 * scale)
    return _n3(args, kwargs, out), herm


def _cli_bytes(args, kwargs, out):
    """Bytes in the --out directory after a CLI call."""
    argv = list(args[0])
    out_dir = argv[argv.index("--out") + 1]
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir))


EXTRAS = {
    **{f"lapack.{r}": _n3 for r in LAPACK},
    **{name: _spectrum_call for name in SPECTRUM},
    "spectra.biorthogonal_eig": lambda a, k, out: out.condition_estimate,
    "spectra.bloch_system": lambda a, k, out: out.condition_estimate,
    "correlations.correlation_matrix":
        lambda a, k, out: 16 * (2 * out.size * a[1].n_occupied + out.size ** 2),
    "pipeline.entropy_series": lambda a, k, out: len(out.points),
    "oracle.fock_hamiltonian": lambda a, k, out: 16 * 4 ** a[0].dim,
    "dynamics.evolve_no_jump": lambda a, k, out: len(out),
    "cli.main": _cli_bytes,
}


class Tracer:
    """In-memory span recorder; ``item`` tags the spans of the current item."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.item = None
        self._stack: list = []
        self._saved: list = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        extra = EXTRAS.get(name)

        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0,
                    stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind the traced functions in every loaded ``nhent`` module."""
        modules = [importlib.import_module(m) for m in LAYER_OF_MODULE]
        wrappers = {}
        for mod in modules:
            layer = LAYER_OF_MODULE[mod.__name__]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{name}", layer, fn)
        targets = [m for n, m in sys.modules.items()
                   if n == "nhent" or n.startswith("nhent.")]
        for mod in targets:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._rebind(mod, name, wrappers[id(obj)])
        for r in LAPACK:
            home = scipy.linalg if r == "expm" else np.linalg
            self._rebind(home, r, self.wrap(f"lapack.{r}", "lapack",
                                            getattr(home, r)))

    def _rebind(self, mod, name, new) -> None:
        self._saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, new)

    def uninstall(self) -> None:
        for mod, name, old in reversed(self._saved):
            setattr(mod, name, old)
        self._saved.clear()


def _self_times(spans):
    """Duration of each span minus the part its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, n_passes: int = 1) -> dict:
    """Per-layer metrics per traced pass, as {name: (value, unit)}."""
    own = _self_times(spans)
    layer = [s[LAYER] for s in spans]
    name = [s[NAME] for s in spans]
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)

    def per_pass(x):
        return x / n_passes

    out = {}
    for lay in LAYERS:
        idx = [i for i, s in enumerate(spans) if layer[i] == lay]
        entering = [i for i in idx if spans[i][PARENT] < 0
                    or layer[spans[i][PARENT]] != lay]
        out[f"{lay}.calls"] = (per_pass(len(idx)), "count")
        out[f"{lay}.busy_s"] = (per_pass(sum(spans[i][END] - spans[i][START]
                                             for i in entering)), "s")
        out[f"{lay}.self_s"] = (per_pass(sum(own[i] for i in idx)), "s")
    for r in LAPACK:
        idx = [i for i in range(len(spans)) if name[i] == f"lapack.{r}"]
        n3 = [x[0] if isinstance(x, tuple) else x for x in
              (spans[i][EXTRA] for i in idx) if x is not None]
        out[f"lapack.{r}.calls"] = (per_pass(len(idx)), "count")
        out[f"lapack.{r}.s"] = (per_pass(sum(own[i] for i in idx)), "s")
        out[f"lapack.{r}.n3"] = (per_pass(sum(n3)), "count")

    def extras(span_name):
        """Recorded values of one function's calls that returned."""
        return [spans[i][EXTRA] for i in range(len(spans))
                if name[i] == span_name and spans[i][EXTRA] is not None]

    def under(i, lay):
        p = spans[i][PARENT]
        while p >= 0:
            if layer[p] == lay:
                return True
            p = spans[p][PARENT]
        return False

    def child_count(parent_name, child_name):
        return [sum(name[c] == child_name for c in children[i])
                for i in range(len(spans)) if name[i] == parent_name]

    passes = child_count("linalg.balanced_eig", "lapack.eig")
    herm = [spans[i][EXTRA][1] for i in range(len(spans))
            if name[i] in SPECTRUM and spans[i][EXTRA] is not None
            and under(i, "entanglement")]
    dyn = [i for i in range(len(spans)) if layer[i] == "dynamics"]

    def dyn_children(child_name):
        return sum(name[c] == child_name for i in dyn for c in children[i])

    n_expm = dyn_children("lapack.expm")
    out.update({
        "pipeline.cuts": (per_pass(sum(extras("pipeline.entropy_series"))),
                          "count"),
        "correlations.bytes": (
            per_pass(sum(extras("correlations.correlation_matrix"))), "bytes"),
        "linalg.passes_mean": (float(np.mean(passes)) if passes else 0.0,
                               "count"),
        "linalg.passes_max": (max(passes, default=0), "count"),
        "models.bloch_reduce.calls": (
            per_pass(name.count("models.bloch_reduce")), "count"),
        "entanglement.c_hermitian_frac": (
            sum(herm) / len(herm) if herm else 0.0, "ratio"),
        "dynamics.output_times": (
            per_pass(sum(extras("dynamics.evolve_no_jump"))), "count"),
        "dynamics.qr_calls": (per_pass(dyn_children("lapack.qr")), "count"),
        "dynamics.path.hermitian": (per_pass(dyn_children("lapack.eigh")),
                                    "count"),
        "dynamics.path.eig": (
            per_pass(dyn_children("linalg.balanced_eig") - n_expm), "count"),
        "dynamics.path.expm": (per_pass(n_expm), "count"),
        "oracle.fock_bytes": (per_pass(sum(extras("oracle.fock_hamiltonian"))),
                              "bytes"),
        "cli.bytes_written": (per_pass(sum(extras("cli.main"))), "bytes"),
        "spectra.cond_max": (max(extras("spectra.biorthogonal_eig")
                                 + extras("spectra.bloch_system"),
                                 default=0.0), "1"),
    })
    return out
