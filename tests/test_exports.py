import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import nhent


def test_every_export_resolves():
    # a name left in __all__ or in the package imports after its code is
    # deleted fails here, not at the first `from nhent import ...` of a user
    for info in pkgutil.iter_modules(nhent.__path__):
        mod = importlib.import_module(f"nhent.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"nhent.{info.name}.__all__: {missing}"
    tree = ast.parse(Path(nhent.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"nhent.{node.module}")
            for alias in node.names:
                assert hasattr(mod, alias.name), f"nhent.{node.module}.{alias.name}"
                assert hasattr(nhent, alias.asname or alias.name)


def test_no_run_imports_scipy_optimize(tmp_path):
    # scipy.optimize costs ~0.25 s and ~20 MB in a fresh process; every
    # min-cost matching runs in _linalg.min_cost_matching, so no run needs
    # it.  scipy.fft would add ~0.1 s and ~4 MB to `import nhent`; the
    # block-Toeplitz correlations of a Bloch system and the momentum rows of
    # a dense one take numpy.fft, which numpy loads anyway.  scipy.sparse is
    # not needed either: the no-jump site gauge reads the dense pattern
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps({"oracle": {"n_cases": 2, "n_modes": 6,
                                             "subsystem": 3}}))
    code = f"""
import sys
from fractions import Fraction
from nhent import (Partition, bloch_system, build_guo_chain,
                   build_measurement_heff, build_nh_ssh_real,
                   build_quasicrystal, check_duality, count_fermi_points,
                   domain_wall_state, entropy_series, evolve_no_jump,
                   ground_state_system, hermitian_ground_state,
                   report_for_partition, select_occupied)
from nhent.cli import main
assert main(["oracle", "--config", {str(config)!r},
             "--out", {str(tmp_path / "out")!r}]) == 0
sys_k = bloch_system(build_guo_chain(16, 2, 1.0, 0.4, "periodic"))
sel_k = select_occupied(sys_k, 0.5)
assert count_fermi_points(sys_k, sel_k) == 2
assert len(entropy_series(sys_k, sel_k, sizes=(4, 12)).points) == 2
K = build_nh_ssh_real(6, 1.0, 0.4, 0.3, "periodic")
check_duality(*ground_state_system(K, 0.5), Partition.half(K.dim))
report_for_partition(*ground_state_system(K, 0.5),
                     Partition.contiguous(1, 8, K.dim, "momentum"))
Q = build_quasicrystal(34, 0.5, 1.0, 0.5, Fraction(21, 34))
report_for_partition(*ground_state_system(Q, 0.5),
                     Partition.contiguous(3, 20, Q.dim, "momentum"))
M = build_measurement_heff(16, 1.0, 0.5, "open")
for psi0 in (domain_wall_state(16), hermitian_ground_state(M, 8)):
    evolve_no_jump(M, psi0, [0.0, 1.0], Partition.half(16))
print(sorted(m for m in sys.modules
             if m.startswith(("scipy.optimize", "scipy.fft", "scipy.sparse"))))
"""
    src = str(Path(nhent.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _module_trees():
    """(file name, AST) of every module in the package."""
    for path in sorted(Path(nhent.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_imports_a_name_it_does_not_use():
    # the package __init__ imports what it exports; any other module must
    # use each name it imports, or re-export it through __all__
    for name, tree in _module_trees():
        if name == "__init__.py":
            continue
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0]
                             for a in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__"
                          for t in node.targets)):
                exported |= set(ast.literal_eval(node.value))
        unused = sorted(imported - used - exported)
        assert not unused, f"nhent/{name} imports unused {unused}"


def test_only_the_solver_raises_defective_error():
    # one defectiveness rule: the solvers of _linalg are its only home
    raisers = {
        name for name, tree in _module_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "DefectiveError" in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None))}
    assert raisers == {"_linalg.py"}


def test_only_the_solver_returns_eigenvectors():
    # _linalg's eig_factors and balanced_eig are the solvers that return
    # eigenvectors, so only _linalg names eig or eigh, whether it calls
    # them or hands them to its stacked solve; eigenvalue-only solves
    # (eigvals, eigvalsh) may run anywhere
    users = {
        name for name, tree in _module_trees() for node in ast.walk(tree)
        if {"eig", "eigh"} & {getattr(node, "id", None),
                              getattr(node, "attr", None),
                              getattr(node, "name", None)}}
    assert users == {"_linalg.py"}


def test_only_the_solver_takes_an_svd():
    # the defectiveness gate certifies most solves from the inverse it
    # already has; an SVD (np.linalg.cond or svd) runs only in _linalg
    callers = {
        name for name, tree in _module_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and {"cond", "svd", "svdvals"} & {getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None)}}
    assert callers == {"_linalg.py"}


def test_no_module_tests_a_kernel_for_hermiticity():
    # the solver's routing test in _linalg is the one Hermitian test of a
    # solve; KernelMatrix.is_hermitian is for callers
    callers = {
        name for name, tree in _module_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "is_hermitian"}
    assert callers == set()


def test_no_module_defines_or_exports_momentum_transform():
    # one state per kernel: momentum partitions are cut from the position
    # ground state, and the Fourier kernel is the tests' referee
    # (tests/fourier.py), not a name of the package
    homes = {
        name for name, tree in _module_trees() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name == "momentum_transform"}
    exports = {info.name for info in pkgutil.iter_modules(nhent.__path__)
               if "momentum_transform" in getattr(importlib.import_module(
                   f"nhent.{info.name}"), "__all__", ())}
    assert homes == set() and exports == set()
    assert not hasattr(nhent, "momentum_transform")


def test_no_module_reads_dense_eigenvector_fields():
    # no system has a dense right or left: every module reads eigenvectors
    # through BiorthogonalSystem.vectors
    readers = {
        name for name, tree in _module_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("right", "left")}
    assert readers == set()


def test_no_module_takes_qr_from_a_wrapper():
    # the orbital QR calls LAPACK's dgeqrf and dorgqr (real site frame) or
    # zgeqrf and zungqr directly; the numpy and scipy wrappers cost a third
    # more at the no-jump sizes
    homes = {"np.linalg", "numpy.linalg", "scipy.linalg"}
    callers = {
        name for name, tree in _module_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "qr" and ast.unparse(node.func.value) in homes
        or isinstance(node, ast.ImportFrom) and node.module in homes
        and "qr" in {a.name for a in node.names}}
    assert callers == set()



# Optional parameters that stay although no call passes them: ``policy`` is
# the configured ground-state choice, which the oracle referee and the two
# scans must be able to follow.
_UNPASSED_BY_DESIGN = {("oracle.py", "manybody_biortho_ground", "policy"),
                       ("scaling.py", "lifshitz_scan", "policy"),
                       ("pipeline.py", "self_dual_scan", "policy")}


def _optional_parameters(tree):
    """(function, callee name, positional index or None, parameter) of every
    optional parameter in the tree.  An ``__init__`` is called through its
    class name, and a method's first parameter is bound, not passed."""
    owners = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
              for f in c.body if isinstance(f, ast.FunctionDef)}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        owner = owners.get(id(f))
        callee = owner.name if owner and f.name == "__init__" else f.name
        positional = f.args.posonlyargs + f.args.args
        if owner and "staticmethod" not in map(ast.unparse, f.decorator_list):
            positional = positional[1:]
        first = len(positional) - len(f.args.defaults)
        for i, a in enumerate(positional[first:], first):
            yield f, callee, i, a.arg
        for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if d is not None:
                yield f, callee, None, a.arg


def _calls(node, func=None):
    """(call, innermost enclosing function or None) of every call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, func
        yield from _calls(
            child, child if isinstance(child, ast.FunctionDef) else func)


def test_every_optional_parameter_is_passed_somewhere():
    # a parameter that no call in src/, tests/ or bench/ passes is a
    # configuration that nothing runs; its default belongs in the body, or
    # in a named constant of the module that owns the rule.  A call passes
    # a parameter by keyword, by position, through a * splat (positional
    # ones), or through a ** splat when some string in the code spells its
    # name.  A value that merely forwards an optional parameter of the
    # calling function counts only if that parameter is passed itself.
    package = Path(nhent.__file__).resolve().parent
    params = {}   # (module, function, parameter) -> (callee, index)
    spelled = set()
    passes = {}   # callee -> [(slot, forwarded parameter or None)]
    for path in sorted(p for d in ("src", "tests", "bench")
                       for p in (package.parents[1] / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spelled |= {n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        own = {}
        if path.parent == package:
            for f, callee, i, p in _optional_parameters(tree):
                params[path.name, f.name, p] = callee, i
                own.setdefault(id(f), {})[p] = (path.name, f.name, p)
        for call, f in _calls(tree):
            env = own.get(id(f), {})
            slots = [("*" if isinstance(a, ast.Starred) else i, a)
                     for i, a in enumerate(call.args)]
            slots += [(k.arg or "**", k.value) for k in call.keywords]
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            passes.setdefault(callee, []).extend(
                (slot, env.get(getattr(value, "id", None)))
                for slot, value in slots)

    def fills(slot, i, p):
        return (slot in (i, p) or slot == "*" and i is not None
                or slot == "**" and p in spelled)

    passed = set()
    while True:
        now = {key for key, (callee, i) in params.items()
               if any(fills(slot, i, key[2]) and via in passed | {None}
                      for slot, via in passes.get(callee, ()))}
        if now == passed:
            break
        passed = now
    unpassed = sorted(set(params) - passed - _UNPASSED_BY_DESIGN)
    assert unpassed == [], "optional parameters that no call passes: " + \
        ", ".join(f"{m[:-3]}.{f}({p})" for m, f, p in unpassed)
