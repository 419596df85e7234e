import ast
import importlib
import pkgutil
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
