"""Module boundaries: package modules use each other's public surface only,
and the package runs on the standard library and numpy alone.

Parses every module under ``src/dcekit`` and fails on any import of a
``_private`` name from a sibling module (``from .protocol import _core``,
``from dcekit.numerics import _helper``); dunder names are not private.  It
fails on dead code: an import the module never reads and ``__all__`` does
not list, or a private module-level name the module never reads.  It
also fails on any import, at module level or inside a function, of a
third-party package other than numpy.  A CLI run in a fresh interpreter
checks the same at run time: scipy (a test-only dependency) never loads.

The benchmark under ``perfbench/`` resolves module attributes by name (its
tracer wraps them from outside), so a renamed or deleted name breaks it
without breaking any import; one test installs that tracer on the package.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dcekit"
PERFBENCH = PACKAGE.parents[1] / "perfbench"
MODULES = sorted(PACKAGE.glob("*.py"))
THIRD_PARTY_ALLOWED = {"numpy"}


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "dcekit"
        if not sibling:
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno} imports {name} from {node.module}")
    return found


def test_package_modules_found():
    assert {"protocol.py", "simkit.py", "estimator.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_imports_from_siblings(path):
    assert _private_imports(path) == []


def test_detects_private_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .protocol import _core, run_rounds\nfrom . import __version__\n")
    assert _private_imports(src) == ["mod.py:1 imports _core from protocol"]


def _dead_names(path: Path) -> list[str]:
    """Imports the module never reads and ``__all__`` does not list, and
    private module-level names the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read | exported:
                    found.append(f"{path.name}:{node.lineno} imports {name}, never read")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__") and name not in read:
                found.append(f"{path.name}:{node.lineno} defines {name}, never read")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_dead_imports_or_private_names(path):
    assert _dead_names(path) == []


def test_detects_dead_names(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(textwrap.dedent("""\
        from __future__ import annotations
        import math, os.path
        from .numerics import empty, matmul as mm
        __all__ = ["mm", "run"]
        _USED: float = 2.0
        _WORK, _SCALE = 1, 3
        def _helper():
            return _USED * math.pi + _SCALE
        def _reflector_work():
            return empty((2,))
        def run():
            return _helper()
    """))
    assert _dead_names(src) == [
        "mod.py:2 imports os, never read",
        "mod.py:6 defines _WORK, never read",
        "mod.py:9 defines _reflector_work, never read",
    ]


def _third_party_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            if root not in sys.stdlib_module_names | THIRD_PARTY_ALLOWED | {"dcekit"}:
                found.append(f"{path.name}:{node.lineno} imports {root}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_only_stdlib_and_numpy(path):
    assert _third_party_imports(path) == []


def test_detects_third_party_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(textwrap.dedent("""\
        from __future__ import annotations
        import math, os.path
        import numpy as np
        from numpy.linalg import qr
        from . import analytics
        from dcekit.model import validate
        import scipy.optimize
        def refine():
            from scipy import optimize
            import pandas as pd
    """))
    assert _third_party_imports(src) == [
        "mod.py:7 imports scipy", "mod.py:9 imports scipy", "mod.py:10 imports pandas",
    ]


def test_cli_never_loads_scipy(tmp_path):
    """Every subcommand, in one fresh interpreter; a reciprocal sweep with a
    total cap goes through the total-cap branch of the reciprocal solver."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "nt = 4\nnl = 2\nnu = 2\nscheme = reciprocal\ngamma = 0.1\n"
        "pt_db = 30\npl_db = 20\npave_db = 24\ntrials = 200\nseed = 3\n"
    )
    script = textwrap.dedent(f"""\
        import sys
        import dcekit
        if "scipy" in sys.modules:
            sys.exit("import dcekit loaded scipy")
        from dcekit.cli import main
        out = {str(tmp_path / "out.csv")!r}
        for argv in (
            ["solve"],
            ["sweep", "--pave-db", "16:24:4", "--trials", "0", "--out", out],
            ["sweep", "--scheme", "nonreciprocal", "--pave-db", "24", "--out", out],
            ["nmse"],
            ["ser", "--pave-db", "20", "--out", out],
            ["rank"],
        ):
            if main([argv[0], "--config", {str(cfg)!r}, *argv[1:]]) != 0:
                sys.exit(f"{{argv}} failed")
            if "scipy" in sys.modules:
                sys.exit(f"{{argv}} loaded scipy")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_threaded_monte_carlo_never_loads_concurrent_futures():
    """A call on two workers runs its chunks on simkit's own threads:
    ``concurrent.futures`` (and the logging it loads) stays out of the
    interpreter."""
    script = textwrap.dedent("""\
        import sys
        import dcekit
        from dcekit import simkit
        from dcekit.model import SystemConfig, reciprocal_plan, PowerAllocation
        cfg = SystemConfig(n_t=4, n_l=2, n_u=2)
        alloc = PowerAllocation(scheme="reciprocal", e_r=2.0, e_f=4.0, var_a=1.0)
        simkit.mc_nmse(cfg, reciprocal_plan(cfg), alloc, trials=simkit.CHUNK + 100, seed=1, workers=2)
        if not simkit._HELPERS.idle:
            sys.exit("no helper thread ran")
        if "concurrent.futures" in sys.modules:
            sys.exit("a threaded mc_nmse call loaded concurrent.futures")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _benchmark_modules() -> list[str]:
    """The dcekit modules ``perfbench/run.py`` imports (``from dcekit import ...``)."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "dcekit"
            for alias in node.names]


def test_benchmark_tracer_resolves_every_name():
    """The benchmark's tracer finds every attribute it wraps, and its
    uninstall puts each original back.  The tracer is loaded from source,
    so nothing is written under ``perfbench/``."""
    path = PERFBENCH / "tracer.py"
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    names = _benchmark_modules()
    assert len(names) == 8
    dk = {name: importlib.import_module(f"dcekit.{name}") for name in names}
    before = {name: dict(vars(module)) for name, module in dk.items()}
    try:
        tr = tracer.install(dk)
        try:
            assert len(tr.names) > len(tracer.SITES)  # the analytics functions too
        finally:
            tr.uninstall()
        for name, module in dk.items():
            assert all(vars(module)[k] is v for k, v in before[name].items()), name
    finally:
        # An install that fails halfway leaves no tracer to uninstall.
        for name, module in dk.items():
            vars(module).update(before[name])
