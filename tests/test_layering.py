"""Module boundaries: package modules use each other's public surface only,
and the package runs on the standard library and numpy alone.

Parses every module under ``src/dcekit`` and fails on any import of a
``_private`` name from a sibling module (``from .protocol import _core``,
``from dcekit.numerics import _helper``); dunder names are not private.  It
also fails on any import, at module level or inside a function, of a
third-party package other than numpy.  A CLI run in a fresh interpreter
checks the same at run time: scipy (a test-only dependency) never loads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dcekit"
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
