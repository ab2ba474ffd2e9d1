"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import bsp

SRC = Path(bsp.__file__).parent


def test_package_has_no_assert_statements():
    """``python -O`` strips assert statements, so a check written as one
    would silently stop running; the package raises explicitly instead."""
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "bounds.py" in paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_python_kernel_memo_is_bounded():
    """Every module-level dict of the pure-Python kernel is one of its
    ``CACHES``, which ``_remember`` empties at ``_MAX_CACHED_BASES``
    entries and the cache-cap tests of test_kernel shrink: a memo kept
    outside it would grow without bound."""
    from bsp import _kernel_py

    memos = {name for name, value in vars(_kernel_py).items()
             if isinstance(value, dict) and not name.startswith("__") and value is not _kernel_py.CACHES}
    caches = {id(cache) for cache in _kernel_py.CACHES.values()}
    assert "_forms_cache" in memos
    assert [name for name in sorted(memos) if id(getattr(_kernel_py, name)) not in caches] == []


def test_importing_the_cli_loads_no_process_pool_module():
    """Only ``--workers`` of 2 or more starts child processes, so loading
    the command line, which every ``bsp`` command does, imports no
    ``multiprocessing`` (with its ``socket`` and ``pickle`` imports)."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    code = "import sys, bsp.cli; print([m for m in sys.modules if m.startswith('multiprocessing')])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_every_public_name_resolves():
    """Every name in ``bsp.__all__`` is bound on the package, so ``from
    bsp import *``, which looks each one up, succeeds in a fresh process."""
    assert [name for name in bsp.__all__ if not hasattr(bsp, name)] == []
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    subprocess.run(
        [sys.executable, "-c", "from bsp import *"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, check=True,
    )


def test_the_c_kernel_exports_only_the_branch_walk():
    """``_ckernel.c`` defines one function that is not static, the walk
    that ``_kernel_c`` loads; the shim takes every other kernel function,
    ``pair_rows`` included, from the twin (checked on the compiled shim in
    test_kernel)."""
    text = (SRC / "_ckernel.c").read_text()
    defined = re.findall(r"^(static )?[A-Za-z_][\w *]*?\b(\w+)\(", text, re.M)
    assert ("static ", "close_set") in defined and ("static ", "rows_of") in defined
    assert [name for static, name in defined if not static] == ["bsp_enum_branch"]
