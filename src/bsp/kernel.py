"""Kernel backend selection.

The C kernel (:mod:`bsp._kernel_c`) is preferred when its library has
been built; the pure-Python twin is the fallback.  Set BSP_KERNEL=python
or BSP_KERNEL=c to force a backend; any other value raises ValueError.
Both expose the same functions with identical outputs.
"""

from __future__ import annotations

import importlib
import os

# bitsets of up to 2^6 cube points; both kernels' heuristic forms decode alike
from ._kernel_py import MAX_DIM, form_rows  # noqa: F401

_MODULES = {"python": "._kernel_py", "c": "._kernel_c"}


def get_backend(name: str | None = None):
    """The kernel module called ``name`` ("python" or "c"), or the active
    one when ``name`` is None.  Raises ValueError on any other name and
    ImportError when the C kernel is asked for but not built."""
    if name is None:
        return _impl
    if name not in _MODULES:
        raise ValueError(f"unknown kernel backend: {name!r} (use 'python' or 'c')")
    return importlib.import_module(_MODULES[name], __package__)


_choice = os.environ.get("BSP_KERNEL", "").strip().lower()
if _choice:
    _impl = get_backend(_choice)
else:
    try:
        _impl = get_backend("c")
    except ImportError:
        _impl = get_backend("python")

BACKEND = _impl.BACKEND
closure_and_rank = _impl.closure_and_rank
pair_rows = _impl.pair_rows
next_closed = _impl.next_closed
heuristic_form = _impl.heuristic_form
enum_branch = _impl.enum_branch
facet_scan = _impl.facet_scan
