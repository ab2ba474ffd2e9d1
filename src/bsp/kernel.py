"""Kernel backend selection.

The C kernel (:mod:`bsp._kernel_c`) is preferred when its library has
been built; the pure-Python twin is the fallback.  Set BSP_KERNEL=python
(or =c) to force a backend.  Both expose the same functions with
identical outputs.
"""

from __future__ import annotations

import os

_choice = os.environ.get("BSP_KERNEL", "").strip().lower()

if _choice in ("python", "py", "pure"):
    from . import _kernel_py as _impl
elif _choice in ("c", "compiled"):
    from . import _kernel_c as _impl  # type: ignore[no-redef]
else:
    try:
        from . import _kernel_c as _impl  # type: ignore[no-redef]
    except ImportError:
        from . import _kernel_py as _impl  # type: ignore[no-redef]

BACKEND = _impl.BACKEND
closure_and_rank = _impl.closure_and_rank
pair_rows = _impl.pair_rows
next_closed = _impl.next_closed
heuristic_form = _impl.heuristic_form
enum_branch = _impl.enum_branch
facet_scan = _impl.facet_scan


def get_backend(name: str | None = None):
    """Return a kernel module by name (for benchmarks and cross-checks)."""
    if name in (None, "", "active"):
        return _impl
    if name in ("python", "py", "pure"):
        from . import _kernel_py

        return _kernel_py
    if name in ("c", "compiled"):
        from . import _kernel_c

        return _kernel_c
    raise ValueError(f"unknown kernel backend: {name!r}")
