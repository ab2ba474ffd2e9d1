"""C kernel: :func:`enum_branch` of :mod:`bsp._kernel_py`, run by the
compiled ``_ckernel.c``; every other function is the twin's own.

The library is built next to this module by ``setup.py`` (``pip install
-e .`` or ``python setup.py build_ext --inplace``); when it is not there,
importing this module raises ImportError and :mod:`bsp.kernel` falls back
to the pure-Python twin.  Nothing is compiled at import time.

:func:`enum_branch` returns exactly what its twin returns, and checks its
arguments with the twin's ``check_branch`` before ctypes could silently
wrap a negative or oversized integer: a dimension outside 1..6 or a
branch outside the valid range raises ValueError in both kernels.  It is
the twin's Close-by-One walk in one C call, which hands its table of
heuristic forms over through a callback each time it fills.  The twin's
:func:`pair_rows`, :func:`closure_and_rank`, :func:`next_closed` and
:func:`heuristic_form` run only outside the hot loops (setup, oracles and
tests), and the exact double description of ``facet_scan`` needs
unbounded integers.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

from . import _kernel_py
from ._kernel_py import check_branch

_LIBRARY = next(
    (path for path in (Path(__file__).with_name("_ckernel" + s) for s in EXTENSION_SUFFIXES)
     if path.is_file()),
    None,
)
if _LIBRARY is None:
    raise ImportError("the C kernel is not built; run: python setup.py build_ext --inplace")

import ctypes  # noqa: E402  (only once the library is known to exist)

BACKEND = "c"

_FORM_WORDS = 66  # header, packed rows (64 words at most), mask: FORM_WORDS in _ckernel.c
_TABLE_RECORDS = 512  # forms held before enum_branch hands them over

_u64, _int = ctypes.c_uint64, ctypes.c_int
_FLUSH = ctypes.CFUNCTYPE(None, _int)
try:
    _lib = ctypes.CDLL(str(_LIBRARY))
except OSError as exc:  # not a loadable library, e.g. built for another platform
    raise ImportError(f"cannot load the C kernel {_LIBRARY}: {exc}") from exc
_lib.bsp_enum_branch.argtypes = (_int, _int, _u64, ctypes.POINTER(_u64), ctypes.POINTER(_u64),
                                 ctypes.POINTER(ctypes.c_int32), _int, _FLUSH)
_lib.bsp_enum_branch.restype = None


def _form_bytes(head: int, packed) -> bytes:
    """The heuristic form of a record with header word ``head`` (row count
    | column count << 8); ``packed`` holds the record from its rows on,
    which C packed as :func:`heuristic_form` packs them."""
    m, n = head & 0xFF, head >> 8
    return b"%d,%d:" % (m, n) + packed[:m * ((n + 7) // 8)]


def enum_branch(d: int, top_count: int, p_index: int):
    check_branch(d, top_count, p_index)
    counts = (_u64 * 3)()  # visited, spanning, records taken
    recs = (_u64 * (_TABLE_RECORDS * _FORM_WORDS))()
    slots = (ctypes.c_int32 * (2 * _TABLE_RECORDS))()
    out: dict[bytes, int] = {}

    def flush(count):
        raw = memoryview(recs).cast("B")
        words = raw.cast("Q")
        for base in range(0, count * _FORM_WORDS, _FORM_WORDS):
            head, mask = words[base], words[base + _FORM_WORDS - 1]
            hb = _form_bytes(head, raw[8 * base + 8 :])
            prev = out.get(hb)
            if prev is None or mask < prev:
                out[hb] = mask
        counts[2] += count

    # ctypes hands an exception raised in a callback to sys.unraisablehook,
    # and the walk stops as the records were not taken.  For the call, the
    # hook is a list's append, which runs no Python code: even an exception
    # raised on entry to flush, such as a KeyboardInterrupt, is kept and
    # raised.
    dropped: list = []
    hook, sys.unraisablehook = sys.unraisablehook, dropped.append
    try:
        _lib.bsp_enum_branch(d, top_count, p_index, counts, recs, slots, _TABLE_RECORDS,
                             _FLUSH(flush))
    finally:
        sys.unraisablehook = hook
    if dropped:
        raise dropped[0].exc_value
    return counts[0], counts[1], sorted(out.items())


pair_rows = _kernel_py.pair_rows
closure_and_rank = _kernel_py.closure_and_rank
next_closed = _kernel_py.next_closed
heuristic_form = _kernel_py.heuristic_form
facet_scan = _kernel_py.facet_scan
