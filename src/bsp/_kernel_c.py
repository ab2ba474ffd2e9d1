"""C kernel: the closure and enumeration functions of :mod:`bsp._kernel_py`,
run by the compiled ``_ckernel.c``.

The library is built next to this module by ``setup.py`` (``pip install
-e .`` or ``python setup.py build_ext --inplace``); when it is not there,
importing this module raises ImportError and :mod:`bsp.kernel` falls back
to the pure-Python twin.  Nothing is compiled at import time.

Every function returns exactly what its twin returns, and checks its
arguments with the twin's ``check_*`` functions before ctypes could
silently wrap a negative or oversized integer: a dimension outside 1..6,
a bitset outside [0, 2^(2^d)) or a branch outside the valid range raises
ValueError in both kernels.  ``facet_scan`` is the twin's: its exact
double description needs unbounded integers.
"""

from __future__ import annotations

from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

from . import _kernel_py
from ._kernel_py import check_branch, check_rows, check_set

_LIBRARY = next(
    (path for path in (Path(__file__).with_name("_ckernel" + s) for s in EXTENSION_SUFFIXES)
     if path.is_file()),
    None,
)
if _LIBRARY is None:
    raise ImportError("the C kernel is not built; run: python setup.py build_ext --inplace")

import ctypes  # noqa: E402  (only once the library is known to exist)

BACKEND = "c"

_FORM_WORDS = 66  # header, 64 rows, mask: FORM_WORDS in _ckernel.c
_TABLE_RECORDS = 512  # forms held before enum_branch hands them over

_u64, _int = ctypes.c_uint64, ctypes.c_int
try:
    _lib = ctypes.CDLL(str(_LIBRARY))
except OSError as exc:  # not a loadable library, e.g. built for another platform
    raise ImportError(f"cannot load the C kernel {_LIBRARY}: {exc}") from exc
for _name, _args in {
    "bsp_closure_and_rank": (_int, _u64, ctypes.POINTER(_u64)),
    "bsp_pair_rows": (_int, _u64, ctypes.POINTER(_u64), ctypes.POINTER(_int)),
    "bsp_next_closed": (_int, _u64, ctypes.POINTER(_u64)),
    "bsp_heuristic_form": (ctypes.POINTER(_u64), _int, _int),
    "bsp_enum_branch": (_int, _int, _u64, ctypes.POINTER(_u64), ctypes.POINTER(_u64),
                        ctypes.POINTER(ctypes.c_int32), _int),
}.items():
    _fn = getattr(_lib, _name)
    _fn.argtypes = _args
    _fn.restype = None if _name == "bsp_heuristic_form" else _int


def closure_and_rank(d: int, sset: int) -> tuple[int, int]:
    check_set(d, sset)
    closed = _u64()
    rank = _lib.bsp_closure_and_rank(d, sset, ctypes.byref(closed))
    return closed.value, rank


def pair_rows(d: int, closed: int) -> tuple[list[int], int]:
    check_set(d, closed)
    rows, n = (_u64 * 64)(), _int()
    m = _lib.bsp_pair_rows(d, closed, rows, ctypes.byref(n))
    return rows[:m], n.value


def next_closed(d: int, current: int) -> int:
    check_set(d, current)
    nxt = _u64()
    return nxt.value if _lib.bsp_next_closed(d, current, ctypes.byref(nxt)) else -1


def _form_bytes(rows: list[int], n: int) -> bytes:
    width = (n + 7) // 8
    return b"%d,%d:" % (len(rows), n) + b"".join(r.to_bytes(width, "big") for r in rows)


def heuristic_form(rows: list[int], n: int) -> bytes:
    check_rows(rows, n)
    buf = (_u64 * 64)(*rows)
    _lib.bsp_heuristic_form(buf, len(rows), n)
    return _form_bytes(buf[: len(rows)], n)


def enum_branch(d: int, top_count: int, p_index: int):
    check_branch(d, top_count, p_index)
    state = (_u64 * 4)()  # last set visited, visited, spanning, phase (2: done)
    recs = (_u64 * (_TABLE_RECORDS * _FORM_WORDS))()
    slots = (ctypes.c_int32 * (2 * _TABLE_RECORDS))()
    out: dict[bytes, int] = {}
    while state[3] != 2:
        count = _lib.bsp_enum_branch(d, top_count, p_index, state, recs, slots, _TABLE_RECORDS)
        flat = recs[: count * _FORM_WORDS]
        for base in range(0, len(flat), _FORM_WORDS):
            head, mask = flat[base], flat[base + _FORM_WORDS - 1]
            hb = _form_bytes(flat[base + 1 : base + 1 + (head & 0xFF)], head >> 8)
            prev = out.get(hb)
            if prev is None or mask < prev:
                out[hb] = mask
    return state[1], state[2], sorted(out.items())


facet_scan = _kernel_py.facet_scan
