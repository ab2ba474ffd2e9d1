"""Explicit extremal families: the cube pair and its generalizations.

Closed forms for the sizes:
  cube-pair   (2^d, d+1)
  example3    (2^(d-1)+1, 2d)     both families inside the 0/1 cube
  example4    (2^(d-1)+1, 2d)     not cube-embeddable (half-integer B side)
  example5    (2^(d-k)+k, 2^k (d-k+1))   interpolates cube-pair (k=0) and
                                          its transpose (k=d)
"""

from __future__ import annotations

import itertools

from .errors import BadParameterError
from .family import BspPair, VectorFamily
from .linalg import Row, add, unit_row

KINDS = ("cube-pair", "example3", "example4", "example5")


def _cube_points(d: int, coords: list[int]) -> list[Row]:
    """All 0/1 combinations over the given coordinates of R^d."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(coords)):
        v = [0] * d
        for c, b in zip(coords, bits):
            v[c] = b
        out.append(tuple(v))
    return out


def _pair(d: int, a: list[Row], b: list[Row], den_b: int = 1) -> BspPair:
    """The validated pair of integer A rows and of B rows over den_b."""
    pair = BspPair(d, VectorFamily.from_rows(d, 1, a), VectorFamily.from_rows(d, den_b, b))
    pair.validate()
    return pair


def construct_example(kind: str, d: int, k: int | None = None) -> BspPair:
    if d < 1:
        raise BadParameterError("d must be positive")
    if kind == "cube-pair":
        return construct_example("example5", d, k=0)
    if kind == "example3":
        if d < 2:
            raise BadParameterError("example3 needs d >= 2")
        a = _cube_points(d, list(range(1, d))) + [unit_row(d, 0)]
        b = [(0,) * d, unit_row(d, 0)]
        for j in range(1, d):
            b.append(unit_row(d, j))
            b.append(add(unit_row(d, 0), unit_row(d, j)))
        return _pair(d, a, b)
    if kind == "example4":
        if d < 2:
            raise BadParameterError("example4 needs d >= 2")
        # A = {0} + {e_d + sum of +-e_i over i < d}; B = (e_d +- e_i) / 2
        a = [(0,) * d] + [signs + (1,) for signs in itertools.product((-1, 1), repeat=d - 1)]
        b = [add(unit_row(d, d - 1), unit_row(d, i, s)) for i in range(d) for s in (-1, 1)]
        return _pair(d, a, b, den_b=2)
    if kind == "example5":
        if k is None:
            raise BadParameterError("example5 needs k")
        if not 0 <= k <= d:
            raise BadParameterError("example5 needs 0 <= k <= d")
        a = _cube_points(d, list(range(k, d))) + [unit_row(d, i) for i in range(k)]
        b = []
        for prefix in _cube_points(d, list(range(k))):
            b.append(prefix)
            for j in range(k, d):
                b.append(add(prefix, unit_row(d, j)))
        return _pair(d, a, b)
    raise BadParameterError(f"unknown example kind: {kind!r}")


def expected_sizes(kind: str, d: int, k: int | None = None) -> tuple[int, int]:
    """The paper-stated closed forms for the example sizes."""
    if kind == "cube-pair":
        return (1 << d, d + 1)
    if kind == "example3" or kind == "example4":
        return ((1 << (d - 1)) + 1, 2 * d)
    if kind == "example5":
        if k is None:
            raise BadParameterError("example5 needs k")
        return ((1 << (d - k)) + k, (1 << k) * (d - k + 1))
    raise BadParameterError(f"unknown example kind: {kind!r}")
