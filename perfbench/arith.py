"""Benchmark-side lattice arithmetic and answer checks.

Everything here is written independently of the ``hyperwall`` package: the
ambient Gram matrix is rebuilt from its definition, and every wall the
program returns is re-checked with these integers (square, ambient
divisibility, primitivity, orientation against g, the half-space against m,
the level cap).
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations

AMBIENT_RANK = 23
LABELS = (
    "e1", "f1", "e2", "f2", "e3", "f3",
    *(f"E8a_{i}" for i in range(1, 9)),
    *(f"E8b_{i}" for i in range(1, 9)),
    "delta",
)
_E8_BONDS = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def _ambient_gram() -> tuple[tuple[int, ...], ...]:
    gram = [[0] * AMBIENT_RANK for _ in range(AMBIENT_RANK)]
    for k in range(3):
        gram[2 * k][2 * k + 1] = gram[2 * k + 1][2 * k] = 1
    for offset in (6, 14):
        for i in range(8):
            gram[offset + i][offset + i] = -2
        for a, b in _E8_BONDS:
            gram[offset + a - 1][offset + b - 1] = gram[offset + b - 1][offset + a - 1] = 1
    gram[22][22] = -2
    return tuple(tuple(row) for row in gram)


GRAM = _ambient_gram()
DEFAULT_TARGETS = ((-2, 1), (-2, 2), (-10, 2))


def vec(**coeffs: int) -> tuple[int, ...]:
    """Ambient vector from labelled coefficients, e.g. vec(e1=1, f1=2)."""
    out = [0] * AMBIENT_RANK
    for label, c in coeffs.items():
        out[LABELS.index(label)] += c
    return tuple(out)


def bb(a, b) -> int:
    return sum(
        a[i] * GRAM[i][j] * b[j]
        for i in range(AMBIENT_RANK) if a[i]
        for j in range(AMBIENT_RANK) if b[j] and GRAM[i][j]
    )


def ambient_divisibility(v) -> int:
    d = 0
    for row in GRAM:
        d = math.gcd(d, sum(x * y for x, y in zip(row, v) if x and y))
    return d


def to_ambient(basis, x) -> tuple[int, ...]:
    return tuple(sum(c * b[i] for c, b in zip(x, basis)) for i in range(AMBIENT_RANK))


def picard_gram(basis) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(bb(x, y) for y in basis) for x in basis)


def pair(gram, x, y) -> int:
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def _det(mat) -> Fraction:
    a = [[Fraction(v) for v in row] for row in mat]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p], det = a[p], a[c], -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def is_saturated(basis) -> bool:
    """Whether the basis spans a primitive sublattice: gcd of maximal minors is 1."""
    cols = [i for i in range(AMBIENT_RANK) if any(b[i] for b in basis)]
    g = 0
    for chosen in combinations(cols, len(basis)):
        g = math.gcd(g, int(_det([[b[i] for i in chosen] for b in basis])))
        if g == 1:
            return True
    return False


def is_hyperbolic(gram) -> bool:
    """Signature (1, rank-1), read off the leading principal minors D_k:
    D_1 > 0 and every later pivot D_k / D_(k-1) negative.  Conservative: a
    vanishing leading minor answers False."""
    minors = [_det([row[:k] for row in gram[:k]]) for k in range(1, len(gram) + 1)]
    return all(d != 0 and (d > 0) == (k % 2 == 0) for k, d in enumerate(minors))


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checker:
    """Invariant checks for one query against its lattice data."""

    def __init__(self, basis, targets=DEFAULT_TARGETS):
        self.basis = tuple(tuple(b) for b in basis)
        self.gram = picard_gram(self.basis)
        self.targets = {tuple(t) for t in targets}

    def wall_errors(self, wall, g, m=None, cap=None) -> list[str]:
        rho, square, div = wall
        errs = []
        amb = to_ambient(self.basis, rho)
        if bb(amb, amb) != square:
            errs.append(f"{rho}: square is not {square}")
        if ambient_divisibility(amb) != div:
            errs.append(f"{rho}: divisibility is not {div}")
        if (square, div) not in self.targets:
            errs.append(f"{rho}: ({square}, {div}) is not a target")
        if math.gcd(*amb) != 1:
            errs.append(f"{rho}: not primitive")
        level = pair(self.gram, rho, g)
        if level <= 0:
            errs.append(f"{rho}: (rho, g) = {level} is not positive")
        if cap is not None and level > cap:
            errs.append(f"{rho}: level {level} above cap {cap}")
        if m is not None and pair(self.gram, rho, m) > 0:
            errs.append(f"{rho}: (rho, m) > 0")
        return errs

    def walls_errors(self, walls, g, m=None, cap=None) -> list[str]:
        errs = []
        keys = [tuple(w[0]) for w in walls]
        if keys != sorted(set(keys)):
            errs.append("walls are not sorted and duplicate-free")
        for w in walls:
            errs.extend(self.wall_errors(w, g, m, cap))
        return errs

    def crossing(self, rho, g, m) -> Fraction:
        pg, pm = pair(self.gram, rho, g), pair(self.gram, rho, m)
        return Fraction(pg, pg - pm)
