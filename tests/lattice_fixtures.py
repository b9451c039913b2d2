"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from hyperwall import PicardLattice, basis_vector, divisibility, level_bound, vector_from_labels
from hyperwall.enumeration import _SliceContext
from hyperwall.rational_linalg import check_symmetric

# The worked rank-2 lattice: h = e1 + f1 (square 2) and delta (square -2),
# with Gram diag(2, -2).
H = vector_from_labels({"e1": 1, "f1": 1})
DELTA = basis_vector("delta")
LAMBDA_PLANE = vector_from_labels({"e1": 2, "f1": 2, "delta": 3})

FIXTURE_G = (3, -1)


def slice_context(pic, g, m=None) -> _SliceContext:
    """The slice context of (pic, g, m), built from the Gram forms of g and m."""
    return _SliceContext(pic, pic.gram_times(g), None if m is None else pic.gram_times(m))


def rank2_picard() -> PicardLattice:
    return PicardLattice([H, DELTA])


def ladder_picard(rank):
    """L(r) = span(e1+2f1, delta, E8a_1 .. E8a_8, E8b_1 .. E8b_8, e2-f2, e3-f3),
    cut after its first r vectors."""
    basis = [vector_from_labels({"e1": 1, "f1": 2}), DELTA]
    basis += [basis_vector(f"E8{half}_{i}") for half in "ab" for i in range(1, 9)]
    basis += [vector_from_labels({"e2": 1, "f2": -1}), vector_from_labels({"e3": 1, "f3": -1})]
    basis = basis[:rank]
    return PicardLattice(basis)


def cofactor_det(mat):
    """Independent determinant oracle by first-row cofactor expansion."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [
            [mat[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        total += (-1) ** j * mat[0][j] * cofactor_det(minor)
    return total


# The package's former ldl_positive, Fraction Gaussian elimination: the
# reference for its fraction-free LDL data and for the slice context's integers.
def fraction_ldl(mat):
    """LDL in Fractions: (d, coef) with x^T N x = sum d_i (x_i + sum coef_ij x_j)^2."""
    check_symmetric(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    d = []
    coef = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        di = a[i][i]
        if di <= 0:
            raise ValueError("matrix is not positive definite")
        d.append(di)
        for j in range(i + 1, n):
            coef[i][j] = a[i][j] / di
        for j in range(i + 1, n):
            aij = a[i][j]
            if aij:
                for k in range(j, n):
                    a[j][k] -= aij * a[i][k] / di
                    if k != j:
                        a[k][j] = a[j][k]
    return d, coef


# The package's former solve_exact, Gauss-Jordan in Fractions: the reference
# for the integer solve from the LDL factor, and for the slice context's centre.
def fraction_solve(a_rows, b):
    """Gauss-Jordan in Fractions: A x = b, None if inconsistent."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a_rows)]
    pivots = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix does not have full column rank")
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col] / pv
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
    for r in range(row, m):
        if aug[r][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for r, c in pivots:
        sol[c] = aug[r][n] / aug[r][c]
    return sol


# Ambient vectors of negative square used to assemble random hyperbolic
# Picard lattices.  Supports avoid e1/f1 so the positive generator can sit
# there undisturbed.
_NEGATIVE_POOL = [
    vector_from_labels({"delta": 1}),
    vector_from_labels({"E8a_1": 1}),
    vector_from_labels({"E8a_2": 1}),
    vector_from_labels({"E8a_4": 1}),
    vector_from_labels({"E8a_7": 1}),
    vector_from_labels({"E8b_1": 1}),
    vector_from_labels({"E8b_3": 1}),
    vector_from_labels({"E8b_8": 1}),
    vector_from_labels({"e2": 1, "f2": -1}),
    vector_from_labels({"e2": 1, "f2": -2}),
    vector_from_labels({"e3": 1, "f3": -1}),
    vector_from_labels({"e3": 1, "f3": -3}),
    vector_from_labels({"e2": 2, "f2": -2, "delta": 1}),
    vector_from_labels({"e3": 2, "f3": -2, "delta": 1}),
    vector_from_labels({"e2": 1, "f2": -1, "delta": 1}),
    vector_from_labels({"E8a_1": 1, "E8a_3": 1}),
    vector_from_labels({"E8b_5": 1, "E8b_6": 1}),
]


def random_hyperbolic_picard(rng: random.Random, rank: int, max_entry: int = 20) -> PicardLattice:
    """A random embedded Picard lattice with signature (1, rank-1) and
    Gram entries bounded by max_entry."""
    while True:
        first = vector_from_labels({"e1": 1, "f1": rng.randint(1, max_entry // 2)})
        rest = rng.sample(_NEGATIVE_POOL, rank - 1)
        try:
            pic = PicardLattice([first] + rest)
        except ValueError:
            continue
        if any(abs(e) > max_entry for row in pic.gram for e in row):
            continue
        if pic.is_hyperbolic():
            return pic


def random_polarized_pair(rng: random.Random, pic: PicardLattice, coeff: int = 3, g=None):
    """Random (g, m) with positive squares and (m, g) > 0; a given g is kept."""
    rank = pic.rank
    while g is None:
        g = tuple(rng.randint(-coeff, coeff) for _ in range(rank))
        if pic.square(g) <= 0:
            g = None
    while True:
        m = tuple(rng.randint(-coeff, coeff) for _ in range(rank))
        if pic.square(m) <= 0:
            continue
        if pic.pair(m, g) < 0:
            m = tuple(-x for x in m)
        if pic.pair(m, g) > 0:
            return g, m


def orthogonal_polarization(rng: random.Random, pic: PicardLattice, squares=(-2, -6, -8, -10), box: int = 2):
    """A primitive g of positive square orthogonal to a class x0 of negative
    square: x0 is the first draw in [-box, box]^rank whose square is one of
    squares, else the last basis vector (of negative square in a rank >= 2
    lattice of these fixtures).  g = (x0, x0) r - (r, x0) x0 for a random r
    of positive square."""
    rank = pic.rank
    x0 = (0,) * (rank - 1) + (1,)
    for _ in range(200):
        x = tuple(rng.randint(-box, box) for _ in range(rank))
        if pic.square(x) in squares:
            x0 = x
            break
    while True:
        r = tuple(rng.randint(-3, 3) for _ in range(rank))
        if pic.square(r) > 0:
            break
    s, rx = pic.square(x0), pic.pair(r, x0)
    g = tuple(s * ri - rx * xi for ri, xi in zip(r, x0))
    content = gcd(*g)
    return tuple(c // content for c in g)


# targets whose squares are div-2 only, div-1 only or both, in one walk
PRUNING_TARGETS = (
    ((-2, 1), (-2, 2), (-10, 2)),
    ((-2, 1), (-8, 2), (-10, 2)),
    ((-2, 2), (-8, 2), (-10, 2)),
    ((-2, 1), (-10, 2)),
    ((-10, 2),),
)


def unpruned_walls(pic, g, m, targets, level_cap=None):
    """(Picard coordinates, square, divisibility) of the walls, sorted, from
    the walk that prunes nothing by parity (no even-only square), each hit
    filtered afterwards on its ambient image, as brute_force_walls does: it
    must be primitive and have an admissible divisibility.  The walk's
    parity residue is not read."""
    groups: dict[int, set[int]] = {}
    for square, div in targets:
        groups.setdefault(square, set()).add(div)
    caps = {}
    for square in groups:
        bound = level_cap if m is None else level_bound(pic, g, m, square)
        caps[square] = bound if level_cap is None else min(bound, level_cap)
    walls = []
    for square, x, _ in slice_context(pic, g, m).solutions(caps, 1, frozenset()):
        ambient = pic.to_ambient(x)
        div = divisibility(ambient)
        if gcd(*ambient) == 1 and div in groups[square]:
            walls.append((x, square, div))
    return sorted(walls)
