"""Exact rational linear algebra primitives.

Everything operates on plain Python ints and ``fractions.Fraction``; no
floating point is used anywhere.  Wall membership and cone tests reduce to
exact sign and equality questions, so even a single rounded intermediate
value could silently drop or invent a wall.  determinant, solve_exact and
ldl_positive clear denominators once and then eliminate in ints only
(Bareiss, Math. Comp. 22, 1968: every division is exact); they build a
Fraction only for the output.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul
from typing import Sequence


def check_symmetric(mat) -> None:
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if mat[i][j] != mat[j][i]:
                raise ValueError("matrix is not symmetric")


def _cleared(row) -> tuple[int, list[int]]:
    """(den, den * row) for the lcm den of the denominators; ints or Fractions."""
    den = lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def determinant(mat) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    cleared = [_cleared(row) for row in mat]
    a = [ints for _, ints in cleared]
    sign = prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row, p = a[k], a[k][k]
        for r in range(k + 1, n):
            row, f = a[r], a[r][k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], pivot_row[k + 1:])]
        prev = p
    return Fraction(sign * prev, prod(den for den, _ in cleared))


def solve_exact(a_rows, b) -> list[Fraction] | None:
    """Solve A x = b for A with full column rank; None if inconsistent.

    A is given as m rows of length n with m >= n.  Raises ValueError when
    the columns are linearly dependent (no unique solution).  Bareiss
    Gauss-Jordan: every pivot row ends with the last pivot on the diagonal.
    """
    n = len(a_rows[0]) if a_rows else 0
    # zero rows change neither the rank nor the consistency
    aug = [row for row in (_cleared([*r, bi])[1] for r, bi in zip(a_rows, b)) if any(row)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, len(aug)) if aug[r][k]), None)
        if piv is None:
            raise ValueError("matrix does not have full column rank")
        aug[k], aug[piv] = aug[piv], aug[k]
        pivot_row, p = aug[k], aug[k][k]
        for r, row in enumerate(aug):
            if r != k:
                f = row[k]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    if any(row[n] for row in aug[n:]):
        return None
    return [Fraction(row[n], prev) for row in aug[:n]]


def inertia(mat) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, zero) of a symmetric matrix.

    Uses exact rational congruence diagonalization; zero diagonal entries
    are repaired by the standard row+column addition, which is valid in
    characteristic zero.
    """
    check_symmetric(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    pos = neg = zero = 0
    i = 0
    while i < n:
        piv = next((j for j in range(i, n) if a[j][j] != 0), None)
        if piv is None:
            off = next(
                ((j, k) for j in range(i, n) for k in range(j + 1, n) if a[j][k] != 0),
                None,
            )
            if off is None:
                zero += n - i
                break
            j, k = off
            for t in range(i, n):
                a[j][t] += a[k][t]
            for t in range(i, n):
                a[t][j] += a[t][k]
            piv = j
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            for t in range(n):
                a[t][i], a[t][piv] = a[t][piv], a[t][i]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            aij = a[i][j]
            if aij:
                for k in range(j, n):
                    a[j][k] -= aij * a[i][k] / d
                    if k != j:
                        a[k][j] = a[j][k]
        i += 1
    return pos, neg, zero


def linear_form_basis(w: Sequence[int]) -> tuple[int, list[int], list[list[int]]]:
    """Unimodular basis adapted to the integer linear form w.

    Returns (d, u, kernel) with d = gcd(w) > 0, w . u = d, and kernel an
    integral basis of {x : w . x = 0}.  The change of basis is built from
    elementary column operations, so the kernel basis together with u spans
    the full integer lattice.
    """
    n = len(w)
    v = [int(x) for x in w]
    if not any(v):
        raise ValueError("zero linear form")
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    while True:
        nz = [j for j in range(n) if v[j]]
        if len(nz) == 1:
            break
        jmin = min(nz, key=lambda j: abs(v[j]))
        for j in nz:
            if j == jmin:
                continue
            q = v[j] // v[jmin]
            if q:
                v[j] -= q * v[jmin]
                cols[j] = [cj - q * ci for cj, ci in zip(cols[j], cols[jmin])]
    j0 = next(j for j in range(n) if v[j])
    if v[j0] < 0:
        v[j0] = -v[j0]
        cols[j0] = [-c for c in cols[j0]]
    kernel = [cols[j] for j in range(n) if j != j0]
    return v[j0], cols[j0], kernel


def ldl_positive(mat) -> tuple[list[Fraction], list[list[Fraction]]]:
    """LDL data of a positive definite symmetric rational matrix.

    Returns (d, coef) such that x^T N x = sum_i d[i] * (x_i + sum_{j>i}
    coef[i][j] * x_j)^2 with every d[i] > 0.  Raises ValueError when the
    matrix is not positive definite.  The Bareiss pivots of L*N (L clears
    N) are its leading minors D_i, so d[i] = D_{i+1} / (D_i * L).
    """
    check_symmetric(mat)
    n = len(mat)
    scale = lcm(*(x.denominator for row in mat for x in row))
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in mat]
    zero = Fraction(0)
    d: list[Fraction] = []
    coef = [[zero] * n for _ in range(n)]
    prev = 1
    for i, pivot_row in enumerate(a):
        p = pivot_row[i]
        if p <= 0:
            raise ValueError("matrix is not positive definite")
        d.append(Fraction(p, prev * scale))
        coef[i][i + 1:] = [Fraction(x, p) for x in pivot_row[i + 1:]]
        for r in range(i + 1, n):
            row, f = a[r], pivot_row[r]  # the matrix stays symmetric
            row[r:] = [(p * x - f * y) // prev for x, y in zip(row[r:], pivot_row[r:])]
        prev = p
    return d, coef


def integral_lll(gram, rows) -> list[list[int]]:
    """LLL-reduced rows spanning the same lattice, under the form gram.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7,
    with delta = 3/4: unimodular row operations on integer rows, driven by
    the integral Gram-Schmidt data (the leading minors D_i of the Gram
    matrix of the rows, and lam[k][j] = D_{j+1} * mu_kj), so every division
    is exact.  Raises ValueError as soon as the form is not positive
    definite on the rows: each new minor is checked before any swap, so an
    indefinite form cannot loop.
    """
    n = len(rows)
    rows = [list(row) for row in rows]
    minors = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        w = [sum(map(mul, form_row, rows[k])) for form_row in gram]
        lk = lam[k]
        for j in range(k + 1):
            v = sum(map(mul, rows[j], w))
            lj = lam[j]
            for i in range(j):
                v = (minors[i + 1] * v - lk[i] * lj[i]) // minors[i]
            if j < k:
                lk[j] = v
            else:
                minors[k + 1] = v
        if minors[k + 1] <= 0:
            raise ValueError("the form is not positive definite on the rows")

    def size_reduce(k, l):
        lkl, dl = lam[k][l], minors[l + 1]
        if 2 * abs(lkl) <= dl:
            return
        q = (2 * lkl + dl) // (2 * dl)  # nearest integer to lkl / dl
        rows[k] = [a - q * b for a, b in zip(rows[k], rows[l])]
        lam[k][l] = lkl - q * dl
        lk, ll = lam[k], lam[l]
        for i in range(l):
            lk[i] -= q * ll[i]

    def swap(k, kmax):
        rows[k - 1], rows[k] = rows[k], rows[k - 1]
        lk, lp = lam[k], lam[k - 1]
        for j in range(k - 1):
            lk[j], lp[j] = lp[j], lk[j]
        lkk = lk[k - 1]
        d_prev, d_k, d_next = minors[k - 1], minors[k], minors[k + 1]
        b = (d_prev * d_next + lkk * lkk) // d_k
        for i in range(k + 1, kmax + 1):
            li = lam[i]
            t = li[k]
            li[k] = (d_next * li[k - 1] - lkk * t) // d_k
            li[k - 1] = (b * t + lkk * li[k]) // d_next
        minors[k] = b

    if n:
        gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        size_reduce(k, k - 1)
        lkk = lam[k][k - 1]
        if 4 * minors[k + 1] * minors[k - 1] < 3 * minors[k] ** 2 - 4 * lkk * lkk:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return rows


def integer_interval(numer: int, denom: int, bound: int) -> range:
    """All integers t with (t*denom - numer)^2 <= bound, as a range.

    This is the rational condition (t - numer/denom)^2 <= bound/denom^2
    with every denominator cleared, so the integer square root of bound
    gives exact endpoints.  denom must be positive.
    """
    if bound < 0:
        return range(0)
    s = isqrt(bound)
    return range(-((s - numer) // denom), (numer + s) // denom + 1)


def column_reduce(rows) -> list[list[int]] | None:
    """The integer rows after unimodular column operations, lower triangular.

    Euclid's algorithm on columns, as in linear_form_basis, leaves row i
    nonzero only in columns 0..i, so every column past len(rows) is zero
    and the first len(rows) columns span the same lattice as the original
    columns.  Returns None when the rows are linearly dependent.
    """
    work = [[int(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    for i, row in enumerate(work):
        while True:
            nz = [j for j in range(i, ncols) if row[j]]
            if not nz:
                return None
            if len(nz) == 1:
                break
            jmin = min(nz, key=lambda j: abs(row[j]))
            for j in nz:
                q = row[j] // row[jmin]
                if j != jmin and q:
                    for r in work[i:]:
                        r[j] -= q * r[jmin]
        jpiv = nz[0]
        for r in work[i:]:
            r[i], r[jpiv] = r[jpiv], r[i]
    return work


def saturation_index(rows) -> int:
    """Index of the span of the integer rows in its saturation.

    This is the product of the elementary divisors of the row matrix (the
    gcd of its maximal minors): 1 exactly when the rows span a saturated
    sublattice, 0 when they are linearly dependent.  column_reduce keeps
    that gcd and makes the matrix lower triangular, so it is the product
    of the diagonal.
    """
    work = column_reduce(rows)
    if work is None:
        return 0
    index = 1
    for i, row in enumerate(work):
        index *= abs(row[i])
    return index
