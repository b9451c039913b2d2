"""Exact rational linear algebra primitives.

Everything operates on plain Python ints and ``fractions.Fraction``; no
floating point is used anywhere.  Wall membership and cone tests reduce to
exact sign and equality questions, so even a single rounded intermediate
value could silently drop or invent a wall.  The eliminations clear
denominators once and then work in ints only (Bareiss, Math. Comp. 22,
1968: every division is exact), building a Fraction only for the output.
One symmetric pass gives inertia, determinant and ldl_positive;
solve_exact runs Bareiss Gauss-Jordan on the augmented rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import isqrt, lcm
from operator import mul


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


def _eliminate(mat) -> tuple[int, list[list[int]], list[int]]:
    """One symmetric fraction-free (Bareiss) elimination pass.

    Returns (scale, a, minors): scale clears every denominator of mat, and
    minors = [1, D_1, ..., D_s] are the leading minors of a matrix
    congruent to scale * mat by a unimodular change of basis.  The pass
    stops when the trailing block is zero, so s is the rank.  Row k of a
    holds the Bareiss row of step k from column k on.  Every division is
    exact: the trailing entries stay bordered minors of an integer matrix.
    """
    check_symmetric(mat)
    n = len(mat)
    scale = lcm(*(x.denominator for row in mat for x in row))
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in mat]
    minors = [1]
    for k in range(n):
        if not a[k][k]:
            # Swap a later nonzero diagonal entry into place, row and column.
            # If there is none, first add row and column l to row and column
            # j for some a[j][l] != 0, which leaves a[j][j] = 2 a[j][l].
            for r in range(k, n):  # the updates keep only the upper triangle
                for c in range(r + 1, n):
                    a[c][r] = a[r][c]
            j = next((j for j in range(k, n) if a[j][j]), None)
            if j is None:
                off = next(((j, l) for j in range(k, n) for l in range(j + 1, n) if a[j][l]), None)
                if off is None:
                    break
                j, l = off
                for t in range(k, n):
                    a[j][t] += a[l][t]
                for row in a[k:]:
                    row[j] += row[l]
            for row in a[k:]:
                row[k], row[j] = row[j], row[k]
            a[k], a[j] = a[j], a[k]
        pivot_row, p, prev = a[k], a[k][k], minors[-1]
        for r in range(k + 1, n):
            row, f = a[r], pivot_row[r]  # the matrix stays symmetric
            row[r:] = [(p * x - f * y) // prev for x, y in zip(row[r:], pivot_row[r:])]
        minors.append(p)
    return scale, a, minors


def determinant(mat) -> Fraction:
    """Exact determinant of a symmetric rational matrix.

    A unimodular congruence keeps the determinant, so it is the last
    leading minor, or 0 when the elimination stops early.
    """
    scale, a, minors = _eliminate(mat)
    n = len(a)
    return Fraction(minors[n], scale**n) if len(minors) > n else Fraction(0)


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

    The pivot D_{k+1} / D_k of the elimination has the sign of
    D_{k+1} * D_k (Jacobi), and the rank deficiency counts the zeros.
    """
    _, a, minors = _eliminate(mat)
    pos = sum((x > 0) == (y > 0) for x, y in zip(minors, minors[1:]))
    return pos, len(minors) - 1 - pos, len(a) + 1 - len(minors)


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
    matrix is not positive definite.  The elimination pivots of L*N (L
    clears N) are its leading minors D_i, so d[i] = D_{i+1} / (D_i * L).
    """
    scale, a, minors = _eliminate(mat)
    n = len(a)
    # all n minors positive: N is positive definite, so no pivot was moved
    if len(minors) <= n or min(minors) <= 0:
        raise ValueError("matrix is not positive definite")
    zero = Fraction(0)
    d = [Fraction(p, prev * scale) for prev, p in zip(minors, minors[1:])]
    coef = [[zero] * (i + 1) + [Fraction(x, p) for x in a[i][i + 1:]] for i, p in enumerate(minors[1:])]
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
