"""Exact integer linear algebra kernels, unchecked: callers pass ints.

No floating point is used anywhere.  Wall membership and cone tests
reduce to exact sign and equality questions, so even a single rounded
intermediate value could silently drop or invent a wall.  One symmetric
fraction-free pass (Bareiss, Math. Comp. 22, 1968: every division is
exact) gives inertia, determinant and ldl_positive (the pass's integers);
solve_exact solves from that factor in integers, as Cholesky
factor-then-solve does.  Euclid's column reduction gives
linear_form_basis and saturation_index; integral_lll reduces bases.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, isqrt
from operator import mul


def check_symmetric(mat) -> None:
    """Raise ValueError unless the square matrix mat is symmetric."""
    if any(row[j] != mat[j][i] for i, row in enumerate(mat) for j in range(i)):
        raise ValueError("matrix is not symmetric")


def _reduced(den: int, row: list[int]) -> tuple[int, list[int]]:
    """The rationals row/den divided by their gcd, so that den is the
    smallest positive denominator.  den must be positive."""
    g = gcd(den, *row)
    return den // g, [x // g for x in row]


def _eliminate(mat) -> tuple[list[list[int]], list[int]]:
    """One symmetric fraction-free (Bareiss) pass over a symmetric int matrix.

    Returns (a, minors): minors = [1, D_1, ..., D_s] are the leading
    minors of a matrix congruent to mat by a unimodular change of basis.
    The pass stops when the trailing block is zero, so s is the rank.  Row
    k of a holds the Bareiss row of step k from column k on.  Every
    division is exact: the trailing entries stay bordered minors of mat.
    """
    n = len(mat)
    a = [list(row) for row in mat]
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
    return a, minors


def determinant(mat) -> int:
    """Exact determinant of a symmetric integer matrix.

    A unimodular congruence keeps the determinant, so it is the last
    leading minor, or 0 when the elimination stops early.
    """
    minors = _eliminate(mat)[1]
    return minors[-1] if len(minors) > len(mat) else 0


def inertia(mat) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, zero) of a symmetric matrix.

    The pivot D_{k+1} / D_k of the elimination has the sign of
    D_{k+1} * D_k (Jacobi), and the rank deficiency counts the zeros.
    """
    minors = _eliminate(mat)[1]
    pos = sum((x > 0) == (y > 0) for x, y in zip(minors, minors[1:]))
    return pos, len(minors) - 1 - pos, len(mat) + 1 - len(minors)


def linear_form_basis(w: Sequence[int], v=None) -> tuple[int, list[int], list[list[int]]]:
    """Unimodular basis adapted to the integer linear form w, and to v.

    Returns (d, u, kernel) with d = gcd(w) > 0, w . u = d, and kernel an
    integral basis of {x : w . x = 0}.  column_reduce of the row w (and v),
    with the unit rows riding along, gives the change of basis T: column 0
    is u and the others are the kernel.  With v, column 1, put last, is the
    kernel vector c with v . c > 0 and the rest are orthogonal to v; a v
    zero on the kernel (proportional to w) gets w's basis alone.
    """
    n = len(w)
    unit = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    for rows in ([w] if v is None else [w, v], [w]):
        reduced = column_reduce(rows, unit)
        if reduced is not None:
            u, *kernel = map(list, zip(*reduced[len(rows):]))
            if len(rows) == 2:
                kernel.append(kernel.pop(0))
            return reduced[0][0], u, kernel
    raise ValueError("zero linear form")


def ldl_positive(mat) -> tuple[list[int], list[list[int]]]:
    """Fraction-free LDL data of a positive definite symmetric integer N.

    Returns the integers (minors, rows): minors = [1, D_1, ..., D_n] are
    the leading minors of N, and rows[i] is the Bareiss row of step i in
    the columns j > i.  So with d_i = D_{i+1}/D_i,
    x^T N x = sum_i d_i (x_i + sum_{j>i} rows[i][j-i-1] x_j / D_{i+1})^2.
    Raises ValueError when N is not positive definite.
    """
    a, minors = _eliminate(mat)
    # all n minors positive: N is positive definite, so no pivot was moved
    if len(minors) <= len(a) or min(minors) <= 0:
        raise ValueError("matrix is not positive definite")
    return minors, [row[i + 1:] for i, row in enumerate(a)]


def solve_exact(ldl, b) -> tuple[int, list[int]]:
    """Solve N x = b from ldl = ldl_positive(N), for an integer vector b.

    Returns (den, xs) with x = xs/den in lowest terms and den > 0.  The
    forward steps of the symmetric pass are replayed on b, and back
    substitution solves for det * x, integral by Cramer's rule: every
    division is exact.
    """
    minors, rows = ldl
    n = len(rows)
    c = list(b)
    for k, row in enumerate(rows):
        p, prev = minors[k + 1], minors[k]
        for r, f in enumerate(row, k + 1):
            c[r] = (p * c[r] - f * c[k]) // prev
    det, x = minors[n], [0] * n
    for k in reversed(range(n)):
        x[k] = (det * c[k] - sum(map(mul, rows[k], x[k + 1:]))) // minors[k + 1]
    return _reduced(det, x)


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


def column_reduce(rows, riders=()) -> list[list[int]] | None:
    """The integer rows, then the riders, times one unimodular T.

    Euclid's algorithm on columns leaves row i nonzero only in columns
    0..i, with a positive pivot in column i: each pivot moves to the front
    of the columns not yet reduced and the others keep their order.  So
    every column past len(rows) is zero and the first len(rows) columns
    span the same lattice as the original columns.  The riders take the
    same column operations.  Returns None when the rows are linearly
    dependent.
    """
    work = [list(row) for row in (*rows, *riders)]
    ncols = len(work[0]) if work else 0
    for i in range(len(rows)):
        row = work[i]
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
        sign = 1 if row[jpiv] > 0 else -1
        for r in work[i:]:
            r.insert(i, sign * r.pop(jpiv))
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
