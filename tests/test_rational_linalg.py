import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwall.rational_linalg import (
    check_symmetric,
    column_reduce,
    determinant,
    inertia,
    integer_interval,
    integral_lll,
    ldl_positive,
    linear_form_basis,
    saturation_index,
    solve_exact,
)
from lattice_fixtures import cofactor_det, fraction_ldl, fraction_solve, random_hyperbolic_picard


def rank_of(rows) -> int:
    """Rank over the rationals of a list of row vectors."""
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col] * inv
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


# Fraction Gaussian elimination: the package's former determinant and
# inertia, kept as reference oracles for the fraction-free (Bareiss)
# versions; the LDL and solve ones, fraction_ldl and fraction_solve, are in
# lattice_fixtures.


def fraction_determinant(mat) -> Fraction:
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def fraction_inertia(mat) -> tuple[int, int, int]:
    """Congruence diagonalization in Fractions; a zero diagonal is repaired
    by the row+column addition, valid in characteristic zero."""
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


def euclid_form_basis(w):
    """The package's former linear_form_basis: Euclid on the columns of
    the one row w, tracking the transform column by column."""
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


def outcome(fn, *args):
    """The result, or the ValueError message, so both paths compare."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def random_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def random_symmetric(rng, n, lo=-6, hi=6):
    m = random_matrix(rng, n, lo, hi)
    return [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]


class TestDeterminant:
    def test_matches_cofactor_expansion(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = random_symmetric(rng, n)
            assert determinant(m) == cofactor_det(m)

    def test_singular(self):
        assert determinant([[1, 2], [2, 4]]) == 0


class TestInertia:
    def test_diagonal(self):
        assert inertia([[3, 0, 0], [0, -1, 0], [0, 0, 0]]) == (1, 1, 1)

    def test_zero_matrix(self):
        assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)

    def test_hyperbolic_plane_zero_diagonal(self):
        assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_sylvester_invariance(self):
        # inertia is a congruence invariant: A and U^T A U agree for any
        # invertible U
        rng = random.Random(23)
        done = 0
        while done < 30:
            n = rng.randint(1, 5)
            a = random_symmetric(rng, n)
            u = random_matrix(rng, n, -3, 3)
            if fraction_determinant(u) == 0:
                continue
            uau = [
                [
                    sum(u[k][i] * a[k][l] * u[l][j] for k in range(n) for l in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert inertia(uau) == inertia(a)
            done += 1

    def test_counts_sum_to_dimension(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 6)
            p, m, z = inertia(random_symmetric(rng, n))
            assert p + m + z == n


class TestRankSolve:
    def test_rank(self):
        assert rank_of([[1, 0], [0, 1]]) == 2
        assert rank_of([[1, 2], [2, 4]]) == 1
        assert rank_of([[0, 0]]) == 0

    def test_solve_recovers_solution(self):
        # the normal equations A^T A x = A^T b of a full-rank A
        rng = random.Random(7)
        done = 0
        while done < 30:
            n = rng.randint(1, 4)
            m = n + rng.randint(0, 2)
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            if rank_of(a) < n:
                continue
            x = [rng.randint(-7, 7) for _ in range(n)]
            b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)]
            ata = [[sum(row[i] * row[j] for row in a) for j in range(n)] for i in range(n)]
            atb = [sum(row[i] * bi for row, bi in zip(a, b)) for i in range(n)]
            den, xs = solve_exact(ldl_positive(ata), atb)
            assert [Fraction(v, den) for v in xs] == [Fraction(v) for v in x]
            done += 1

    def test_solve_rejects_column_deficiency(self):
        with pytest.raises(ValueError, match="not positive definite"):
            solve_exact(ldl_positive([[1, 2], [2, 4]]), [1, 2])


class TestLinearFormBasis:
    def test_properties(self):
        rng = random.Random(3)
        import math

        for _ in range(60):
            n = rng.randint(1, 6)
            w = [rng.randint(-9, 9) for _ in range(n)]
            if not any(w):
                w[0] = 1
            d, u, kernel = linear_form_basis(w)
            g = 0
            for x in w:
                g = math.gcd(g, x)
            assert d == g
            assert sum(wi * ui for wi, ui in zip(w, u)) == d
            for vec in kernel:
                assert sum(wi * vi for wi, vi in zip(w, vec)) == 0
            cols = [u] + kernel
            mat = [[cols[j][i] for j in range(n)] for i in range(n)]
            assert fraction_determinant(mat) in (1, -1)

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            linear_form_basis([0, 0])

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=7))
    def test_equals_the_euclid_reference(self, w):
        """Bit for bit the former Euclid loop: zero entries, negative
        gcd signs and the zero form (the same ValueError) included."""
        assert outcome(linear_form_basis, w) == outcome(euclid_form_basis, w)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=-3, max_value=3), st.data())
    def test_second_form_slices_the_kernel(self, n, factor, data):
        """With v, [u, *kernel] is still unimodular and adapted to w, v is
        zero on every kernel vector but the last and positive on it; a v
        proportional to w, or zero, gives the one-form result."""
        ints = st.integers(min_value=-9, max_value=9)
        w = data.draw(st.lists(ints, min_size=n, max_size=n).filter(any))
        v = data.draw(st.lists(ints, min_size=n, max_size=n))
        d, u, kernel = linear_form_basis(w, v)
        assert d == gcd(*w) and dot(w, u) == d
        assert all(dot(w, k) == 0 for k in kernel)
        assert fraction_determinant([u] + kernel) in (1, -1)
        if rank_of([w, v]) < 2:
            assert (d, u, kernel) == linear_form_basis(w)
        else:
            assert [dot(v, k) for k in kernel[:-1]] == [0] * (n - 2)
            assert dot(v, kernel[-1]) > 0
        for proportional in ([0] * n, [factor * x for x in w]):
            assert linear_form_basis(w, proportional) == linear_form_basis(w)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestColumnReduce:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    def test_riders_take_the_same_transform(self, nrows, extra, nriders, data):
        """rows and riders both end multiplied by one unimodular T, and
        the rows end lower triangular with positive pivots."""
        ncols = nrows + extra
        rows = data.draw(matrices(nrows, ncols))
        riders = data.draw(matrices(nriders, ncols))
        got = column_reduce(rows, riders)
        if got is None:
            assert rank_of(rows) < nrows
            assert column_reduce(rows) is None
            return
        # T itself rides along as the unit rows
        unit = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        transform = column_reduce(rows, unit)[nrows:]
        assert fraction_determinant(transform) in (1, -1)
        assert got == mat_mul(rows, transform) + mat_mul(riders, transform)
        assert got[:nrows] == column_reduce(rows)
        for i, row in enumerate(got[:nrows]):
            assert row[i] > 0
            assert not any(row[i + 1:])


def random_positive_definite(rng, n):
    """B^T B for a random invertible integer B."""
    while True:
        b = random_matrix(rng, n, -4, 4)
        if fraction_determinant(b) != 0:
            return [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def form(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def gram_schmidt(gram, rows):
    """(B, mu): squared Gram-Schmidt norms and coefficients, as Fractions."""
    n = len(rows)
    star, b, mu = [], [], [[Fraction(0)] * n for _ in range(n)]
    for k, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j in range(k):
            mu[k][j] = form(gram, row, star[j]) / b[j]
            v = [x - mu[k][j] * y for x, y in zip(v, star[j])]
        star.append(v)
        b.append(form(gram, v, v))
    return b, mu


class TestLdl:
    def test_reconstructs_form(self):
        rng = random.Random(17)
        done = 0
        while done < 25:
            n = rng.randint(1, 5)
            b = random_matrix(rng, n, -4, 4)
            if fraction_determinant(b) == 0:
                continue
            # B^T B is positive definite for invertible B
            m = [
                [sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            minors, rows = ldl_positive(m)
            assert all(p > 0 for p in minors)
            for _ in range(5):
                x = [rng.randint(-4, 4) for _ in range(n)]
                direct = sum(
                    x[i] * m[i][j] * x[j] for i in range(n) for j in range(n)
                )
                # d_i * (x_i + sum_j coef_ij x_j)^2 with d_i = D_{i+1}/D_i
                # and coef_ij = rows[i][j - i - 1]/D_{i+1}
                viaforms = sum(
                    Fraction(
                        (minors[i + 1] * x[i] + sum(c * xj for c, xj in zip(rows[i], x[i + 1:]))) ** 2,
                        minors[i] * minors[i + 1],
                    )
                    for i in range(n)
                )
                assert viaforms == direct
            done += 1

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ldl_positive([[1, 0], [0, -1]])
        with pytest.raises(ValueError):
            ldl_positive([[0, 1], [1, 0]])


class TestIntegralLll:
    def test_size_reduced_and_lovasz(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(2, 6)
            gram = random_positive_definite(rng, n)
            b, mu = gram_schmidt(gram, integral_lll(gram, identity(n)))
            for k in range(1, n):
                assert all(2 * abs(mu[k][j]) <= 1 for j in range(k))
                assert b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]

    def test_transform_is_unimodular(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 6)
            gram = random_positive_definite(rng, n)
            start = random_matrix(rng, n, -5, 5)
            if fraction_determinant(start) == 0:
                continue
            rows = integral_lll(gram, start)
            # rows = T * start for an integral T with det T = +-1
            assert fraction_determinant(rows) in (fraction_determinant(start), -fraction_determinant(start))
            transform = [fraction_solve([list(c) for c in zip(*start)], row) for row in rows]
            assert all(c.denominator == 1 for row in transform for c in row)

    def test_fewer_rows_than_the_form(self):
        # rows of a sublattice: reduced inside their own span
        rows = integral_lll(identity(4), [[1, 5, 0, 0], [1, 6, 0, 0]])
        assert sorted(sorted(map(abs, row)) for row in rows) == [[0, 0, 0, 1]] * 2
        assert integral_lll(identity(2), []) == []
        assert integral_lll([[3, 1], [1, 2]], [[2, 7]]) == [[2, 7]]

    def test_skewed_basis_gets_shorter(self):
        # a skewed basis of Z^3 under the standard form
        rows = integral_lll(identity(3), [[1, 0, 0], [17, 1, 0], [22, -31, 1]])
        assert sorted(sorted(map(abs, row)) for row in rows) == [[0, 0, 1]] * 3

    def test_rejects_indefinite(self):
        # a minor is negative: raised before any swap, never looping
        with pytest.raises(ValueError):
            integral_lll([[1, 0], [0, -1]], identity(2))
        with pytest.raises(ValueError):
            integral_lll([[2, 0, 0], [0, 2, 3], [0, 3, 2]], identity(3))
        with pytest.raises(ValueError):
            integral_lll([[0, 1], [1, 0]], identity(2))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            integral_lll([[1, 1], [1, 1]], identity(2))
        with pytest.raises(ValueError):
            integral_lll([[2, 0], [0, 1]], [[1, 2], [2, 4]])


class TestIntegerInterval:
    def test_matches_direct_scan(self):
        # the rational interval (t - p/q)^2 <= a/b, stated with cleared
        # denominators as (t*q - p)^2 <= floor(a*q^2 / b)
        rng = random.Random(29)
        for _ in range(300):
            p, q = rng.randint(-40, 40), rng.randint(1, 7)
            a, b = rng.randint(-5, 900), rng.randint(1, 5)
            got = list(integer_interval(p, q, a * q * q // b))
            center, radius_sq = Fraction(p, q), Fraction(a, b)
            expected = [
                t for t in range(-120, 121) if (t - center) ** 2 <= radius_sq
            ]
            assert got == expected

    def test_negative_radius_is_empty(self):
        assert list(integer_interval(1, 2, -1)) == []


class TestSaturationIndex:
    def test_matches_gcd_of_maximal_minors(self):
        rng = random.Random(31)
        for _ in range(200):
            rows = rng.randint(1, 3)
            cols = rng.randint(rows, 5)
            mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            expected = 0
            for chosen in itertools.combinations(range(cols), rows):
                minor = [[row[j] for j in chosen] for row in mat]
                expected = gcd(expected, cofactor_det(minor))
            assert saturation_index(mat) == expected

    def test_examples(self):
        assert saturation_index([[1, 0, 0], [0, 1, 0]]) == 1
        assert saturation_index([[1, 1, 0], [1, -1, 0]]) == 2
        assert saturation_index([[2, 4, 6]]) == 2
        assert saturation_index([[1, 2], [2, 4]]) == 0
        assert saturation_index([[1, 0], [0, 1], [1, 1]]) == 0


KERNEL_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=120)


def entries():
    return st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, rows, cols):
    return [[draw(entries()) for _ in range(cols)] for _ in range(rows)]


# "generic" symmetric; its diagonal zeroed; a sum of hyperbolic planes
# [[0, c], [c, 0]] and a generic block, indices shuffled; B^T D B with
# fewer rows than n (singular); a generic block padded with zero rows and
# columns (an all-zero trailing block)
SYMMETRIC_KINDS = ["generic", "zero_diagonal", "hyperbolic", "low_rank", "zero_tail"]


@st.composite
def symmetric_matrices(draw, n, kind):
    def generic(size):
        m = draw(matrices(size, size))
        return [[m[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]

    def padded(block):
        k = len(block)
        return [[block[i][j] if i < k and j < k else 0 for j in range(n)] for i in range(n)]

    if kind == "generic":
        return generic(n)
    if kind == "zero_diagonal":
        mat = generic(n)
        for i in range(n):
            mat[i][i] = 0
        return mat
    if kind == "low_rank":
        r = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
        b = draw(matrices(r, n))
        d = draw(matrices(1, r))[0]
        return [[sum(b[k][i] * d[k] * b[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
    if kind == "zero_tail":
        return padded(generic(draw(st.integers(min_value=0, max_value=n))))
    planes = draw(st.integers(min_value=0, max_value=n // 2))
    mat = padded(generic(n - 2 * planes))
    for p in range(n - 2 * planes, n, 2):
        mat[p][p + 1] = mat[p + 1][p] = draw(entries().filter(bool))
    perm = draw(st.permutations(range(n)))
    return [[mat[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def solve(mat, rhs):
    """N x = rhs through the factor: solve_exact(ldl_positive(N), rhs)."""
    return solve_exact(ldl_positive(mat), rhs)


def ldl_fractions(minors, rows):
    """The (d, coef) of fraction_ldl read from ldl_positive's integers:
    d_i = D_{i+1}/D_i, row i of coef is rows[i]/D_{i+1}."""
    d = [Fraction(p, prev) for prev, p in zip(minors, minors[1:])]
    coef = [[Fraction(0)] * (i + 1) + [Fraction(x, p) for x in row] for i, (p, row) in enumerate(zip(minors[1:], rows))]
    return d, coef


class TestBareissAgainstFractionReferences:
    """The fraction-free kernels on integer matrices equal Fraction Gaussian
    elimination.  The kernels check nothing; signature_of, the one entry
    that takes a user Gram, rejects other matrices (tests/test_lattice.py)."""

    @KERNEL_SETTINGS
    @given(st.integers(min_value=0, max_value=6), st.sampled_from(SYMMETRIC_KINDS), st.data())
    def test_determinant(self, n, kind, data):
        mat = data.draw(symmetric_matrices(n, kind))
        det = determinant(mat)
        assert det == fraction_determinant(mat)
        assert type(det) is int
        if n and (kind == "low_rank" or not all(map(any, mat))):
            assert det == 0

    @KERNEL_SETTINGS
    @given(st.integers(min_value=0, max_value=6), st.sampled_from(SYMMETRIC_KINDS), st.data())
    def test_inertia(self, n, kind, data):
        mat = data.draw(symmetric_matrices(n, kind))
        assert inertia(mat) == fraction_inertia(mat)

    @KERNEL_SETTINGS
    @given(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["definite", *SYMMETRIC_KINDS]),
        st.data(),
    )
    def test_solve(self, n, kind, data):
        """Positive definite B^T B equals the Fraction solve; any other
        symmetric matrix raises exactly when the Fraction LDL does."""
        if kind == "definite":
            b = data.draw(matrices(n, n))
            mat = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        else:
            mat = data.draw(symmetric_matrices(n, kind))
        rhs = data.draw(matrices(1, n))[0]
        got = outcome(solve, mat, rhs)
        ldl = outcome(fraction_ldl, mat)
        if ldl[0] == "error":
            assert got == ldl
        else:
            den, xs = got[1]
            assert all(type(x) is int for x in (den, *xs))
            assert den > 0 and gcd(den, *xs) == 1
            assert [Fraction(x, den) for x in xs] == fraction_solve(mat, rhs)
        if kind in ("low_rank", "zero_diagonal") and n:
            assert got == ("error", "matrix is not positive definite")

    @KERNEL_SETTINGS
    @given(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["definite", "semidefinite", "symmetric", "hyperbolic", "zero_tail"]),
        st.data(),
    )
    def test_ldl(self, n, kind, data):
        """Positive definite B^T B; singular or arbitrary symmetric input
        raises the same ValueError as the reference."""
        if kind in SYMMETRIC_KINDS:
            mat = data.draw(symmetric_matrices(n, kind))
        elif kind == "symmetric":
            m = data.draw(matrices(n, n))
            mat = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        else:
            b = data.draw(matrices(n, n))
            if kind == "semidefinite" and n:
                b[-1] = [0] * n
            mat = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        got = outcome(ldl_positive, mat)
        if got[0] == "ok":
            minors, rows = got[1]
            assert all(type(x) is int for x in (*minors, *itertools.chain(*rows)))
            got = "ok", ldl_fractions(minors, rows)
        assert got == outcome(fraction_ldl, mat)
        if kind == "semidefinite" and n:
            assert got == ("error", "matrix is not positive definite")

    @KERNEL_SETTINGS
    @given(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["definite", *SYMMETRIC_KINDS]),
        st.data(),
    )
    def test_ldl_integers_rebuild_the_matrix(self, n, kind, data):
        """From the integers alone, N = sum_i v_i v_i^T / (D_i D_{i+1})
        with v_i = (0, ..., 0, D_{i+1}, rows[i]), and D_k is the k-th leading
        minor of N.  Every other input raises the reference's error."""
        if kind == "definite":
            b = data.draw(matrices(n, n))
            mat = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        else:
            mat = data.draw(symmetric_matrices(n, kind))
        got, want = outcome(ldl_positive, mat), outcome(fraction_ldl, mat)
        assert got[0] == want[0]
        if got[0] == "error":
            assert got == want
            return
        minors, rows = got[1]
        assert len(minors) == n + 1 and len(rows) == n
        for k in range(n + 1):
            assert minors[k] == fraction_determinant([row[:k] for row in mat[:k]])
        vs = [[0] * i + [minors[i + 1], *row] for i, row in enumerate(rows)]
        for a in range(n):
            for c in range(n):
                rebuilt = sum(Fraction(v[a] * v[c], minors[i] * minors[i + 1]) for i, v in enumerate(vs))
                assert rebuilt == mat[a][c]

    @KERNEL_SETTINGS
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**32),
        st.booleans(),
        st.data(),
    )
    def test_from_ambient(self, rank, seed, in_span, data):
        """The normal equations give the Fraction solve of the rectangular
        system B^T x = v: its solution in the span, None off it."""
        pic = random_hyperbolic_picard(random.Random(seed), rank)
        x = data.draw(matrices(1, rank))[0]
        v = list(pic.to_ambient(x))
        if not in_span:
            v[data.draw(st.integers(min_value=0, max_value=22))] += data.draw(entries().filter(bool))
        expected = fraction_solve([list(col) for col in zip(*pic.basis)], v)
        got = pic.from_ambient(v)
        assert got == (None if expected is None else tuple(expected))
        if in_span:
            assert got == tuple(Fraction(c) for c in x)
