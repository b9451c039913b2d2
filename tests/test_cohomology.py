import itertools
import random
from fractions import Fraction

import pytest

from hyperwall import (
    AMBIENT_RANK,
    MiddleClass,
    basis_vector,
    bb_pair,
    c2_pair,
    fujiki_check,
    lagrangian_eliminant,
    lagrangian_solver,
    line_class_of_plane,
    middle_pair,
    q_dual,
    quad_product,
    square_class,
    vector_from_labels,
)
from lattice_fixtures import DELTA, H, LAMBDA_PLANE

E1 = basis_vector("e1")
F1 = basis_vector("f1")


def random_ambient(rng, bound=8):
    return tuple(rng.randint(-bound, bound) for _ in range(AMBIENT_RANK))


class TestQuadProduct:
    def test_positive_square_example(self):
        assert bb_pair(H, H) == 2
        assert quad_product(H, H, H, H) == 12

    def test_hyperbolic_pairs(self):
        assert quad_product(E1, F1, E1, F1) == 2
        assert quad_product(E1, E1, F1, F1) == 2

    def test_invariant_under_all_permutations(self):
        rng = random.Random(13)
        vecs = [random_ambient(rng, 3) for _ in range(4)]
        reference = quad_product(*vecs)
        for perm in itertools.permutations(range(4)):
            assert quad_product(*(vecs[i] for i in perm)) == reference

    def test_multilinear(self):
        rng = random.Random(14)
        a, b, c, d, e = (random_ambient(rng, 3) for _ in range(5))
        s, t = 3, -2
        combo = tuple(s * x + t * y for x, y in zip(a, e))
        assert quad_product(combo, b, c, d) == s * quad_product(
            a, b, c, d
        ) + t * quad_product(e, b, c, d)


def quad_product_pair(x, y):
    """middle_pair by its definition: the literal sum of c_ij d_kl
    quad_product(b_i, b_j, b_k, b_l), q against a tensor through 25(a, b)
    and q against itself through 575."""
    total = x.qdual_coeff * y.qdual_coeff * 575
    for cls, other in ((x, y), (y, x)):
        for i, bi in enumerate(cls.basis):
            for j, bj in enumerate(cls.basis):
                total += other.qdual_coeff * 25 * cls.tensor[i][j] * bb_pair(bi, bj)
    for i, bi in enumerate(x.basis):
        for j, bj in enumerate(x.basis):
            for k, bk in enumerate(y.basis):
                for l, bl in enumerate(y.basis):
                    total += x.tensor[i][j] * y.tensor[k][l] * quad_product(bi, bj, bk, bl)
    return total


def random_middle_class(rng, basis, with_q):
    n = len(basis)
    tensor = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            tensor[i][j] = tensor[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    q = Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if with_q else 0
    return MiddleClass(basis, tensor, q)


class TestMiddlePair:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_quad_product_sum(self, seed):
        rng = random.Random(seed)
        for n in (1, 2, 3, 4):
            basis = tuple(random_ambient(rng, 4) for _ in range(n))
            for qx, qy in itertools.product((False, True), repeat=2):
                x = random_middle_class(rng, basis, qx)
                y = random_middle_class(rng, basis, qy)
                assert middle_pair(x, y) == quad_product_pair(x, y)
                assert type(middle_pair(x, y)) is Fraction
                # a class with no tensor part pairs through its q part alone
                pure_q = MiddleClass((), (), y.qdual_coeff)
                assert middle_pair(x, pure_q) == quad_product_pair(x, pure_q)
                assert middle_pair(pure_q, x) == quad_product_pair(pure_q, x)

    def test_qdual_self_pairing(self):
        assert middle_pair(q_dual(), q_dual()) == 575

    def test_qdual_against_divisor_square(self):
        # q . (e1 f1): tensor e1*f1 over the basis (e1, f1)
        half = Fraction(1, 2)
        cls = MiddleClass(
            basis=(E1, F1), tensor=((0, half), (half, 0)), qdual_coeff=0
        )
        assert middle_pair(q_dual(), cls) == 25 * bb_pair(E1, F1) == 25

    def test_square_against_square(self):
        cls = square_class(H)
        assert middle_pair(cls, cls) == quad_product(H, H, H, H) == 12

    def test_square_class_of_a_non_vector_raises_value_error(self):
        with pytest.raises(ValueError, match="integer vector of length 23"):
            square_class(5)

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(77)
        basis = (H, DELTA)
        for _ in range(20):
            def rand_class():
                c = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)]
                c[1][0] = c[0][1]
                return MiddleClass(basis, tuple(tuple(r) for r in c),
                                   Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

            x, y, z = rand_class(), rand_class(), rand_class()
            assert middle_pair(x, y) == middle_pair(y, x)
            s = Fraction(3, 2)
            combo = MiddleClass(
                basis,
                tuple(
                    tuple(s * y.tensor[i][j] + z.tensor[i][j] for j in range(2))
                    for i in range(2)
                ),
                s * y.qdual_coeff + z.qdual_coeff,
            )
            assert middle_pair(x, combo) == s * middle_pair(x, y) + middle_pair(x, z)

    def test_basis_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bases"):
            middle_pair(square_class(H), square_class(DELTA))
        rng = random.Random(100)
        for n in (1, 2, 3, 4):
            x, y = (
                random_middle_class(rng, tuple(random_ambient(rng, 4) for _ in range(n)), True)
                for _ in range(2)
            )
            assert x.has_tensor_part and y.has_tensor_part and x.basis != y.basis
            with pytest.raises(ValueError, match="different bases"):
                middle_pair(x, y)

    def test_pure_qdual_multiple_is_basis_agnostic(self):
        cls = square_class(H, coeff=0, qdual_coeff=2)
        assert middle_pair(cls, square_class(DELTA)) == 2 * 25 * (-2)

    def test_tensor_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            MiddleClass((E1, F1), ((0, 1), (0, 0)), 0)
        with pytest.raises(ValueError, match="shape"):
            MiddleClass((E1,), ((0, 1),), 0)


class TestChernPairing:
    def test_examples(self):
        assert c2_pair(H, H) == 60
        assert c2_pair(E1, E1) == 0
        assert c2_pair(DELTA, DELTA) == -60

    def test_proportional_to_form(self):
        rng = random.Random(4)
        for _ in range(30):
            a, b = random_ambient(rng, 4), random_ambient(rng, 4)
            assert c2_pair(a, b) == 30 * bb_pair(a, b)


class TestFujiki:
    def test_examples(self):
        assert fujiki_check(H)
        assert fujiki_check(DELTA)
        assert fujiki_check(E1)

    def test_thousand_random_vectors(self):
        rng = random.Random(99)
        for _ in range(1000):
            assert fujiki_check(random_ambient(rng, 50))


class TestLagrangianSolver:
    def test_eliminant(self):
        assert lagrangian_eliminant() == (23, 20, -2100)

    def test_roots(self):
        roots = sorted(s.lambda_square for s in lagrangian_solver())
        assert roots == [Fraction(-10), Fraction(210, 23)]

    def test_admissible_solution(self):
        sols = lagrangian_solver()
        assert sols[0].admissible
        assert sols[0].lambda_square == -10
        assert sols[0].a == Fraction(1, 20)
        assert sols[0].b == Fraction(1, 8)
        assert not sols[1].admissible

    def test_both_solutions_satisfy_all_equations(self):
        for sol in lagrangian_solver():
            assert sol.residuals() == (0, 0, 0)

    def test_roots_solve_eliminant(self):
        qa, qb, qc = lagrangian_eliminant()
        for sol in lagrangian_solver():
            x = sol.lambda_square
            assert qa * x * x + qb * x + qc == 0

    def test_sympy_solves_the_same_system(self):
        # the three plane conditions solved symbolically, independently of
        # the package's closed form: [P].[P] = 3, c2.[P] = -3, lambda^2.[P] = x^2 / 4
        sympy = pytest.importorskip("sympy")
        x, a, b = sympy.symbols("x a b")
        equations = [
            575 * a**2 + 50 * a * b * x + 3 * b**2 * x**2 - 3,
            sympy.Rational(6, 5) * (575 * a + 25 * b * x) + 3,
            25 * a * x + 3 * b * x**2 - x**2 / 4,
        ]
        expected = {
            (Fraction(str(s[x])), Fraction(str(s[a])), Fraction(str(s[b])))
            for s in sympy.solve(equations, [x, a, b], dict=True)
        }
        assert expected == {
            (Fraction(-10), Fraction(1, 20), Fraction(1, 8)),
            (Fraction(210, 23), Fraction(-27, 460), Fraction(23, 168)),
        }
        assert {(s.lambda_square, s.a, s.b) for s in lagrangian_solver()} == expected

    def test_consistency_with_middle_pairing(self):
        # with lambda a concrete (-10)-class: [plane] = a q + b lambda^2
        sol = lagrangian_solver()[0]
        plane = square_class(LAMBDA_PLANE, coeff=sol.b, qdual_coeff=sol.a)
        assert middle_pair(plane, plane) == 3
        lam_sq = square_class(LAMBDA_PLANE)
        assert middle_pair(lam_sq, plane) == 25
        assert middle_pair(lam_sq, plane) == sol.lambda_square**2 / 4


class TestLineClass:
    def test_plane_class_example(self):
        line = line_class_of_plane(LAMBDA_PLANE)
        assert line.denominator == 2
        assert line.square == Fraction(-5, 2)

    def test_wrong_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            line_class_of_plane(DELTA)

    def test_imprimitive_rejected(self):
        doubled = tuple(2 * x for x in DELTA)
        with pytest.raises(ValueError):
            line_class_of_plane(doubled)

    def test_wrong_divisibility_rejected(self):
        # square -10 with divisibility 1
        v = vector_from_labels({"e1": 1, "f1": -3, "delta": 2})
        assert bb_pair(v, v) == -14
        w = vector_from_labels({"e1": 1, "f1": -1, "delta": 2})
        assert bb_pair(w, w) == -10
        with pytest.raises(ValueError, match="divisibility"):
            line_class_of_plane(w)

    def test_non_vector_raises_value_error(self):
        with pytest.raises(ValueError, match="integer vector of length 23"):
            line_class_of_plane(5)
