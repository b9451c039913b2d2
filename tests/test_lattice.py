import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

import pytest

from hyperwall import (
    AMBIENT_RANK,
    BASIS_LABELS,
    K3_2_LATTICE,
    AmbientLattice,
    PicardLattice,
    admissible_square_div,
    basis_vector,
    bb_pair,
    divisibility,
    dual_class,
    make_k3_2_lattice,
    signature_of,
    vector_from_labels,
)
from hyperwall.lattice import _as_vector
from lattice_fixtures import DELTA, H, LAMBDA_PLANE, cofactor_det, rank2_picard

E1 = basis_vector("e1")
F1 = basis_vector("f1")


def random_ambient(rng, bound=10):
    return tuple(rng.randint(-bound, bound) for _ in range(AMBIENT_RANK))


class TestGramConstruction:
    def test_shape_and_labels(self):
        lat = make_k3_2_lattice()
        assert lat.rank == 23
        assert len(lat.basis_labels) == 23
        assert lat.basis_labels == BASIS_LABELS

    def test_one_lattice_built_from_no_arguments(self):
        assert make_k3_2_lattice() is K3_2_LATTICE
        assert AmbientLattice().gram == K3_2_LATTICE.gram

    def test_gram_is_tuples_and_the_determinant_an_int(self):
        assert type(K3_2_LATTICE.gram) is tuple
        assert all(type(row) is tuple for row in K3_2_LATTICE.gram)
        det = K3_2_LATTICE.determinant()
        assert det == 2 and type(det) is int
        assert K3_2_LATTICE.signature() == (3, 20, 0)

    def test_hyperbolic_blocks(self):
        assert bb_pair(E1, F1) == 1
        assert bb_pair(E1, E1) == 0
        assert bb_pair(basis_vector("e2"), basis_vector("f2")) == 1
        assert bb_pair(basis_vector("e3"), basis_vector("f3")) == 1

    def test_delta_block(self):
        assert bb_pair(DELTA, DELTA) == -2
        assert bb_pair(DELTA, E1) == 0

    def test_blocks_are_orthogonal(self):
        assert bb_pair(E1, basis_vector("E8a_1")) == 0
        assert bb_pair(basis_vector("E8a_1"), basis_vector("E8b_1")) == 0
        assert bb_pair(basis_vector("E8b_4"), DELTA) == 0

    def test_e8_block_is_negated_bourbaki_cartan(self):
        # Bourbaki E8 bonds: 1-3, 2-4, 3-4, 4-5, 5-6, 6-7, 7-8
        bonds = {(1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)}
        for prefix in ("E8a", "E8b"):
            for i in range(1, 9):
                vi = basis_vector(f"{prefix}_{i}")
                assert bb_pair(vi, vi) == -2
                for j in range(i + 1, 9):
                    vj = basis_vector(f"{prefix}_{j}")
                    expected = 1 if (i, j) in bonds else 0
                    assert bb_pair(vi, vj) == expected

    def test_e8_block_unimodular(self):
        # the E8 Cartan matrix has determinant 1 (cofactor-expansion oracle)
        block = [
            [K3_2_LATTICE.gram[6 + i][6 + j] for j in range(8)] for i in range(8)
        ]
        assert cofactor_det(block) == 1
        assert cofactor_det([[-x for x in row] for row in block]) == 1

    def test_determinant_from_block_product(self):
        # det = det(U)^3 * det(-E8)^2 * det(<-2>) = (-1)^3 * 1 * (-2) = 2
        u_det = cofactor_det([[0, 1], [1, 0]])
        assert u_det == -1
        assert K3_2_LATTICE.determinant() == u_det**3 * 1 * (-2) == 2

    def test_signature(self):
        assert K3_2_LATTICE.signature() == (3, 20, 0)


class TestBbPair:
    def test_square_of_hyperbolic_sum(self):
        assert bb_pair(H, H) == 2

    def test_plane_class_square(self):
        assert bb_pair(LAMBDA_PLANE, LAMBDA_PLANE) == -10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bb_pair((1, 2, 3), E1)

    def test_non_integer_entries_rejected(self):
        bad = [0.5] + [0] * 22
        with pytest.raises(ValueError):
            bb_pair(bad, E1)

    def test_symmetric_bilinear(self):
        rng = random.Random(101)
        for _ in range(50):
            a, b, c = (random_ambient(rng) for _ in range(3))
            s, t = rng.randint(-4, 4), rng.randint(-4, 4)
            assert bb_pair(a, b) == bb_pair(b, a)
            combo = tuple(s * bi + t * ci for bi, ci in zip(b, c))
            assert bb_pair(a, combo) == s * bb_pair(a, b) + t * bb_pair(a, c)

    def test_matches_the_dense_gram_product(self):
        # the sparse row sums against gram . v, on dense and sparse vectors
        gram = K3_2_LATTICE.gram
        rng = random.Random(57)
        for density in (1.0, 0.2, 0.05) * 20:
            a, b = (
                tuple(rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(AMBIENT_RANK))
                for _ in range(2)
            )
            dense = tuple(sum(x * y for x, y in zip(row, b)) for row in gram)
            assert K3_2_LATTICE.gram_times(b) == dense
            assert bb_pair(a, b) == sum(x * y for x, y in zip(a, dense))

    def test_even_valued(self):
        rng = random.Random(55)
        for _ in range(200):
            v = random_ambient(rng)
            assert bb_pair(v, v) % 2 == 0


class TestDivisibility:
    def test_examples(self):
        assert divisibility(DELTA) == 2
        assert divisibility(E1) == 1
        assert divisibility(LAMBDA_PLANE) == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            divisibility((0,) * 23)

    def test_scales_linearly(self):
        rng = random.Random(7)
        for _ in range(30):
            v = random_ambient(rng, 5)
            if not any(v):
                continue
            k = rng.randint(1, 5)
            assert divisibility(tuple(k * x for x in v)) == k * divisibility(v)

    def test_divisibility_two_congruence(self):
        # vectors 2w + a*delta with a odd: square is -2 mod 8, 10^4 samples
        rng = random.Random(2024)
        count = 0
        while count < 10_000:
            w = [rng.randint(-9, 9) for _ in range(22)] + [0]
            a = 2 * rng.randint(-5, 5) + 1
            v = tuple(2 * wi for wi in w[:-1]) + (a,)
            div = divisibility(v)
            assert div % 2 == 0
            square = bb_pair(v, v)
            assert square % 8 == 6, (v, square)
            count += 1


class TestDualClass:
    def test_half_integral_case(self):
        r = dual_class(DELTA)
        assert r.denominator == 2
        assert r.square == Fraction(-1, 2)

    def test_integral_case(self):
        v = vector_from_labels({"e1": 1, "delta": 1})
        assert bb_pair(v, v) == -2
        r = dual_class(v)
        assert r.denominator == 1
        assert r.square == -2

    def test_plane_case(self):
        r = dual_class(LAMBDA_PLANE)
        assert r.denominator == 2
        assert r.square == Fraction(-5, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            dual_class((0,) * 23)

    def test_non_primitive_rejected(self):
        # 3*delta has divisibility 6; no clamp may turn it into a curve class
        with pytest.raises(ValueError, match="gcd 3"):
            dual_class(tuple(3 * x for x in DELTA))

    def test_square_times_div_squared(self):
        rng = random.Random(31)
        checked = 0
        while checked < 200:
            v = random_ambient(rng, 4)
            if not any(v):
                continue
            div = divisibility(v)
            if div > 2:
                continue
            r = dual_class(v)
            assert r.square * div**2 == bb_pair(v, v)
            checked += 1


class TestAdmissibility:
    def test_examples(self):
        assert admissible_square_div(-4, 2) is False
        assert admissible_square_div(-2, 2) is True
        assert admissible_square_div(-10, 2) is True
        assert admissible_square_div(-3, 1) is False
        assert admissible_square_div(-4, 1) is True

    def test_invalid_div(self):
        with pytest.raises(ValueError):
            admissible_square_div(-2, 3)

    def test_against_exhaustive_box_search(self):
        # Realization search inside the U + <-2> sublattice spanned by
        # e1, f1, delta: every realizable (square, div) with square in
        # [-12, 0) is realized there by a primitive vector with |coords|<=3.
        found = {}
        for x, y, a in itertools.product(range(-3, 4), repeat=3):
            if (x, y, a) == (0, 0, 0) or math.gcd(x, y, a) != 1:
                continue
            v = vector_from_labels({"e1": x, "f1": y, "delta": a})
            square = bb_pair(v, v)
            if -12 <= square < 0:
                found[(square, divisibility(v))] = v
        for square in range(-12, 0):
            for div in (1, 2):
                assert admissible_square_div(square, div) == (
                    (square, div) in found
                ), (square, div)


class TestSignatureOf:
    def test_hyperbolic_plane(self):
        assert signature_of([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_negated_e8(self):
        block = [
            [K3_2_LATTICE.gram[6 + i][6 + j] for j in range(8)] for i in range(8)
        ]
        assert signature_of(block) == (0, 8, 0)

    def test_full_lattice(self):
        assert signature_of(K3_2_LATTICE.gram) == (3, 20, 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            signature_of([[0, 1], [2, 0]])


Point3 = namedtuple("Point3", "x y z")
NOT_A_VECTOR = "expected an integer vector of length 3"
NOT_INTEGERS = "vector entries must be plain integers"


class TestAsVector:
    """What every public vector argument accepts, and each error message."""

    @pytest.mark.parametrize(
        "v,expected",
        [
            ((1, -2, 3), (1, -2, 3)),
            ([1, -2, 3], (1, -2, 3)),
            (Point3(1, -2, 3), (1, -2, 3)),
            (range(3), (0, 1, 2)),
        ],
        ids=["tuple", "list", "namedtuple", "range"],
    )
    def test_accepted(self, v, expected):
        out = _as_vector(v, 3)
        assert out == expected and type(out) is tuple

    @pytest.mark.parametrize(
        "v,message",
        [
            ("123", NOT_A_VECTOR),
            (b"\x01\x02\x03", NOT_A_VECTOR),
            ((x for x in (1, -2, 3)), NOT_A_VECTOR),
            ({1, 2, 3}, NOT_A_VECTOR),
            (None, NOT_A_VECTOR),
            ((True, 0, 1), NOT_INTEGERS),
            ([1, False, 1], NOT_INTEGERS),
            ((1.0, 2, 3), NOT_INTEGERS),
            ([1, 2, Fraction(3)], NOT_INTEGERS),
            ((1, 2), NOT_A_VECTOR + ", got length 2"),
            ([1, 2, 3, 4], NOT_A_VECTOR + ", got length 4"),
            (range(4), NOT_A_VECTOR + ", got length 4"),
        ],
        ids=[
            "str", "bytes", "generator", "set", "none", "bool-tuple", "bool-list",
            "float", "fraction", "short-tuple", "long-list", "long-range",
        ],
    )
    def test_rejected(self, v, message):
        with pytest.raises(ValueError) as info:
            _as_vector(v, 3)
        assert str(info.value) == message


NOT_SYMMETRIC = "matrix is not symmetric"
NOT_ROWS = "a Gram matrix must be a sequence of integer rows"


class TestGramBoundary:
    """signature_of is the one entry that takes a user matrix: it passes the
    rational_linalg kernels, which check nothing, a square, symmetric matrix
    of plain ints and rejects anything else."""

    BAD_GRAMS = [
        (((Fraction(1, 2),),), NOT_INTEGERS),
        (((1.0,),), NOT_INTEGERS),
        ([[Fraction(1, 2), 0], [0, -1]], NOT_INTEGERS),
        ([[1, 0, 0], [0, 1, 0], [0, Fraction(1, 2), 1]], NOT_INTEGERS),
        ([[True]], NOT_INTEGERS),
        (5, NOT_ROWS),
        (None, NOT_ROWS),
        ("ab", "expected an integer vector of length 2"),
        ([[1, 2, 3], [4, 5, 6]], "expected an integer vector of length 2, got length 3"),
        ([[1, 2], [3]], "expected an integer vector of length 2, got length 1"),
        ([[0, 1], [2, 0]], NOT_SYMMETRIC),
        ([[1, 2], [3, 4]], NOT_SYMMETRIC),
    ]
    IDS = [
        "fraction-1x1", "float", "fraction-2x2", "fraction-3x3", "bool", "int", "none", "str",
        "non-square", "ragged", "asymmetric", "asymmetric-diagonal",
    ]

    @pytest.mark.parametrize("gram,message", BAD_GRAMS, ids=IDS)
    def test_signature_of_rejects(self, gram, message):
        with pytest.raises(ValueError) as info:
            signature_of(gram)
        assert str(info.value) == message


class TestLabels:
    @pytest.mark.parametrize("label", ["zz", "E1", 5, None, ("e1",)])
    def test_unknown_label(self, label):
        for call in (lambda: basis_vector(label), lambda: vector_from_labels({"e1": 1, label: 1})):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"unknown basis label {label!r}"

    @pytest.mark.parametrize(
        "coeffs,message",
        [
            (5, "expected a mapping of basis labels to plain integers, got 5"),
            (None, "expected a mapping of basis labels to plain integers, got None"),
            (["e1"], "expected a mapping of basis labels to plain integers, got ['e1']"),
            ({"e1": 1.5}, "the coefficient of 'e1' must be a plain integer, got 1.5"),
            ({"e1": True}, "the coefficient of 'e1' must be a plain integer, got True"),
            ({"e1": Fraction(1)}, "the coefficient of 'e1' must be a plain integer, got Fraction(1, 1)"),
        ],
        ids=["int", "none", "list", "float", "bool", "fraction"],
    )
    def test_vector_from_labels_rejects(self, coeffs, message):
        with pytest.raises(ValueError) as info:
            vector_from_labels(coeffs)
        assert str(info.value) == message


class TestPicardLattice:
    def test_gram_is_derived_from_embedding(self):
        pic = rank2_picard()
        assert pic.gram == ((2, 0), (0, -2))
        assert pic.rank == 2

    @pytest.mark.parametrize("basis", [5, None])
    def test_non_iterable_basis_rejected(self, basis):
        with pytest.raises(ValueError, match="Picard basis must be an iterable"):
            PicardLattice(basis)

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            PicardLattice([H, tuple(2 * x for x in H)])

    def test_non_saturated_basis_rejected(self):
        # span(h+E, h-E) has index 2 in span(h, E), which is saturated
        h = vector_from_labels({"e1": 1, "f1": 2})
        e = basis_vector("E8a_1")
        plus = tuple(x + y for x, y in zip(h, e))
        minus = tuple(x - y for x, y in zip(h, e))
        with pytest.raises(ValueError, match="index 2"):
            PicardLattice([plus, minus])
        with pytest.raises(ValueError, match="index 3"):
            PicardLattice([h, tuple(3 * x for x in e)])
        assert PicardLattice([plus, e]).rank == 2

    def test_unchecked_methods_agree_with_public_ones(self):
        pic = PicardLattice([H, DELTA, basis_vector("E8a_1")])
        rng = random.Random(5)
        for _ in range(20):
            x = tuple(rng.randint(-5, 5) for _ in range(3))
            y = tuple(rng.randint(-5, 5) for _ in range(3))
            assert pic._pair(x, y) == pic.pair(x, y)
            assert pic._gram_times(x) == pic.gram_times(x)
            assert pic._to_ambient(x) == pic.to_ambient(x)
            amb = pic.to_ambient(x)
            assert K3_2_LATTICE._gram_times(amb) == K3_2_LATTICE.gram_times(amb)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            PicardLattice([])

    def test_ambient_round_trip(self):
        pic = PicardLattice([H, DELTA, basis_vector("E8a_1")])
        coords = (2, -1, 3)
        amb = pic.to_ambient(coords)
        back = pic.from_ambient(amb)
        assert back == tuple(Fraction(c) for c in coords)

    def test_from_ambient_outside_span(self):
        pic = rank2_picard()
        assert pic.from_ambient(basis_vector("e2")) is None

    def test_pair_matches_ambient(self):
        pic = rank2_picard()
        rng = random.Random(9)
        for _ in range(20):
            x = (rng.randint(-5, 5), rng.randint(-5, 5))
            y = (rng.randint(-5, 5), rng.randint(-5, 5))
            assert pic.pair(x, y) == bb_pair(pic.to_ambient(x), pic.to_ambient(y))

    def test_hyperbolic_check(self):
        assert rank2_picard().is_hyperbolic()
        negdef = PicardLattice([DELTA, basis_vector("E8a_1")])
        assert not negdef.is_hyperbolic()
