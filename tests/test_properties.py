"""Property tests: Picard-coordinate divisibility, slice bases and wall-list invariants."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwall import (
    K3_2_LATTICE,
    AmpleStatus,
    PicardLattice,
    PreconditionError,
    WallQuery,
    enumerate_walls,
    is_ample,
    level_bound,
    nef_threshold,
    validate_polarization,
)
from hyperwall.enumeration import DEFAULT_TARGETS, _SliceContext
from lattice_fixtures import cofactor_det, random_hyperbolic_picard, random_polarized_pair

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
ranks = st.integers(min_value=2, max_value=4)
# three squares in one walk, each with its own level cap
MIXED_TARGETS = ((-2, 1), (-6, 2), (-10, 2))


def nonzero_vectors(rank):
    return st.lists(
        st.integers(min_value=-30, max_value=30), min_size=rank, max_size=rank
    ).filter(any).map(tuple)


@st.composite
def lattice_and_vector(draw):
    rank = draw(st.integers(min_value=1, max_value=5))
    pic = random_hyperbolic_picard(random.Random(draw(seeds)), rank)
    return pic, draw(nonzero_vectors(rank))


@st.composite
def unimodular(draw, rank):
    """A random product of elementary integer row operations."""
    mat = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        if i == j:
            mat[i] = [-x for x in mat[i]]
        else:
            c = draw(st.integers(min_value=-2, max_value=2))
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return mat


def ambient_walls(pic, g, m):
    return [w.rho_ambient for w in enumerate_walls(WallQuery(pic, g, m=m))]


class TestPicardDivisibility:
    @PROPERTY_SETTINGS
    @given(lattice_and_vector())
    def test_equals_ambient_divisibility(self, case):
        pic, x = case
        assert pic._divisibility(x) == K3_2_LATTICE.divisibility(pic.to_ambient(x))

    @PROPERTY_SETTINGS
    @given(lattice_and_vector())
    def test_primitive_exactly_when_ambient_image_is(self, case):
        pic, x = case
        assert (gcd(*x) == 1) == (gcd(*pic.to_ambient(x)) == 1)


class TestSliceBasis:
    @PROPERTY_SETTINGS
    @given(st.integers(min_value=2, max_value=5), seeds)
    def test_reduced_kernel_keeps_the_slicing(self, rank, seed):
        rng = random.Random(seed)
        pic = random_hyperbolic_picard(rng, rank)
        g, m = random_polarized_pair(rng, pic)
        for ctx in (_SliceContext(pic, g), _SliceContext(pic, g, m)):
            nk = len(ctx.kernel)
            assert all(pic.pair(row, g) == 0 for row in ctx.kernel)
            assert pic.pair(ctx.u, g) == ctx.d
            assert cofactor_det(ctx.kernel + [ctx.u]) in (1, -1)
        if not ctx.m_step:  # m proportional to g: no slice along m
            assert all(pic.pair(row, m) == 0 for row in ctx.kernel)
            return
        assert all(pic.pair(row, m) == 0 for row in ctx.kernel[: nk - 1])
        assert pic.pair(ctx.kernel[-1], m) == ctx.m_step > 0
        assert pic.pair(ctx.u, m) == ctx.u_m


class TestWallInvariants:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_unimodular_basis_change_maps_walls_bijectively(self, data):
        rank = data.draw(ranks)
        rng = random.Random(data.draw(seeds))
        pic = random_hyperbolic_picard(rng, rank)
        g, m = random_polarized_pair(rng, pic)
        u = data.draw(unimodular(rank))
        moved = PicardLattice([pic.to_ambient(row) for row in u])

        def coords(x):
            return tuple(int(c) for c in moved.from_ambient(pic.to_ambient(x)))

        walls = ambient_walls(pic, g, m)
        moved_walls = ambient_walls(moved, coords(g), coords(m))
        assert len(moved_walls) == len(walls)
        assert set(moved_walls) == set(walls)

    @PROPERTY_SETTINGS
    @given(ranks, seeds)
    def test_no_opposite_pairs(self, rank, seed):
        rng = random.Random(seed)
        pic = random_hyperbolic_picard(rng, rank)
        g, m = random_polarized_pair(rng, pic)
        walls = set(ambient_walls(pic, g, m))
        assert not any(tuple(-c for c in rho) in walls for rho in walls)


class TestSingleWalk:
    """One solutions() call walks every level and every target square."""

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_equals_the_union_of_one_level_calls(self, data):
        rank = data.draw(st.integers(min_value=2, max_value=5))
        rng = random.Random(data.draw(seeds))
        pic = random_hyperbolic_picard(rng, rank)
        g, m = random_polarized_pair(rng, pic)
        squares = {s for s, _ in data.draw(st.sampled_from([DEFAULT_TARGETS, MIXED_TARGETS]))}
        if data.draw(st.booleans()):
            ctx = _SliceContext(pic, g, m)
            caps = {s: level_bound(pic, g, m, s) for s in squares}
        else:
            ctx = _SliceContext(pic, g)
            caps = {s: data.draw(st.integers(min_value=0, max_value=12)) for s in squares}
        first = data.draw(st.integers(min_value=0, max_value=1))
        expected = sorted(
            (s, x)
            for s, cap in caps.items()
            for k in range(first, cap + 1)
            for _, x in ctx.solutions({s: k}, first=k)
        )
        assert ctx.solutions(caps, first=first) == expected


class TestEvenSquares:
    """The divisibility congruence tested at the hit drops exactly the odd ones."""

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_equals_the_plain_walk_without_odd_hits(self, data):
        rank = data.draw(st.integers(min_value=2, max_value=5))
        rng = random.Random(data.draw(seeds))
        pic = random_hyperbolic_picard(rng, rank)
        g, m = random_polarized_pair(rng, pic)
        squares = sorted({s for s, _ in data.draw(st.sampled_from([DEFAULT_TARGETS, MIXED_TARGETS]))})
        if data.draw(st.booleans()):
            ctx = _SliceContext(pic, g, m)
            caps = {s: level_bound(pic, g, m, s) for s in squares}
        else:
            ctx = _SliceContext(pic, g)
            caps = {s: data.draw(st.integers(min_value=0, max_value=12)) for s in squares}
        first = data.draw(st.integers(min_value=0, max_value=1))
        even = set(data.draw(st.lists(st.sampled_from(squares), unique=True)))
        expected = [
            (s, x) for s, x in ctx.solutions(caps, first=first)
            if s not in even or pic._divisibility(x) % 2 == 0
        ]
        assert ctx.solutions(caps, first, even=even) == expected


def segment_verdict(pic, g, m, a, b):
    """is_ample on a*m + b*g, the segment class at t = a/(a+b) up to scale."""
    return is_ample(pic, g, tuple(a * mi + b * gi for mi, gi in zip(m, g))).status


class TestSegmentVerdicts:
    @PROPERTY_SETTINGS
    @given(ranks, seeds, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    def test_verdict_agrees_with_the_nef_threshold(self, rank, seed, a, b):
        rng = random.Random(seed)
        pic = random_hyperbolic_picard(rng, rank)
        while True:
            g, m = random_polarized_pair(rng, pic)
            try:
                validate_polarization(pic, g)
            except PreconditionError:
                continue
            break
        tau, _ = nef_threshold(pic, g, m)
        t = Fraction(a, a + b)
        if t < tau:
            expected = AmpleStatus.AMPLE
        elif t == tau:
            expected = AmpleStatus.NEF_BOUNDARY
        else:
            expected = AmpleStatus.NOT_NEF
        assert segment_verdict(pic, g, m, a, b) is expected
        if tau < 1:  # the threshold itself lies on a wall
            a, b = tau.numerator, tau.denominator - tau.numerator
            assert segment_verdict(pic, g, m, a, b) is AmpleStatus.NEF_BOUNDARY
