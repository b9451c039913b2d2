"""Property tests: Picard-coordinate divisibility, slice bases and wall-list invariants."""

import random
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwall import K3_2_LATTICE, PicardLattice, WallQuery, enumerate_walls
from hyperwall.enumeration import _SliceContext
from hyperwall.rational_linalg import determinant
from lattice_fixtures import random_hyperbolic_picard, random_polarized_pair

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
ranks = st.integers(min_value=2, max_value=4)


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
            assert determinant(ctx.kernel + [ctx.u]) in (1, -1)
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
