"""Property tests: Picard-coordinate divisibility, slice bases and wall-list invariants."""

import ast
import itertools
import random
import re
from fractions import Fraction
from math import gcd

import pytest
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
    vector_from_labels,
)
from hyperwall.enumeration import DEFAULT_TARGETS, _target_groups
from lattice_fixtures import (
    PRUNING_TARGETS,
    cofactor_det,
    fraction_ldl,
    fraction_solve,
    orthogonal_polarization,
    random_hyperbolic_picard,
    random_polarized_pair,
    slice_context,
    unpruned_walls,
)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
ranks = st.integers(min_value=2, max_value=4)
# three squares in one walk, each with its own level cap
MIXED_TARGETS = ((-2, 1), (-6, 2), (-10, 2))
# twice a (-2) class of divisibility 1 has square -8 and divisibility 2: a
# hit of the (-8, 2) walk that is not primitive, hence not a wall
NON_PRIMITIVE_TARGETS = ((-8, 2), (-10, 2))


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


def parity_readout(pic, x) -> int:
    """XOR of the parity masks over the odd coordinates of x."""
    out = 0
    for c, mask in zip(x, pic._parity_masks):
        if c & 1:
            out ^= mask
    return out


class TestPicardDivisibility:
    @PROPERTY_SETTINGS
    @given(lattice_and_vector())
    def test_equals_ambient_divisibility(self, case):
        pic, x = case
        div = K3_2_LATTICE.divisibility(pic.to_ambient(x))
        # the readout is the divisibility mod 2 of every vector
        assert (parity_readout(pic, x) == 0) == (div % 2 == 0)
        # and all of it for a primitive one: the discriminant group is Z/2
        if gcd(*x) == 1:
            assert div == (1 if parity_readout(pic, x) else 2)

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
        for ctx in (slice_context(pic, g), slice_context(pic, g, m)):
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
            ctx = slice_context(pic, g, m)
            caps = {s: level_bound(pic, g, m, s) for s in squares}
        else:
            ctx = slice_context(pic, g)
            caps = {s: data.draw(st.integers(min_value=0, max_value=12)) for s in squares}
        first = data.draw(st.integers(min_value=0, max_value=1))
        expected = sorted(
            hit
            for s, cap in caps.items()
            for k in range(first, cap + 1)
            for hit in ctx.solutions({s: k}, first=k)
        )
        assert sorted(ctx.solutions(caps, first=first)) == expected


class TestEvenSquares:
    """The divisibility congruence tested at the hit drops exactly the odd
    ones, and the residue a hit carries is 0 exactly when it is even."""

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_equals_the_plain_walk_without_odd_hits(self, data):
        rank = data.draw(st.integers(min_value=2, max_value=5))
        rng = random.Random(data.draw(seeds))
        pic = random_hyperbolic_picard(rng, rank)
        g, m = random_polarized_pair(rng, pic)
        squares = sorted({s for s, _ in data.draw(st.sampled_from([DEFAULT_TARGETS, MIXED_TARGETS]))})
        if data.draw(st.booleans()):
            ctx = slice_context(pic, g, m)
            caps = {s: level_bound(pic, g, m, s) for s in squares}
        else:
            ctx = slice_context(pic, g)
            caps = {s: data.draw(st.integers(min_value=0, max_value=12)) for s in squares}
        first = data.draw(st.integers(min_value=0, max_value=1))
        even = set(data.draw(st.lists(st.sampled_from(squares), unique=True)))

        def even_div(x):
            return K3_2_LATTICE.divisibility(pic.to_ambient(x)) % 2 == 0

        plain = ctx.solutions(caps, first=first)
        expected = sorted((s, x) for s, x, _ in plain if s not in even or even_div(x))
        hits = ctx.solutions(caps, first, even=even)
        assert sorted((s, x) for s, x, _ in hits) == expected
        # the residue is exact at every hit, with or without pruning
        for _, x, res in plain + hits:
            assert (res == 0) == even_div(x)


class TestWalkOrder:
    """The walk-ordered context data against the level-ordered layout it
    replaced: coordinates t = (t_0, ..., t_{nk-1}, scale), centre row i
    padded with zeros in the columns j <= i and the centre last."""

    @PROPERTY_SETTINGS
    @given(st.integers(min_value=1, max_value=5), seeds, st.booleans(), st.data())
    def test_trimmed_rows_equal_the_padded_rows(self, rank, seed, with_m, data):
        rng = random.Random(seed)
        pic = random_hyperbolic_picard(rng, rank)
        g, m = ((1,), None) if rank == 1 else random_polarized_pair(rng, pic)
        ctx = slice_context(pic, g, m if with_m else None)
        kernel, u, nk = ctx.kernel, ctx.u, len(ctx.kernel)
        neg_gram = [[-pic.pair(a, b) for b in kernel] for a in kernel]
        base = [pic.pair(u, b) for b in kernel]
        _, coef = fraction_ldl(neg_gram)
        p_base = fraction_solve(neg_gram, base)
        t = data.draw(st.lists(st.integers(-50, 50), min_size=nk + 1, max_size=nk + 1))
        w = t[::-1]  # (scale, t_{nk-1}, ..., t_0)
        for i in range(nk):
            den = ctx.denoms[nk - i]
            centre = p_base[i] + sum(coef[i][j] * p_base[j] for j in range(i + 1, nk))
            padded = [0] * (i + 1) + [-den * c for c in coef[i][i + 1:]] + [den * centre]
            trimmed = ctx.centre_rows[nk - i]
            assert len(trimmed) == nk - i
            assert sum(a * b for a, b in zip(trimmed, w)) == sum(a * b for a, b in zip(padded, t))
        # x = columns . w is the vector sum_j t_j kernel_j + scale*u
        x = [sum(c * b for c, b in zip(col, w)) for col in ctx.columns]
        assert x == [sum(c * row[a] for c, row in zip(t, [*kernel, u])) for a in range(rank)]


class TestParityPruning:
    """The GF(2) residue test at each descent node against brute force."""

    @PROPERTY_SETTINGS
    @given(st.integers(min_value=1, max_value=5), seeds, st.booleans())
    def test_residue_test_is_exactly_an_even_completion(self, rank, seed, with_m):
        rng = random.Random(seed)
        pic = random_hyperbolic_picard(rng, rank)
        if rank == 1:
            g, m = (1,), None
        else:
            g, m = random_polarized_pair(rng, pic)
        ctx = slice_context(pic, g, m if with_m else None)
        coords, rho = ctx._parity()
        nk = len(ctx.kernel)
        # walk order: position p holds level nk - p, the scale at 0
        assert nk <= 4 and rho[nk] == 0 and coords[nk + 1] == 0
        columns = [*ctx.kernel, ctx.u]

        def even(bits):
            # x = sum of the columns t_j is odd, as an ambient vector
            x = [sum(c[a] for bit, c in zip(bits, columns) if bit) for a in range(rank)]
            return all(p % 2 == 0 for p in K3_2_LATTICE.gram_times(pic.to_ambient(x)))

        # level i: (t_i, ..., t_{nk-1}, scale) fixed mod 2, t_0 .. t_{i-1} free
        for i in range(nk + 1):
            for fixed in itertools.product((0, 1), repeat=nk + 1 - i):
                residue = 0
                for j, bit in enumerate(fixed, start=i):
                    if bit:
                        residue ^= coords[nk - j]
                completes = any(even(free + fixed) for free in itertools.product((0, 1), repeat=i))
                assert (residue >> rho[nk - i] == 0) == completes

    @PROPERTY_SETTINGS
    @given(st.integers(min_value=2, max_value=5), seeds, st.sampled_from(PRUNING_TARGETS), st.booleans())
    def test_walls_equal_the_unpruned_walk(self, rank, seed, targets, with_m):
        rng = random.Random(seed)
        pic = random_hyperbolic_picard(rng, rank)
        g, m = random_polarized_pair(rng, pic)
        m, cap = (m, None) if with_m else (None, 15)
        walls = enumerate_walls(WallQuery(pic, g, m=m, targets=targets, level_cap=cap))
        assert [(w.rho_picard, w.square, w.div) for w in walls] == unpruned_walls(pic, g, m, targets, cap)


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


def first_crossing(pic, g, m, targets=DEFAULT_TARGETS):
    """The nef threshold by definition: the least crossing k/(k - j),
    k = (rho, g), j = (rho, m), over every wall, and the walls at it."""
    walls = enumerate_walls(WallQuery(pic, g, m=m, targets=targets))
    crossings = {}
    for wall in walls:
        k, j = pic.pair(wall.rho_picard, g), pic.pair(wall.rho_picard, m)
        crossings[wall] = Fraction(k, k - j)
    tau = min(crossings.values(), default=Fraction(1))
    return tau, tuple(w for w in walls if crossings[w] == tau)


# squarefree and non-squarefree squares, walks with no even-only square,
# and (with m) levels past the cap of the only even-only square
READOUT_TARGETS = (
    DEFAULT_TARGETS,
    ((-8, 2),),
    ((-2, 1), (-2, 2), (-8, 2), (-10, 2)),
    ((-6, 1), (-6, 2)),
    ((-2, 1), (-2, 2)),
    ((-2, 2), (-6, 1), (-6, 2)),
)


class TestDivisibilityReadout:
    """Divisibility read from the walk's parity residue equals the ambient
    divisibility on the hits of the walk that prunes nothing."""

    @PROPERTY_SETTINGS
    @given(st.integers(min_value=2, max_value=5), seeds, st.sampled_from(READOUT_TARGETS), st.booleans())
    def test_walls_and_threshold_equal_the_filtered_walk(self, rank, seed, targets, with_m):
        rng = random.Random(seed)
        pic = random_hyperbolic_picard(rng, rank)
        g, m = random_polarized_pair(rng, pic)
        query_m, cap = (m, None) if with_m else (None, 15)
        expected = unpruned_walls(pic, g, query_m, targets, cap)
        walls = enumerate_walls(WallQuery(pic, g, m=query_m, targets=targets, level_cap=cap))
        assert [(w.rho_picard, w.square, w.div) for w in walls] == expected
        if not with_m:
            return
        try:
            validate_polarization(pic, g, targets)
        except PreconditionError:
            return
        # the first crossing of the filtered walk's walls, as nef_threshold reads it
        crossings = {}
        for x, _, _ in expected:
            k, j = pic.pair(x, g), pic.pair(x, m)
            crossings[x] = Fraction(k, k - j)
        tau = min(crossings.values(), default=Fraction(1))
        achieving = sorted(x for x, t in crossings.items() if t == tau)
        got_tau, got = nef_threshold(pic, g, m, targets)
        assert (got_tau, [w.rho_picard for w in got]) == (tau, achieving)


class TestBoundedNefThreshold:
    """nef_threshold walks only toward the first wall, yet finds what the
    full wall list gives."""

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_equals_the_first_crossing_of_the_full_walk(self, data):
        rank = data.draw(st.integers(min_value=2, max_value=5))
        rng = random.Random(data.draw(seeds))
        pic = random_hyperbolic_picard(rng, rank)
        g, m = random_polarized_pair(rng, pic, coeff=data.draw(st.sampled_from([2, 3, 5])))
        targets = data.draw(st.sampled_from([DEFAULT_TARGETS, MIXED_TARGETS, NON_PRIMITIVE_TARGETS]))
        try:
            validate_polarization(pic, g, targets)
        except PreconditionError:
            return
        assert nef_threshold(pic, g, m, targets) == first_crossing(pic, g, m, targets)

    @pytest.mark.parametrize(
        "basis,g,m,targets,tau,count",
        [
            # a tie at tau = 1/2 between a wall at (rho, g) = 2 and one at 4
            (
                [{"e1": 1, "f1": 9}, {"E8a_2": 1}, {"e2": 1, "f2": -1},
                 {"E8b_5": 1, "E8b_6": 1}, {"e3": 1, "f3": -3}],
                (3, -1, 1, -2, -3), (3, -3, -1, 2, -1), DEFAULT_TARGETS, Fraction(1, 2), 2,
            ),
            # four walls tie at 2/3, at (rho, g) = 4, 8, 12 and 20; those past
            # the first lie on the Cauchy-Schwarz bound of the last level
            (
                [{"e1": 1, "f1": 8}, {"e2": 1, "f2": -2}, {"E8b_3": 1},
                 {"e2": 2, "f2": -2, "delta": 1}],
                (-3, 0, -3, 2), (-2, 0, -2, -1), DEFAULT_TARGETS, Fraction(2, 3), 4,
            ),
            # tau = 1: the one wall the segment meets is orthogonal to m
            (
                [{"e1": 1, "f1": 4}, {"e2": 1, "f2": -2}, {"e3": 2, "f3": -2, "delta": 1}],
                (3, 0, 1), (2, -1, 0), DEFAULT_TARGETS, Fraction(1), 1,
            ),
            # rank 2: the clipped coordinate is the one the exact root fixes
            ([{"e1": 1, "f1": 7}, {"E8a_7": 1}], (-3, -1), (-1, 1), DEFAULT_TARGETS, Fraction(1, 2), 1),
            # (-8, 2) hits that are twice a (-2) class cross first; they are
            # no walls and must not cut off the (-10, 2) wall at 7/9
            (
                [{"e1": 1, "f1": 7}, {"delta": 1}, {"e2": 1, "f2": -1, "delta": 1},
                 {"E8a_7": 1}, {"e3": 1, "f3": -3}],
                (3, -2, 1, -3, -1), (3, 3, 3, -2, -1), NON_PRIMITIVE_TARGETS, Fraction(7, 9), 1,
            ),
        ],
        ids=["tie", "tie-on-the-level-bound", "tau-one-orthogonal-to-m", "rank-two", "non-primitive-hits"],
    )
    def test_explicit_cases(self, basis, g, m, targets, tau, count):
        pic = PicardLattice([vector_from_labels(labels) for labels in basis])
        expected = first_crossing(pic, g, m, targets)
        assert expected[0] == tau and len(expected[1]) == count
        assert nef_threshold(pic, g, m, targets) == expected
        if tau == 1:
            assert all(pic.pair(w.rho_picard, m) == 0 for w in expected[1])


LEVEL_ZERO_TARGETS = (DEFAULT_TARGETS, MIXED_TARGETS, NON_PRIMITIVE_TARGETS)


class TestLevelZeroWalk:
    """A walk of scale 0 alone finds the level-0 hits of the same context's
    walk over more scales, in the same order; sliced along m, it finds those
    of the unsliced context with (x, m) <= 0."""

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    @pytest.mark.parametrize("targets", LEVEL_ZERO_TARGETS)
    def test_hits_equal_the_full_context_at_level_zero(self, rank, targets):
        groups = _target_groups(targets)
        even = {square for square, divs in groups.items() if 1 not in divs}
        caps = dict.fromkeys(groups, 0)
        rng = random.Random(f"level0:{rank}:{targets}")
        found = 0
        for case in range(12):
            pic = random_hyperbolic_picard(rng, rank)
            g, m = random_polarized_pair(rng, pic)
            if case % 2:
                g = orthogonal_polarization(rng, pic)
            wider = dict.fromkeys(groups, 2 * gcd(*pic.gram_times(g)))
            level0 = {}
            for ctx_m in (None, m):
                ctx = slice_context(pic, g, ctx_m)
                hits = ctx.solutions(caps, 0, even)
                assert hits == [hit for hit in ctx.solutions(wider, 0, even) if pic.pair(hit[1], g) == 0]
                level0[ctx_m] = sorted((square, x) for square, x, _ in hits)
                found += len(hits)
            assert level0[m] == [hit for hit in level0[None] if pic.pair(hit[1], m) <= 0]
        assert found


class TestLevelZeroThreshold:
    """nef_threshold checks g by its own walk, clipped to (rho, m) <= 0 from
    level 0, yet raises exactly what validate_polarization raises."""

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    @pytest.mark.parametrize("targets", LEVEL_ZERO_TARGETS)
    def test_raises_the_text_of_validate_polarization(self, rank, targets):
        rng = random.Random(f"threshold0:{rank}:{targets}")
        raised = 0
        for _ in range(24):
            pic = random_hyperbolic_picard(rng, rank)
            g = orthogonal_polarization(rng, pic, squares={s for s, _ in targets})
            g, m = random_polarized_pair(rng, pic, g=g)
            try:
                validate_polarization(pic, g, targets)
            except PreconditionError as exc:
                with pytest.raises(PreconditionError) as info:
                    nef_threshold(pic, g, m, targets)
                assert str(info.value) == str(exc)
                raised += 1
            else:
                nef_threshold(pic, g, m, targets)
        assert raised


def level_zero_scan(pic, g, targets, box):
    """(x, square, div) for every primitive x in [-box, box]^rank with
    (x, g) = 0 and (square, div) a target, divisibility and primitivity
    taken on the ambient image."""
    squares = {square for square, _ in targets}
    wg = pic.gram_times(g)
    hits = []
    for x in itertools.product(range(-box, box + 1), repeat=pic.rank):
        if sum(a * b for a, b in zip(x, wg)) or pic.square(x) not in squares:
            continue
        ambient = pic.to_ambient(x)
        div = K3_2_LATTICE.divisibility(ambient)
        if gcd(*ambient) == 1 and (pic.square(x), div) in targets:
            hits.append((x, pic.square(x), div))
    return hits


NAMED_WALL = re.compile(r"orthogonal to the wall (\(.*?\)) \(square (-?\d+), divisibility (\d+)\)")


class TestLevelZeroOracle:
    """validate_polarization against a scan of a Picard box for the walls
    orthogonal to g; brute_force_walls starts at level 1 and cannot see them."""

    @PROPERTY_SETTINGS
    @given(st.integers(min_value=2, max_value=4), seeds, st.sampled_from(LEVEL_ZERO_TARGETS), st.booleans())
    def test_scan_hits_make_validation_fail(self, rank, seed, targets, orthogonal):
        rng = random.Random(seed)
        pic = random_hyperbolic_picard(rng, rank)
        g = orthogonal_polarization(rng, pic) if orthogonal else random_polarized_pair(rng, pic)[0]
        hits = level_zero_scan(pic, g, targets, box=4)
        try:
            validate_polarization(pic, g, targets)
        except PreconditionError as exc:
            match = NAMED_WALL.search(str(exc))
        else:
            assert hits == []
            return
        x, square, div = ast.literal_eval(match[1]), int(match[2]), int(match[3])
        # the named wall is orthogonal to g, primitive and of a target kind
        ambient = pic.to_ambient(x)
        assert pic.pair(x, g) == 0 and gcd(*ambient) == 1
        assert (pic.square(x), K3_2_LATTICE.divisibility(ambient)) == (square, div)
        assert (square, div) in targets
        # first in target order, then by Picard coordinates, among the scan hits
        order = list(dict.fromkeys(s for s, _ in targets))

        def key(hit):
            return order.index(hit[1]), hit[0]

        if hits:
            assert key((x, square, div)) <= min(map(key, hits))
        if max(map(abs, x)) <= 4:
            assert (x, square, div) == min(hits, key=key)
