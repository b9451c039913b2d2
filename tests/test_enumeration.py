import random
from collections import Counter
from fractions import Fraction
from math import floor, gcd, isqrt, lcm

import pytest

from hyperwall import (
    AmbientLattice,
    PicardLattice,
    WallQuery,
    basis_vector,
    bb_pair,
    brute_force_walls,
    divisibility,
    PreconditionError,
    enumerate_walls,
    is_ample,
    level_bound,
    nef_threshold,
    slice_solutions,
    validate_polarization,
    vector_from_labels,
)
from hyperwall import enumeration, rational_linalg
from hyperwall.enumeration import DEFAULT_TARGETS, _SliceContext
from hyperwall.rational_linalg import ldl_positive, linear_form_basis
from lattice_fixtures import (
    DELTA,
    FIXTURE_G,
    PRUNING_TARGETS,
    H,
    fraction_ldl,
    fraction_solve,
    ladder_picard,
    orthogonal_polarization,
    rank2_picard,
    random_hyperbolic_picard,
    random_polarized_pair,
    slice_context,
    unpruned_walls,
)


def picard_e1_f1_delta():
    # Gram [[0, 1, 0], [1, 0, 0], [0, 0, -2]]: signature (1, 2)
    return PicardLattice([basis_vector("e1"), basis_vector("f1"), DELTA])


def picard_rank3_diag():
    # Gram diag(4, -2, -2) with a divisibility-2 generator
    return PicardLattice(
        [
            vector_from_labels({"e1": 1, "f1": 2}),
            DELTA,
            vector_from_labels({"e2": 1, "f2": -1}),
        ]
    )


def wall_keys(walls):
    return [w.rho_picard for w in walls]


def wall_triples(walls):
    return [(w.rho_picard, w.square, w.div) for w in walls]


class TestSliceSolutions:
    def test_fixture_level_two(self):
        pic = rank2_picard()
        assert slice_solutions(pic, FIXTURE_G, 2, -2) == [(0, 1)]

    def test_fixture_level_eighteen(self):
        pic = rank2_picard()
        assert slice_solutions(pic, FIXTURE_G, 18, -10) == [(2, 3)]

    def test_indivisible_level_is_empty(self):
        # every level is a multiple of gcd(G g) = 2 here
        pic = rank2_picard()
        assert slice_solutions(pic, FIXTURE_G, 1, -2) == []

    def test_empty_ellipsoid(self):
        pic = rank2_picard()
        assert slice_solutions(pic, FIXTURE_G, 4, -2) == []
        assert slice_solutions(pic, FIXTURE_G, 2, -4) == []

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            slice_solutions(rank2_picard(), FIXTURE_G, 0, -2)

    @pytest.mark.parametrize("value", [1.5, True, -2.0])
    def test_non_integer_level_or_square_rejected(self, value):
        # 1.5 used to give [], True to pass as 1 and -2.0 to fail in isqrt
        pic = rank2_picard()
        with pytest.raises(ValueError, match="plain integers"):
            slice_solutions(pic, FIXTURE_G, value, -2)
        with pytest.raises(ValueError, match="plain integers"):
            slice_solutions(pic, FIXTURE_G, 2, value)

    def test_non_hyperbolic_data_rejected(self):
        # positive definite rank-2 sublattice: complement of g is positive
        pic = PicardLattice([H, vector_from_labels({"e2": 1, "f2": 1})])
        with pytest.raises(ValueError):
            slice_solutions(pic, (1, 0), 2, -2)

    def test_indefinite_kernel_past_first_minor_rejected(self):
        # g = h; the kernel is span(E8a_1, e2+f2) with Gram diag(-2, 2): its
        # negated first minor 2 is positive, the second -4 is not.  The
        # reduction must raise, not loop.
        pic = PicardLattice([H, basis_vector("E8a_1"), vector_from_labels({"e2": 1, "f2": 1})])
        assert pic.square((1, 0, 0)) > 0
        for k, square in ((2, -2), (4, -10)):
            with pytest.raises(ValueError, match="not negative definite"):
                slice_solutions(pic, (1, 0, 0), k, square)
        # sliced along m = e2+f2, the indefinite direction is the unreduced c_m
        with pytest.raises(ValueError, match="not negative definite"):
            slice_context(pic, (1, 0, 0), (0, 0, 1))

    @pytest.mark.parametrize("g", [(1, -1, 0), (0, 0, 1), (1, 0, 0)])
    def test_g_outside_the_positive_cone_rejected(self, g):
        # squares -2, -2 and 0 on a hyperbolic lattice: g is at fault, not
        # the Picard data
        with pytest.raises(ValueError, match=r"g must lie in the positive cone: \(g, g\) > 0 required"):
            slice_solutions(picard_e1_f1_delta(), g, 1, -2)

    def test_matches_direct_scan(self):
        pic = picard_rank3_diag()
        g = (2, -1, 1)
        assert pic.square(g) > 0
        for k in (1, 2, 3, 5, 8):
            for square in (-2, -4, -10):
                expected = sorted(
                    x
                    for x in (
                        (a, b, c)
                        for a in range(-12, 13)
                        for b in range(-12, 13)
                        for c in range(-12, 13)
                    )
                    if pic.square(x) == square and pic.pair(x, g) == k
                )
                assert slice_solutions(pic, g, k, square) == expected


class TestEnumerateWalls:
    def test_fixture_minus_two_walls(self):
        q = WallQuery(rank2_picard(), FIXTURE_G, m=(1, 0), targets=((-2, 1), (-2, 2)))
        assert wall_keys(enumerate_walls(q)) == [(0, 1)]

    def test_fixture_minus_ten_walls(self):
        q = WallQuery(rank2_picard(), FIXTURE_G, targets=((-10, 2),), level_cap=60)
        assert wall_keys(enumerate_walls(q)) == [(2, -3), (2, 3)]

    def test_fixture_div_one_empty(self):
        q = WallQuery(rank2_picard(), FIXTURE_G, targets=((-2, 1),), level_cap=60)
        assert enumerate_walls(q) == []

    def test_wall_fields(self):
        q = WallQuery(rank2_picard(), FIXTURE_G, m=(1, 0), targets=((-2, 2),))
        (wall,) = enumerate_walls(q)
        assert wall.rho_ambient == DELTA
        assert wall.square == -2
        assert wall.div == 2

    def test_requires_m_or_cap(self):
        q = WallQuery(rank2_picard(), FIXTURE_G)
        with pytest.raises(ValueError, match="level_cap"):
            enumerate_walls(q)

    def test_orientation_no_opposite_pairs(self):
        pic = picard_rank3_diag()
        g, m = (2, -1, 1), (3, -1, 1)
        assert pic.square(m) > 0 and pic.pair(m, g) > 0
        walls = enumerate_walls(WallQuery(pic, g, m=m))
        seen = set(wall_keys(walls))
        for key in seen:
            assert tuple(-x for x in key) not in seen

    def test_soundness_of_every_wall(self):
        pic = picard_rank3_diag()
        g, m = (2, -1, 1), (3, -1, 1)
        q = WallQuery(pic, g, m=m)
        for wall in enumerate_walls(q):
            assert pic.square(wall.rho_picard) == wall.square
            assert (wall.square, wall.div) in q.targets
            assert pic.to_ambient(wall.rho_picard) == wall.rho_ambient
            assert divisibility(wall.rho_ambient) == wall.div
            assert bb_pair(wall.rho_ambient, wall.rho_ambient) == wall.square
            assert pic.pair(wall.rho_picard, g) > 0
            assert pic.pair(wall.rho_picard, m) <= 0

    def test_deterministic_and_sorted(self):
        pic = picard_rank3_diag()
        q = WallQuery(pic, (2, -1, 1), m=(3, -1, 1))
        first = enumerate_walls(q)
        second = enumerate_walls(q)
        assert first == second
        assert wall_keys(first) == sorted(wall_keys(first))

    def test_level_cap_with_m_restricts(self):
        pic = rank2_picard()
        q_all = WallQuery(pic, FIXTURE_G, targets=((-10, 2),), level_cap=60)
        q_capped = WallQuery(pic, FIXTURE_G, targets=((-10, 2),), level_cap=10)
        assert wall_keys(enumerate_walls(q_all)) == [(2, -3), (2, 3)]
        # (2,-3) has level 6, (2,3) has level 18
        assert wall_keys(enumerate_walls(q_capped)) == [(2, -3)]


def assert_clears_the_ldl_data(pic, ctx):
    """Recompute the LDL data of the context's own kernel test-side
    (fraction_ldl, fraction_solve): its integers clear it exactly, each
    level with its smallest denominator, in walk order.  Position p holds
    level i = nk - p, and its row holds the centre, then the coefficients
    of t_{nk-1}, ..., t_{i+1}; position 0, the scale, has an empty row,
    denominator 1 and weight -q_num."""
    kernel, u, nk = ctx.kernel, ctx.u, len(ctx.kernel)
    neg_gram = [[-pic.pair(a, b) for b in kernel] for a in kernel]
    base = [pic.pair(u, b) for b in kernel]
    dvec, coef = fraction_ldl(neg_gram)
    p_base = fraction_solve(neg_gram, base)
    q_base = pic.square(u) + sum(p * b for p, b in zip(p_base, base))
    assert ctx.q_num == q_base * ctx.q_den and gcd(ctx.q_den, *ctx.weights) == 1
    assert (ctx.denoms[0], ctx.centre_rows[0], ctx.weights[0]) == (1, [], -ctx.q_num)
    assert len(ctx.denoms) == len(ctx.centre_rows) == len(ctx.weights) == nk + 1
    for p in range(1, nk + 1):
        i = nk - p
        den, row = ctx.denoms[p], ctx.centre_rows[p]
        assert ctx.weights[p] * den**2 == dvec[i] * ctx.q_den
        centre = p_base[i] + sum(coef[i][j] * p_base[j] for j in range(i + 1, nk))
        assert row == [den * centre] + [-den * coef[i][j] for j in range(nk - 1, i, -1)]
        assert gcd(den, *row) == 1


def one_slice(ctx, k, square):
    """The one-level, one-square call: vectors with (x, g) = k and (x, x) = square, sorted."""
    return sorted(x for _, x, _ in ctx.solutions({square: k}, first=k))


class TestHalfSpacePruning:
    def test_pruned_walls_equal_filtered_full_slices(self):
        rng = random.Random(20240607)
        signs = set()
        for rank in (2, 3, 4, 5):
            for _ in range(4):
                pic = random_hyperbolic_picard(rng, rank)
                g, m = random_polarized_pair(rng, pic)
                pruned = slice_context(pic, g, m)
                full = slice_context(pic, g)
                signs.add((pruned.u_m > 0) - (pruned.u_m < 0))
                expected = []
                for square, div in DEFAULT_TARGETS:
                    for k in range(1, level_bound(pic, g, m, square) + 1):
                        whole = one_slice(full, k, square)
                        kept = [x for x in whole if pic.pair(x, m) <= 0]
                        got = one_slice(pruned, k, square)
                        assert set(got) <= set(whole)
                        assert [x for x in got if pic.pair(x, m) <= 0] == kept
                        for x in kept:
                            ambient = pic.to_ambient(x)
                            if divisibility(ambient) == div and gcd(*ambient) == 1:
                                expected.append(x)
                assert wall_keys(enumerate_walls(WallQuery(pic, g, m=m))) == sorted(expected)
        assert {-1, 1} <= signs, "both signs of (u, m) must be exercised"

    @pytest.mark.parametrize("factor", [1, 2])
    def test_m_proportional_to_g_has_no_walls(self, factor):
        for pic, g in ((picard_rank3_diag(), (2, -1, 1)), (ladder_picard(4), (3, 0, 0, 0))):
            m = tuple(factor * c for c in g)
            assert slice_context(pic, g, m).m_step == 0
            assert enumerate_walls(WallQuery(pic, g, m=m)) == []

    def test_rank_two_clip_leaves_no_hit_past_m(self):
        # with one kernel coordinate the clipped coordinate is the one the
        # exact root fixes; its hits must respect (x, m) <= 0 as well
        rng = random.Random(5)
        hits = 0
        for _ in range(200):
            pic = random_hyperbolic_picard(rng, 2)
            g, m = random_polarized_pair(rng, pic)
            caps = {square: level_bound(pic, g, m, square) for square in (-2, -10)}
            found = slice_context(pic, g, m).solutions(caps)
            assert all(pic.pair(x, m) <= 0 for _, x, _ in found)
            hits += len(found)
        assert hits == 88

    @pytest.mark.parametrize("rank,count", [(5, 9), (6, 21), (7, 41)])
    def test_ladder_wall_counts(self, rank, count):
        g = (3,) + (0,) * (rank - 1)
        m = (3, 4) + (0,) * (rank - 2)
        assert len(enumerate_walls(WallQuery(ladder_picard(rank), g, m=m))) == count


def covering_box(pic, g, level, square):
    """A coordinate box holding every x with 1 <= (x, g) <= level and
    (x, x) >= square, from the positive definite form
    Q(x) = 2 (x, g)^2 / (g, g) - (x, x), which is at most the bound R below."""
    rank = pic.rank
    w = pic.gram_times(g)
    gg = pic.square(g)
    form = [[Fraction(2 * w[i] * w[j], gg) - pic.gram[i][j] for j in range(rank)] for i in range(rank)]
    bound = Fraction(2 * level * level, gg) - square
    box = 0
    for i in range(rank):
        inverse_col = fraction_solve(form, [int(i == j) for j in range(rank)])
        box = max(box, isqrt(floor(bound * inverse_col[i])))
    return box


def oracle_box(query):
    levels = {
        square: query.level_cap if query.m is None else level_bound(query.picard, query.g, query.m, square)
        for square, _ in query.targets
    }
    return max(covering_box(query.picard, query.g, k, s) for s, k in levels.items()) + 1


class TestIntegerKernel:
    """Every branch of the scaled-integer descent against the oracle."""

    def check_slices(self, pic, g, m=None, levels=range(0, 13), squares=(-2, -4, -10)):
        ctx = slice_context(pic, g, m)
        for k in levels:
            for square in squares:
                for x in one_slice(ctx, k, square):
                    assert pic.pair(x, g) == k
                    assert pic.square(x) == square
        return ctx

    def test_rank_one_has_empty_kernel(self):
        pic = PicardLattice([H])
        ctx = self.check_slices(pic, (1,), squares=(2, 8, -2))
        assert ctx.kernel == []
        assert slice_solutions(pic, (1,), 2, 2) == [(1,)]
        assert slice_solutions(pic, (1,), 2, 8) == []
        assert slice_solutions(pic, (1,), 3, 2) == []
        q = WallQuery(pic, (1,), targets=((-2, 1), (-2, 2)), level_cap=10)
        assert enumerate_walls(q) == brute_force_walls(q, 12) == []

    def test_rank_two_exact_root_branch(self):
        rng = random.Random(7)
        for _ in range(6):
            pic = random_hyperbolic_picard(rng, 2)
            g, m = random_polarized_pair(rng, pic)
            assert len(self.check_slices(pic, g, m).kernel) == 1
            for query in (WallQuery(pic, g, m=m), WallQuery(pic, g, level_cap=30)):
                assert enumerate_walls(query) == brute_force_walls(query, oracle_box(query))

    def test_rank_three_clipped_level_is_the_last_walked(self):
        # nk = 2: level 1 is both the clipped outermost level and the only
        # level walked above the exact-root level 0
        rng = random.Random(23)
        for _ in range(6):
            pic = random_hyperbolic_picard(rng, 3)
            g, m = random_polarized_pair(rng, pic)
            ctx = self.check_slices(pic, g, m)
            assert len(ctx.kernel) == 2 and ctx.m_step > 0
            for query in (WallQuery(pic, g, m=m), WallQuery(pic, g, level_cap=20)):
                assert enumerate_walls(query) == brute_force_walls(query, oracle_box(query))

    def test_m_proportional_to_g(self):
        pic = picard_rank3_diag()
        g = (2, -1, 1)
        ctx = self.check_slices(pic, g, tuple(3 * c for c in g))
        assert ctx.m_step == 0
        query = WallQuery(pic, g, m=tuple(3 * c for c in g))
        assert enumerate_walls(query) == brute_force_walls(query, oracle_box(query)) == []

    def test_skewed_rank_five_polarization(self):
        pic = ladder_picard(5)
        g, m = (40, 13, -7, 11, 5), (3, 4, 0, 0, 0)
        self.check_slices(pic, g, levels=range(0, 200, 7))
        ctx = self.check_slices(pic, g, m, levels=range(0, 200, 7))
        assert len(ctx.kernel) == 4
        # c_m and u are not reduced, so the level denominators stay large
        assert lcm(*ctx.denoms) > 10**9
        for query in (WallQuery(pic, g, m=m), WallQuery(pic, g, level_cap=40)):
            walls = enumerate_walls(query)
            assert walls
            assert walls == brute_force_walls(query, oracle_box(query))

    def test_slices_hold_their_equations(self):
        rng = random.Random(11)
        for rank in (2, 3, 4, 5):
            pic = random_hyperbolic_picard(rng, rank)
            g, m = random_polarized_pair(rng, pic)
            self.check_slices(pic, g)
            self.check_slices(pic, g, m)

    def test_context_integers_are_the_cleared_ldl_data(self):
        """Recompute the LDL data of each context test-side (fraction_ldl):
        the integers of the descent clear it exactly, each level with its
        smallest denominator, in walk order."""
        rng = random.Random(5)
        for rank in (2, 3, 4, 5) * 3:
            pic = random_hyperbolic_picard(rng, rank)
            g, m = random_polarized_pair(rng, pic)
            for ctx in (slice_context(pic, g), slice_context(pic, g, m)):
                assert_clears_the_ldl_data(pic, ctx)

    def test_rider_slice_equals_the_combined_bases(self, monkeypatch):
        """The m-slice from the one two-row linear_form_basis(w_g, w_m) call
        equals the former path kept here as the reference: a second
        linear_form_basis on the restricted form, its basis combined from
        the kernel rows.  With LLL switched off the raw sliced basis is
        compared; rank 2 has nk = 1, and m proportional to g no slice."""
        monkeypatch.setattr(enumeration, "integral_lll", lambda gram, rows: rows)
        rng = random.Random(41)
        sliced = 0
        for rank in (2, 3, 4, 5) * 5:
            pic = random_hyperbolic_picard(rng, rank)
            g, m = random_polarized_pair(rng, pic)
            for ctx_m in (m, g, tuple(2 * c for c in g)):
                ctx = slice_context(pic, g, ctx_m)
                _, _, kernel = linear_form_basis(pic.gram_times(g))
                restricted = [pic.pair(b, ctx_m) for b in kernel]
                m_step = 0
                if any(restricted):
                    m_step, c_m, rest = linear_form_basis(restricted)
                    kernel = [
                        [sum(c * row[a] for c, row in zip(coeffs, kernel)) for a in range(rank)]
                        for coeffs in rest + [c_m]
                    ]
                    sliced += 1
                assert (ctx.m_step, ctx.kernel) == (m_step, kernel)
        assert sliced == 19  # one random m is proportional to g

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_context_integers_without_a_slice(self, rank):
        """The same check where m gives no slice: m proportional to g, and
        rank 1, whose kernel is empty (nk = 0)."""
        rng = random.Random(rank)
        pic = PicardLattice([H]) if rank == 1 else random_hyperbolic_picard(rng, rank)
        g = (1,) if rank == 1 else random_polarized_pair(rng, pic)[0]
        for m in (None, g, tuple(3 * c for c in g)):
            ctx = slice_context(pic, g, m)
            assert ctx.m_step == 0 and len(ctx.kernel) == rank - 1
            assert_clears_the_ldl_data(pic, ctx)

    @pytest.mark.parametrize(
        "rank,g,m,level_cap,nodes",
        [
            # capped L(5): 7,036 interval calls on the unreduced kernel basis,
            # 1,457 with one walk per level and target square
            (5, (16, 4, -5, -4, 4), None, 160, 691),
            # skewed g: 2,910 on the unreduced basis
            (5, (40, 13, -7, 11, 5), (3, 4, 0, 0, 0), None, 1054),
            (3, (15, 1, 4), (3, 4, 0), None, 127),
            (4, (8, 2, -3, 6), (3, 4, 0, 0), None, 101),
        ],
        ids=["capped-L5", "skewed-L5", "ladder-L3", "ladder-L4"],
    )
    def test_reduced_kernel_descent_node_count(self, monkeypatch, rank, g, m, level_cap, nodes):
        """The walk visits the same tree, node for node: one integer_interval
        call per node of level >= 1."""
        calls = 0
        interval = enumeration.integer_interval

        def counted(*args):
            nonlocal calls
            calls += 1
            return interval(*args)

        monkeypatch.setattr(enumeration, "integer_interval", counted)
        walls = enumerate_walls(WallQuery(ladder_picard(rank), g, m=m, level_cap=level_cap))
        assert walls
        assert calls == nodes


    def test_odd_hits_on_even_squares_never_leave_the_walk(self, monkeypatch):
        """Capped L(5): a (-10) branch whose hits would all have odd
        divisibility is dropped at its first node, so every candidate is a
        wall; the tree made 844 interval solves when they were dropped at
        the hit."""
        calls = 0
        interval = enumeration.integer_interval

        def counted(*args):
            nonlocal calls
            calls += 1
            return interval(*args)

        candidates = []
        solutions = _SliceContext.solutions

        def recorded(ctx, *args, **kwargs):
            found = solutions(ctx, *args, **kwargs)
            candidates.extend(found)
            return found

        monkeypatch.setattr(enumeration, "integer_interval", counted)
        monkeypatch.setattr(_SliceContext, "solutions", recorded)
        walls = enumerate_walls(WallQuery(ladder_picard(5), (16, 4, -5, -4, 4), level_cap=160))
        assert calls == 691
        # 470 candidates when every hit was returned
        assert len(candidates) == len(walls) == 216

    def test_nef_threshold_walks_only_toward_the_first_wall(self, monkeypatch):
        """L(5): the bounded walk of nef_threshold makes a fraction of the
        interval solves of the full walk; both find the wall (0, 1, 0, 2, 0)
        at 1/2 first."""
        calls = 0
        interval = enumeration.integer_interval

        def counted(*args):
            nonlocal calls
            calls += 1
            return interval(*args)

        pic, g, m = ladder_picard(5), (16, 4, -5, -4, 4), (3, 4, 0, 0, 0)
        monkeypatch.setattr(enumeration, "integer_interval", counted)
        walls = enumerate_walls(WallQuery(pic, g, m=m))
        assert calls == 485
        calls = 0
        tau, achieving = nef_threshold(pic, g, m)
        assert calls <= 100
        assert tau == Fraction(1, 2)
        assert achieving == tuple(w for w in walls if w.rho_picard == (0, 1, 0, 2, 0))


class TestLevelZeroContext:
    """What a walk of scale 0 reads of its context, and that such a walk is
    all validate_polarization asks for."""

    def test_integers_clear_the_ldl_data_with_no_centre(self):
        """The centre aside (the first entry of each walk-ordered centre row,
        the one that multiplies the scale), the weights and rows clear the
        Bareiss integers of ldl_positive on the context's own kernel: a walk
        of scale 0 reads the factor alone."""
        rng = random.Random(17)
        cases = [(PicardLattice([H]), (1,), None)]
        for rank in (2, 3, 4, 5) * 3:
            pic = random_hyperbolic_picard(rng, rank)
            cases.append((pic, *random_polarized_pair(rng, pic)))
        for pic, g, m in cases:
            for ctx_m in (None, m):
                ctx = slice_context(pic, g, ctx_m)
                kernel, nk = ctx.kernel, len(ctx.kernel)
                minors, rows = ldl_positive([[-pic.pair(a, b) for b in kernel] for a in kernel])
                assert len(rows) == nk and gcd(ctx.q_den, ctx.q_num, *ctx.weights) == 1
                for p in range(1, nk + 1):
                    # position p holds level i; its row reads the scale, then t_{nk-1}, ..., t_{i+1}
                    i, den, row = nk - p, ctx.denoms[p], ctx.centre_rows[p]
                    # d_i = D_{i+1}/D_i; row i of the LDL coefficients is rows[i]/D_{i+1}
                    assert ctx.weights[p] * den**2 * minors[i] == minors[i + 1] * ctx.q_den
                    coef = [Fraction(c, minors[i + 1]) for c in rows[i]]
                    assert row[1:] == [-den * c for c in reversed(coef)]
                    assert gcd(den, *row) == 1

    def test_only_scale_zero_is_walked(self, monkeypatch):
        """validate_polarization walks scale 0 alone: one unsliced walk from
        first = 0 with every cap 0, whether it raises or not."""
        walks = []
        solutions = _SliceContext.solutions

        def recorded(ctx, caps, first=1, *args):
            walks.append((ctx.m_step, set(caps.values()), first))
            return solutions(ctx, caps, first, *args)

        monkeypatch.setattr(_SliceContext, "solutions", recorded)
        rng = random.Random(23)
        raised = checked = 0
        for rank in (2, 3, 4, 5) * 3:
            pic = random_hyperbolic_picard(rng, rank)
            g = orthogonal_polarization(rng, pic) if checked % 2 else random_polarized_pair(rng, pic)[0]
            checked += 1
            try:
                validate_polarization(pic, g)
            except PreconditionError:
                raised += 1
        assert walks == [(0, {0}, 0)] * checked
        assert 0 < raised < checked


class TestContextBuilds:
    """How many slice contexts a query builds."""

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        init = _SliceContext.__init__

        def counted(ctx, *args, **kwargs):
            builds.append(args)
            init(ctx, *args, **kwargs)

        monkeypatch.setattr(_SliceContext, "__init__", counted)
        return builds

    def test_nef_threshold_builds_one_context(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        rng = random.Random(37)
        raised = calls = 0
        for rank in (2, 3, 4, 5) * 4:
            pic = random_hyperbolic_picard(rng, rank)
            g = orthogonal_polarization(rng, pic) if calls % 2 else None
            g, m = random_polarized_pair(rng, pic, g=g)
            calls += 1
            try:
                nef_threshold(pic, g, m)
            except PreconditionError:
                raised += 1
        assert len(builds) == calls
        assert 0 < raised < calls

    def test_each_build_eliminates_once(self, monkeypatch):
        """A context factors its negated kernel Gram once (ldl_positive) and
        solves the centre system from that factor (solve_exact): one
        elimination per build, for every verdict, raising or not."""
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapped)

        count(rational_linalg, "_eliminate")
        count(enumeration, "ldl_positive")
        count(enumeration, "solve_exact")
        per_build = []
        init = _SliceContext.__init__

        def build(ctx, *args):
            before = calls.copy()
            init(ctx, *args)
            per_build.append(calls - before)

        monkeypatch.setattr(_SliceContext, "__init__", build)
        verdicts = {
            "validate_polarization": lambda pic, g, m: validate_polarization(pic, g),
            "enumerate_walls": lambda pic, g, m: enumerate_walls(WallQuery(pic, g, m=m)),
            "is_ample": is_ample,
            "nef_threshold": nef_threshold,
        }
        once = Counter(_eliminate=1, ldl_positive=1, solve_exact=1)
        rng = random.Random(31)
        for verdict, run in verdicts.items():
            per_build.clear()
            raised = 0
            for case, rank in enumerate((2, 3, 4, 5) * 4):
                pic = random_hyperbolic_picard(rng, rank)
                g = orthogonal_polarization(rng, pic) if case % 2 else None
                g, m = random_polarized_pair(rng, pic, g=g)
                try:
                    run(pic, g, m)
                except PreconditionError:
                    raised += 1
            assert per_build and all(counts == once for counts in per_build), verdict
            # every verdict but the plain wall list rejects a g orthogonal to a wall
            assert bool(raised) == (verdict != "enumerate_walls"), verdict

    def test_a_walk_of_no_level_builds_no_context(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        query = WallQuery(ladder_picard(4), (15, 1, 4, 0), m=(3, 4, 0, 0), level_cap=0)
        assert enumerate_walls(query) == []
        assert builds == []

    def test_a_walk_below_the_level_step_builds_no_context(self, monkeypatch):
        """(x, g) is a multiple of d = gcd((g, .)) = 4 for g = (1, 0, 0, 0), so
        a level cap of 1 to 3 leaves no scale to walk."""
        builds = self.count_builds(monkeypatch)
        pic, g, m = ladder_picard(4), (1, 0, 0, 0), (3, 4, 0, 0)
        assert gcd(*pic.gram_times(g)) == 4
        for cap in (1, 2, 3):
            query = WallQuery(pic, g, m=m, level_cap=cap)
            assert enumerate_walls(query) == brute_force_walls(query, 6) == []
        assert builds == []
        enumerate_walls(WallQuery(pic, g, m=m, level_cap=4))
        assert len(builds) == 1


class TestGramForms:
    """A public call forms G*g and G*m once, through the validating
    gram_times, and reads every pairing with g or m from these forms;
    is_ample makes two public calls, so it may form each twice.

    gram_times hands a tuple on as itself, so a form of g is a call with g
    itself; a kernel row or u of a context that equals g is another object.
    """

    @staticmethod
    def count_forms(monkeypatch):
        formed = []
        gram_times = PicardLattice._gram_times

        def counted(pic, x):
            formed.append(x)
            return gram_times(pic, x)

        monkeypatch.setattr(PicardLattice, "_gram_times", counted)
        return formed

    def test_each_form_once_per_public_call(self, monkeypatch):
        formed = self.count_forms(monkeypatch)
        verdicts = {
            "validate_polarization": (lambda pic, g, m: validate_polarization(pic, g), 1),
            "enumerate_walls": (lambda pic, g, m: enumerate_walls(WallQuery(pic, g, m=m)), 1),
            "nef_threshold": (nef_threshold, 1),
            "slice_solutions": (lambda pic, g, m: slice_solutions(pic, g, 2, -2), 1),
            "is_ample": (is_ample, 2),
        }
        rng = random.Random(43)
        for verdict, (run, most) in verdicts.items():
            raised = 0
            for case, rank in enumerate((2, 3, 4, 5) * 4):
                pic = random_hyperbolic_picard(rng, rank)
                g = orthogonal_polarization(rng, pic) if case % 2 else None
                g, m = random_polarized_pair(rng, pic, g=g)
                formed.clear()
                try:
                    run(pic, g, m)
                except PreconditionError:
                    raised += 1
                assert 1 <= sum(x is g for x in formed) <= most, (verdict, case)
                assert sum(x is m for x in formed) <= most, (verdict, case)
            # every verdict but the wall list and the slice rejects a g on a wall
            assert bool(raised) == (verdict not in ("enumerate_walls", "slice_solutions")), verdict

    def test_isotropic_is_ample_forms_each_twice_at_most(self, monkeypatch):
        formed = self.count_forms(monkeypatch)
        pic, g, m = ladder_picard(3), (15, 1, 4), (1, 1, 1)
        assert pic.square(m) == 0
        formed.clear()
        is_ample(pic, g, m)
        assert 1 <= sum(x is g for x in formed) <= 2
        assert 1 <= sum(x is m for x in formed) <= 2


class TestDivisibilityReadout:
    """Every wall gets its divisibility from the walk's parity residue: the
    one gcd a hit costs is its primitivity test."""

    @pytest.mark.parametrize(
        "targets,count,hits",
        [
            (DEFAULT_TARGETS, 216, 216),
            # the 37 (-8) hits are all twice a (-2) class: even, but dropped
            # by the primitivity gcd
            (((-2, 1), (-2, 2), (-8, 2), (-10, 2)), 216, 253),
            # no even-only square: no node is pruned, every hit is a wall
            (((-2, 1), (-2, 2)), 183, 183),
        ],
    )
    def test_divisibility_forms_only_where_the_parity_cannot_tell(
        self, monkeypatch, targets, count, hits
    ):
        """Capped L(5): calls of _wall_div, of gcd in the enumerator and of
        the ambient divisibility gcd, which no target set needs."""
        calls = {"filter": 0, "gcd": 0, "forms": 0}

        def counted(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(enumeration, "_wall_div", counted("filter", enumeration._wall_div))
        monkeypatch.setattr(enumeration, "gcd", counted("gcd", gcd))
        monkeypatch.setattr(AmbientLattice, "divisibility", counted("forms", AmbientLattice.divisibility))
        walls = enumerate_walls(
            WallQuery(ladder_picard(5), (16, 4, -5, -4, 4), targets=targets, level_cap=160)
        )
        assert len(walls) == count
        # one gcd per hit, and one per query: the level step d of g
        assert calls == {"filter": hits, "gcd": hits + 1, "forms": 0}


class TestParityPruning:
    """The divisibility-2 congruence prunes inner nodes: the walls stay those
    of the walk that prunes nothing, and the high-rank trees stay small."""

    @pytest.mark.parametrize("rank", [6, 7, 8, 9, 10])
    @pytest.mark.parametrize("targets", PRUNING_TARGETS)
    def test_ladder_walls_equal_the_unpruned_walk(self, rank, targets):
        pic = ladder_picard(rank)
        g, m = (3,) + (0,) * (rank - 1), (3, 4) + (0,) * (rank - 2)
        # without m the capped walk grows fast with the rank: 11,040 walls
        # at L(10) on the first level alone
        for query_m, cap in ((m, None), (m, 24)) + (((None, 12),) if rank <= 8 else ()):
            walls = enumerate_walls(WallQuery(pic, g, m=query_m, targets=targets, level_cap=cap))
            assert wall_triples(walls) == unpruned_walls(pic, g, query_m, targets, cap)

    @pytest.mark.parametrize(
        "rank,count,most",
        [
            # 214,197 interval solves when odd branches were dropped at the hit
            (14, 261, 1_000),
            # L(18) + e2-f2 + e3-f3: 13,328,175 solves then
            (20, 485, 5_000),
        ],
    )
    def test_high_rank_walk_node_count(self, monkeypatch, rank, count, most):
        pic = ladder_picard(rank)
        g, m = (3,) + (0,) * (rank - 1), (3, 4) + (0,) * (rank - 2)
        calls = 0
        interval = enumeration.integer_interval

        def counted(*args):
            nonlocal calls
            calls += 1
            return interval(*args)

        monkeypatch.setattr(enumeration, "integer_interval", counted)
        walls = enumerate_walls(WallQuery(pic, g, m=m))
        assert len(walls) == count
        assert calls <= most


class TestPrimitivity:
    def test_non_primitive_target_class_is_not_a_wall(self):
        # 2*E8a_1 has square -8 and divisibility 2 but is not primitive
        pic = PicardLattice([H, basis_vector("E8a_1")])
        q = WallQuery(pic, FIXTURE_G, targets=((-8, 2),), level_cap=20)
        assert enumerate_walls(q) == []
        assert brute_force_walls(q, 10) == []


class TestQueryValidation:
    def test_g_outside_positive_cone(self):
        with pytest.raises(ValueError, match="positive cone"):
            enumerate_walls(WallQuery(rank2_picard(), (0, 1), m=(1, 0)))

    def test_m_outside_positive_cone(self):
        with pytest.raises(ValueError, match="positive cone"):
            enumerate_walls(WallQuery(rank2_picard(), FIXTURE_G, m=(0, 1)))

    def test_m_in_wrong_component(self):
        with pytest.raises(ValueError, match="component"):
            enumerate_walls(WallQuery(rank2_picard(), FIXTURE_G, m=(-1, 0)))

    def test_non_hyperbolic_picard(self):
        pic = PicardLattice([H, vector_from_labels({"e2": 1, "f2": 1})])
        with pytest.raises(ValueError, match="signature"):
            enumerate_walls(WallQuery(pic, (1, 0), m=(1, 0)))

    def test_nonnegative_square_target(self):
        with pytest.raises(ValueError, match="negative square"):
            enumerate_walls(
                WallQuery(rank2_picard(), FIXTURE_G, m=(1, 0), targets=((0, 1),))
            )

    def test_bad_divisibility_target(self):
        with pytest.raises(ValueError, match="divisibility"):
            enumerate_walls(
                WallQuery(rank2_picard(), FIXTURE_G, m=(1, 0), targets=((-2, 3),))
            )

    @pytest.mark.parametrize("targets", [((-2.5, 2),), ((-2, True),), ((-2, 1.0),), ((True, 1),)])
    def test_non_integer_target(self, targets):
        query = WallQuery(rank2_picard(), FIXTURE_G, m=(1, 0), targets=targets)
        assert query.targets == targets
        with pytest.raises(ValueError, match="plain integers"):
            enumerate_walls(query)

    @pytest.mark.parametrize("level_cap", [2.5, 60.0, True])
    def test_non_integer_level_cap(self, level_cap):
        query = WallQuery(rank2_picard(), FIXTURE_G, targets=((-10, 2),), level_cap=level_cap)
        with pytest.raises(ValueError, match="level_cap must be a plain integer"):
            enumerate_walls(query)
        with pytest.raises(ValueError, match="level_cap must be a plain integer"):
            brute_force_walls(query, 5)

    def test_negative_level_cap(self):
        query = WallQuery(rank2_picard(), FIXTURE_G, targets=((-10, 2),), level_cap=-1)
        with pytest.raises(ValueError, match="level_cap must be nonnegative"):
            enumerate_walls(query)


class TestLevelBound:
    def test_bound_is_necessary(self):
        # every wall against m must sit at a level within the bound
        pic = picard_rank3_diag()
        g, m = (2, -1, 1), (3, -1, 1)
        for square in (-2, -10):
            kmax = level_bound(pic, g, m, square)
            q = WallQuery(pic, g, m=m, targets=((square, 1), (square, 2)))
            for wall in enumerate_walls(q):
                assert 1 <= pic.pair(wall.rho_picard, g) <= kmax

    @pytest.mark.parametrize("square", [1.5, True, -2.0])
    def test_non_integer_square_rejected(self, square):
        with pytest.raises(ValueError, match="square must be a plain integer"):
            level_bound(picard_rank3_diag(), (2, -1, 1), (3, -1, 1), square)

    def test_parallel_classes_give_zero(self):
        pic = rank2_picard()
        assert level_bound(pic, FIXTURE_G, FIXTURE_G, -2) == 0

    def test_non_hyperbolic_picard_rejected(self):
        # Gram diag(2, 2, -2), signature (2, 1): the Cauchy-Schwarz bound
        # does not hold.  (2, -2, 3) has square -2, (rho, g) = 4 and
        # (rho, m) = 0, past the 0 that the bound formula gives.
        pic = PicardLattice([H, vector_from_labels({"e2": 1, "f2": 1}), DELTA])
        rho, g, m = (2, -2, 3), (1, 0, 0), (1, 1, 0)
        assert (pic.square(rho), pic.pair(rho, g), pic.pair(rho, m)) == (-2, 4, 0)
        with pytest.raises(ValueError, match="signature"):
            level_bound(pic, g, m, -2)

    @pytest.mark.parametrize("m", [(1, 1), (0, 1)], ids=["isotropic", "negative"])
    def test_m_outside_the_positive_cone_rejected(self, m):
        # the Gram is diag(2, -2): (1, 1) has square 0 and (0, 1) square -2
        with pytest.raises(ValueError, match=r"m must lie in the positive cone: \(m, m\) > 0 required"):
            level_bound(rank2_picard(), FIXTURE_G, m, -2)

    @pytest.mark.parametrize(
        "g,m,message",
        [
            ((1, -1, 0), (1, 1, 0), r"g must lie in the positive cone: \(g, g\) > 0 required"),
            ((0, 0, 1), (1, 1, 0), r"g must lie in the positive cone: \(g, g\) > 0 required"),
            ((1, 1, 0), (-1, -1, 0), "m must lie in the same component of the positive cone as g"),
        ],
        ids=["g-square-minus-two", "g-orthogonal-to-m", "m-other-component"],
    )
    def test_g_or_component_outside_the_bound_rejected(self, g, m, message):
        # the Cauchy-Schwarz bound holds only for (g, g), (m, m), (g, m) > 0
        pic = picard_e1_f1_delta()
        with pytest.raises(ValueError, match=message):
            level_bound(pic, g, m, -2)
        with pytest.raises(ValueError, match=message):
            enumerate_walls(WallQuery(pic, g, m=m))


class TestBruteForceOracle:
    def test_box_zero_is_empty(self):
        q = WallQuery(rank2_picard(), FIXTURE_G, m=(1, 0))
        assert brute_force_walls(q, 0) == []

    def test_agrees_on_fixture(self):
        q = WallQuery(rank2_picard(), FIXTURE_G, m=(1, 0))
        assert brute_force_walls(q, 10) == enumerate_walls(q)

    def test_agrees_on_rank3_diag(self):
        pic = picard_rank3_diag()
        q = WallQuery(pic, (2, -1, 1), m=(3, -1, 1))
        assert brute_force_walls(q, 25) == enumerate_walls(q)

    def test_agrees_with_level_cap_no_m(self):
        q = WallQuery(rank2_picard(), FIXTURE_G, targets=((-10, 2),), level_cap=60)
        assert brute_force_walls(q, 12) == enumerate_walls(q)

    def test_numpy_and_python_paths_agree(self):
        # box 28 stays on the pure-python path, box 30 crosses onto the
        # vectorized one; both must see the identical wall set
        pic = picard_rank3_diag()
        q = WallQuery(pic, (2, -1, 1), m=(3, -1, 1))
        assert brute_force_walls(q, 28) == brute_force_walls(q, 30)

    def test_numpy_scan_applies_the_level_cap(self):
        # rank 4 at box 11 (23**4 > 200,000 points) is on the numpy path,
        # here with a level cap and no m; the pure-python scan of the same
        # grid is the reference
        pic, g, squares = ladder_picard(4), (3, 0, 0, 0), frozenset({-2, -10})
        args = (g, None, 24, 11, squares)
        hits = enumeration._numpy_scan(pic.gram, *args)
        assert sorted(hits) == sorted(enumeration._python_scan(pic, *args))
        assert len(hits) < len(enumeration._numpy_scan(pic.gram, g, None, None, 11, squares))

    def test_randomized_equivalence(self):
        rng = random.Random(424242)
        for trial in range(8):
            rank = rng.choice((2, 2, 3))
            pic = random_hyperbolic_picard(rng, rank)
            g, m = random_polarized_pair(rng, pic)
            q = WallQuery(pic, g, m=m)
            walls = enumerate_walls(q)
            assert all(
                max(abs(c) for c in w.rho_picard) <= 25 for w in walls
            ), "fixture produced walls outside the oracle box"
            assert brute_force_walls(q, 25) == walls
