from fractions import Fraction

import pytest

from hyperwall import (
    DEFAULT_TARGETS,
    AmpleStatus,
    PicardLattice,
    PreconditionError,
    WallKind,
    WallQuery,
    admissible_square_div,
    basis_vector,
    brute_force_walls,
    classify_square_div,
    classify_wall,
    detect_isotropic_boundary,
    enumerate_walls,
    is_ample,
    level_bound,
    nef_threshold,
    slice_solutions,
    validate_polarization,
    vector_from_labels,
)
from hyperwall import enumeration
from hyperwall import lattice as lattice_module
from lattice_fixtures import DELTA, FIXTURE_G, H, LAMBDA_PLANE, ladder_picard, rank2_picard


# the wall orthogonal to g = h that each target order names
ORTHOGONAL_NAMED = [
    (((-10, 2), (-2, 1)), r"\(0, -1, -2\) \(square -10, divisibility 2\)"),
    (((-2, 1), (-10, 2)), r"\(0, 0, -1\) \(square -2, divisibility 1\)"),
]
BAD_TARGETS = [((-2, 3),), (), ((2, 1),), ((-2.5, 2),), ((-2, True),), ((-2, 1.0),)]


def segment_class(t_num, t_den, m, g):
    """Cleared-denominator class t*m + (1-t)*g for t = t_num/t_den."""
    return tuple(t_num * mi + (t_den - t_num) * gi for mi, gi in zip(m, g))


class TestValidatePolarization:
    def test_fixture_polarization_is_accepted(self):
        validate_polarization(rank2_picard(), FIXTURE_G)

    def test_wall_orthogonal_polarization_rejected(self):
        # h is orthogonal to the wall delta
        with pytest.raises(PreconditionError, match="orthogonal"):
            validate_polarization(rank2_picard(), (1, 0))

    def test_nonpositive_polarization_rejected(self):
        with pytest.raises(PreconditionError):
            validate_polarization(rank2_picard(), (0, 1))

    def test_non_primitive_class_is_no_wall(self):
        # g = h is orthogonal to 2*E8a_1 (square -8, divisibility 2), which
        # is not primitive and so not a wall of the (-8, 2) target
        pic = PicardLattice([H, basis_vector("E8a_1")])
        validate_polarization(pic, (1, 0), targets=((-8, 2),))

    @pytest.mark.parametrize("targets", BAD_TARGETS)
    def test_bad_targets_rejected(self, targets):
        with pytest.raises(ValueError, match="target"):
            validate_polarization(rank2_picard(), FIXTURE_G, targets)

    def test_polarization_orthogonal_to_plane_wall_rejected(self):
        # (3h + 2delta, 2h + 3delta) = 12 - 12 = 0
        with pytest.raises(PreconditionError, match="orthogonal"):
            validate_polarization(rank2_picard(), (3, 2))

    @pytest.mark.parametrize("targets,named", ORTHOGONAL_NAMED)
    def test_first_orthogonal_wall_follows_target_order(self, targets, named):
        # g = h is orthogonal to delta + 2 E8a_1 (a (-10, 2) wall) and to
        # E8a_1 (a (-2, 1) wall); the report names the first target's wall
        pic = PicardLattice([H, DELTA, basis_vector("E8a_1")])
        with pytest.raises(PreconditionError, match=named):
            validate_polarization(pic, (1, 0, 0), targets)

    @pytest.mark.parametrize("targets,named", ORTHOGONAL_NAMED)
    def test_nef_threshold_names_the_same_wall(self, targets, named):
        # its walk keeps (rho, m) <= 0: m = 2h + delta leaves (0, 1, 2),
        # not the (0, -1, -2) above
        pic = PicardLattice([H, DELTA, basis_vector("E8a_1")])
        with pytest.raises(PreconditionError, match=named):
            nef_threshold(pic, (1, 0, 0), (2, 1, 0), targets)


class TestIsAmple:
    def test_polarization_itself_is_ample(self):
        v = is_ample(rank2_picard(), FIXTURE_G, FIXTURE_G)
        assert v.status is AmpleStatus.AMPLE
        assert v.witnesses == ()
        assert v.certainty == "proven"

    def test_nef_boundary_with_orthogonal_wall(self):
        v = is_ample(rank2_picard(), FIXTURE_G, (1, 0))
        assert v.status is AmpleStatus.NEF_BOUNDARY
        assert [w.rho_picard for w in v.witnesses] == [(0, 1)]
        assert v.certainty == "conjectural"

    def test_signature_computed_once_per_lattice(self, monkeypatch):
        calls = 0
        original = lattice_module.inertia

        def counted(gram):
            nonlocal calls
            calls += 1
            return original(gram)

        monkeypatch.setattr(lattice_module, "inertia", counted)
        pic = rank2_picard()
        assert is_ample(pic, FIXTURE_G, (2, 1)).status is AmpleStatus.NOT_NEF
        assert is_ample(pic, FIXTURE_G, (1, 0)).status is AmpleStatus.NEF_BOUNDARY
        assert calls == 1

    def test_not_nef_with_negative_wall(self):
        v = is_ample(rank2_picard(), FIXTURE_G, (2, 1))
        assert v.status is AmpleStatus.NOT_NEF
        assert [w.rho_picard for w in v.witnesses] == [(0, 1)]

    def test_negative_square_is_not_positive(self):
        v = is_ample(rank2_picard(), FIXTURE_G, (0, -1))
        assert v.status is AmpleStatus.NOT_POSITIVE
        assert v.certainty == "proven"

    def test_wrong_halfspace_is_not_positive(self):
        v = is_ample(rank2_picard(), FIXTURE_G, (-3, 1))
        assert v.status is AmpleStatus.NOT_POSITIVE

    def test_bad_polarization_rejected(self):
        with pytest.raises(PreconditionError):
            is_ample(rank2_picard(), (1, 0), (2, 1))

    @pytest.mark.parametrize("targets", BAD_TARGETS)
    def test_bad_targets_rejected_before_the_verdict(self, targets):
        # m = delta has negative square, which alone would give not_positive
        with pytest.raises(ValueError, match="target"):
            is_ample(rank2_picard(), FIXTURE_G, (0, 1), targets)

    def test_isotropic_not_nef(self):
        # (h+delta, delta) = -2 despite (M, M) = 0
        v = is_ample(rank2_picard(), FIXTURE_G, (1, 1))
        assert v.status is AmpleStatus.NOT_NEF
        assert v.isotropic_flag is False
        assert (0, 1) in [w.rho_picard for w in v.witnesses]

    def test_other_isotropic_not_nef_through_plane_wall(self):
        # (h-delta, 2h-3delta) = -2
        v = is_ample(rank2_picard(), FIXTURE_G, (1, -1))
        assert v.status is AmpleStatus.NOT_NEF
        assert (2, -3) in [w.rho_picard for w in v.witnesses]

    def test_isotropic_nef_boundary_flag(self):
        # in U itself, e1 is isotropic and meets no wall non-positively
        pic = PicardLattice([basis_vector("e1"), basis_vector("f1")])
        g = (2, 1)
        v = is_ample(pic, g, (1, 0))
        assert v.status is AmpleStatus.NEF_BOUNDARY
        assert v.isotropic_flag is True
        assert v.witnesses == ()

    def test_isotropic_strict_walls_complete_against_oracle(self):
        # the derived level cap must catch every wall with (rho, M) < 0;
        # cross-check against an exhaustive coordinate scan
        import itertools

        from hyperwall import divisibility
        from hyperwall.enumeration import DEFAULT_TARGETS

        pic = PicardLattice(
            [
                vector_from_labels({"e1": 1, "f1": 2}),
                DELTA,
                vector_from_labels({"e2": 1, "f2": -1}),
            ]
        )
        g, m = (2, -1, 1), (1, 1, 1)
        assert pic.square(m) == 0 and pic.pair(m, g) > 0
        verdict = is_ample(pic, g, m)
        got = sorted(
            w.rho_picard for w in verdict.witnesses if pic.pair(w.rho_picard, m) < 0
        )
        groups = {}
        for square, div in DEFAULT_TARGETS:
            groups.setdefault(square, set()).add(div)
        expected = sorted(
            x
            for x in itertools.product(range(-40, 41), repeat=3)
            if pic.square(x) in groups
            and divisibility(pic.to_ambient(x)) in groups[pic.square(x)]
            and pic.pair(x, g) > 0
            and pic.pair(x, m) < 0
        )
        assert verdict.status is AmpleStatus.NOT_NEF
        assert got == expected and expected

    def test_rank_five_isotropic_matches_filtered_full_walls(self):
        # the isotropic branch slices the descent along m; it must return
        # exactly the capped m-free walls filtered by (rho, m) <= 0
        from hyperwall import WallQuery, enumerate_walls
        from hyperwall.cones import _isotropic_level_cap
        from hyperwall.enumeration import DEFAULT_TARGETS

        basis = [vector_from_labels({"e1": 1, "f1": 2}), DELTA]
        basis += [basis_vector(f"E8a_{i}") for i in (1, 2, 3)]
        pic = PicardLattice(basis)
        g, m = (16, 4, -5, -4, 4), (1, 1, 1, 0, 0)
        assert pic.square(m) == 0
        expected = []
        for square in (-2, -10):
            cap = _isotropic_level_cap(square, pic.pair(m, g), pic.square(g))
            targets = tuple(t for t in DEFAULT_TARGETS if t[0] == square)
            walls = enumerate_walls(WallQuery(pic, g, targets=targets, level_cap=cap))
            expected += [w for w in walls if pic.pair(w.rho_picard, m) <= 0]
        expected.sort(key=lambda w: w.rho_picard)
        verdict = is_ample(pic, g, m)
        assert verdict.status is AmpleStatus.NOT_NEF
        assert len(verdict.witnesses) == 20
        assert list(verdict.witnesses) == expected

    def test_non_saturated_basis_is_rejected_not_called_ample(self):
        # span(h+E, h-E) has index 2; on it these classes once read as
        # proven ample, while the saturated span(h, E) has the wall -E
        h = vector_from_labels({"e1": 1, "f1": 2})
        e = basis_vector("E8a_1")
        plus = tuple(x + y for x, y in zip(h, e))
        minus = tuple(x - y for x, y in zip(h, e))
        with pytest.raises(ValueError, match="index 2"):
            PicardLattice([plus, minus])
        # g = 2(h+E) + (h-E) and m = 3(h+E) + 7(h-E) in the basis (h, E)
        verdict = is_ample(PicardLattice([h, e]), (3, 1), (10, -4))
        assert verdict.status is AmpleStatus.NOT_NEF
        assert [w.rho_picard for w in verdict.witnesses] == [(0, -1)]  # -E

    def test_ample_stable_toward_interior(self):
        pic = rank2_picard()
        m = (11, -2)  # the segment class at t = 1/4, known ample
        assert is_ample(pic, FIXTURE_G, m).status is AmpleStatus.AMPLE
        bigger = tuple(a + b for a, b in zip(m, FIXTURE_G))
        assert is_ample(pic, FIXTURE_G, bigger).status is AmpleStatus.AMPLE


class TestNefThreshold:
    def test_fixture_threshold(self):
        tau, walls = nef_threshold(rank2_picard(), FIXTURE_G, (2, 1))
        assert tau == Fraction(1, 2)
        assert [w.rho_picard for w in walls] == [(0, 1)]

    def test_trivial_threshold(self):
        tau, walls = nef_threshold(rank2_picard(), FIXTURE_G, FIXTURE_G)
        assert tau == 1
        assert walls == ()

    def test_boundary_class_threshold_one(self):
        tau, walls = nef_threshold(rank2_picard(), FIXTURE_G, (1, 0))
        assert tau == 1
        assert [w.rho_picard for w in walls] == [(0, 1)]

    def test_threshold_one_iff_nef(self):
        pic = rank2_picard()
        for m in [(1, 0), (2, 1), (3, -1), (4, 1), (5, -2)]:
            status = is_ample(pic, FIXTURE_G, m).status
            tau, _ = nef_threshold(pic, FIXTURE_G, m)
            assert (tau == 1) == (
                status in (AmpleStatus.AMPLE, AmpleStatus.NEF_BOUNDARY)
            )

    def test_monotone_along_segment(self):
        pic = rank2_picard()
        m = (2, 1)
        tau, _ = nef_threshold(pic, FIXTURE_G, m)
        for num, den in ((1, 4), (3, 8)):
            assert Fraction(num, den) < tau
            cls = segment_class(num, den, m, FIXTURE_G)
            assert is_ample(pic, FIXTURE_G, cls).status is AmpleStatus.AMPLE
        for num, den in ((5, 8), (3, 4)):
            assert Fraction(num, den) > tau
            cls = segment_class(num, den, m, FIXTURE_G)
            assert is_ample(pic, FIXTURE_G, cls).status is AmpleStatus.NOT_NEF

    def test_targets_from_a_one_shot_iterable(self):
        # the targets are read twice (polarization check, then the walk)
        pic = rank2_picard()
        assert nef_threshold(pic, FIXTURE_G, (2, 1), iter(DEFAULT_TARGETS)) == nef_threshold(
            pic, FIXTURE_G, (2, 1)
        )

    def test_polarization_check_reads_one_shot_targets(self):
        # h is orthogonal to the wall delta; the walk must still see the targets
        with pytest.raises(PreconditionError, match="orthogonal"):
            validate_polarization(rank2_picard(), (1, 0), iter(DEFAULT_TARGETS))

    def test_is_ample_reads_one_shot_targets(self):
        pic, g, m = ladder_picard(3), (15, 1, 4), (3, 4, 0)
        verdict = is_ample(pic, g, m, iter(DEFAULT_TARGETS))
        assert verdict.status is AmpleStatus.NOT_NEF
        assert verdict == is_ample(pic, g, m)

    def test_requires_positive_square(self):
        with pytest.raises(PreconditionError):
            nef_threshold(rank2_picard(), FIXTURE_G, (1, 1))

    def test_requires_positive_pairing(self):
        with pytest.raises(PreconditionError):
            nef_threshold(rank2_picard(), FIXTURE_G, (-2, -1))

    def test_requires_ample_polarization(self):
        with pytest.raises(PreconditionError):
            nef_threshold(rank2_picard(), (1, 0), (2, 1))

    @pytest.mark.parametrize(
        "m",
        [(1, 1), (0, 1), (-2, -1), (2, 1, 0), None, 5],
        ids=["isotropic", "negative", "opposite", "malformed", "none", "not-iterable"],
    )
    def test_polarization_error_comes_before_the_m_error(self, m):
        # h is orthogonal to the wall delta: that is reported, not m
        with pytest.raises(PreconditionError, match="g is not ample: it is orthogonal to the wall"):
            nef_threshold(rank2_picard(), (1, 0), m)

    @pytest.mark.parametrize("targets", BAD_TARGETS)
    def test_bad_targets_are_input_errors(self, targets):
        # bad targets are a ValueError (CLI exit 2), not a failed
        # precondition on m (exit 3)
        with pytest.raises(ValueError, match="target") as info:
            nef_threshold(rank2_picard(), FIXTURE_G, (0, 1), targets)
        assert not isinstance(info.value, PreconditionError)


class TestClassification:
    def test_table(self):
        assert classify_square_div(-2, 2).kind is WallKind.DIVISORIAL_HALF
        assert classify_square_div(-2, 2).dual_square == Fraction(-1, 2)
        assert classify_square_div(-2, 1).kind is WallKind.DIVISORIAL_TWO
        assert classify_square_div(-2, 1).dual_square == -2
        assert classify_square_div(-10, 2).kind is WallKind.LAGRANGIAN_PLANE
        assert classify_square_div(-10, 2).dual_square == Fraction(-5, 2)
        assert classify_square_div(-4, 2).kind is WallKind.INADMISSIBLE

    def test_other_negative_squares_non_nodal(self):
        assert classify_square_div(-4, 1).kind is WallKind.NON_NODAL
        assert classify_square_div(-12, 1).kind is WallKind.NON_NODAL
        assert classify_square_div(-18, 2).kind is WallKind.NON_NODAL

    def test_congruence_failures_are_inadmissible(self):
        assert classify_square_div(-6, 2).kind is WallKind.INADMISSIBLE
        assert classify_square_div(-8, 2).kind is WallKind.INADMISSIBLE

    def test_dc_values(self):
        assert classify_square_div(-2, 2).dc_values == (-1, -2)
        assert classify_square_div(-2, 1).dc_values == (-2,)
        assert classify_square_div(-10, 2).dc_values == ()

    def test_vector_classification(self):
        assert classify_wall(DELTA).kind is WallKind.DIVISORIAL_HALF
        minus_two_primitive = vector_from_labels({"e1": 1, "delta": 1})
        assert classify_wall(minus_two_primitive).kind is WallKind.DIVISORIAL_TWO
        assert classify_wall(LAMBDA_PLANE).kind is WallKind.LAGRANGIAN_PLANE

    def test_orientation_invariance(self):
        for v in (DELTA, LAMBDA_PLANE, vector_from_labels({"e1": 1, "delta": 1})):
            flipped = tuple(-x for x in v)
            assert classify_wall(v) == classify_wall(flipped)

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError, match="gcd 2"):
            classify_wall(tuple(2 * x for x in LAMBDA_PLANE))

    def test_nonnegative_square_rejected(self):
        with pytest.raises(ValueError):
            classify_wall(H)
        with pytest.raises(ValueError):
            classify_square_div(0, 1)

    @pytest.mark.parametrize("entry", [classify_square_div, admissible_square_div])
    @pytest.mark.parametrize(
        "square,div",
        [(-2.0, 1), ("a", 1), (-2, True), (-2, 2.0), (Fraction(-2), 1), (None, 2), (False, 1)],
        ids=["float-square", "str-square", "bool-div", "float-div", "fraction-square", "none-square", "bool-square"],
    )
    def test_non_integer_arguments_rejected(self, entry, square, div):
        with pytest.raises(ValueError, match="square and divisibility must be plain integers"):
            entry(square, div)


class TestIsotropicDetection:
    def test_examples(self):
        pic = rank2_picard()
        assert detect_isotropic_boundary(pic, (1, 1)) is True
        assert detect_isotropic_boundary(pic, (1, -1)) is True
        assert detect_isotropic_boundary(pic, (2, 0)) is False
        assert detect_isotropic_boundary(pic, (2, 2)) is False  # imprimitive
        assert detect_isotropic_boundary(pic, (0, 0)) is False

    def test_non_vector_raises_value_error(self):
        with pytest.raises(ValueError, match="integer vector of length 2"):
            detect_isotropic_boundary(rank2_picard(), 5)


# Each public entry on the worked rank-2 lattice, called as f(pic, g, m).
ENTRIES = {
    "enumerate_walls": lambda pic, g, m: enumerate_walls(WallQuery(pic, g, m=m)),
    "brute_force_walls": lambda pic, g, m: brute_force_walls(WallQuery(pic, g, m=m), 3),
    "level_bound": lambda pic, g, m: level_bound(pic, g, m, -2),
    "slice_solutions": lambda pic, g, m: slice_solutions(pic, g, 2, -2),
    "validate_polarization": lambda pic, g, m: validate_polarization(pic, g),
    "is_ample": is_ample,
    "nef_threshold": nef_threshold,
}
TAKE_M = ["enumerate_walls", "brute_force_walls", "level_bound", "is_ample", "nef_threshold"]
# Each would pass the positive-cone checks if its entries went unchecked.
MALFORMED_G = {"wrong-length": (3, -1, 0), "float": (3.0, -1), "bool": (True, 0)}
MALFORMED_M = {"wrong-length": (2, 1, 0), "float": (2.0, 1), "bool": (True, 0)}


class TestBoundaryValidation:
    """Public entries check g and m once; the package runs unchecked inside."""

    @pytest.mark.parametrize(
        "entry,allowed",
        [
            ("enumerate_walls", {2}),
            ("level_bound", {2}),
            ("is_ample", range(5)),
            ("nef_threshold", range(5)),
        ],
    )
    def test_vectors_checked_once_per_call(self, monkeypatch, entry, allowed):
        calls = 0
        original = lattice_module._as_vector

        def counted(v, length):
            nonlocal calls
            calls += 1
            return original(v, length)

        pic = rank2_picard()
        monkeypatch.setattr(lattice_module, "_as_vector", counted)
        ENTRIES[entry](pic, FIXTURE_G, (2, 1))
        assert calls in allowed

    @pytest.mark.parametrize("g", MALFORMED_G.values(), ids=MALFORMED_G)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_malformed_g_rejected(self, entry, g):
        with pytest.raises(ValueError):
            ENTRIES[entry](rank2_picard(), g, (2, 1))

    @pytest.mark.parametrize("m", MALFORMED_M.values(), ids=MALFORMED_M)
    @pytest.mark.parametrize("entry", TAKE_M)
    def test_malformed_m_rejected(self, entry, m):
        with pytest.raises(ValueError):
            ENTRIES[entry](rank2_picard(), FIXTURE_G, m)

    def test_level_bound_needs_m(self):
        with pytest.raises(ValueError):
            level_bound(rank2_picard(), FIXTURE_G, None, -2)

    # a g or m that is not a Sequence, the other one valid: L(3) with the
    # ladder's g and m; an iterator over the valid entries is no vector either
    NON_SEQUENCE = {
        "is_ample m": lambda pic, v: is_ample(pic, (15, 1, 4), v),
        "is_ample g": lambda pic, v: is_ample(pic, v, (3, 4, 0)),
        "nef_threshold m": lambda pic, v: nef_threshold(pic, (15, 1, 4), v),
        "validate_polarization g": lambda pic, v: validate_polarization(pic, v),
        "enumerate_walls m": lambda pic, v: enumerate_walls(WallQuery(pic, (15, 1, 4), m=v)),
        "slice_solutions g": lambda pic, v: slice_solutions(pic, v, 1, -2),
    }

    @pytest.mark.parametrize("value", [None, 5, iter], ids=["None", "5", "iterator"])
    @pytest.mark.parametrize("call", NON_SEQUENCE)
    def test_non_sequence_vector_raises_value_error(self, call, value):
        if value is iter:
            value = iter((3, 4, 0) if call.endswith(" m") else (15, 1, 4))
        # enumerate_walls takes m=None for "no m", and then asks for a level cap
        match = "level_cap" if (call, value) == ("enumerate_walls m", None) else "integer vector of length 3"
        with pytest.raises(ValueError, match=match):
            self.NON_SEQUENCE[call](ladder_picard(3), value)

    # malformed targets on L(3) with the ladder's g and m
    TARGET_CALLS = {
        "validate_polarization": lambda pic, t: validate_polarization(pic, (15, 1, 4), t),
        "is_ample": lambda pic, t: is_ample(pic, (15, 1, 4), (3, 4, 0), t),
        "nef_threshold": lambda pic, t: nef_threshold(pic, (15, 1, 4), (3, 4, 0), t),
        "enumerate_walls": lambda pic, t: enumerate_walls(WallQuery(pic, (15, 1, 4), m=(3, 4, 0), targets=t)),
    }

    @pytest.mark.parametrize("targets", [5, ((-2, 1, 0),), "ab"], ids=["int", "triple", "str"])
    @pytest.mark.parametrize("call", TARGET_CALLS)
    def test_malformed_targets_raise_value_error(self, call, targets):
        with pytest.raises(ValueError, match="wall targets must be pairs of plain integers"):
            self.TARGET_CALLS[call](ladder_picard(3), targets)

    def test_query_keeps_unreadable_targets(self):
        # WallQuery stores them; enumerate_walls checks g and m first
        query = WallQuery(ladder_picard(3), None, m=(3, 4, 0), targets=5)
        assert query.targets == 5
        with pytest.raises(ValueError, match="integer vector of length 3"):
            enumerate_walls(query)


class TestDefaultTargets:
    """The default targets are checked and grouped once, at import, and are
    known by identity; targets that equal them in another object get every
    check."""

    PIC, G, M = ladder_picard(3), (15, 1, 4), (3, 4, 0)
    ON_WALL = (1, 0, 0)  # orthogonal to delta = (0, 1, 0)
    CALLS = {
        "validate_polarization": lambda pic, g, m, t: validate_polarization(pic, g, t),
        "enumerate_walls": lambda pic, g, m, t: enumerate_walls(WallQuery(pic, g, m=m, targets=t)),
        "is_ample": is_ample,
        "nef_threshold": nef_threshold,
    }
    EQUAL = {
        "list": lambda: [(-2, 1), (-2, 2), (-10, 2)],
        "generator": lambda: (target for target in DEFAULT_TARGETS),
    }
    NOT_PLAIN = [((-2, True), (-2, 2), (-10, 2)), ((-2.0, 1), (-2, 2), (-10, 2))]

    @staticmethod
    def outcome(call):
        try:
            return "ok", call()
        except ValueError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("g", [G, ON_WALL], ids=["ample", "on a wall"])
    @pytest.mark.parametrize("kind", EQUAL)
    @pytest.mark.parametrize("entry", CALLS)
    def test_equal_targets_give_the_default_answers(self, entry, kind, g):
        run = self.CALLS[entry]
        expected = self.outcome(lambda: run(self.PIC, g, self.M, DEFAULT_TARGETS))
        assert self.outcome(lambda: run(self.PIC, g, self.M, self.EQUAL[kind]())) == expected

    @pytest.mark.parametrize("targets", NOT_PLAIN, ids=["bool", "float"])
    @pytest.mark.parametrize("entry", CALLS)
    def test_equal_but_not_plain_targets_are_rejected(self, entry, targets):
        assert targets == DEFAULT_TARGETS  # True == 1 and -2.0 == -2
        with pytest.raises(ValueError, match="plain integers"):
            self.CALLS[entry](self.PIC, self.G, self.M, targets)

    @pytest.mark.parametrize("entry", CALLS)
    def test_default_targets_are_not_grouped_again(self, entry, monkeypatch):
        grouped = []
        group = enumeration._target_groups
        monkeypatch.setattr(enumeration, "_target_groups", lambda t: grouped.append(t) or group(t))
        self.CALLS[entry](self.PIC, self.G, self.M, DEFAULT_TARGETS)
        assert grouped == []
        self.CALLS[entry](self.PIC, self.G, self.M, list(DEFAULT_TARGETS))
        assert grouped

    def test_wall_query_keeps_the_default_object(self):
        assert WallQuery(self.PIC, self.G).targets is DEFAULT_TARGETS
        assert WallQuery(self.PIC, self.G, targets=list(DEFAULT_TARGETS)).targets == DEFAULT_TARGETS
