"""The public records keep their constructors, reprs, equality, hashing and
immutability; the one ambient lattice, K3_2_LATTICE, keeps read-only fields.

The expected reprs are the text the records printed when they were still
frozen dataclasses.  PicardLattice has no repr of its own, so the records
that hold one are compared with its default repr spliced in.
"""

from fractions import Fraction

import pytest

from hyperwall import (
    K3_2_LATTICE,
    MiddleClass,
    WallClass,
    WallQuery,
    basis_vector,
    classify_wall,
    dual_class,
    is_ample,
    lagrangian_solver,
    square_class,
)
from hyperwall.cli import InputDocument
from lattice_fixtures import DELTA, rank2_picard

PIC = rank2_picard()
D = repr(DELTA)  # (0, ..., 0, 1): 22 zeros, then delta
WALL_REPR = f"WallClass(rho_picard=(0, 1), rho_ambient={D}, square=-2, div=2)"

# name: (factory of a fresh, equal instance each call, repr text, a field)
RECORDS = {
    "WallClass": (
        lambda: WallClass((0, 1), DELTA, -2, 2),
        WALL_REPR,
        "square",
    ),
    "WallQuery": (
        lambda: WallQuery(PIC, [3, -1], m=[2, 1], targets=[[-2, 1]], level_cap=5),
        f"WallQuery(picard={PIC!r}, g=(3, -1), m=(2, 1), targets=((-2, 1),), level_cap=5)",
        "g",
    ),
    "AmpleVerdict": (
        lambda: is_ample(PIC, (3, -1), (2, 1)),
        "AmpleVerdict(status=<AmpleStatus.NOT_NEF: 'not_nef'>, "
        f"witnesses=({WALL_REPR},), isotropic_flag=False)",
        "status",
    ),
    "RayType": (
        lambda: classify_wall(DELTA),
        "RayType(kind=<WallKind.DIVISORIAL_HALF: 'divisorial_half'>, "
        "dual_square=Fraction(-1, 2), dc_values=(-1, -2))",
        "kind",
    ),
    "CurveClass": (
        lambda: dual_class(DELTA),
        f"CurveClass(numerator={D}, denominator=2, square=Fraction(-1, 2))",
        "denominator",
    ),
    "MiddleClass": (
        lambda: square_class(DELTA, 3),
        f"MiddleClass(basis=({D},), tensor=((Fraction(3, 1),),), qdual_coeff=Fraction(0, 1))",
        "qdual_coeff",
    ),
    "PlaneSolution": (
        lambda: lagrangian_solver()[0],
        "PlaneSolution(lambda_square=Fraction(-10, 1), a=Fraction(1, 20), "
        "b=Fraction(1, 8), admissible=True)",
        "a",
    ),
    "InputDocument": (
        lambda: InputDocument(PIC, (3, -1), None, ((-2, 1),), None, {"g": [3, -1]}),
        f"InputDocument(picard={PIC!r}, g=(3, -1), m=None, targets=((-2, 1),), "
        "level_cap=None, echo={'g': [3, -1]})",
        "g",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_unchanged(name):
    make, text, _ = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_instances_are_equal_and_hash_equal(name):
    make, _, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b
    if name != "InputDocument":  # its echo is a dict, so it never hashed
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    make, _, field = RECORDS[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert getattr(record, field) == before


@pytest.mark.parametrize("field", ["gram", "rank", "basis_labels"])
def test_k3_2_lattice_fields_are_read_only(field):
    before = getattr(K3_2_LATTICE, field)
    with pytest.raises(AttributeError):
        setattr(K3_2_LATTICE, field, None)
    with pytest.raises(AttributeError):
        delattr(K3_2_LATTICE, field)
    with pytest.raises(AttributeError):
        K3_2_LATTICE.no_such_field = 1
    assert getattr(K3_2_LATTICE, field) is before


def test_different_values_differ():
    assert WallClass((0, 1), DELTA, -2, 2) != WallClass((0, -1), DELTA, -2, 2)


class TestWallQuery:
    def test_lists_become_tuples(self):
        q = WallQuery(PIC, [3, -1], m=[2, 1], targets=[[-2, 1]], level_cap=5)
        assert q.g == (3, -1)
        assert q.m == (2, 1)
        assert q.targets == ((-2, 1),)
        assert q.level_cap == 5

    def test_defaults_and_keywords(self):
        q = WallQuery(picard=PIC, g=(3, -1))
        assert q.m is None
        assert q.targets == ((-2, 1), (-2, 2), (-10, 2))
        assert q.level_cap is None

    def test_replace_normalizes(self):
        q = WallQuery(PIC, (3, -1))._replace(g=[4, -1], targets=[[-10, 2]])
        assert q.g == (4, -1)
        assert q.targets == ((-10, 2),)


class TestMiddleClass:
    def test_qdual_coeff_defaults_to_zero(self):
        x = MiddleClass(basis=(), tensor=())
        assert x.qdual_coeff == Fraction(0)
        assert type(x.qdual_coeff) is Fraction
        assert not x.has_tensor_part

    def test_entries_become_fractions(self):
        x = MiddleClass([list(DELTA)], [[2]], 1)
        assert x.basis == (DELTA,)
        assert x.tensor == ((Fraction(2),),)
        assert type(x.qdual_coeff) is Fraction
        assert x.has_tensor_part

    def test_tensor_shape_checked(self):
        with pytest.raises(ValueError, match="tensor shape must match the basis length"):
            MiddleClass(basis=(DELTA,), tensor=((1, 0),))

    def test_tensor_symmetry_checked(self):
        e1 = basis_vector("e1")
        with pytest.raises(ValueError, match="tensor must be symmetric"):
            MiddleClass(basis=(e1, DELTA), tensor=((0, 1), (2, 0)))

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, "1", None], ids=["float", "whole-float", "bool", "str", "none"])
    def test_entries_are_plain_ints_or_fractions(self, bad):
        with pytest.raises(ValueError, match="each tensor entry must be a plain int or a Fraction"):
            MiddleClass(basis=(DELTA,), tensor=((bad,),))
        with pytest.raises(ValueError, match="qdual_coeff must be a plain int or a Fraction"):
            square_class(DELTA, qdual_coeff=bad)
        with pytest.raises(ValueError, match="each tensor entry"):
            square_class(DELTA, coeff=bad)

    @pytest.mark.parametrize("basis,tensor,message", [
        (5, ((1,),), "basis must be a sequence"),
        (iter([DELTA]), ((1,),), "basis must be a sequence"),
        ((DELTA,), 5, "tensor must be a sequence"),
        ((DELTA,), ("a",), "each tensor row must be a sequence"),
    ], ids=["int-basis", "iterator-basis", "int-tensor", "str-row"])
    def test_basis_and_tensor_are_sequences(self, basis, tensor, message):
        with pytest.raises(ValueError, match=message):
            MiddleClass(basis, tensor)

    def test_replace_validates(self):
        with pytest.raises(ValueError, match="tensor shape"):
            square_class(DELTA)._replace(tensor=((1, 0),))
