"""Every public entry answers or raises ValueError on malformed data.

One hypothesis test draws, for each data argument of each entry, values
near a well-formed argument and far from one: None, ints, strings, bytes,
one-shot iterators, nested lists, bool, float and Fraction entries, and
wrong lengths.  The other arguments are well formed.  A call may answer or
raise ValueError; any other exception fails the test.  Wrong objects, such
as a non-MiddleClass passed to middle_pair, are out of scope.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwall import (
    AMBIENT_RANK,
    BASIS_LABELS,
    MiddleClass,
    PicardLattice,
    WallQuery,
    basis_vector,
    bb_pair,
    brute_force_walls,
    c2_pair,
    classify_wall,
    divisibility,
    dual_class,
    fujiki_check,
    line_class_of_plane,
    quad_product,
    signature_of,
    square_class,
    vector_from_labels,
)
from lattice_fixtures import DELTA, FIXTURE_G, H, LAMBDA_PLANE, rank2_picard

FUZZ_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

PIC = rank2_picard()
QUERY = WallQuery(PIC, FIXTURE_G)

# small numbers only: brute_force_walls sizes its scan by box
FLOATS = st.floats(-4, 4)
FRACTIONS = st.fractions(-4, 4, max_denominator=5)
# values no data argument takes as they are
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    FLOATS,
    FRACTIONS,
    st.text(max_size=3),
    st.binary(max_size=3),
)
BAD_ENTRIES = st.one_of(
    st.booleans(), FLOATS, FRACTIONS, st.text(max_size=1),
    st.none(), st.lists(st.integers(-3, 3), max_size=2),
)


def vectors(n):
    """Integer vectors of length n, well formed or spoiled."""
    ints = st.lists(st.integers(-3, 3), min_size=n, max_size=n)

    def spoil(drawn):
        v, i, x = drawn
        v[i] = x
        return v

    return st.one_of(
        ints.map(tuple),
        ints.map(iter),
        st.tuples(ints, st.integers(0, n - 1), BAD_ENTRIES).map(spoil),
        st.lists(st.integers(-3, 3), max_size=n + 2).filter(lambda v: len(v) != n),
        st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=3),
        JUNK,
    )


def sequences_of(element, max_size=3):
    """Lists, tuples and one-shot iterators of element, or junk."""
    items = st.lists(element, max_size=max_size)
    return st.one_of(items, items.map(tuple), items.map(iter), JUNK)


SCALARS = st.one_of(st.integers(-3, 3), FRACTIONS, BAD_ENTRIES, JUNK)
VECTORS = vectors(AMBIENT_RANK)
GRAMS = st.integers(1, 3).flatmap(lambda n: sequences_of(vectors(n), max_size=n + 1))
LABELS = st.one_of(st.sampled_from(BASIS_LABELS), JUNK, st.lists(st.text(max_size=2), max_size=2))
COEFFS = st.one_of(
    st.dictionaries(st.one_of(st.sampled_from(BASIS_LABELS), JUNK), SCALARS, max_size=3),
    JUNK,
    st.lists(st.tuples(st.sampled_from(BASIS_LABELS), st.integers(-3, 3)), max_size=2),
)


def at(fn, args, i):
    """fn called with its i-th argument replaced by the drawn value."""
    return lambda v: fn(*args[:i], v, *args[i + 1:])


# name: (strategy for the malformed argument, the call that takes it)
CASES = {
    "MiddleClass.basis": (sequences_of(VECTORS), lambda v: MiddleClass(v, ((1,),))),
    "MiddleClass.tensor": (
        sequences_of(sequences_of(SCALARS, max_size=2), max_size=2),
        lambda v: MiddleClass((H,), v),
    ),
    "MiddleClass.qdual_coeff": (SCALARS, lambda v: MiddleClass((H,), ((1,),), v)),
    "square_class.alpha": (VECTORS, square_class),
    "square_class.coeff": (SCALARS, lambda v: square_class(H, coeff=v)),
    "square_class.qdual_coeff": (SCALARS, lambda v: square_class(H, qdual_coeff=v)),
    "line_class_of_plane": (VECTORS, line_class_of_plane),
    **{f"quad_product.a{i + 1}": (VECTORS, at(quad_product, (H, DELTA, H, LAMBDA_PLANE), i)) for i in range(4)},
    **{f"c2_pair.{name}": (VECTORS, at(c2_pair, (H, DELTA), i)) for i, name in enumerate("ab")},
    "fujiki_check": (VECTORS, fujiki_check),
    **{f"bb_pair.{name}": (VECTORS, at(bb_pair, (H, DELTA), i)) for i, name in enumerate("ab")},
    "divisibility": (VECTORS, divisibility),
    "dual_class": (VECTORS, dual_class),
    "classify_wall": (VECTORS, classify_wall),
    "basis_vector": (LABELS, basis_vector),
    "vector_from_labels": (COEFFS, vector_from_labels),
    "signature_of": (GRAMS, signature_of),
    "PicardLattice": (sequences_of(VECTORS), PicardLattice),
    "PicardLattice.from_ambient": (VECTORS, PIC.from_ambient),
    "brute_force_walls.box": (SCALARS, lambda v: brute_force_walls(QUERY, v)),
}


@pytest.mark.parametrize("name", CASES)
@FUZZ_SETTINGS
@given(data=st.data())
def test_answers_or_raises_value_error(name, data):
    values, call = CASES[name]
    value = data.draw(values, label=name)
    try:
        call(value)
    except ValueError:
        pass
