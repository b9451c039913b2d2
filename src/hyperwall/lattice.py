"""The K3^[2] Beauville-Bogomolov lattice and exact arithmetic over it.

The ambient lattice is U + U + U + (-E8) + (-E8) + <-2> in a frozen basis
order; divisor classes are integer vectors of length 23 in that basis.
AmbientLattice is this one lattice, built from no arguments, and
K3_2_LATTICE its shared instance.  Divisibility is always taken against the
full ambient lattice, which is why Picard data must be supplied as embedded
ambient vectors and never as an abstract Gram matrix alone; signature_of is
the one entry that takes a user Gram.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from operator import mul

from .rational_linalg import (
    check_symmetric,
    determinant,
    inertia,
    ldl_positive,
    saturation_index,
    solve_exact,
)

AMBIENT_RANK = 23

BASIS_LABELS: tuple[str, ...] = (
    "e1", "f1", "e2", "f2", "e3", "f3",
    "E8a_1", "E8a_2", "E8a_3", "E8a_4", "E8a_5", "E8a_6", "E8a_7", "E8a_8",
    "E8b_1", "E8b_2", "E8b_3", "E8b_4", "E8b_5", "E8b_6", "E8b_7", "E8b_8",
    "delta",
)

# Bonds of the E8 Dynkin diagram in Bourbaki node numbering.
_E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def _plain_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _as_vector(v, length: int) -> tuple[int, ...]:
    # an exact tuple or list skips the slower abstract Sequence test
    if type(v) not in (tuple, list) and (isinstance(v, (str, bytes)) or not isinstance(v, Sequence)):
        raise ValueError(f"expected an integer vector of length {length}")
    out = tuple(v)
    if len(out) != length:
        raise ValueError(f"expected an integer vector of length {length}, got length {len(out)}")
    for x in out:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError("vector entries must be plain integers")
    return out


class AmbientLattice:
    """The K3^[2] lattice U^3 + (-E8)^2 + <-2> in its frozen basis order.

    Immutable; its one instance is K3_2_LATTICE.
    """

    rank = AMBIENT_RANK
    basis_labels = BASIS_LABELS

    def __init__(self):
        gram = [[0] * AMBIENT_RANK for _ in range(AMBIENT_RANK)]
        for i in (0, 2, 4):
            gram[i][i + 1] = gram[i + 1][i] = 1
        for offset in (6, 14):
            for i in range(offset, offset + 8):
                gram[i][i] = -2
            for a, b in _E8_EDGES:
                gram[offset + a - 1][offset + b - 1] = gram[offset + b - 1][offset + a - 1] = 1
        gram[22][22] = -2
        nonzero = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in gram)
        set_field = object.__setattr__
        set_field(self, "gram", tuple(map(tuple, gram)))
        set_field(self, "_nonzero_rows", nonzero)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def pair(self, a, b) -> int:
        """The bilinear form a^T . gram . b, exactly."""
        va = _as_vector(a, self.rank)
        return sum(map(mul, va, self._gram_times(_as_vector(b, self.rank))))

    def gram_times(self, v) -> tuple[int, ...]:
        """Pairings of v with every basis vector."""
        return self._gram_times(_as_vector(v, self.rank))

    def _gram_times(self, v) -> tuple[int, ...]:
        # the Gram is symmetric: sum v_a * (row a) over the nonzero v_a
        out = [0] * len(v)
        for va, row in zip(v, self._nonzero_rows):
            if va:
                for j, val in row:
                    out[j] += va * val
        return tuple(out)

    def divisibility(self, v) -> int:
        """Positive generator of the ideal (v, Lambda) of pairings."""
        d = math.gcd(*self._gram_times(_as_vector(v, self.rank)))
        if d == 0:
            raise ValueError("divisibility of the zero vector is undefined")
        return d

    def signature(self) -> tuple[int, int, int]:
        return inertia(self.gram)

    def determinant(self) -> int:
        return determinant(self.gram)


K3_2_LATTICE = AmbientLattice()


def make_k3_2_lattice() -> AmbientLattice:
    """The rank-23 lattice U^3 + (-E8)^2 + <-2>: the shared K3_2_LATTICE."""
    return K3_2_LATTICE


def bb_pair(a, b) -> int:
    """Beauville-Bogomolov pairing of two ambient vectors."""
    return K3_2_LATTICE.pair(a, b)


def divisibility(v) -> int:
    return K3_2_LATTICE.divisibility(v)


def basis_vector(label: str) -> tuple[int, ...]:
    if label not in BASIS_LABELS:
        raise ValueError(f"unknown basis label {label!r}")
    return tuple(int(x == label) for x in BASIS_LABELS)


def vector_from_labels(coeffs: dict[str, int]) -> tuple[int, ...]:
    """Integer combination of named basis vectors, e.g. {"e1": 1, "f1": 1}."""
    if not isinstance(coeffs, Mapping):
        raise ValueError(f"expected a mapping of basis labels to plain integers, got {coeffs!r}")
    out = (0,) * AMBIENT_RANK
    for label, c in coeffs.items():
        if not _plain_int(c):
            raise ValueError(f"the coefficient of {label!r} must be a plain integer, got {c!r}")
        out = tuple(a + c * b for a, b in zip(out, basis_vector(label)))
    return out


def admissible_square_div(square: int, div: int) -> bool:
    """Whether a primitive vector with this square and divisibility exists.

    The form is even, so odd squares never occur.  A divisibility-2 vector
    is 2v + a*delta with a odd, whose square 4(v,v) - 2a^2 is -2 mod 8;
    conversely every square in that class is realized inside U + <-2>.
    """
    if not (_plain_int(square) and _plain_int(div)):
        raise ValueError("square and divisibility must be plain integers")
    if div not in (1, 2):
        raise ValueError("divisibility must be 1 or 2")
    if square % 2:
        return False
    if div == 1:
        return True
    return square % 8 == 6


class CurveClass(namedtuple("CurveClass", "numerator denominator square")):
    """A dual class rho / div with half-integral square."""

    __slots__ = ()


def dual_class(rho) -> CurveClass:
    """The curve class rho / div dual to a primitive wall vector.

    The denominator is the divisibility, which is 1 or 2: the discriminant
    group has order 2.  A non-primitive vector is rejected.
    """
    v = _as_vector(rho, AMBIENT_RANK)
    div = divisibility(v)
    _require_primitive(v)
    return CurveClass(v, div, Fraction(bb_pair(v, v), div * div))


def _require_primitive(v) -> None:
    content = math.gcd(*v)
    if content != 1:
        raise ValueError(f"the vector is not primitive: its entries have gcd {content}")


def signature_of(gram) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) by exact symmetric elimination.

    The one entry that takes a user Gram: anything but a square, symmetric
    matrix of plain ints is rejected before the unchecked kernel sees it.
    """
    if not isinstance(gram, Sequence):
        raise ValueError("a Gram matrix must be a sequence of integer rows")
    rows = tuple(_as_vector(row, len(gram)) for row in gram)
    check_symmetric(rows)
    return inertia(rows)


class PicardLattice:
    """A sublattice of divisor classes embedded in the K3^[2] lattice.

    Vectors handed to the methods are in Picard coordinates with respect to
    the stored basis; the basis itself is a tuple of ambient vectors, and it
    must span a saturated sublattice: divisibility and the wall set are
    only meaningful in the lattice the basis really spans.

    The underscored methods skip validation; they are for callers inside
    the package that pass integer tuples of the right length they built
    themselves.  Because the basis is saturated, x is primitive in the
    ambient lattice exactly when gcd(*x) == 1.  The discriminant group of
    K3^[2] is Z/2, so a primitive x has divisibility 1 or 2, and it is 2
    exactly when the _parity_masks of its odd coordinates XOR to 0.
    """

    def __init__(self, basis: Iterable[Sequence[int]]):
        if not isinstance(basis, Iterable):
            raise ValueError("Picard basis must be an iterable of ambient integer vectors")
        self.basis = tuple(_as_vector(b, AMBIENT_RANK) for b in basis)
        if not self.basis:
            raise ValueError("Picard basis must be nonempty")
        index = saturation_index(self.basis)
        if index == 0:
            raise ValueError("Picard basis vectors are linearly dependent")
        if index != 1:
            raise ValueError(
                f"Picard basis spans a sublattice of index {index} in its "
                "saturation; supply a basis of the saturated lattice"
            )
        # one ambient Gram product per basis row; the rows are already checked
        rows = [K3_2_LATTICE._gram_times(x) for x in self.basis]
        self.gram = tuple(tuple(sum(map(mul, row, y)) for y in self.basis) for row in rows)
        # bit a of mask i is the parity of (basis_i, e_a): x has even ambient
        # divisibility exactly when the masks of its odd coordinates XOR to 0
        self._parity_masks = tuple(sum(1 << a for a, p in enumerate(row) if p & 1) for row in rows)
        # the nonzero (index, value) pairs of each basis row, for _to_ambient
        self._nonzero_basis = tuple(
            tuple((i, bi) for i, bi in enumerate(b) if bi) for b in self.basis
        )

    @property
    def rank(self) -> int:
        return len(self.basis)

    def pair(self, x, y) -> int:
        return self._pair(_as_vector(x, self.rank), _as_vector(y, self.rank))

    def _pair(self, x, y) -> int:
        return sum(map(mul, x, self._gram_times(y)))

    def square(self, x) -> int:
        vx = _as_vector(x, self.rank)
        return self._pair(vx, vx)

    def gram_times(self, x) -> tuple[int, ...]:
        return self._gram_times(_as_vector(x, self.rank))

    def _gram_times(self, x) -> tuple[int, ...]:
        return tuple(sum(map(mul, row, x)) for row in self.gram)

    def to_ambient(self, x) -> tuple[int, ...]:
        return self._to_ambient(_as_vector(x, self.rank))

    def _to_ambient(self, x) -> tuple[int, ...]:
        out = [0] * AMBIENT_RANK
        for c, row in zip(x, self._nonzero_basis):
            if c:
                for i, bi in row:
                    out[i] += c * bi
        return tuple(out)

    def from_ambient(self, v) -> tuple[Fraction, ...] | None:
        """Rational Picard coordinates of an ambient vector, or None.

        x solves the normal equations (B B^T) x = B v of the basis rows B,
        whose Euclidean Gram is positive definite; v lies in the rational
        span exactly when x^T B gives it back.
        """
        vv = _as_vector(v, AMBIENT_RANK)
        basis = self.basis
        euclid = [[sum(map(mul, b, c)) for c in basis] for b in basis]
        den, xs = solve_exact(ldl_positive(euclid), [sum(map(mul, b, vv)) for b in basis])
        x = tuple(Fraction(c, den) for c in xs)
        return x if self._to_ambient(x) == vv else None

    def signature(self) -> tuple[int, int, int]:
        return self._signature

    @cached_property
    def _signature(self) -> tuple[int, int, int]:
        # the lattice is immutable, and every query checks it is hyperbolic
        return inertia(self.gram)

    def is_hyperbolic(self) -> bool:
        return self.signature() == (1, self.rank - 1, 0)
