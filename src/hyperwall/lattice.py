"""The K3^[2] Beauville-Bogomolov lattice and exact arithmetic over it.

The ambient lattice is U + U + U + (-E8) + (-E8) + <-2> in a frozen basis
order; divisor classes are integer vectors of length 23 in that basis.
Divisibility is always taken against the full ambient lattice, which is why
Picard data must be supplied as embedded ambient vectors and never as an
abstract Gram matrix alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from operator import mul

from .rational_linalg import (
    check_symmetric,
    column_reduce,
    determinant,
    inertia,
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


def _as_vector(v, length: int) -> tuple[int, ...]:
    if isinstance(v, (str, bytes)) or not isinstance(v, Sequence):
        raise ValueError(f"expected an integer vector of length {length}")
    out = tuple(v)
    if len(out) != length:
        raise ValueError(f"expected an integer vector of length {length}, got length {len(out)}")
    for x in out:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError("vector entries must be plain integers")
    return out


def _negated_e8_cartan() -> list[list[int]]:
    block = [[0] * 8 for _ in range(8)]
    for i in range(8):
        block[i][i] = -2
    for a, b in _E8_EDGES:
        block[a - 1][b - 1] = 1
        block[b - 1][a - 1] = 1
    return block


class AmbientLattice:
    """An integral lattice given by its Gram matrix in a fixed basis.

    Immutable; two instances are equal when their gram and basis_labels are.
    """

    def __init__(self, gram: tuple[tuple[int, ...], ...], basis_labels: tuple[str, ...]):
        check_symmetric(gram)
        if len(basis_labels) != len(gram):
            raise ValueError("one basis label per Gram row is required")
        nonzero = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in gram)
        set_field = object.__setattr__
        set_field(self, "gram", gram)
        set_field(self, "basis_labels", basis_labels)
        set_field(self, "_nonzero_rows", nonzero)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"AmbientLattice(gram={self.gram!r}, basis_labels={self.basis_labels!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.gram, self.basis_labels) == (other.gram, other.basis_labels)

    def __hash__(self):
        return hash((self.gram, self.basis_labels))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pair(self, a, b) -> int:
        """The bilinear form a^T . gram . b, exactly."""
        va = _as_vector(a, self.rank)
        vb = _as_vector(b, self.rank)
        total = 0
        for i, xi in enumerate(va):
            if xi:
                total += xi * sum(val * vb[j] for j, val in self._nonzero_rows[i])
        return total

    def gram_times(self, v) -> tuple[int, ...]:
        """Pairings of v with every basis vector."""
        return self._gram_times(_as_vector(v, self.rank))

    def _gram_times(self, v) -> tuple[int, ...]:
        return tuple(
            sum(val * v[j] for j, val in row) for row in self._nonzero_rows
        )

    def divisibility(self, v) -> int:
        """Positive generator of the ideal (v, Lambda) of pairings."""
        return self._divisibility(_as_vector(v, self.rank))

    def _divisibility(self, v) -> int:
        """divisibility() for an integer tuple of the right length."""
        d = math.gcd(*self._gram_times(v))
        if d == 0:
            raise ValueError("divisibility of the zero vector is undefined")
        return d

    def signature(self) -> tuple[int, int, int]:
        return inertia(self.gram)

    def determinant(self) -> int:
        det = determinant(self.gram)
        return int(det)


def make_k3_2_lattice() -> AmbientLattice:
    """The rank-23 lattice U^3 + (-E8)^2 + <-2> with its frozen basis order."""
    gram = [[0] * AMBIENT_RANK for _ in range(AMBIENT_RANK)]
    for k in range(3):
        i = 2 * k
        gram[i][i + 1] = 1
        gram[i + 1][i] = 1
    e8 = _negated_e8_cartan()
    for offset in (6, 14):
        for i in range(8):
            for j in range(8):
                gram[offset + i][offset + j] = e8[i][j]
    gram[22][22] = -2
    return AmbientLattice(
        gram=tuple(tuple(row) for row in gram),
        basis_labels=BASIS_LABELS,
    )


K3_2_LATTICE = make_k3_2_lattice()


def bb_pair(a, b) -> int:
    """Beauville-Bogomolov pairing of two ambient vectors."""
    return K3_2_LATTICE.pair(a, b)


def divisibility(v) -> int:
    return K3_2_LATTICE.divisibility(v)


def basis_vector(label: str) -> tuple[int, ...]:
    idx = BASIS_LABELS.index(label)
    return tuple(1 if i == idx else 0 for i in range(AMBIENT_RANK))


def vector_from_labels(coeffs: dict[str, int]) -> tuple[int, ...]:
    """Integer combination of named basis vectors, e.g. {"e1": 1, "f1": 1}."""
    out = [0] * AMBIENT_RANK
    for label, c in coeffs.items():
        out[BASIS_LABELS.index(label)] += c
    return tuple(out)


def admissible_square_div(square: int, div: int) -> bool:
    """Whether a primitive vector with this square and divisibility exists.

    The form is even, so odd squares never occur.  A divisibility-2 vector
    is 2v + a*delta with a odd, whose square 4(v,v) - 2a^2 is -2 mod 8;
    conversely every square in that class is realized inside U + <-2>.
    """
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
    """Inertia (positive, negative, zero) by exact symmetric elimination."""
    return inertia(gram)


class PicardLattice:
    """A sublattice of divisor classes embedded in the ambient lattice.

    Vectors handed to the methods are in Picard coordinates with respect to
    the stored basis; the basis itself is a tuple of ambient vectors, and it
    must span a saturated sublattice: divisibility and the wall set are
    only meaningful in the lattice the basis really spans.

    The underscored methods skip validation; they are for callers inside
    the package that pass integer tuples of the right length they built
    themselves.  Because the basis is saturated, x is primitive in the
    ambient lattice exactly when gcd(*x) == 1.
    """

    def __init__(self, basis: Iterable[Sequence[int]], ambient: AmbientLattice = K3_2_LATTICE):
        self.ambient = ambient
        self.basis = tuple(_as_vector(b, ambient.rank) for b in basis)
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
        self.gram = tuple(
            tuple(ambient.pair(x, y) for y in self.basis) for x in self.basis
        )
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
        out = [0] * self.ambient.rank
        for c, row in zip(x, self._nonzero_basis):
            if c:
                for i, bi in row:
                    out[i] += c * bi
        return tuple(out)

    def _divisibility(self, x) -> int:
        """Ambient divisibility of the nonzero Picard vector x.

        It is the gcd of x against the columns of the r x 23 matrix of
        ambient pairings of the basis (r the rank), and so against any r
        integer forms that span those columns; x never leaves Picard
        coordinates.
        """
        return math.gcd(*[sum(map(mul, form, x)) for form in self._divisibility_forms])

    @cached_property
    def _divisibility_forms(self) -> list[list[int]]:
        # built on first use, so lattices that never filter walls skip it
        reduced = column_reduce([self.ambient._gram_times(b) for b in self.basis])
        return [[row[c] for row in reduced] for c in range(self.rank)]

    def from_ambient(self, v) -> tuple[Fraction, ...] | None:
        """Rational Picard coordinates of an ambient vector, or None."""
        vv = _as_vector(v, self.ambient.rank)
        cols = [[self.basis[j][i] for j in range(self.rank)] for i in range(self.ambient.rank)]
        sol = solve_exact(cols, list(vv))
        return tuple(sol) if sol is not None else None

    def signature(self) -> tuple[int, int, int]:
        return self._signature

    @cached_property
    def _signature(self) -> tuple[int, int, int]:
        # the lattice is immutable, and every query checks it is hyperbolic
        return inertia(self.gram)

    def is_hyperbolic(self) -> bool:
        return self.signature() == (1, self.rank - 1, 0)
