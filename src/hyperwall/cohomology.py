"""Middle-cohomology intersection calculus for numerical K3^[2] fourfolds.

The degree-four cohomology is Sym^2 of the degree-two part plus the formal
dual class q of the quadratic form.  q is never expanded as an explicit
tensor: only its pairing rules are specified (q.ab = 25(a,b), q.q = 575),
and expanding it would risk double counting against user tensors.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import isqrt
from operator import mul

from .lattice import AMBIENT_RANK, CurveClass, _as_vector, _plain_int, bb_pair, divisibility

QDUAL_SELF_PAIRING = 575          # 23 * 25
QDUAL_DIVISOR_FACTOR = 25
C2_QDUAL_MULTIPLE = Fraction(6, 5)


def quad_product(a1, a2, a3, a4) -> int:
    """Fourfold intersection number of divisor classes.

    (a1 a2).(a3 a4) = (a1,a2)(a3,a4) + (a1,a3)(a2,a4) + (a1,a4)(a2,a3).
    """
    return (
        bb_pair(a1, a2) * bb_pair(a3, a4)
        + bb_pair(a1, a3) * bb_pair(a2, a4)
        + bb_pair(a1, a4) * bb_pair(a2, a3)
    )


def c2_pair(a, b) -> int:
    """Second Chern class paired with two divisors: c2 = (6/5) q gives 30(a,b)."""
    value = C2_QDUAL_MULTIPLE * QDUAL_DIVISOR_FACTOR * bb_pair(a, b)
    return int(value)


def fujiki_check(a) -> bool:
    """Whether a^4 equals 3 (a,a)^2, the degree-four normalization."""
    return quad_product(a, a, a, a) == 3 * bb_pair(a, a) ** 2


def _sequence(value, name: str):
    """value itself; ValueError unless it is a sequence other than a string."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise ValueError(f"{name} must be a sequence, got {value!r}")
    return value


def _exact(x, name: str) -> Fraction:
    """x as a Fraction; ValueError unless it is a plain int or a Fraction."""
    if not (_plain_int(x) or isinstance(x, Fraction)):
        raise ValueError(f"{name} must be a plain int or a Fraction, got {x!r}")
    return Fraction(x)


class MiddleClass(namedtuple("MiddleClass", "basis tensor qdual_coeff")):
    """A middle-cohomology class: a symmetric tensor over a chosen divisor
    basis plus a formal coefficient of the dual class q."""

    __slots__ = ()

    def __new__(cls, basis, tensor, qdual_coeff=0):
        basis = tuple(_as_vector(b, AMBIENT_RANK) for b in _sequence(basis, "basis"))
        n = len(basis)
        tensor = tuple(
            tuple(_exact(x, "each tensor entry") for x in _sequence(row, "each tensor row"))
            for row in _sequence(tensor, "tensor")
        )
        if len(tensor) != n or any(len(row) != n for row in tensor):
            raise ValueError("tensor shape must match the basis length")
        for i in range(n):
            for j in range(i):
                if tensor[i][j] != tensor[j][i]:
                    raise ValueError("tensor must be symmetric")
        return super().__new__(cls, basis, tensor, _exact(qdual_coeff, "qdual_coeff"))

    @classmethod
    def _make(cls, iterable):
        # _replace goes through _make: keep the validation
        return cls(*iterable)

    @property
    def has_tensor_part(self) -> bool:
        return any(any(row) for row in self.tensor)


def q_dual() -> MiddleClass:
    """The formal dual class q itself."""
    return MiddleClass(basis=(), tensor=(), qdual_coeff=1)


def square_class(alpha, coeff=1, qdual_coeff=0) -> MiddleClass:
    """coeff * alpha^2 + qdual_coeff * q over the one-element basis (alpha,)."""
    return MiddleClass(basis=(alpha,), tensor=((coeff,),), qdual_coeff=qdual_coeff)


def middle_pair(x: MiddleClass, y: MiddleClass) -> Fraction:
    """Bilinear symmetric pairing on middle cohomology.

    Tensor parts pair through quad_product; q pairs with a tensor through
    25(a,b) and with itself through 575.  Classes with nontrivial tensors
    must share a basis.  With G the Gram of that basis and C, D the two
    tensors, the sum of c_ij d_kl quad_product(b_i, b_j, b_k, b_l) is
    tr(CG) tr(DG) + 2 tr(CGDG), and q pairs with C as 25 tr(CG).
    """
    if x.has_tensor_part and y.has_tensor_part and x.basis != y.basis:
        raise ValueError("middle classes are expressed over different bases")
    basis = x.basis if x.has_tensor_part else y.basis
    n = len(basis)
    gram = [[bb_pair(u, v) for v in basis] for u in basis]
    # C G and D G; gram is symmetric, so its rows are its columns
    cg, dg = (
        [[sum(map(mul, row, col)) for col in gram] for row in z.tensor]
        if z.has_tensor_part else [[0] * n] * n
        for z in (x, y)
    )
    tc = sum(cg[i][i] for i in range(n))
    td = sum(dg[i][i] for i in range(n))
    return (
        x.qdual_coeff * y.qdual_coeff * QDUAL_SELF_PAIRING
        + QDUAL_DIVISOR_FACTOR * (x.qdual_coeff * td + y.qdual_coeff * tc)
        + tc * td
        + 2 * sum(cg[i][j] * dg[j][i] for i in range(n) for j in range(n))
    )


class PlaneSolution(namedtuple("PlaneSolution", "lambda_square a b admissible")):
    """One exact solution (lambda_square, a, b) of the plane-class system."""

    __slots__ = ()

    def residuals(self) -> tuple[Fraction, Fraction, Fraction]:
        """The three defining equations, each moved to one side; all zero."""
        x, a, b = self.lambda_square, self.a, self.b
        self_pairing = (
            QDUAL_SELF_PAIRING * a * a
            + 2 * a * b * QDUAL_DIVISOR_FACTOR * x
            + 3 * b * b * x * x
            - 3
        )
        chern = C2_QDUAL_MULTIPLE * (QDUAL_SELF_PAIRING * a + QDUAL_DIVISOR_FACTOR * b * x) + 3
        hyperplane = QDUAL_DIVISOR_FACTOR * a * x + 3 * b * x * x - x * x / 4
        return self_pairing, chern, hyperplane


# The plane system.  A Lagrangian plane P has [P].[P] = c2(N_P) = 3 and
# c2.[P] = -3.  Write [P] = a q + b lambda^2 with x = (lambda, lambda) != 0
# and c = b x.  Then [P].[P] = (a, c) M (a, c)^T for the Gram M below
# (lambda^4 = 3 x^2), and the conditions c2.[P] = -3 (through c2 = (6/5) q)
# and lambda^2.[P] = x^2 / 4 read M (a, c) = r(x) = (r0, x / 4).
_PLANE_GRAM = ((QDUAL_SELF_PAIRING, QDUAL_DIVISOR_FACTOR), (QDUAL_DIVISOR_FACTOR, 3))
_PLANE_R0 = -3 / C2_QDUAL_MULTIPLE


def lagrangian_eliminant() -> tuple[int, int, int]:
    """Integer coefficients (A, B, C) of the eliminant A x^2 + B x + C = 0.

    With (a, c) = M^-1 r(x), the self-pairing condition [P].[P] = 3 reads
    r^T adj(M) r = 3 det M, a quadratic in x = (lambda, lambda); its
    coefficients are cleared of denominators and of their common factor.
    """
    (m00, m01), (_, m11) = _PLANE_GRAM
    r0 = _PLANE_R0
    # r^T adj(M) r - 3 det M with r = (r0, x/4): coefficients of 1, x, x^2
    poly = (m11 * r0 * r0 - 3 * (m00 * m11 - m01 * m01), -m01 * r0 / 2, Fraction(m00, 16))
    den = math.lcm(*(c.denominator for c in poly))
    ints = [c.numerator * (den // c.denominator) for c in poly]
    content = math.gcd(*ints)
    c0, c1, c2 = (c // content for c in ints)
    return c2, c1, c0


def lagrangian_solver() -> list[PlaneSolution]:
    """Exact rational solutions of the Lagrangian-plane class system.

    Solves the three coupled conditions on (x, a, b) where x is the square
    of the plane's primitive divisor class lambda and [plane] = a q +
    b lambda^2.  Both roots of the eliminant are reported, each with
    (a, c) = M^-1 r(x) and b = c / x; only an even negative integer can be
    the square of an actual lattice class, and that root is flagged
    admissible.
    """
    qa, qb, qc = lagrangian_eliminant()
    disc = qb * qb - 4 * qa * qc
    root = isqrt(disc)
    if root * root != disc:
        raise AssertionError("eliminant discriminant is not a perfect square")
    xs = sorted(
        (Fraction(-qb - root, 2 * qa), Fraction(-qb + root, 2 * qa))
    )
    (m00, m01), (_, m11) = _PLANE_GRAM
    det = m00 * m11 - m01 * m01
    r0 = _PLANE_R0
    solutions = []
    for x in xs:
        r1 = x / 4
        a = (m11 * r0 - m01 * r1) / det
        c = (m00 * r1 - m01 * r0) / det
        admissible = x.denominator == 1 and x < 0 and int(x) % 2 == 0
        solutions.append(PlaneSolution(x, a, c / x, admissible))
    solutions.sort(key=lambda s: not s.admissible)
    return solutions


def line_class_of_plane(lam) -> CurveClass:
    """The line class L = lambda / 2 of a Lagrangian-plane class lambda.

    Requires square -10 and divisibility 2 (which forces primitivity).
    """
    v = _as_vector(lam, AMBIENT_RANK)
    if bb_pair(v, v) != -10:
        raise ValueError("a Lagrangian-plane class has square -10")
    if divisibility(v) != 2:
        raise ValueError("a Lagrangian-plane class has divisibility 2")
    return CurveClass(v, 2, Fraction(-10, 4))
