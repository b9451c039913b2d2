"""Middle-cohomology intersection calculus for numerical K3^[2] fourfolds.

The degree-four cohomology is Sym^2 of the degree-two part plus the formal
dual class q of the quadratic form.  q is never expanded as an explicit
tensor: only its pairing rules are specified (q.ab = 25(a,b), q.q = 575),
and expanding it would risk double counting against user tensors.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .lattice import AMBIENT_RANK, CurveClass, _as_vector, bb_pair, divisibility

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


class MiddleClass(namedtuple("MiddleClass", "basis tensor qdual_coeff")):
    """A middle-cohomology class: a symmetric tensor over a chosen divisor
    basis plus a formal coefficient of the dual class q."""

    __slots__ = ()

    def __new__(cls, basis, tensor, qdual_coeff=Fraction(0)):
        basis = tuple(_as_vector(b, AMBIENT_RANK) for b in basis)
        n = len(basis)
        tensor = tuple(tuple(Fraction(x) for x in row) for row in tensor)
        if len(tensor) != n or any(len(row) != n for row in tensor):
            raise ValueError("tensor shape must match the basis length")
        for i in range(n):
            for j in range(i):
                if tensor[i][j] != tensor[j][i]:
                    raise ValueError("tensor must be symmetric")
        return super().__new__(cls, basis, tensor, Fraction(qdual_coeff))

    @classmethod
    def _make(cls, iterable):
        # _replace goes through _make: keep the validation
        return cls(*iterable)

    @property
    def has_tensor_part(self) -> bool:
        return any(any(row) for row in self.tensor)


def q_dual() -> MiddleClass:
    """The formal dual class q itself."""
    return MiddleClass(basis=(), tensor=(), qdual_coeff=Fraction(1))


def square_class(alpha, coeff=1, qdual_coeff=0) -> MiddleClass:
    """coeff * alpha^2 + qdual_coeff * q over the one-element basis (alpha,)."""
    return MiddleClass(
        basis=(tuple(alpha),),
        tensor=((Fraction(coeff),),),
        qdual_coeff=Fraction(qdual_coeff),
    )


def _tensor_trace(x: MiddleClass) -> Fraction:
    """Sum of c_ij (b_i, b_j) over the tensor of x."""
    total = Fraction(0)
    n = len(x.basis)
    for i in range(n):
        for j in range(n):
            if x.tensor[i][j]:
                total += x.tensor[i][j] * bb_pair(x.basis[i], x.basis[j])
    return total


def middle_pair(x: MiddleClass, y: MiddleClass) -> Fraction:
    """Bilinear symmetric pairing on middle cohomology.

    Tensor parts pair through quad_product; q pairs with a tensor through
    25(a,b) and with itself through 575.  Classes with nontrivial tensors
    must share a basis.
    """
    if x.has_tensor_part and y.has_tensor_part and x.basis != y.basis:
        raise ValueError("middle classes are expressed over different bases")
    total = x.qdual_coeff * y.qdual_coeff * QDUAL_SELF_PAIRING
    if y.has_tensor_part:
        total += x.qdual_coeff * QDUAL_DIVISOR_FACTOR * _tensor_trace(y)
    if x.has_tensor_part:
        total += y.qdual_coeff * QDUAL_DIVISOR_FACTOR * _tensor_trace(x)
    if x.has_tensor_part and y.has_tensor_part:
        n = len(x.basis)
        for i in range(n):
            for j in range(n):
                cij = x.tensor[i][j]
                if not cij:
                    continue
                for k in range(n):
                    for l in range(n):
                        dkl = y.tensor[k][l]
                        if dkl:
                            total += cij * dkl * quad_product(
                                x.basis[i], x.basis[j], y.basis[k], y.basis[l]
                            )
    return total


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


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def _poly_add(*polys):
    n = max(len(p) for p in polys)
    out = [Fraction(0)] * n
    for p in polys:
        for i, a in enumerate(p):
            out[i] += a
    return out


def _poly_scale(c, p):
    return [c * a for a in p]


def _cramer_polynomials():
    """(det, num_a, num_b) in x = (lambda, lambda): a = num_a / det, b = num_b / det.

    Cramer's rule on the two equations linear in (a, b):
    575 a + 25 b x = -5/2   (Chern constraint divided by 6/5)
    25 x a + 3 x^2 b = x^2 / 4   (hyperplane-degree constraint)
    """
    one = [Fraction(1)]
    xpoly = [Fraction(0), Fraction(1)]
    x2 = _poly_mul(xpoly, xpoly)
    a11, a12, r1 = _poly_scale(575, one), _poly_scale(25, xpoly), [Fraction(-5, 2)]
    a21, a22, r2 = _poly_scale(25, xpoly), _poly_scale(3, x2), _poly_scale(Fraction(1, 4), x2)
    det = _poly_add(_poly_mul(a11, a22), _poly_scale(-1, _poly_mul(a12, a21)))
    num_a = _poly_add(_poly_mul(r1, a22), _poly_scale(-1, _poly_mul(a12, r2)))
    num_b = _poly_add(_poly_mul(a11, r2), _poly_scale(-1, _poly_mul(r1, a21)))
    return det, num_a, num_b


def lagrangian_eliminant() -> tuple[int, int, int]:
    """Integer coefficients (A, B, C) of the eliminant A x^2 + B x + C = 0.

    Derived by exact elimination: solve the two equations linear in (a, b)
    by Cramer's rule with coefficients polynomial in x = (lambda, lambda),
    substitute into the self-pairing equation and clear denominators.
    """
    xpoly = [Fraction(0), Fraction(1)]
    x2 = _poly_mul(xpoly, xpoly)
    det, num_a, num_b = _cramer_polynomials()
    # Self-pairing equation times det^2:
    # 575 num_a^2 + 50 num_a num_b x + 3 num_b^2 x^2 - 3 det^2 = 0
    poly = _poly_add(
        _poly_scale(575, _poly_mul(num_a, num_a)),
        _poly_scale(50, _poly_mul(_poly_mul(num_a, num_b), xpoly)),
        _poly_scale(3, _poly_mul(_poly_mul(num_b, num_b), x2)),
        _poly_scale(-3, _poly_mul(det, det)),
    )
    while poly and poly[-1] == 0:
        poly.pop()
    low = next(i for i, c in enumerate(poly) if c)
    poly = poly[low:]
    if len(poly) != 3:
        raise AssertionError("elimination did not produce a quadratic")
    denom_lcm = 1
    for c in poly:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in poly]
    content = 0
    for c in ints:
        content = math.gcd(content, c)
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    c0, c1, c2 = ints
    return c2, c1, c0


def lagrangian_solver() -> list[PlaneSolution]:
    """Exact rational solutions of the Lagrangian-plane class system.

    Solves the three coupled conditions on (x, a, b) where x is the square
    of the plane's primitive divisor class lambda and [plane] = a q +
    b lambda^2.  Both roots of the eliminant are reported; only an even
    negative integer can be the square of an actual lattice class, and that
    root is flagged admissible.
    """
    qa, qb, qc = lagrangian_eliminant()
    disc = qb * qb - 4 * qa * qc
    root = isqrt(disc)
    if root * root != disc:
        raise AssertionError("eliminant discriminant is not a perfect square")
    xs = sorted(
        (Fraction(-qb - root, 2 * qa), Fraction(-qb + root, 2 * qa))
    )
    cramer = _cramer_polynomials()
    solutions = []
    for x in xs:
        det, num_a, num_b = (sum(c * x**i for i, c in enumerate(p)) for p in cramer)
        a = num_a / det
        b = num_b / det
        admissible = x.denominator == 1 and x < 0 and int(x) % 2 == 0
        solutions.append(PlaneSolution(x, a, b, admissible))
    solutions.sort(key=lambda s: not s.admissible)
    return solutions


def line_class_of_plane(lam) -> CurveClass:
    """The line class L = lambda / 2 of a Lagrangian-plane class lambda.

    Requires square -10 and divisibility 2 (which forces primitivity).
    """
    v = tuple(lam)
    if bb_pair(v, v) != -10:
        raise ValueError("a Lagrangian-plane class has square -10")
    if divisibility(v) != 2:
        raise ValueError("a Lagrangian-plane class has divisibility 2")
    return CurveClass(v, 2, Fraction(-10, 4))
