"""Ampleness verdicts, nef thresholds and extremal-ray classification.

The verdict semantics are asymmetric on purpose: a class that pairs
strictly positively with every wall is provably ample, while a negative
verdict asserts non-nefness only conjecturally (the wall witnesses a curve
class whose effectivity is the conjectural half of the criterion).
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .enumeration import (
    DEFAULT_TARGETS,
    WallClass,
    WallQuery,
    _collect_walls,
    _dot,
    _level_cap,
    _read_targets,
    _validate_targets,
    enumerate_walls,
)
from .lattice import (
    AMBIENT_RANK,
    PicardLattice,
    _as_vector,
    _plain_int,
    _require_primitive,
    admissible_square_div,
    bb_pair,
    divisibility,
)


class PreconditionError(ValueError):
    """An operation precondition failed (for example: g is not ample)."""


class AmpleStatus(str, Enum):
    AMPLE = "ample"
    NEF_BOUNDARY = "nef_boundary"
    NOT_NEF = "not_nef"
    NOT_POSITIVE = "not_positive"


#: Statuses whose verdict follows from the proven implication (numerically
#: positive classes are ample); the remaining ones rest on the conjectural
#: description of the curve cone.
PROVEN_STATUSES = frozenset({AmpleStatus.AMPLE, AmpleStatus.NOT_POSITIVE})


class AmpleVerdict(namedtuple("AmpleVerdict", "status witnesses isotropic_flag")):
    """status: an AmpleStatus; witnesses: a tuple of WallClass; isotropic_flag: bool."""

    __slots__ = ()

    @property
    def certainty(self) -> str:
        return "proven" if self.status in PROVEN_STATUSES else "conjectural"


class WallKind(str, Enum):
    DIVISORIAL_HALF = "divisorial_half"
    DIVISORIAL_TWO = "divisorial_two"
    LAGRANGIAN_PLANE = "lagrangian_plane"
    NON_NODAL = "non_nodal"
    INADMISSIBLE = "inadmissible"


class RayType(namedtuple("RayType", "kind dual_square dc_values")):
    """kind: a WallKind; dual_square: a Fraction; dc_values: the possible
    values of D.C on the contracted curve (the lattice data genuinely
    underdetermines the choice for divisorial_half)."""

    __slots__ = ()


def classify_square_div(square: int, div: int) -> RayType:
    """Extremal-ray type of a (square, divisibility) pair."""
    if not (_plain_int(square) and _plain_int(div)):
        raise ValueError("square and divisibility must be plain integers")
    if square >= 0:
        raise ValueError("wall classes have negative square")
    if div < 1:
        raise ValueError("divisibility must be positive")
    dual = Fraction(square, div * div)
    key = (square, div)
    if key == (-2, 2):
        return RayType(WallKind.DIVISORIAL_HALF, dual, (-1, -2))
    if key == (-2, 1):
        return RayType(WallKind.DIVISORIAL_TWO, dual, (-2,))
    if key == (-10, 2):
        return RayType(WallKind.LAGRANGIAN_PLANE, dual, ())
    if div in (1, 2) and not admissible_square_div(square, div):
        return RayType(WallKind.INADMISSIBLE, dual, ())
    return RayType(WallKind.NON_NODAL, dual, ())


def classify_wall(rho) -> RayType:
    """Classify a primitive ambient wall vector by its square and divisibility."""
    v = _as_vector(rho, AMBIENT_RANK)
    square = bb_pair(v, v)
    if square >= 0:
        raise ValueError("wall classes have negative square")
    _require_primitive(v)
    return classify_square_div(square, divisibility(v))


def detect_isotropic_boundary(picard: PicardLattice, m) -> bool:
    """Whether m is primitive and isotropic (a potential fibration boundary).

    Report-only flag; no fibration is constructed.
    """
    return picard.square(m) == 0 and math.gcd(*m) == 1


def _checked_polarization(picard: PicardLattice, g, targets) -> tuple[tuple[int, ...], int, dict]:
    """validate_polarization's checks before its walk, in its order; returns
    g's Gram form (gram_times validates g), (g, g) and the target groups."""
    groups = _validate_targets(targets)
    if not picard.is_hyperbolic():
        raise ValueError("Picard lattice must have signature (1, rank-1)")
    w_g = picard.gram_times(g)
    gg = _dot(g, w_g)
    if gg <= 0:
        raise PreconditionError("g is not ample: (g, g) <= 0")
    return w_g, gg, groups


def _raise_orthogonal(walls, groups) -> None:
    """Reject g for the level-0 walls a walk found, naming the first of
    them and their negatives in target order, then by Picard coordinates
    (a walk clipped to (rho, m) <= 0 finds one of each +-rho pair)."""
    if walls:
        order = list(groups)
        rho, wall = min(
            ((x, w) for w in walls for x in (w.rho_picard, tuple(-c for c in w.rho_picard))),
            key=lambda pair: (order.index(pair[1].square), pair[0]),
        )
        raise PreconditionError(
            f"g is not ample: it is orthogonal to the wall {rho} "
            f"(square {wall.square}, divisibility {wall.div})"
        )


def validate_polarization(picard: PicardLattice, g, targets=DEFAULT_TARGETS) -> None:
    """Reject a polarization that fails its own ampleness test.

    g must have positive square and may not be orthogonal to any wall
    class; the orthogonal walls are exactly the level-zero slice of each
    target, which is a finite negative definite problem.  The targets are
    checked first, so bad targets raise ValueError before any verdict.
    """
    w_g, _, groups = _checked_polarization(picard, g, _read_targets(targets))
    _raise_orthogonal(_collect_walls(picard, w_g, None, groups, dict.fromkeys(groups, 0), first=0), groups)


def _isotropic_level_cap(square: int, p: int, v: int) -> int:
    # Walls with (rho, m) <= -1 against an isotropic m satisfy
    # (rho, g) <= (|square| * (m, g)^2 - (g, g)) / (2 (m, g)).
    num = -square * p * p - v
    if num <= 0:
        return 0
    return num // (2 * p)


def is_ample(picard: PicardLattice, g, m, targets=DEFAULT_TARGETS) -> AmpleVerdict:
    """Numerical ampleness verdict for the divisor class m.

    Classes of nonnegative square need no wall check: a class with positive
    square and positive pairing with g pairs positively with every such
    class by the hyperbolic signature.  For isotropic m the strict wall
    violations are still finite (their level is capped against g), so the
    verdict is exact; the orthogonal witnesses reported in that case are
    the finitely many found below the same cap.
    """
    targets = _read_targets(targets)
    validate_polarization(picard, g, targets)
    w_m = picard.gram_times(m)
    mm, mg = _dot(m, w_m), _dot(g, w_m)
    if mm < 0 or mg <= 0:
        return AmpleVerdict(AmpleStatus.NOT_POSITIVE, (), False)
    if mm == 0:
        # WallQuery demands (m, m) > 0; the isotropic m still slices the
        # descent, so the walls are collected directly under their caps.
        w_g = picard._gram_times(g)
        gg = _dot(g, w_g)
        groups = _validate_targets(targets)
        caps = {square: _isotropic_level_cap(square, mg, gg) for square in groups}
        witnesses = _collect_walls(picard, w_g, w_m, groups, caps)
    else:
        witnesses = enumerate_walls(WallQuery(picard, g, m=m, targets=targets))
    if any(_dot(w.rho_picard, w_m) < 0 for w in witnesses):
        return AmpleVerdict(AmpleStatus.NOT_NEF, tuple(witnesses), False)
    if witnesses:
        return AmpleVerdict(AmpleStatus.NEF_BOUNDARY, tuple(witnesses), mm == 0)
    if mm == 0:
        return AmpleVerdict(AmpleStatus.NEF_BOUNDARY, (), True)
    return AmpleVerdict(AmpleStatus.AMPLE, (), False)


def nef_threshold(
    picard: PicardLattice, g, m, targets=DEFAULT_TARGETS
) -> tuple[Fraction, tuple[WallClass, ...]]:
    """Exact nef threshold along the segment t*m + (1-t)*g, with its walls.

    Returns the supremum tau of t for which the segment class is ample,
    together with the wall(s) whose hyperplane is hit at tau.  tau = 1 when
    no wall separates m from g; walls orthogonal to m itself then witness
    the boundary crossing exactly at t = 1.

    Unlike enumerate_walls, the walk does not collect every wall: each
    wall it finds bounds the walk to walls crossing no later, so only
    the part of the wall set toward the first crossing is searched.  The
    bound is inclusive, so every wall at tau is found.

    g gets the checks and errors of validate_polarization from this walk,
    which starts at level 0; an m of non-positive square or pairing with
    g is rejected after every check of g.
    """
    targets = _read_targets(targets)
    w_g, gg, groups = _checked_polarization(picard, g, targets)
    try:
        w_m = picard.gram_times(m)
        mm, gm = _dot(m, w_m), _dot(g, w_m)
        if mm <= 0:
            raise PreconditionError("nef_threshold requires (m, m) > 0")
        if gm <= 0:
            raise PreconditionError("nef_threshold requires (m, g) > 0")
    except ValueError:
        # an m error comes after every error of g, the walk's included
        validate_polarization(picard, g, targets)
        raise
    caps = {square: _level_cap(square, gg, mm, gm) for square in groups}
    walls = _collect_walls(picard, w_g, w_m, groups, caps, first=0, nearest=(gg, mm, gm))
    _raise_orthogonal([w for w in walls if not _dot(w.rho_picard, w_g)], groups)
    if not walls:
        return Fraction(1), ()
    pairings = [(_dot(w.rho_picard, w_g), _dot(w.rho_picard, w_m), w) for w in walls]
    crossings = [(Fraction(pg, pg - pm), w) for pg, pm, w in pairings]
    tau = min(t for t, _ in crossings)
    achieving = tuple(w for t, w in crossings if t == tau)
    return tau, achieving
