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
    _query_caps,
    _target_groups,
    _validate_targets,
    enumerate_walls,
)
from .lattice import (
    AMBIENT_RANK,
    PicardLattice,
    _as_vector,
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
    coords = tuple(m)
    return picard.square(coords) == 0 and math.gcd(*coords) == 1


def validate_polarization(picard: PicardLattice, g, targets=DEFAULT_TARGETS) -> None:
    """Reject a polarization that fails its own ampleness test.

    g must have positive square and may not be orthogonal to any wall
    class; the orthogonal walls are exactly the level-zero slice of each
    target, which is a finite negative definite problem.  The targets are
    checked first, so bad targets raise ValueError before any verdict.
    """
    _validate_targets(targets)
    if not picard.is_hyperbolic():
        raise ValueError("Picard lattice must have signature (1, rank-1)")
    coords = tuple(g)
    if picard.square(coords) <= 0:
        raise PreconditionError("g is not ample: (g, g) <= 0")
    groups = _target_groups(targets)
    walls = _collect_walls(picard, coords, None, groups, dict.fromkeys(groups, 0), first=0)
    if walls:
        # report the first wall in target order, as the targets were given
        order = list(groups)
        wall = min(walls, key=lambda w: (order.index(w.square), w.rho_picard))
        raise PreconditionError(
            f"g is not ample: it is orthogonal to the wall {wall.rho_picard} "
            f"(square {wall.square}, divisibility {wall.div})"
        )


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
    gcoords = tuple(g)
    validate_polarization(picard, gcoords, targets)
    coords = tuple(m)
    mm = picard.square(coords)
    mg = picard._pair(coords, gcoords)
    if mm < 0 or mg <= 0:
        return AmpleVerdict(AmpleStatus.NOT_POSITIVE, (), False)
    if mm == 0:
        # WallQuery demands (m, m) > 0; the isotropic m still slices the
        # descent, so the walls are collected directly under their caps.
        gg = picard._pair(gcoords, gcoords)
        groups = _target_groups(targets)
        caps = {square: _isotropic_level_cap(square, mg, gg) for square in groups}
        witnesses = _collect_walls(picard, gcoords, coords, groups, caps)
    else:
        query = WallQuery(picard, gcoords, m=coords, targets=tuple(targets))
        witnesses = enumerate_walls(query)
    if any(picard._pair(w.rho_picard, coords) < 0 for w in witnesses):
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
    """
    gcoords = tuple(g)
    validate_polarization(picard, gcoords, targets)
    coords = tuple(m)
    if picard.square(coords) <= 0:
        raise PreconditionError("nef_threshold requires (m, m) > 0")
    if picard._pair(coords, gcoords) <= 0:
        raise PreconditionError("nef_threshold requires (m, g) > 0")
    query = WallQuery(picard, gcoords, m=coords, targets=tuple(targets))
    groups, caps, pairings = _query_caps(query)
    walls = _collect_walls(picard, gcoords, coords, groups, caps, nearest=pairings)
    if not walls:
        return Fraction(1), ()
    crossings = []
    for wall in walls:
        pg = picard._pair(wall.rho_picard, gcoords)
        pm = picard._pair(wall.rho_picard, coords)
        crossings.append((Fraction(pg, pg - pm), wall))
    tau = min(t for t, _ in crossings)
    achieving = tuple(w for t, w in crossings if t == tau)
    return tau, achieving
