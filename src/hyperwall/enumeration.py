"""Complete, duplicate-free enumeration of wall classes.

A wall class is a Picard vector rho with prescribed negative square and
ambient divisibility, oriented so that (rho, g) > 0.  Finiteness comes from
splitting rho along the polarization g: on the orthogonal complement of g
the form is negative definite, so each slice (rho, g) = k is a finite
ellipsoid problem, and a Cauchy-Schwarz estimate against a second positive
class m caps the admissible levels k.  Without m the set may be infinite,
so callers must then supply an explicit level cap.

With m, the kernel of (., g) is sliced once more along (., m): its last
basis vector c_m pairs with m to d2 > 0 and the others are orthogonal to
both g and m.  The outermost descent coordinate b then fixes
(x, m) = (k/d)(u, m) + b*d2, so the half-space (rho, m) <= 0 is the single
range bound b <= floor(-(k/d)(u, m) / d2) and the part of each ellipsoid
beyond it is never walked.

The kernel basis from Euclid column operations can be badly skewed, so it
is LLL-reduced first (all of it without m, all but c_m with m), which keeps
the Fincke-Pohst tree small.

A query makes one descent, not one per level and target square.  The slice
budget grows as the square gets more negative, so the ellipsoid of a less
negative square lies inside that of a more negative one at the same level.
Each level is therefore walked once, with the budget of the most negative
square whose level cap reaches it, and the innermost level tests every such
square against what is left of that budget.  A square whose targets allow
divisibility 2 only keeps a hit only if the divisibility forms are even on
it: a test mod 2 on the descent coordinates, made before x is built.

The nef threshold needs only the walls the segment from g to m crosses
first, at t = (x, g)/((x, g) - (x, m)).  Its walk keeps the least crossing
a/b of the walls found so far, starting at 1/1, and tightens both
finiteness bounds to it: the half-space clip becomes
(x, m) <= -ceil(k(b - a)/a) at level k, and the Cauchy-Schwarz level cap
is taken for crossings up to a/b instead of up to 1.  enumerate_walls
and is_ample still walk the whole half-space, since they return every
wall.

All arithmetic in the enumerator is exact, and the descent itself uses
integers only; the brute-force oracle uses vectorized int64 scans guarded
against overflow, and only it needs numpy.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from .lattice import PicardLattice
from .rational_linalg import (
    _cleared,
    integer_interval,
    integral_lll,
    ldl_positive,
    linear_form_basis,
    solve_exact,
)

DEFAULT_TARGETS: tuple[tuple[int, int], ...] = ((-2, 1), (-2, 2), (-10, 2))

# Grid chunks above this size are split to keep the oracle's memory flat.
_MAX_GRID_CHUNK = 4_000_000


class WallClass(namedtuple("WallClass", "rho_picard rho_ambient square div")):
    """One oriented wall: coordinates in both systems plus its invariants."""

    __slots__ = ()


class WallQuery(namedtuple("WallQuery", "picard g m targets level_cap")):
    """An enumeration request; g, m and targets are stored as tuples."""

    __slots__ = ()

    def __new__(cls, picard, g, m=None, targets=DEFAULT_TARGETS, level_cap=None):
        return super().__new__(
            cls,
            picard,
            tuple(g),
            None if m is None else tuple(m),
            tuple((s, d) for s, d in targets),
            level_cap,
        )

    @classmethod
    def _make(cls, iterable):
        # _replace goes through _make: keep the tuple normalization
        return cls(*iterable)


def _plain_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _positive_cone(picard: PicardLattice, g, m=None) -> tuple[int, int | None, int | None]:
    """Check (g, g) > 0, then (m, m) > 0, then (g, m) > 0; return the three.

    The public entries' one check of g and m (gram_times validates each
    vector); without m the last two are None.
    """
    g_gram = picard.gram_times(g)
    gg = _dot(g, g_gram)
    if gg <= 0:
        raise ValueError("g must lie in the positive cone: (g, g) > 0 required")
    if m is None:
        return gg, None, None
    m_gram = picard.gram_times(m)
    mm = _dot(m, m_gram)
    if mm <= 0:
        raise ValueError("m must lie in the positive cone: (m, m) > 0 required")
    gm = _dot(g, m_gram)
    if gm <= 0:
        raise ValueError("m must lie in the same component of the positive cone as g")
    return gg, mm, gm


def _validate_query(q: WallQuery) -> tuple[int, int | None, int | None]:
    if not q.picard.is_hyperbolic():
        raise ValueError("Picard lattice must have signature (1, rank-1)")
    pairings = _positive_cone(q.picard, q.g, q.m)
    _validate_targets(q.targets)
    if q.level_cap is not None:
        if not _plain_int(q.level_cap):
            raise ValueError("level_cap must be a plain integer")
        if q.level_cap < 0:
            raise ValueError("level_cap must be nonnegative")
    return pairings


def _validate_targets(targets) -> None:
    if not targets:
        raise ValueError("at least one (square, div) target is required")
    for square, div in targets:
        if not (_plain_int(square) and _plain_int(div)):
            raise ValueError("wall targets must be pairs of plain integers")
        if square >= 0:
            raise ValueError("wall targets must have negative square")
        if div not in (1, 2):
            raise ValueError("wall divisibility targets must be 1 or 2")


def _target_groups(targets) -> dict[int, frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for square, div in targets:
        groups.setdefault(square, set()).add(div)
    return {s: frozenset(d) for s, d in groups.items()}


def level_bound(picard: PicardLattice, g, m, square: int) -> int:
    """Largest level k = (rho, g) a wall with (rho, m) <= 0 can reach.

    Derived from Cauchy-Schwarz on the negative definite complement of g:
    k^2 * (m, m) <= -square * ((g, m)^2 - (m, m)(g, g)), which needs a
    Picard lattice of signature (1, rank-1) and (g, g) > 0, (m, m) > 0
    and (g, m) > 0; anything else raises ValueError.
    """
    if m is None:
        raise ValueError("level_bound needs a second positive class m")
    if not picard.is_hyperbolic():
        raise ValueError("Picard lattice must have signature (1, rank-1)")
    return _level_cap(square, *_positive_cone(picard, g, m))


def _level_cap(square: int, gg: int, mm: int, gm: int) -> int:
    """level_bound from the pairings of an already checked g and m."""
    return isqrt(max(0, -square * (gm * gm - mm * gg)) // mm)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _combine(coeffs, rows) -> list[int]:
    """The integer combination sum_j coeffs[j] * rows[j]."""
    return [sum(c * row[a] for c, row in zip(coeffs, rows)) for a in range(len(rows[0]))]


class _SliceContext:
    """Shared slice data for a fixed (picard, g), optionally sliced along m.

    An integral change of basis splits Z^r as Z*u + kernel with
    (x, g) = d on u and 0 on the kernel; the negated kernel Gram is
    positive definite.  The kernel rows are LLL-reduced under it
    (integral_lll), and its LDL data on the reduced rows drives the
    ellipsoid walks.

    With m given (and not proportional to g), the kernel is reordered as
    [basis of g-perp meet m-perp ..., c_m] with (c_m, m) = m_step > 0, so the
    outermost descent coordinate alone carries (x, m) beyond the constant
    part (k/d)(u, m), and solutions() clips it to the half-space
    (x, m) <= 0.  Only the rows before c_m are reduced; c_m and u stay
    last and unchanged.  When c_m is also the innermost coordinate (rank 2),
    its exact-root hits are clipped the same way.  An m proportional to g
    gets no slice, but its level caps are then 0.

    The descent itself runs in integers only (Fincke-Pohst with cleared
    denominators).  On the slice (x, g) = k = scale*d, writing
    x = scale*u + sum_j t_j kernel_j, the condition (x, x) = square reads

        sum_i weights[i] * (t_i*denoms[i] - n_i)^2 = scale^2*q_num - square*q_den

    with n_i = centre_rows[i] . (t_0, ..., t_{nk-1}, scale), so the LDL
    centre of level i is n_i/denoms[i].  Each level has its own
    denominator, the smallest that makes its centre integral; one common
    factor q_den then clears the weights d_i/denoms[i]^2 and the radius.
    All of these are built once from the rational LDL data; each descent
    node then costs one isqrt.

    The right-hand side is largest for the most negative square, and a
    second square s needs (s - s_low)*q_den less of it.  solutions() walks
    each scale with the largest budget of the squares it asks for there
    (they change only where a scale passes a cap).  Level 1 is a plain loop
    that tests level 0 exactly for each such square, its offset taken off.
    """

    def __init__(self, picard: PicardLattice, g, m=None):
        self.picard = picard
        w = picard._gram_times(g)
        self.d, self.u, self.kernel = linear_form_basis(w)
        self.m_step = self.u_m = 0
        if m is not None:
            wm = picard._gram_times(m)
            restricted = [_dot(b, wm) for b in self.kernel]
            # m proportional to g leaves (., m) zero on the kernel: no slice
            if any(restricted):
                self.m_step, c_m, rest = linear_form_basis(restricted)
                self.kernel = [_combine(c, self.kernel) for c in rest + [c_m]]
                self.u_m = _dot(self.u, wm)
        nk = len(self.kernel)
        # c_m stays last and unreduced, so u_m, m_step and the clip hold
        free = nk - 1 if self.m_step else nk
        try:
            if free > 1:  # a single row is already reduced
                self.kernel[:free] = integral_lll(
                    [[-e for e in row] for row in picard.gram], self.kernel[:free]
                )
            gram_kernel = [picard._gram_times(b) for b in self.kernel]
            neg_gram = [[-_dot(self.kernel[i], row) for i in range(nk)] for row in gram_kernel]
            dvec, coef = ldl_positive(neg_gram) if nk else ([], [])
        except ValueError as exc:
            raise ValueError(
                "the form restricted to the complement of g is not negative "
                "definite; Picard data is malformed"
            ) from exc
        base = [_dot(self.u, row) for row in gram_kernel]
        p_base = solve_exact(neg_gram, base) if nk else []
        q_base = picard._pair(self.u, self.u) + sum(
            (b * p for b, p in zip(base, p_base)), Fraction(0)
        )
        # centre of level i at t = 0, per unit of scale
        centre = [
            p_base[i] + sum((coef[i][j] * p_base[j] for j in range(i + 1, nk)), Fraction(0))
            for i in range(nk)
        ]
        # coef is strictly upper triangular, so row i reads only t_j, j > i
        cleared = [_cleared([*(-c for c in coef[i]), centre[i]]) for i in range(nk)]
        self.denoms = [den for den, _ in cleared]
        self.centre_rows = [row for _, row in cleared]
        level_weights = [di / (den * den) for di, den in zip(dvec, self.denoms)]
        self.q_den, (*self.weights, self.q_num) = _cleared([*level_weights, q_base])
        # x = columns . (t_0, ..., t_{nk-1}, scale), one column per coordinate
        self.columns = [list(col) for col in zip(*self.kernel, self.u)]

    @cached_property
    def _parity_rows(self) -> list[list[int]]:
        # the divisibility forms on t, mod 2; built on the first hit that
        # needs them, so calls without one skip it
        cols = list(zip(*self.columns))
        rows = ([sum(map(mul, f, c)) & 1 for c in cols] for f in self.picard._divisibility_forms)
        return [row for row in rows if any(row)]

    def _odd(self, t) -> bool:
        """Whether x = columns . t has odd divisibility."""
        return any(sum(map(mul, row, t)) & 1 for row in self._parity_rows)

    def solutions(
        self, caps, first: int = 1, even=frozenset(), nearest=None
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Every (square, x) with (x, x) = square and first <= (x, g) <= caps[square].

        caps maps each target square to its largest level; the result is
        sorted.  One call walks each scale (x, g) = scale*d once, with the
        budget of the most negative square whose cap reaches it, and tests
        every such square at the innermost level.  A hit on a square in
        even is kept only if x has even divisibility; that congruence is
        tested on t, before x is built.  A context built with m (not
        proportional to g) leaves out every x with (x, m) > 0.

        nearest = (groups, (g, g), (m, m), (g, m)) walks only toward the
        first wall the segment from g to m crosses.  With k = (x, g) and
        j = (x, m), x crosses it at k/(k - j); a/b, the smallest crossing
        of a hit that is a wall (primitive, its divisibility in
        groups[square]), starts at 1/1.  The clip becomes
        j <= -ceil(k(b - a)/a), and the walk stops at the first level k
        where Cauchy-Schwarz leaves no x of the walked squares that far
        out.  Both bounds are inclusive, so every wall crossing at the
        final a/b is returned; hits farther out may be returned too.
        """
        found: list[tuple[int, tuple[int, ...]]] = []
        d, nk, q_num, q_den = self.d, len(self.kernel), self.q_num, self.q_den
        denoms, weights, rows, columns = self.denoms, self.weights, self.centre_rows, self.columns
        top = nk - 1
        u_m, m_step = self.u_m, self.m_step
        a = b = 1
        if nearest is not None:
            groups, gg, mm, gm = nearest
            disc = gm * gm - mm * gg
            # an m proportional to g has no clip to tighten (and caps of 0)
            if not m_step:
                nearest = None
        den0, w0 = (denoms[0], weights[0]) if nk else (1, 1)
        # with nk == 1 the only level is the innermost: it is entered as one
        # step of a level-1 loop of weight 0 that writes the spare slot
        den1, w1, slot = (denoms[1], weights[1], 1) if nk > 1 else (1, 0, nk + 1)
        # Flat Fincke-Pohst walk, outermost level first.  Level i >= 2 keeps
        # its centre numerator, the budget it was entered with and its range
        # end; level 1 is a plain loop that tests level 0 inline.  t[nk] =
        # scale, so rows[i] . t is the centre numerator of level i; no row
        # reads the spare slot t[nk + 1].
        t = [0] * (nk + 2)
        centres, entered, stops = [0] * nk, [0] * nk, [0] * nk
        start = -(-first // d)
        # the squares a scale asks for change only where it passes a cap
        for cap in sorted(set(caps.values())):
            end = cap // d + 1
            if end <= start:
                continue
            squares = sorted(s for s, c in caps.items() if c >= cap)
            low = squares[0]
            # square s leaves (s - low)*q_den less budget than the lowest one
            leaves = [(s, (s - low) * q_den, s in even) for s in squares]
            for scale in range(start, end):
                budget = scale * scale * q_num - low * q_den
                if budget < 0:
                    continue
                if nearest is not None:
                    # Cauchy-Schwarz on the complement of g: no x of a walked
                    # square at this level or beyond crosses by a/b
                    c = b - a
                    if (scale * d) ** 2 * (mm * a * a + 2 * gm * a * c + gg * c * c) > -low * disc * a * a:
                        break
                t[nk] = scale
                if nk == 0:
                    x = tuple(scale * c for c in self.u)
                    found.extend(
                        (s, x) for s, off, parity in leaves
                        if budget == off and not (parity and self._odd(t))
                    )
                    continue
                # (x, m) = scale*(u, m) + m_step*t[top] <= -ceil(k(b - a)/a)
                # <=>  t[top] < top_stop, with k = scale*d
                top_stop = ((-scale * d * (b - a)) // a - scale * u_m) // m_step + 1 if m_step else None
                # with nk == 1 the clipped coordinate is t[0], fixed by the root
                stop0 = top_stop if top == 0 else None
                i, remaining = top, budget
                while True:
                    if i:
                        n = sum(map(mul, rows[i], t))
                        span = integer_interval(n, denoms[i], remaining // weights[i])
                        lo, stop = span.start, span.stop
                        if i == top and top_stop is not None and top_stop < stop:
                            stop = top_stop
                    else:
                        n, lo, stop = 0, 0, 1
                    if i > 1:
                        centres[i], entered[i], stops[i], t[i] = n, remaining, stop, lo - 1
                    else:
                        for t1 in range(lo, stop):
                            e = t1 * den1 - n
                            left = remaining - w1 * e * e
                            # level 0: each square's budget must be consumed
                            # exactly, so solve for t[0] instead of walking
                            for s, off, parity in leaves:
                                q, r = divmod(left - off, w0)
                                if q < 0:
                                    break
                                root = isqrt(q)
                                if r or root * root != q:
                                    continue
                                t[slot] = t1
                                n0 = sum(map(mul, rows[0], t))
                                for v in (n0 + root, n0 - root) if root else (n0,):
                                    if v % den0 == 0:
                                        t[0] = v // den0
                                        if stop0 is not None and t[0] >= stop0:
                                            continue
                                        if parity and self._odd(t):
                                            continue
                                        x = tuple(sum(map(mul, col, t)) for col in columns)
                                        found.append((s, x))
                                        if nearest is None:
                                            continue
                                        # a wall crossing before a/b tightens the bound
                                        k, j = scale * d, scale * u_m + m_step * t[top]
                                        if k * b < a * (k - j) and gcd(*x) == 1 and (
                                            self.picard._divisibility(x) in groups[s]
                                        ):
                                            a, b = k, k - j
                                            # at this scale the clip is now t[top] <= its
                                            # value (a rank-3 level-1 loop runs its range out)
                                            if top:
                                                stops[top] = t[top] + 1
                                            else:
                                                stop0 = t[0] + 1
                        i = 2
                    # the next t at the innermost level that has one left
                    while i < nk:
                        t[i] += 1
                        if t[i] < stops[i]:
                            break
                        i += 1
                    else:
                        break
                    e = t[i] * denoms[i] - centres[i]
                    remaining = entered[i] - weights[i] * e * e
                    i -= 1
            start = end
        found.sort()
        return found


def slice_solutions(picard: PicardLattice, g, k: int, square: int) -> list[tuple[int, ...]]:
    """Lattice vectors on the affine slice (x, g) = k with the given square."""
    if k < 1:
        raise ValueError("slice level k must be at least 1")
    g = tuple(g)
    _positive_cone(picard, g)
    return [x for _, x in _SliceContext(picard, g).solutions({square: k}, first=k)]


def _collect_walls(
    picard: PicardLattice, g, m, groups, caps, first: int = 1, nearest=None
) -> list[WallClass]:
    """Primitive walls with first <= (rho, g) <= caps[square], sorted.

    The package's one wall filter, for already checked input: caps maps
    each target square to its largest level (rho, g), groups maps it to
    the admissible divisibilities.  With m the context's clip keeps only
    (rho, m) <= 0; m needs no positive square here, only (m, g) > 0, so an
    isotropic m slices the descent as well.  first=0 with caps of 0 gives
    the walls orthogonal to g.  nearest = ((g, g), (m, m), (g, m)) walks
    only toward the first crossing (see _SliceContext.solutions): the
    result then holds every wall crossed first, and maybe some others.
    """
    even = {square for square, divs in groups.items() if 1 not in divs}
    if nearest is not None:
        nearest = (groups, *nearest)
    walls: list[WallClass] = []
    for square, x in _SliceContext(picard, g, m).solutions(caps, first, even, nearest):
        div = picard._divisibility(x)
        if div in groups[square] and gcd(*x) == 1:
            walls.append(WallClass(x, picard._to_ambient(x), square, div))
    walls.sort(key=lambda wall: wall.rho_picard)
    return walls


def enumerate_walls(query: WallQuery) -> list[WallClass]:
    """Exactly the oriented wall classes matching the query, sorted.

    Output is complete, duplicate-free, holds only primitive classes and
    is sorted lexicographically by Picard coordinates.  When m is absent a
    level_cap is required, and the result is then complete up to
    (rho, g) <= level_cap.
    """
    groups, caps, _ = _query_caps(query)
    return _collect_walls(query.picard, query.g, query.m, groups, caps)


def _query_caps(query: WallQuery):
    """Check the query; return its target groups, the level cap of each
    square and the pairings (g, g), (m, m), (g, m)."""
    pairings = _validate_query(query)
    cap = query.level_cap
    if query.m is None and cap is None:
        raise ValueError(
            "the wall set is only finite against a second positive class: "
            "supply m or an explicit level_cap"
        )
    groups = _target_groups(query.targets)
    caps = {}
    for square in groups:
        bound = cap if query.m is None else _level_cap(square, *pairings)
        caps[square] = bound if cap is None else min(bound, cap)
    return groups, caps, pairings


def _python_scan(picard, g, m, cap, box, squares) -> list[tuple[int, ...]]:
    rank = picard.rank
    out = []
    for x in itertools.product(range(-box, box + 1), repeat=rank):
        s = picard.square(x)
        if s not in squares:
            continue
        lg = picard.pair(x, g)
        if lg < 1 or (cap is not None and lg > cap):
            continue
        if m is not None and picard.pair(x, m) > 0:
            continue
        out.append(x)
    return out


def _numpy_scan(gram, g, m, cap, box, squares) -> list[tuple[int, ...]]:
    import numpy as np  # the oracle alone needs numpy; keep it out of startup

    rank = len(gram)
    side = 2 * box + 1
    trail = rank
    while trail > 1 and side**trail > _MAX_GRID_CHUNK:
        trail -= 1
    lead = rank - trail
    gmat = np.array(gram, dtype=np.int64)
    rng = np.arange(-box, box + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * trail), indexing="ij")
    tgrid = np.stack(grids, axis=-1).reshape(-1, trail)
    q_tt = np.einsum("ij,mi,mj->m", gmat[lead:, lead:], tgrid, tgrid)
    wg = gmat @ np.array(g, dtype=np.int64)
    wm = gmat @ np.array(m if m is not None else [0] * rank, dtype=np.int64)
    lg_t, lm_t = tgrid @ wg[lead:], tgrid @ wm[lead:]
    lg_low, lg_high, lm_low = int(lg_t.min()), int(lg_t.max()), int(lm_t.min())
    sq_arr = np.array(sorted(squares), dtype=np.int64)
    out: list[tuple[int, ...]] = []
    for head in itertools.product(range(-box, box + 1), repeat=lead):
        xl = np.array(head, dtype=np.int64)
        at_g, at_m = int(xl @ wg[:lead]), int(xl @ wm[:lead])
        # a head whose level range misses [1, cap] or whose (x, m) > 0 throughout
        if at_g + lg_high < 1 or (cap is not None and at_g + lg_low > cap) or at_m + lm_low > 0:
            continue
        lg = lg_t + at_g
        mask = (lg >= 1) & (lm_t + at_m <= 0)
        if cap is not None:
            mask &= lg <= cap
        # squares only where the level and half-space masks hold
        idx = np.nonzero(mask)[0]
        lin = 2 * (gmat[lead:, :lead] @ xl)
        vals = q_tt[idx] + tgrid[idx] @ lin + int(xl @ gmat[:lead, :lead] @ xl)
        for i in idx[np.isin(vals, sq_arr)]:
            out.append(head + tuple(int(c) for c in tgrid[i]))
    return out


def brute_force_walls(query: WallQuery, box: int) -> list[WallClass]:
    """Testing oracle: the same wall filter by exhaustive coordinate scan.

    Scans Picard coordinates in [-box, box]^rank and applies exactly the
    predicates of enumerate_walls, primitivity included.  Large grids go
    through a vectorized int64 path; an overflow guard falls back to pure
    Python.
    """
    _validate_query(query)
    if box <= 0:
        return []
    picard = query.picard
    groups = _target_groups(query.targets)
    squares = frozenset(groups)
    cap = query.level_cap
    bound = box * box * sum(abs(e) for row in picard.gram for e in row)
    bound = max(bound, box * sum(abs(x) for x in picard.gram_times(query.g)))
    if query.m is not None:
        bound = max(bound, box * sum(abs(x) for x in picard.gram_times(query.m)))
    side = 2 * box + 1
    if side**picard.rank <= 200_000 or bound >= 2**62:
        candidates = _python_scan(picard, query.g, query.m, cap, box, squares)
    else:
        candidates = _numpy_scan(picard.gram, query.g, query.m, cap, box, squares)
    walls = []
    for x in candidates:
        ambient = picard.to_ambient(x)
        div = picard.ambient.divisibility(ambient)
        square = picard.square(x)
        if div in groups[square] and gcd(*ambient) == 1:
            walls.append(WallClass(tuple(x), ambient, square, div))
    walls.sort(key=lambda wall: wall.rho_picard)
    return walls
