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
square against what is left of that budget.

A square whose targets allow divisibility 2 only needs x with even
divisibility, and that congruence prunes every node of the walk, not only
the hit.  Even divisibility is linear mod 2 in the descent coordinates
t = (t_0, ..., t_{nk-1}, scale): with P_j the ambient pairings mod 2 of
column j, the node that fixes t_i, ..., scale has a completion of even
divisibility exactly when sum_{j >= i} t_j P_j lies in
span(P_0, ..., P_{i-1}).  In GF(2) coordinates adapted to these nested
spans that is one XOR and one shift per node.  A node that fails walks on
with the budget of the most negative square that allows divisibility 1, or
is dropped when there is none.  A walk with no level above the innermost
(rank 2) or with no even-only square prunes nothing this way, so it skips
the GF(2) setup and carries the plain P_j instead, with a bound no node
reaches.

The same residue, carried to every hit, gives each wall its divisibility:
it is 0 exactly when x has even divisibility.
The discriminant group of K3^[2] is Z/2, so a primitive x (gcd(*x) == 1)
has divisibility 2 when its residue is 0 and 1 otherwise (_wall_div).

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
from collections.abc import Sequence
from math import gcd, isqrt, lcm
from operator import mul

from .lattice import AMBIENT_RANK, PicardLattice, _plain_int, divisibility
from .rational_linalg import (
    _reduced,
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
    """An enumeration request; g, m and targets are stored as tuples (a g or
    m that is not a Sequence, or targets that _read_targets cannot read,
    are kept, for enumerate_walls to reject)."""

    __slots__ = ()

    def __new__(cls, picard, g, m=None, targets=DEFAULT_TARGETS, level_cap=None):
        g, m = (tuple(v) if isinstance(v, Sequence) else v for v in (g, m))
        return super().__new__(cls, picard, g, m, _read_targets(targets), level_cap)

    @classmethod
    def _make(cls, iterable):
        # _replace goes through _make: keep the tuple normalization
        return cls(*iterable)


def _positive_cone(picard: PicardLattice, g, m=None) -> tuple[tuple, tuple]:
    """Check (g, g) > 0, then (m, m) > 0, then (g, m) > 0; return
    ((w_g, w_m), ((g, g), (m, m), (g, m))), None for m's entries without m.

    The public entries' one check of g and m: gram_times validates each and
    gives its Gram form w = G*x, the call's one product with it.
    """
    w_g = picard.gram_times(g)
    gg = _dot(g, w_g)
    if gg <= 0:
        raise ValueError("g must lie in the positive cone: (g, g) > 0 required")
    if m is None:
        return (w_g, None), (gg, None, None)
    w_m = picard.gram_times(m)
    mm = _dot(m, w_m)
    if mm <= 0:
        raise ValueError("m must lie in the positive cone: (m, m) > 0 required")
    gm = _dot(g, w_m)
    if gm <= 0:
        raise ValueError("m must lie in the same component of the positive cone as g")
    return (w_g, w_m), (gg, mm, gm)


def _validate_query(q: WallQuery) -> tuple[tuple, tuple, dict[int, frozenset[int]]]:
    """_positive_cone's forms and pairings, and the target groups."""
    if not q.picard.is_hyperbolic():
        raise ValueError("Picard lattice must have signature (1, rank-1)")
    forms, pairings = _positive_cone(q.picard, q.g, q.m)
    groups = _validate_targets(q.targets)
    if q.level_cap is not None:
        if not _plain_int(q.level_cap):
            raise ValueError("level_cap must be a plain integer")
        if q.level_cap < 0:
            raise ValueError("level_cap must be nonnegative")
    return forms, pairings, groups


def _read_targets(targets):
    """The targets read once into a tuple of tuples; DEFAULT_TARGETS, and an
    object that does not read so, are kept as they are (for _validate_targets)."""
    if targets is DEFAULT_TARGETS:
        return targets
    try:
        return tuple(tuple(target) for target in targets)
    except TypeError:
        return targets


def _validate_targets(targets) -> dict[int, frozenset[int]]:
    """Check the targets _read_targets gives and return _target_groups of
    them.  The defaults were checked and grouped at import and are known by
    identity: equal targets in another object (True == 1) get every check."""
    if targets is DEFAULT_TARGETS:
        return _DEFAULT_GROUPS
    if not targets:
        raise ValueError("at least one (square, div) target is required")
    if type(targets) is not tuple or any(type(t) is not tuple or len(t) != 2 for t in targets):
        raise ValueError("wall targets must be pairs of plain integers")
    for square, div in targets:
        if not (_plain_int(square) and _plain_int(div)):
            raise ValueError("wall targets must be pairs of plain integers")
        if square >= 0:
            raise ValueError("wall targets must have negative square")
        if div not in (1, 2):
            raise ValueError("wall divisibility targets must be 1 or 2")
    return _target_groups(targets)


def _target_groups(targets) -> dict[int, frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for square, div in targets:
        groups.setdefault(square, set()).add(div)
    return {s: frozenset(d) for s, d in groups.items()}


_DEFAULT_GROUPS = _validate_targets(tuple(map(tuple, DEFAULT_TARGETS)))  # shared: never mutate it


def level_bound(picard: PicardLattice, g, m, square: int) -> int:
    """Largest level k = (rho, g) a wall with (rho, m) <= 0 can reach.

    Derived from Cauchy-Schwarz on the negative definite complement of g:
    k^2 * (m, m) <= -square * ((g, m)^2 - (m, m)(g, g)), which needs a
    Picard lattice of signature (1, rank-1) and (g, g) > 0, (m, m) > 0
    and (g, m) > 0; anything else raises ValueError.
    """
    if m is None:
        raise ValueError("level_bound needs a second positive class m")
    if not _plain_int(square):
        raise ValueError("square must be a plain integer")
    if not picard.is_hyperbolic():
        raise ValueError("Picard lattice must have signature (1, rank-1)")
    return _level_cap(square, *_positive_cone(picard, g, m)[1])


def _level_cap(square: int, gg: int, mm: int, gm: int) -> int:
    """level_bound from the pairings of an already checked g and m."""
    return isqrt(max(0, -square * (gm * gm - mm * gg)) // mm)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _wall_div(x, res, divs) -> int:
    """The divisibility of the hit x of solutions(), with parity residue
    res, if x is a wall (primitive, its divisibility in divs), else 0: the
    package's one test of what counts as a wall.

    A primitive x has divisibility 1 or 2 in K3^[2], and 2 exactly when
    res is 0.
    """
    if gcd(*x) != 1:
        return 0
    div = 1 if res else 2
    return div if div in divs else 0


def _readout(x, masks) -> int:
    """The parity residue of the Picard vector x: the XOR of the parity
    masks of its odd coordinates, 0 exactly when x has even divisibility."""
    p = 0
    for c, mask in zip(x, masks):
        if c & 1:
            p ^= mask
    return p


class _SliceContext:
    """Shared slice data for a fixed (picard, g), optionally sliced along m,
    built from their Gram forms w_g = G*g and w_m = G*m.

    An integral change of basis splits Z^r as Z*u + kernel with
    (x, g) = d on u and 0 on the kernel; the negated kernel Gram is
    positive definite.  The kernel rows are LLL-reduced under it
    (integral_lll), and its LDL data on the reduced rows drives the
    ellipsoid walks.

    With m given (and not proportional to g), the same linear_form_basis
    call reduces (., m) on the kernel too, and returns it as
    [basis of g-perp meet m-perp ..., c_m] with (c_m, m) = m_step > 0, so the
    outermost descent coordinate alone carries (x, m) beyond the constant
    part (k/d)(u, m), and solutions() clips it to the half-space
    (x, m) <= 0.  Only the rows before c_m are reduced; c_m and u stay
    last and unchanged.  When c_m is also the innermost coordinate (rank 2),
    its exact-root hits are clipped the same way.  An m proportional to g
    gets no slice, but its level caps are then 0.

    The descent itself runs in integers only (Fincke-Pohst with cleared
    denominators).  On the slice (x, g) = k = scale*d, with
    x = scale*u + sum_j t_j kernel_j, position p of the walk order
    w = (scale, t_{nk-1}, ..., t_0) holds level nk - p, and (x, x) = square
    reads

        sum_p weights[p] * (w_p*denoms[p] - n_p)^2 = -square*q_den

    with n_p = centre_rows[p] . w: row p holds only the p coordinates fixed
    before position p (the scale's row is empty, its denominator 1, its
    weight -q_num).  Each level has its own denominator, the smallest that
    makes its centre n_p/denoms[p] integral; one common factor q_den, the
    smallest, then clears the weights and the radius.  They come from the
    Bareiss integers of ldl_positive (row i over the minor D_{i+1},
    d_i = D_{i+1}/D_i) and the centre solve that solve_exact reads from the
    same factor, each over one common denominator that _reduced cuts to
    the smallest; each descent node then costs one isqrt.

    The right-hand side is largest for the most negative square, and a
    second square s needs (s - s_low)*q_den less of it, so solutions()
    walks each scale once with the largest budget it needs (see there) and
    tests level 0 exactly for each square, its offset taken off.
    """

    def __init__(self, picard: PicardLattice, w_g, w_m=None):
        self.picard = picard
        self.d, self.u, self.kernel = linear_form_basis(w_g, w_m)
        self.m_step = self.u_m = 0
        # m proportional to g is zero on the kernel: m_step = 0, no slice
        if w_m is not None and self.kernel:
            self.m_step, self.u_m = _dot(self.kernel[-1], w_m), _dot(self.u, w_m)
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
            minors, ldl_rows = ldl = ldl_positive(neg_gram)
        except ValueError as exc:
            raise ValueError(
                "the form restricted to the complement of g is not negative "
                "definite; Picard data is malformed"
            ) from exc
        # the LDL centre of level i at t = 0, per unit of scale, is
        # p_i + sum_{j>i} ldl_rows[i][j-i-1]/D_{i+1} * p_j with p = xs/p_den
        # solving neg_gram p = base; q_base = q_raw/p_den
        base = [_dot(self.u, row) for row in gram_kernel]
        p_den, xs = solve_exact(ldl, base)
        q_raw = picard._pair(self.u, self.u) * p_den + _dot(base, xs)
        # walk order: position 0 is the scale, position p is level i = nk - p
        self.denoms, self.centre_rows, dens = [1], [[]], []
        for i in range(nk - 1, -1, -1):
            # row i of the LDL coefficients is nums/p, in the columns j > i;
            # its centre row reads the scale, then t_{nk-1}, ..., t_{i+1}
            p, nums = minors[i + 1], ldl_rows[i]
            centre = p * xs[i] + _dot(nums, xs[i + 1:])
            den, row = _reduced(p * p_den, [centre] + [-p_den * c for c in reversed(nums)])
            self.denoms.append(den)
            self.centre_rows.append(row)
            # the weight d_i/den^2, d_i = D_{i+1}/D_i, is p/dens[-1]
            dens.append(minors[i] * den * den)
        # -q_base and the weights over one common denominator, cut by _reduced
        # to the smallest
        common = lcm(p_den, *dens)
        self.q_den, self.weights = _reduced(
            common,
            [-q_raw * (common // p_den)] + [p * (common // e) for p, e in zip(minors[:0:-1], dens)],
        )
        self.q_num = -self.weights[0]
        self.columns = [list(col) for col in zip(self.u, *reversed(self.kernel))]

    def _parity(self) -> tuple[list[int], list[int]]:
        """GF(2) data of the descent coordinates t = (t_0, ..., t_{nk-1}, scale).

        P_j, the ambient pairings mod 2 of column j, written in a basis of
        their span picked greedily from P_0, P_1, ...: then
        V_i = span(P_0, ..., P_{i-1}) holds exactly the vectors below bit
        rho_i.  Returns (Q, rho) in walk order: Q[p] is P_{nk-p} in that
        basis (P_nk for the scale, with a 0 for the spare slot), and
        rho[p] = dim V_{nk-p}.
        """
        masks = self.picard._parity_masks
        reduced: list[tuple[int, int, int]] = []  # (vector, its coordinates, pivot bit)
        coords, rho = [], []
        for col in (*self.kernel, self.u):
            p = _readout(col, masks)
            rho.append(len(reduced))
            q = 0
            for vec, vq, pivot in reduced:
                if p & pivot:
                    p ^= vec
                    q ^= vq
            if p:
                bit = 1 << len(reduced)
                reduced.append((p, q ^ bit, p & -p))
                q = bit
            coords.append(q)
        return coords[::-1] + [0], rho[::-1]

    def solutions(
        self, caps, first: int = 1, even=frozenset(), nearest=None
    ) -> list[tuple[int, tuple[int, ...], int]]:
        """Every (square, x, res) with (x, x) = square and first <= (x, g) <= caps[square].

        caps maps each target square to its largest level; the result is
        in walk order, not sorted.  One call walks each scale
        (x, g) = scale*d once, with the budget of the most negative square
        whose cap reaches it, and tests every such square at the innermost
        level.  A hit on a square in even is kept only if x has even
        divisibility.  When even is not empty and a level lies above the
        innermost one, that congruence is tested mod 2 at every node:
        below a node whose fixed coordinates cannot complete to even
        divisibility the walk goes on with the budget of the lowest square
        not in even, or stops when there is none.  Otherwise it is tested
        at the hit alone.  A context built with m (not proportional to g)
        leaves out every x with (x, m) > 0.

        res is the parity residue of x: 0 exactly when x has even
        divisibility.  Every walk carries it to the leaf, negative below a
        node that had no even completion: the pruned walk in the GF(2)
        coordinates of _parity, any other as the XOR of the parity masks of
        the columns at odd coordinates, which is _readout(x) since the
        readout is linear mod 2.

        nearest = (groups, (g, g), (m, m), (g, m)) walks only toward the
        first wall the segment from g to m crosses.  With k = (x, g) and
        j = (x, m), x crosses it at k/(k - j); a/b, the smallest crossing
        of a hit that is a wall (see _wall_div), starts at 1/1.  The clip
        becomes j <= -ceil(k(b - a)/a), and the walk stops at the first
        level k where Cauchy-Schwarz leaves no x of the walked squares that
        far out.  Both bounds are inclusive, so every wall crossing at the
        final a/b is returned; hits farther out may be returned too.  A hit
        at scale 0 crosses at t = 0 and never tightens a/b.
        """
        found: list[tuple[int, tuple[int, ...], int]] = []
        d, nk, q_num, q_den = self.d, len(self.kernel), self.q_num, self.q_den
        denoms, weights, rows, columns = self.denoms, self.weights, self.centre_rows, self.columns
        u_m, m_step = self.u_m, self.m_step
        a = b = 1
        if nearest is not None:
            groups, gg, mm, gm = nearest
            disc = gm * gm - mm * gg
            # an m proportional to g has no clip to tighten (and caps of 0)
            if not m_step:
                nearest = None
        # Flat Fincke-Pohst walk over w = (scale, t_{nk-1}, ..., t_0, spare): the
        # top's centre is top_c*scale, positions 1 .. nk - 2 (levels >= 2) keep
        # centre numerator, entry budget and range end, level 1 is a plain loop
        # and level 0 (position nk; with nk == 1 also the top) is solved for.
        den0, w0 = denoms[nk], weights[nk]
        den1, w1, slot = (denoms[nk - 1], weights[nk - 1], nk - 1) if nk > 1 else (1, 0, nk + 1)
        top_c, den_top, w_top = (rows[1][0], denoms[1], weights[1]) if nk > 1 else (0, 1, 1)
        w = [0] * (nk + 2)
        centres, entered, stops = [0] * nk, [0] * nk, [0] * nk
        # res[p]: the parity residue of the node at position p, or -1 once it has
        # no even completion (its budget, and those of the nodes below, shifted)
        res = [0] * (nk + 1)
        # the GF(2) data can prune only with an even-only square and a level
        # above the innermost; any other walk carries the parity masks of its
        # columns, whose bound rho lies past every mask bit: it prunes nothing
        if even and nk > 1:
            coords, rho = self._parity()
        else:
            masks = self.picard._parity_masks
            coords = [_readout(col, masks) for col in (self.u, *reversed(self.kernel))] + [0]
            rho = [AMBIENT_RANK] * (nk + 1)
        q1, rho1 = coords[slot], rho[nk - 1]
        start = -(-first // d)
        # the squares a scale asks for change only where it passes a cap
        for cap in sorted(set(caps.values())):
            end = cap // d + 1
            if end <= start:
                continue
            squares = sorted(s for s, c in caps.items() if c >= cap)
            low, low_q = squares[0], squares[0] * q_den
            # square s leaves (s - low)*q_den less budget than the lowest one
            leaves = [(s, (s - low) * q_den, s in even) for s in squares]
            # a node with no even completion walks on with the budget of the
            # lowest square that allows divisibility 1 (0 more when no square
            # is even-only), or not at all
            odd_leaves = [leaf for leaf in leaves if not leaf[2]]
            shift = odd_leaves[0][1] if odd_leaves else None
            shifted_leaves = [(s, off - shift, False) for s, off, _ in odd_leaves]
            for scale in range(start, end):
                budget = scale * scale * q_num - low_q
                if budget < 0:
                    continue
                if nearest is not None:
                    # Cauchy-Schwarz on the complement of g: no x of a walked
                    # square at this level or beyond crosses by a/b
                    c = b - a
                    if (scale * d) ** 2 * (mm * a * a + 2 * gm * a * c + gg * c * c) > -low * disc * a * a:
                        break
                r = coords[0] if scale & 1 else 0
                if r >> rho[0]:
                    if shift is None or budget < shift:
                        continue
                    budget -= shift
                    r = -1
                if nk == 0:
                    x = tuple(scale * c for c in self.u)
                    found.extend((s, x, r) for s, off, parity in leaves if budget == off and not (parity and r))
                    continue
                w[0], res[0] = scale, r
                # w[1] < top_stop <=> (x, m) = scale*(u, m) + m_step*w[1] <= -ceil(k(b - a)/a)
                top_stop = ((-scale * d * (b - a)) // a - scale * u_m) // m_step + 1 if m_step else None
                stop0 = top_stop if nk == 1 else None  # the clip of a top at level 0
                p, remaining = 1, budget
                if nk > 1:
                    n = top_c * scale
                    span = integer_interval(n, den_top, budget // w_top)
                    lo, stop = span.start, span.stop
                    if top_stop is not None and top_stop < stop:
                        stop = top_stop
                else:
                    n, lo, stop = 0, 0, 1
                while True:
                    if p < nk - 1:
                        centres[p], entered[p], stops[p], w[p] = n, remaining, stop, lo - 1
                    else:
                        # level 1: its residue and squares depend on t1's parity alone
                        r_even = res[p - 1]
                        if r_even < 0:
                            at_even = at_odd = (r_even, shifted_leaves)
                        else:
                            r_odd = r_even ^ q1
                            at_even = (r_even, odd_leaves if r_even >> rho1 else leaves)
                            at_odd = (r_odd, odd_leaves if r_odd >> rho1 else leaves)
                        for t1 in range(lo, stop):
                            r1, walked = at_odd if t1 & 1 else at_even
                            e = t1 * den1 - n
                            left = remaining - w1 * e * e
                            # level 0 uses up a square's budget exactly: solve for t_0
                            for s, off, parity in walked:
                                q, r = divmod(left - off, w0)
                                if q < 0:
                                    break
                                root = isqrt(q)
                                if r or root * root != q:
                                    continue
                                w[slot] = t1
                                n0 = sum(map(mul, rows[nk], w))
                                for v in (n0 + root, n0 - root) if root else (n0,):
                                    if v % den0 == 0:
                                        w[nk] = v // den0
                                        if stop0 is not None and w[nk] >= stop0:
                                            continue
                                        # an even-only square needs residue 0
                                        residue = r1 ^ coords[nk] if w[nk] & 1 else r1
                                        if parity and residue:
                                            continue
                                        x = tuple(sum(map(mul, col, w)) for col in columns)
                                        found.append((s, x, residue))
                                        # a scale-0 hit crosses at 0 and would set a = 0
                                        if nearest is None or not scale:
                                            continue
                                        # a wall crossing before a/b tightens the bound
                                        k, j = scale * d, scale * u_m + m_step * w[1]
                                        if k * b < a * (k - j) and _wall_div(x, residue, groups[s]):
                                            a, b = k, k - j
                                            # at this scale the clip is now w[1] <= its
                                            # value (a rank-3 level-1 loop runs its range out)
                                            if nk > 1:
                                                stops[1] = w[1] + 1
                                            else:
                                                stop0 = w[1] + 1
                        p = nk - 2
                    # the next node at the innermost position that has one
                    # left and a child with a nonempty range; a node with no
                    # even completion is skipped or shifted
                    while p > 0:
                        w[p] += 1
                        if w[p] >= stops[p]:
                            p -= 1
                            continue
                        e = w[p] * denoms[p] - centres[p]
                        remaining = entered[p] - weights[p] * e * e
                        r = res[p - 1]
                        if r >= 0:
                            if w[p] & 1:
                                r ^= coords[p]
                            if r >> rho[p]:
                                if shift is None or remaining < shift:
                                    continue
                                remaining -= shift
                                r = -1
                        res[p] = r
                        child = p + 1
                        n = sum(map(mul, rows[child], w))
                        span = integer_interval(n, denoms[child], remaining // weights[child])
                        lo, stop = span.start, span.stop
                        if lo < stop:
                            p = child
                            break
                    else:
                        break
            start = end
        return found


def slice_solutions(picard: PicardLattice, g, k: int, square: int) -> list[tuple[int, ...]]:
    """Lattice vectors on the affine slice (x, g) = k with the given square."""
    if not (_plain_int(k) and _plain_int(square)):
        raise ValueError("slice level k and square must be plain integers")
    if k < 1:
        raise ValueError("slice level k must be at least 1")
    (w_g, _), _ = _positive_cone(picard, g)
    return sorted(x for _, x, _ in _SliceContext(picard, w_g).solutions({square: k}, first=k))


def _collect_walls(
    picard: PicardLattice, w_g, w_m, groups, caps, first: int = 1, nearest=None
) -> list[WallClass]:
    """Primitive walls with first <= (rho, g) <= caps[square], sorted.

    The package's one wall filter, for already checked input: caps maps
    each target square to its largest level (rho, g), groups maps it to
    the admissible divisibilities.  g and m come as their Gram forms w_g
    and w_m (w_m may be None).  With m the context's clip keeps only
    (rho, m) <= 0; m needs no positive square here, only (m, g) > 0, so an
    isotropic m slices the descent as well.  first=0 adds the walls
    orthogonal to g (with m, one of each +-rho pair), also with nearest =
    ((g, g), (m, m), (g, m)), which walks only toward the first crossing
    (see _SliceContext.solutions): the result then holds every wall
    crossed first, and maybe some others.  Each hit's divisibility is
    read from its parity residue (_wall_div).  A walk that reaches no
    scale (no multiple of gcd((g, .)) in [first, max caps]) builds none.
    """
    d = gcd(*w_g)
    if max(caps.values()) // d < -(-first // d):
        return []
    even = {square for square, divs in groups.items() if 1 not in divs}
    if nearest is not None:
        nearest = (groups, *nearest)
    # hits are distinct, so the walls sort by rho_picard alone
    return sorted(
        WallClass(x, picard._to_ambient(x), square, div)
        for square, x, res in _SliceContext(picard, w_g, w_m).solutions(caps, first, even, nearest)
        if (div := _wall_div(x, res, groups[square]))
    )


def enumerate_walls(query: WallQuery) -> list[WallClass]:
    """Exactly the oriented wall classes matching the query, sorted.

    Output is complete, duplicate-free, holds only primitive classes and
    is sorted lexicographically by Picard coordinates.  When m is absent a
    level_cap is required, and the result is then complete up to
    (rho, g) <= level_cap.
    """
    (w_g, w_m), pairings, groups = _validate_query(query)
    cap = query.level_cap
    if query.m is None and cap is None:
        raise ValueError(
            "the wall set is only finite against a second positive class: "
            "supply m or an explicit level_cap"
        )
    caps = {}
    for square in groups:
        bound = cap if query.m is None else _level_cap(square, *pairings)
        caps[square] = bound if cap is None else min(bound, cap)
    return _collect_walls(query.picard, w_g, w_m, groups, caps)


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
    (w_g, w_m), _, groups = _validate_query(query)
    if box <= 0:
        return []
    picard = query.picard
    squares = frozenset(groups)
    cap = query.level_cap
    bound = box * box * sum(abs(e) for row in picard.gram for e in row)
    for w in (w_g, w_m or ()):
        bound = max(bound, box * sum(map(abs, w)))
    side = 2 * box + 1
    if side**picard.rank <= 200_000 or bound >= 2**62:
        candidates = _python_scan(picard, query.g, query.m, cap, box, squares)
    else:
        candidates = _numpy_scan(picard.gram, query.g, query.m, cap, box, squares)
    walls = []
    for x in candidates:
        ambient = picard.to_ambient(x)
        div = divisibility(ambient)
        square = picard.square(x)
        if div in groups[square] and gcd(*ambient) == 1:
            walls.append(WallClass(tuple(x), ambient, square, div))
    walls.sort(key=lambda wall: wall.rho_picard)
    return walls
