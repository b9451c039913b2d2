"""Wall counts on L(10) and L(18) against the theta series of E8 and E8 + E8.

L(10) = <h> + <delta> + E8(-1) and L(18) = <h> + <delta> + E8(-1)^2, with
h = e1 + 2f1 of square 4.  For g = alpha*h + beta*delta (no E8 part) a class
x = a*h + b*delta + v has level (x, g) = 4*alpha*a - 2*beta*b and square
4a^2 - 2b^2 - (v, v)_E8, so the walls of one (a, b) are counted by the
number of E8 vectors of norm 2n: 240*sigma_3(n) for E8 and 480*sigma_7(n)
for E8 + E8 (the theta series E4 and E4^2 = E8).  Pairing x with e1, f1,
delta and the unimodular E8 part gives divisibility gcd(a, 2b, content(v)),
and x is primitive when gcd(a, b, content(v)) = 1; both conditions on
content(v) are counted by Moebius inversion.  Integer arithmetic only, and
no lattice point is enumerated on the oracle side.
"""

from collections import Counter
from math import gcd

import pytest

from hyperwall import WallQuery, enumerate_walls
from hyperwall.enumeration import DEFAULT_TARGETS
from lattice_fixtures import ladder_picard


def divisor_sum(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def moebius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def e8_vectors(copies, n):
    """Vectors of norm 2n in E8 (copies 1) or E8 + E8 (copies 2)."""
    if n == 0:
        return 1
    return 240 * divisor_sum(3, n) if copies == 1 else 480 * divisor_sum(7, n)


def coprime_vectors(copies, n, c):
    """Vectors v of norm 2n with gcd(c, content(v)) = 1: Moebius over the
    sublattices e*E8 (e | c), whose vectors of norm 2n are those of norm
    2n/e^2 scaled by e."""
    return sum(
        moebius(e) * e8_vectors(copies, n // (e * e))
        for e in range(1, c + 1)
        if c % e == 0 and n % (e * e) == 0
    )


def plane_classes(alpha, beta, cap, lowest):
    """Every (a, b) with 1 <= (y, g) <= cap and y^2 >= lowest for
    y = a*h + b*delta.  On a level line b = (4*alpha*a - k)/(2*beta) the
    square 4a^2 - 2b^2 is concave in a, with its top at
    a = alpha*k/(g, g), so each scan stops where it falls below lowest."""
    gg = 4 * alpha * alpha - 2 * beta * beta
    for k in range(1, cap + 1):
        top = -(-alpha * k // gg)
        for a, step in ((top, 1), (top - 1, -1)):
            while True:
                num = 4 * alpha * a - k  # 2*beta*b
                # 4a^2 - 2b^2 >= lowest, times 2*beta^2
                if 8 * beta * beta * a * a - num * num < 2 * beta * beta * lowest:
                    break
                if num % (2 * beta) == 0:
                    yield a, num // (2 * beta)
                a += step


def theta_counts(copies, alpha, beta, cap, targets):
    """Walls per (square, div) of the capped walk, from the theta series."""
    squares = {s for s, _ in targets}
    counts = Counter()
    for a, b in plane_classes(alpha, beta, cap, min(squares)):
        content = gcd(a, b)
        for s in squares:
            two_n = 4 * a * a - 2 * b * b - s
            if two_n < 0 or two_n % 2:
                continue
            n = two_n // 2
            walls = coprime_vectors(copies, n, content)
            # divisibility 2 exactly when a and content(v) are even: v = 2w,
            # and primitivity then needs b odd and gcd(content, content(w)) = 1
            even = 0
            if a % 2 == 0 and content % 2 and n % 4 == 0:
                even = coprime_vectors(copies, n // 4, content)
            counts[s, 2] += even
            counts[s, 1] += walls - even
    return {key: c for key, c in counts.items() if key in targets and c}


# (rank, copies of E8, g = alpha*h + beta*delta, level cap, targets, counts)
CASES = [
    (10, 1, (3, 1), 10, DEFAULT_TARGETS, {(-2, 1): 2160, (-2, 2): 1, (-10, 2): 240}),
    (10, 1, (3, 1), 12, DEFAULT_TARGETS, {(-2, 1): 8880, (-2, 2): 1, (-10, 2): 240}),
    (10, 1, (4, 3), 4, ((-6, 1), (-6, 2), (-10, 2)), {(-6, 1): 240}),
    # (-4, 1) is not squarefree: its divisibility is not read from the parity
    (18, 2, (3, 1), 8, ((-2, 1), (-2, 2), (-4, 1), (-10, 2)), {(-2, 2): 1, (-4, 1): 481, (-10, 2): 480}),
    (18, 2, (4, 3), 4, ((-6, 1), (-6, 2), (-10, 2)), {(-6, 1): 480}),
]


@pytest.mark.parametrize("rank,copies,g,cap,targets,counts", CASES)
def test_wall_counts_equal_the_theta_series(rank, copies, g, cap, targets, counts):
    assert theta_counts(copies, *g, cap, targets) == counts
    query = WallQuery(ladder_picard(rank), g + (0,) * (rank - 2), targets=targets, level_cap=cap)
    assert Counter((w.square, w.div) for w in enumerate_walls(query)) == counts


def test_every_rung_has_both_divisibilities():
    for rank in (10, 18):
        divs = {div for r, *_, counts in CASES if r == rank for _, div in counts}
        assert divs == {1, 2}


def test_theta_coefficients():
    # E4 = 1 + 240q + 2160q^2 + 6720q^3, E8 = 1 + 480q + 61920q^2
    assert [e8_vectors(1, n) for n in range(4)] == [1, 240, 2160, 6720]
    assert [e8_vectors(2, n) for n in range(3)] == [1, 480, 61920]
    # 2*E8 holds the 240 roots scaled by 2, all of content 2
    assert coprime_vectors(1, 4, 2) == e8_vectors(1, 4) - 240
