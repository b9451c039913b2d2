"""One digest of the answers of every public verdict on seeded random cases.

    PYTHONPATH=src python tests/answer_digest.py --cases 600 --seed 2024
    PYTHONPATH=src python tests/answer_digest.py --deep
    PYTHONPATH=src python tests/answer_digest.py --errors

Each case is a random saturated rank-2..5 lattice from lattice_fixtures
with g and m of positive square; half the g are made orthogonal to a
class of negative square, so validate_polarization also fails.  The cases
cycle through four target sets: the three of tests/test_properties.py
and ((-2, 1), (-2, 2)), which has no divisibility-2-only square.  Each
case asks:

- enumerate_walls with m, with a level cap (no m), and with both;
- is_ample on m, on -m, on a random class and on an isotropic class
  when a small box holds one;
- nef_threshold on (g, m), (m, g) and a random class;
- validate_polarization;
- slice_solutions at three levels for every target square;
- level_bound for every target square.

--deep hashes the deep-walk queries instead, the shapes of the ladder and
capped benchmark workloads: on L(3), L(4) and L(5) (ladder_picard) with
their ladder polarizations and, at rank 5, the skewed g, it asks
enumerate_walls, is_ample and nef_threshold with m = (3, 4, 0, ...),
enumerate_walls at level caps 40 to 400 without and with that m, and
is_ample on the isotropic class (1, 1, 1, 0, ...).

--errors hashes the error contract instead: every public entry that takes
g, m or targets, run on a fixed matrix of malformed inputs on L(3).  The
inputs are a non-iterable g or m (None, 5), a wrong length, bool, float
and Fraction entries, bad targets, a non-hyperbolic lattice, g or m
outside the positive cone and g on a wall, one at a time and in a few
pairs that pin the order of the checks.

Every result, or the type and message of the error it raised, goes into
one sha256 in a version-stable form (enums by value, Fractions as integer
pairs).  Two trees give the same digest when they give the same answers
and the same errors.  Standard library and lattice_fixtures only.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import random
import sys
from enum import Enum
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lattice_fixtures import (  # noqa: E402
    H,
    ladder_picard,
    orthogonal_polarization,
    random_hyperbolic_picard,
    random_polarized_pair,
)

import hyperwall  # noqa: E402

TARGET_SETS = (
    ((-2, 1), (-2, 2), (-10, 2)),
    ((-2, 1), (-6, 2), (-10, 2)),
    ((-8, 2), (-10, 2)),
    ((-2, 1), (-2, 2)),
)
DEEP_G = {3: [(15, 1, 4)], 4: [(8, 2, -3, 6)], 5: [(16, 4, -5, -4, 4), (40, 13, -7, 11, 5)]}
DEEP_CAPS = (40, 80, 100, 160, 200, 400)


def canonical(value):
    """A repr-stable form: enums by value, Fractions as pairs, tuples
    (namedtuples included) and lists as tuples."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Fraction):
        return ("Fraction", value.numerator, value.denominator)
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    return value


def answer(call):
    try:
        return ("ok", canonical(call()))
    except (ValueError, TypeError) as exc:
        return ("error", type(exc).__name__, str(exc))


def isotropic_class(pic, g, box=2):
    """The first nonzero x in [-box, box]^rank with (x, x) = 0 and (x, g) > 0."""
    for x in itertools.product(range(-box, box + 1), repeat=pic.rank):
        if any(x) and pic.square(x) == 0 and pic.pair(x, g) > 0:
            return x
    return None


def case_calls(rng: random.Random, index: int):
    """The (name, call) pairs of case index."""
    # every (rank, target set, orthogonal g) combination once in 32 cases
    rank = 2 + index % 4
    targets = TARGET_SETS[index // 4 % 4]
    squares = sorted({s for s, _ in targets})
    pic = random_hyperbolic_picard(rng, rank)
    g = orthogonal_polarization(rng, pic) if index // 16 % 2 else None
    g, m = random_polarized_pair(rng, pic, g=g)
    cap = rng.randint(0, 10)
    other = tuple(rng.randint(-3, 3) for _ in range(rank))
    levels = [rng.randint(1, 6) for _ in range(3)]
    neg_m = tuple(-c for c in m)
    iso = isotropic_class(pic, g)
    hw = hyperwall
    calls = [
        ("walls m", lambda: hw.enumerate_walls(hw.WallQuery(pic, g, m=m, targets=targets))),
        ("walls cap", lambda: hw.enumerate_walls(hw.WallQuery(pic, g, targets=targets, level_cap=cap))),
        ("walls m cap", lambda: hw.enumerate_walls(hw.WallQuery(pic, g, m=m, targets=targets, level_cap=cap))),
        ("ample m", lambda: hw.is_ample(pic, g, m, targets)),
        ("ample -m", lambda: hw.is_ample(pic, g, neg_m, targets)),
        ("ample other", lambda: hw.is_ample(pic, g, other, targets)),
        ("nef g m", lambda: hw.nef_threshold(pic, g, m, targets)),
        ("nef m g", lambda: hw.nef_threshold(pic, m, g, targets)),
        ("nef other", lambda: hw.nef_threshold(pic, g, other, targets)),
        ("validate", lambda: hw.validate_polarization(pic, g, targets)),
    ]
    if iso is not None:
        calls.append(("ample isotropic", lambda: hw.is_ample(pic, g, iso, targets)))
    for square in squares:
        for k in levels:
            calls.append((f"slice {k} {square}", lambda k=k, s=square: hw.slice_solutions(pic, g, k, s)))
        calls.append((f"bound {square}", lambda s=square: hw.level_bound(pic, g, m, s)))
    head = (index, pic.gram, g, m, targets)
    return head, calls


def deep_case(rank: int, g):
    """(head, calls) of the deep-walk case (L(rank), g), as case_calls gives them."""
    pic = ladder_picard(rank)
    m = (3, 4) + (0,) * (rank - 2)
    iso = (1, 1, 1) + (0,) * (rank - 3)
    hw = hyperwall

    def walls(**kwargs):
        return hw.enumerate_walls(hw.WallQuery(pic, g, **kwargs))

    calls = [
        ("walls m", lambda: walls(m=m)),
        ("ample m", lambda: hw.is_ample(pic, g, m)),
        ("nef g m", lambda: hw.nef_threshold(pic, g, m)),
        ("ample isotropic", lambda: hw.is_ample(pic, g, iso)),
    ]
    for cap in DEEP_CAPS:
        calls.append((f"walls cap {cap}", lambda c=cap: walls(level_cap=c)))
        calls.append((f"walls m cap {cap}", lambda c=cap: walls(m=m, level_cap=c)))
    return (rank, g, m, iso), calls


def error_calls():
    """The (name, call) pairs of the error matrix, entry by entry."""
    hw = hyperwall
    pic, g, m = ladder_picard(3), DEEP_G[3][0], (3, 4, 0)
    flat = hw.PicardLattice([H, hw.vector_from_labels({"e2": 1, "f2": 1})])
    entries = {
        "enumerate_walls": lambda p, g, m, t: hw.enumerate_walls(hw.WallQuery(p, g, m=m, targets=t)),
        "enumerate_walls cap": lambda p, g, m, t: hw.enumerate_walls(hw.WallQuery(p, g, targets=t, level_cap=4)),
        "brute_force_walls": lambda p, g, m, t: hw.brute_force_walls(hw.WallQuery(p, g, m=m, targets=t), 2),
        "level_bound": lambda p, g, m, t: hw.level_bound(p, g, m, -2),
        "slice_solutions": lambda p, g, m, t: hw.slice_solutions(p, g, 2, -2),
        "validate_polarization": lambda p, g, m, t: hw.validate_polarization(p, g, t),
        "is_ample": lambda p, g, m, t: hw.is_ample(p, g, m, t),
        "nef_threshold": lambda p, g, m, t: hw.nef_threshold(p, g, m, t),
    }
    vectors = {
        "None": lambda v: None,
        "int": lambda v: 5,
        "wrong length": lambda v: v[:2],
        "bool": lambda v: (True,) + v[1:],
        "float": lambda v: (float(v[0]),) + v[1:],
        "Fraction": lambda v: (Fraction(v[0]),) + v[1:],
    }
    inputs = {"valid": (pic, g, m, hw.DEFAULT_TARGETS)}
    for kind, bad in vectors.items():
        inputs[f"g {kind}"] = (pic, bad(g), m, hw.DEFAULT_TARGETS)
        inputs[f"m {kind}"] = (pic, g, bad(m), hw.DEFAULT_TARGETS)
    bad_targets = {
        "empty": (),
        "square 0": ((0, 1),),
        "div 3": ((-2, 3),),
        "bool div": ((-2, True), (-2, 2), (-10, 2)),
        "float square": ((-2.0, 1), (-2, 2), (-10, 2)),
        "Fraction square": ((Fraction(-2), 1),),
    }
    for kind, targets in bad_targets.items():
        inputs[f"targets {kind}"] = (pic, g, m, targets)
    on_wall = (1, 0, 0)  # orthogonal to delta = (0, 1, 0)
    inputs.update({
        "non-hyperbolic": (flat, (1, 0), (1, 0), hw.DEFAULT_TARGETS),
        "g zero": (pic, (0, 0, 0), m, hw.DEFAULT_TARGETS),
        "g negative square": (pic, (0, 1, 0), m, hw.DEFAULT_TARGETS),
        "m negative square": (pic, g, (0, 1, 0), hw.DEFAULT_TARGETS),
        "m opposite": (pic, g, tuple(-c for c in m), hw.DEFAULT_TARGETS),
        "m isotropic": (pic, g, (1, 1, 1), hw.DEFAULT_TARGETS),
        "g on a wall": (pic, on_wall, m, hw.DEFAULT_TARGETS),
        # pairs: the first check to fail names the error
        "g on a wall, m None": (pic, on_wall, None, hw.DEFAULT_TARGETS),
        "g on a wall, m opposite": (pic, on_wall, (-3, -4, 0), hw.DEFAULT_TARGETS),
        "g None, m None": (pic, None, None, hw.DEFAULT_TARGETS),
        "bad targets, g None": (pic, None, m, ((-2, 3),)),
        "non-hyperbolic, g None": (flat, None, (1, 0), hw.DEFAULT_TARGETS),
        "g negative square, m int": (pic, (0, 1, 0), 5, hw.DEFAULT_TARGETS),
    })
    return [
        (f"{entry}: {label}", lambda run=run, args=args: run(*args))
        for entry, run in entries.items()
        for label, args in inputs.items()
    ]


def error_digest() -> tuple[int, str]:
    """(number of answers, sha256 hex digest) over the error matrix."""
    return _hash([("errors", error_calls())])


def _hash(cases) -> tuple[int, str]:
    """(number of answers, sha256 hex digest) over (head, calls) pairs."""
    sha = hashlib.sha256()
    count = 0
    for head, calls in cases:
        sha.update(repr(canonical(head)).encode())
        for name, call in calls:
            sha.update(repr((name, answer(call))).encode())
            count += 1
    return count, sha.hexdigest()


def digest(cases: int, seed: int) -> tuple[int, str]:
    """(number of answers, sha256 hex digest) over cases seeded cases."""
    rng = random.Random(seed)
    return _hash(case_calls(rng, index) for index in range(cases))


def deep_digest() -> tuple[int, str]:
    """(number of answers, sha256 hex digest) over the deep-walk queries."""
    return _hash(deep_case(rank, g) for rank, gs in DEEP_G.items() for g in gs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=600)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--deep", action="store_true", help="hash the deep-walk queries instead")
    parser.add_argument("--errors", action="store_true", help="hash the error matrix instead")
    args = parser.parse_args(argv)
    if args.errors:
        count, hexdigest = error_digest()
        print(f"errors answers {count} sha256 {hexdigest}")
        return 0
    if args.deep:
        count, hexdigest = deep_digest()
        print(f"deep answers {count} sha256 {hexdigest}")
        return 0
    count, hexdigest = digest(args.cases, args.seed)
    print(f"cases {args.cases} seed {args.seed} answers {count} sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
