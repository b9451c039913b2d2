#!/usr/bin/env python3
"""Regenerate the benchmark's stored inputs and answers under data/.

    python3 perfbench/make_expected.py

Writes the CLI fixtures and their expected exit codes and stdout digests,
the ladder and capped answers for the untransformed queries, and the sweep
pool with answer digests.  Every wall list is re-checked with the
benchmark's own arithmetic and, wherever a covering coordinate box is small
enough to scan, compared with the package's brute-force oracle.  Only this
one-off script uses the oracle; run.py never imports it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.pop("HYPERWALL_THREADS", None)
sys.path.insert(0, str(ROOT / "src"))

import hyperwall as hw  # noqa: E402
from hyperwall import brute_force_walls  # noqa: E402

import workloads as W  # noqa: E402
from arith import Checker, digest, is_hyperbolic, is_saturated, pair, vec  # noqa: E402

DATA = HERE / "data"
CLI_DIR = DATA / "cli"
ORACLE_MAX_POINTS = 3_000_000
POOL_SEED = 20071002
POOL_LATTICES = 120
CASES_PER_LATTICE = 5
# Largest level bound (rho, g) a pooled case may have, by rank: the sweep is
# about shallow queries, and rank 4 grows the search fastest.
SHALLOW_LEVEL = {2: 20, 3: 20, 4: 10}

NEG_POOL = [
    vec(delta=1), vec(E8a_1=1), vec(E8a_2=1), vec(E8a_5=1), vec(E8a_8=1),
    vec(E8b_2=1), vec(E8b_4=1), vec(E8b_7=1),
    vec(e2=1, f2=-1), vec(e2=1, f2=-3), vec(e3=1, f3=-1), vec(e3=1, f3=-2),
    vec(e2=1, f2=-1, delta=1), vec(e3=2, f3=-2, delta=1),
    vec(E8a_3=1, E8a_4=1), vec(E8b_1=1, E8b_3=1), vec(e2=3, f2=-1),
]


# ------------------------------------------------------------------ oracle


def covering_box(gram, g, level) -> int:
    """A box containing every x with 0 < (x, g) <= level and x^2 >= -10.

    Q(x) = 2 (x, g)^2 / g^2 - x^2 is positive definite and at most
    R = 2 level^2 / g^2 + 10 there, so |x_i| <= sqrt(R * (Q^-1)_ii)."""
    n = len(gram)
    w = [sum(gram[i][j] * g[j] for j in range(n)) for i in range(n)]
    v = Fraction(pair(gram, g, g))
    q = [[2 * w[i] * w[j] / v - gram[i][j] for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if q[r][c])
        q[c], q[p], inv[c], inv[p] = q[p], q[c], inv[p], inv[c]
        d = q[c][c]
        q[c] = [x / d for x in q[c]]
        inv[c] = [x / d for x in inv[c]]
        for r in range(n):
            if r != c and q[r][c]:
                f = q[r][c]
                q[r] = [x - f * y for x, y in zip(q[r], q[c])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[c])]
    radius = 2 * Fraction(level * level) / v + 10
    return max(isqrt(int(radius * inv[i][i])) + 1 for i in range(n))


def level_bound(gram, g, m) -> int:
    v, w, p = pair(gram, g, g), pair(gram, m, m), pair(gram, g, m)
    return isqrt(10 * (p * p - w * v) // w) if p * p > w * v else 0


def oracle_agrees(q: W.Query, walls) -> bool | None:
    """None when no covering box is small enough to scan."""
    gram = Checker(q.basis).gram
    level = q.cap if q.cap is not None else level_bound(gram, q.g, q.m)
    if level == 0:
        return walls == []
    box = covering_box(gram, q.g, level)
    if (2 * box + 1) ** len(q.g) > ORACLE_MAX_POINTS:
        return None
    query = hw.WallQuery(q.picard, q.g, m=q.m, level_cap=q.cap)
    return W.canonical("walls", brute_force_walls(query, box)) == walls


def answer_all(queries) -> tuple[dict, int]:
    """Answers of all queries, checked; returns (answers, oracle checks)."""
    answers, oracle = {}, 0
    for q in queries:
        q.picard = q.picard or hw.PicardLattice(q.basis)
        answers[q.qid] = W.canonical(q.kind, W.execute(hw, q))
        errs = W.check(q, answers[q.qid])
        if q.kind == "walls":
            agree = oracle_agrees(q, answers[q.qid])
            if agree is False:
                errs.append(f"{q.qid}: differs from the brute-force oracle")
            oracle += agree is not None
        if errs:
            raise SystemExit("\n".join(errs))
    errs = W.cross_check(queries, answers)
    if errs:
        raise SystemExit("\n".join(errs))
    return answers, oracle


# ---------------------------------------------------------- library inputs


def deep_expected() -> dict:
    out = {}
    for name in ("ladder", "capped"):
        answers, oracle = answer_all(W.deep_queries(name, None, None))
        print(f"{name}: {len(answers)} answers, {oracle} wall lists checked by the oracle")
        out[name] = answers
    return out


def sweep_pool() -> dict:
    rng = random.Random(POOL_SEED)
    lattices, cases = [], []
    while len(lattices) < POOL_LATTICES:
        rank = rng.choice((2, 2, 2, 2, 3, 3, 3, 3, 3, 4))
        basis = (vec(e1=1, f1=rng.randint(1, 4)),) + tuple(rng.sample(NEG_POOL, rank - 1))
        gram = Checker(basis).gram
        if not (is_saturated(basis) and is_hyperbolic(gram)):
            continue
        picard = hw.PicardLattice(basis)
        lattices.append([list(b) for b in basis])
        found = 0
        while found < CASES_PER_LATTICE:
            g = (rng.randint(2, 6),) + tuple(rng.randint(-3, 3) for _ in range(rank - 1))
            m = tuple(x + rng.randint(-2, 2) for x in g)
            if pair(gram, g, g) <= 0 or pair(gram, m, m) <= 0 or pair(gram, g, m) <= 0:
                continue
            if level_bound(gram, g, m) > SHALLOW_LEVEL[rank]:
                continue
            try:
                hw.validate_polarization(picard, g)
            except hw.PreconditionError:
                continue
            cases.append([len(lattices) - 1, list(g), list(m), None])
            found += 1
    pool = {"lattices": lattices, "cases": cases}
    queries = W.sweep_queries(None, pool, len(cases))
    answers, oracle = answer_all(queries)
    for idx, case in enumerate(cases):
        case[3] = [digest(answers[f"c{idx}.{kind}"]) for kind in ("walls", "ample", "nef")]
    print(f"sweep: {len(cases)} cases on {len(lattices)} lattices, "
          f"{oracle} wall lists checked by the oracle")
    return pool


# --------------------------------------------------------------------- cli


def _doc(basis, g, m=None, **options) -> dict:
    doc = {"picard_basis": [list(b) for b in basis], "g": list(g)}
    if m is not None:
        doc["m"] = list(m)
    if options:
        doc["options"] = options
    return doc


H1 = vec(e1=1, f1=1)
WORKED = (H1, vec(delta=1))
H2, E = vec(e1=1, f1=2), vec(E8a_1=1)

CLI_DOCS = {
    "worked": _doc(WORKED, (3, -1), (2, 1)),
    "worked_nom": _doc(WORKED, (3, -1)),
    "worked_mg": _doc(WORKED, (3, -1), (3, -1)),
    "worked_on_wall": _doc(WORKED, (1, 0), (2, 1)),
    "l3_opts": _doc(W.ladder_basis(3), W.LADDER_G[3], targets=[[-2, 1], [-2, 2]], level_cap=60),
    "l3_iso": _doc(W.ladder_basis(3), W.LADDER_G[3], W.isotropic_m(3)),
    "l4": _doc(W.ladder_basis(4), W.LADDER_G[4], W.ladder_m(4)),
    "unknown_field": dict(_doc(WORKED, (3, -1)), colour=1),
    # Known defects (ROADMAP baseline): a basis of index 2 in span(h, E) ...
    "nonsaturated": _doc((tuple(a + b for a, b in zip(H2, E)), tuple(a - b for a, b in zip(H2, E))), (2, 1), (3, 7)),
    # ... and a custom target whose only solutions are non-primitive.
    "target_minus8": _doc((H1, E), (3, -1)),
}


def _rho(**coeffs) -> str:
    return ",".join(str(x) for x in vec(**coeffs))


def _input(name: str) -> list[str]:
    return ["--input", f"perfbench/data/cli/{name}.json"]


CLI_CASES = [
    ("info-text", ["lattice-info"]),
    ("info-json", ["lattice-info", "--format", "json"]),
    ("walls-json", ["walls", *_input("worked"), "--format", "json"]),
    ("walls-text", ["walls", *_input("worked")]),
    ("walls-targets-cap", ["walls", *_input("worked_nom"), "--targets", "-2:1,-2:2", "--level-cap", "30", "--format", "json"]),
    ("walls-options", ["walls", *_input("l3_opts"), "--format", "json"]),
    ("walls-l4", ["walls", *_input("l4"), "--format", "json"]),
    ("ample-json", ["ample", *_input("worked"), "--format", "json"]),
    ("ample-text", ["ample", *_input("worked")]),
    ("ample-m-is-g", ["ample", *_input("worked_mg"), "--format", "json"]),
    ("ample-isotropic", ["ample", *_input("l3_iso"), "--format", "json"]),
    ("nef-json", ["nef-threshold", *_input("worked"), "--format", "json"]),
    ("nef-text-l4", ["nef-threshold", *_input("l4")]),
    ("classify-json", ["classify", *_input("worked"), "--rho", _rho(delta=1), "--format", "json"]),
    ("classify-text", ["classify", *_input("worked"), "--rho", _rho(E8a_1=1)]),
    ("lagrangian-json", ["lagrangian", "--format", "json"]),
    ("lagrangian-text", ["lagrangian"]),
    ("exit3-g-on-wall", ["ample", *_input("worked_on_wall"), "--format", "json"]),
    ("exit2-bad-json", ["walls", *_input("bad_json")]),
    ("exit2-unknown-field", ["walls", *_input("unknown_field")]),
    ("exit2-ample-without-m", ["ample", *_input("worked_nom")]),
    ("exit2-walls-without-bound", ["walls", *_input("worked_nom")]),
]

# (id, argv, expected exit, description): the outcome ROADMAP item 5 prescribes.
KNOWN_DEFECTS = [
    ("defect-nonsaturated-basis", ["ample", *_input("nonsaturated"), "--format", "json"], 2,
     "non-saturated basis span(h+E, h-E) must be rejected"),
    ("defect-target-minus8", ["walls", *_input("target_minus8"), "--targets", "-8:2", "--level-cap", "20",
                              "--format", "json"], 0,
     "custom target (-8, 2) must not report the non-primitive wall 2*E8a_1"),
    ("defect-classify-3delta", ["classify", *_input("worked"), "--rho", _rho(delta=3), "--format", "json"], 2,
     "classify of the non-primitive 3*delta must be rejected"),
]


def cli_spec() -> list[dict]:
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    for name, doc in CLI_DOCS.items():
        (CLI_DIR / f"{name}.json").write_text(json.dumps(doc) + "\n")
    (CLI_DIR / "bad_json.json").write_text('{"picard_basis": [[1, 1\n')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spec = []
    for qid, argv in CLI_CASES:
        proc = subprocess.run([sys.executable, "-m", "hyperwall.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, check=False)
        spec.append({"qid": qid, "argv": argv, "exit": proc.returncode,
                     "stdout_sha": W.stdout_sha(proc.stdout)})
        if argv[0] == "walls" and proc.returncode == 0 and "--format" in argv:
            _check_cli_walls(argv, json.loads(proc.stdout))
    for qid, argv, code, why in KNOWN_DEFECTS:
        entry = {"qid": qid, "argv": argv, "exit": code, "known_defect": why}
        if code == 0:
            entry["forbid_wall"] = [2 * x for x in E]
        spec.append(entry)
    print(f"cli: {len(spec)} cases, {len(KNOWN_DEFECTS)} of them known defects")
    return spec


def _check_cli_walls(argv, report) -> None:
    """The CLI wall lists of the fixtures agree with the oracle too."""
    doc = report["input"]
    basis = tuple(tuple(b) for b in doc["picard_basis"])
    targets = tuple(tuple(t) for t in report["targets"])
    query = hw.WallQuery(hw.PicardLattice(basis), tuple(doc["g"]), m=tuple(doc["m"]) if "m" in doc else None,
                         targets=targets, level_cap=report["level_cap"])
    gram = Checker(basis).gram
    level = query.level_cap if query.m is None else level_bound(gram, query.g, query.m)
    oracle = brute_force_walls(query, covering_box(gram, query.g, level))
    got = [[w["picard"], w["square"], w["div"]] for w in report["walls"]]
    if W.canonical("walls", oracle) != got:
        raise SystemExit(f"cli {argv}: differs from the brute-force oracle")


def main() -> None:
    os.chdir(ROOT)
    (DATA / "cli_cases.json").write_text(json.dumps(cli_spec(), indent=1) + "\n")
    (DATA / "expected.json").write_text(json.dumps(deep_expected(), separators=(",", ":")) + "\n")
    (DATA / "sweep_pool.json").write_text(json.dumps(sweep_pool(), separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
