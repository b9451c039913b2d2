"""Command line front end for the wall and cone computations.

Input is a single JSON document; every rational in a report is an exact
"p/q" string, never a float.  Exit codes: 0 success, 2 validation failure
(malformed file or arguments), 3 precondition failure (for example a
polarization that fails its own ampleness test), 1 when stdout closes before
the report is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

from .cohomology import lagrangian_eliminant, lagrangian_solver
from .cones import (
    PreconditionError,
    classify_wall,
    detect_isotropic_boundary,
    is_ample,
    nef_threshold,
)
from .enumeration import DEFAULT_TARGETS, WallClass, WallQuery, enumerate_walls
from .lattice import (
    AMBIENT_RANK,
    BASIS_LABELS,
    K3_2_LATTICE,
    PicardLattice,
    bb_pair,
    divisibility,
)


class InputError(Exception):
    """Malformed input document or request."""


_TOP_LEVEL_FIELDS = {"picard_basis", "g", "m", "options"}
_OPTION_FIELDS = {"targets", "level_cap"}


def _as_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{where}: booleans are not integers")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        digits = text[1:] if text.startswith("-") else text
        # str.isdigit alone also takes superscripts and non-ASCII digits
        if digits.isascii() and digits.isdigit():
            return int(text)
        raise InputError(f"{where}: {value!r} is not a decimal integer string")
    raise InputError(f"{where}: expected an integer, got {type(value).__name__}")


def _as_int_vector(value, length: int, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise InputError(f"{where}: expected an array of {length} integers")
    if len(value) != length:
        raise InputError(f"{where}: expected {length} entries, got {len(value)}")
    return tuple(_as_int(x, f"{where}[{i}]") for i, x in enumerate(value))


def _parse_targets(value, where: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(value, list) or not value:
        raise InputError(f"{where}: expected a nonempty array of [square, div] pairs")
    out = []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"{where}[{i}]: expected a [square, div] pair")
        out.append((_as_int(pair[0], f"{where}[{i}][0]"), _as_int(pair[1], f"{where}[{i}][1]")))
    return tuple(out)


class InputDocument(namedtuple("InputDocument", "picard g m targets level_cap echo")):
    """A parsed input file; m, targets and level_cap are None when absent."""

    __slots__ = ()


def load_input_document(path: str) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - _TOP_LEVEL_FIELDS
    if unknown:
        raise InputError(f"{path}: unknown field(s) {sorted(unknown)}")
    if "picard_basis" not in raw or "g" not in raw:
        raise InputError(f"{path}: fields 'picard_basis' and 'g' are required")
    basis_raw = raw["picard_basis"]
    if not isinstance(basis_raw, list) or not basis_raw:
        raise InputError("picard_basis: expected a nonempty array of length-23 integer arrays")
    basis = [
        _as_int_vector(row, AMBIENT_RANK, f"picard_basis[{i}]")
        for i, row in enumerate(basis_raw)
    ]
    try:
        picard = PicardLattice(basis)
    except ValueError as exc:
        raise InputError(f"picard_basis: {exc}") from exc
    rank = picard.rank
    g = _as_int_vector(raw["g"], rank, "g")
    m = _as_int_vector(raw["m"], rank, "m") if "m" in raw else None
    targets = None
    level_cap = None
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise InputError("options: expected an object")
    unknown = set(options) - _OPTION_FIELDS
    if unknown:
        raise InputError(f"options: unknown field(s) {sorted(unknown)}")
    if "targets" in options:
        targets = _parse_targets(options["targets"], "options.targets")
    if "level_cap" in options:
        level_cap = _as_int(options["level_cap"], "options.level_cap")
    echo = {
        "picard_basis": [list(b) for b in basis],
        "g": list(g),
    }
    if m is not None:
        echo["m"] = list(m)
    opts_echo = {}
    if targets is not None:
        opts_echo["targets"] = [list(t) for t in targets]
    if level_cap is not None:
        opts_echo["level_cap"] = level_cap
    if opts_echo:
        echo["options"] = opts_echo
    return InputDocument(picard, g, m, targets, level_cap, echo)


def _rat(value) -> str:
    return str(Fraction(value))


def _targets_flag(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise InputError(f"--targets: expected square:div pairs, got {chunk!r}")
        out.append((_as_int(parts[0], "--targets"), _as_int(parts[1], "--targets")))
    if not out:
        raise InputError("--targets: at least one square:div pair is required")
    return tuple(out)


def _wall_payload(picard: PicardLattice, wall: WallClass) -> dict:
    ray = classify_wall(wall.rho_ambient)
    return {
        "picard": list(wall.rho_picard),
        "ambient": list(wall.rho_ambient),
        "square": wall.square,
        "div": wall.div,
        "kind": ray.kind.value,
        "dual_square": _rat(ray.dual_square),
    }


def _resolve_targets(doc: InputDocument, args) -> tuple[tuple[int, int], ...]:
    if getattr(args, "targets", None):
        return _targets_flag(args.targets)
    if doc.targets is not None:
        return doc.targets
    return DEFAULT_TARGETS


def _resolve_level_cap(doc: InputDocument, args) -> int | None:
    cap = getattr(args, "level_cap", None)
    if cap is not None:
        return _as_int(cap, "--level-cap")
    return doc.level_cap


def cmd_lattice_info(args) -> dict:
    sig = K3_2_LATTICE.signature()
    return {
        "command": "lattice-info",
        "rank": K3_2_LATTICE.rank,
        "signature": [sig[0], sig[1]],
        "determinant": K3_2_LATTICE.determinant(),
        "basis_labels": list(BASIS_LABELS),
    }


def cmd_walls(args) -> dict:
    doc = load_input_document(args.input)
    targets = _resolve_targets(doc, args)
    cap = _resolve_level_cap(doc, args)
    walls = enumerate_walls(WallQuery(doc.picard, doc.g, m=doc.m, targets=targets, level_cap=cap))
    return {
        "command": "walls",
        "input": doc.echo,
        "targets": [list(t) for t in targets],
        "level_cap": cap,
        "walls": [_wall_payload(doc.picard, w) for w in walls],
    }


def cmd_ample(args) -> dict:
    doc = load_input_document(args.input)
    if doc.m is None:
        raise InputError("field 'm' (the divisor under test) is required for 'ample'")
    targets = _resolve_targets(doc, args)
    verdict = is_ample(doc.picard, doc.g, doc.m, targets)
    witnesses = []
    for wall in verdict.witnesses:
        payload = _wall_payload(doc.picard, wall)
        payload["pairing_with_m"] = doc.picard.pair(wall.rho_picard, doc.m)
        witnesses.append(payload)
    return {
        "command": "ample",
        "input": doc.echo,
        "status": verdict.status.value,
        "certainty": verdict.certainty,
        "isotropic_boundary": verdict.isotropic_flag,
        "primitive_isotropic": detect_isotropic_boundary(doc.picard, doc.m),
        "witnesses": witnesses,
    }


def cmd_nef_threshold(args) -> dict:
    doc = load_input_document(args.input)
    if doc.m is None:
        raise InputError("field 'm' (the divisor under test) is required for 'nef-threshold'")
    targets = _resolve_targets(doc, args)
    tau, walls = nef_threshold(doc.picard, doc.g, doc.m, targets)
    return {
        "command": "nef-threshold",
        "input": doc.echo,
        "tau": _rat(tau),
        "walls": [_wall_payload(doc.picard, w) for w in walls],
    }


def cmd_classify(args) -> dict:
    doc = load_input_document(args.input)
    rho = tuple(_as_int(x, f"--rho[{i}]") for i, x in enumerate(args.rho.split(",")))
    if len(rho) != AMBIENT_RANK:
        raise InputError(f"--rho: expected {AMBIENT_RANK} entries, got {len(rho)}")
    ray = classify_wall(rho)
    square = bb_pair(rho, rho)
    div = divisibility(rho)
    picard_coords = doc.picard.from_ambient(rho)
    return {
        "command": "classify",
        "input": doc.echo,
        "rho": list(rho),
        "square": square,
        "div": div,
        "kind": ray.kind.value,
        "dual_square": _rat(ray.dual_square),
        "dc_values": list(ray.dc_values),
        "picard_coords": [_rat(c) for c in picard_coords] if picard_coords is not None else None,
    }


def cmd_lagrangian(args) -> dict:
    qa, qb, qc = lagrangian_eliminant()
    solutions = lagrangian_solver()
    return {
        "command": "lagrangian",
        "eliminant": {
            "coefficients": [qa, qb, qc],
            "quadratic": f"{qa}x^2{qb:+d}x{qc:+d}=0",
        },
        "roots": [_rat(s.lambda_square) for s in sorted(solutions, key=lambda s: s.lambda_square)],
        "solutions": [
            {
                "lambda_square": _rat(s.lambda_square),
                "a": _rat(s.a),
                "b": _rat(s.b),
                "admissible": s.admissible,
            }
            for s in solutions
        ],
    }


def _render_text(report: dict) -> str:
    lines: list[str] = []
    command = report["command"]
    if command == "lattice-info":
        lines.append(f"rank: {report['rank']}")
        lines.append(f"signature: ({report['signature'][0]}, {report['signature'][1]})")
        lines.append(f"determinant: {report['determinant']}")
        lines.append("basis: " + " ".join(report["basis_labels"]))
    elif command == "walls":
        lines.append(f"targets: {report['targets']}")
        if report["level_cap"] is not None:
            lines.append(f"level cap: {report['level_cap']}")
        lines.append(f"walls found: {len(report['walls'])}")
        for w in report["walls"]:
            lines.append(
                f"  picard={w['picard']} square={w['square']} div={w['div']} "
                f"kind={w['kind']} dual_square={w['dual_square']} ambient={w['ambient']}"
            )
    elif command == "ample":
        lines.append(f"status: {report['status']} ({report['certainty']})")
        lines.append(f"isotropic boundary: {report['isotropic_boundary']}")
        lines.append(f"witnesses: {len(report['witnesses'])}")
        for w in report["witnesses"]:
            lines.append(
                f"  picard={w['picard']} square={w['square']} div={w['div']} "
                f"(rho,M)={w['pairing_with_m']}"
            )
    elif command == "nef-threshold":
        lines.append(f"tau: {report['tau']}")
        lines.append(f"walls at tau: {len(report['walls'])}")
        for w in report["walls"]:
            lines.append(f"  picard={w['picard']} square={w['square']} div={w['div']}")
    elif command == "classify":
        lines.append(f"rho: {report['rho']}")
        lines.append(f"square: {report['square']}  div: {report['div']}")
        lines.append(f"kind: {report['kind']}  dual square: {report['dual_square']}")
        if report["dc_values"]:
            lines.append(f"possible D.C values: {report['dc_values']}")
        if report["picard_coords"] is not None:
            lines.append(f"picard coordinates: {report['picard_coords']}")
    elif command == "lagrangian":
        lines.append(f"eliminant: {report['eliminant']['quadratic']}")
        lines.append(f"roots: {', '.join(report['roots'])}")
        for s in report["solutions"]:
            tag = "admissible" if s["admissible"] else "inadmissible"
            lines.append(
                f"  ({tag}) lambda_square={s['lambda_square']} a={s['a']} b={s['b']}"
            )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwall",
        description="Exact wall and ample-cone computations for K3^[2]-type fourfolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("lattice-info", help="rank, signature, determinant and basis of the fixed lattice")
    add_format(p)
    p.set_defaults(handler=cmd_lattice_info)

    p = sub.add_parser("walls", help="enumerate oriented wall classes")
    p.add_argument("--input", required=True)
    p.add_argument("--targets", help="override targets, e.g. -2:1,-2:2,-10:2")
    p.add_argument("--level-cap", dest="level_cap")
    add_format(p)
    p.set_defaults(handler=cmd_walls)

    p = sub.add_parser("ample", help="ampleness verdict for the divisor m")
    p.add_argument("--input", required=True)
    p.add_argument("--targets")
    add_format(p)
    p.set_defaults(handler=cmd_ample)

    p = sub.add_parser("nef-threshold", help="nef threshold along the segment from g to m")
    p.add_argument("--input", required=True)
    p.add_argument("--targets")
    add_format(p)
    p.set_defaults(handler=cmd_nef_threshold)

    p = sub.add_parser("classify", help="classify an ambient wall vector")
    p.add_argument("--input", required=True)
    p.add_argument("--rho", required=True, help="comma-separated 23 integers")
    add_format(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("lagrangian", help="exact solutions of the plane-class system")
    add_format(p)
    p.set_defaults(handler=cmd_lagrangian)

    return parser


def _join_target_flags(argv: list[str]) -> list[str]:
    # "--targets -2:1,..." confuses argparse (the value starts with "-");
    # fold the pair into the "--targets=..." form before parsing.
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--targets" and i + 1 < len(argv):
            out.append(f"--targets={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_target_flags(list(argv)))
    try:
        report = args.handler(args)
    except PreconditionError as exc:  # a ValueError, so it goes first
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(json.dumps(report, indent=2))
        else:
            print(_render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # flush at interpreter exit cannot fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
