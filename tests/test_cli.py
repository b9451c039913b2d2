import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperwall
from hyperwall import (
    PreconditionError,
    WallQuery,
    basis_vector,
    enumerate_walls,
    is_ample,
    nef_threshold,
)
from hyperwall.cli import main
from lattice_fixtures import DELTA, H, random_hyperbolic_picard, random_polarized_pair

RANK2_DOC = {
    "picard_basis": [list(H), list(DELTA)],
    "g": [3, -1],
    "m": [2, 1],
}


@pytest.fixture
def rank2_file(tmp_path):
    path = tmp_path / "rank2.json"
    path.write_text(json.dumps(RANK2_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLatticeInfo:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "lattice-info")
        assert code == 0
        assert "rank: 23" in out
        assert "signature: (3, 20)" in out
        assert "determinant: 2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "lattice-info", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == 23
        assert report["signature"] == [3, 20]
        assert report["determinant"] == 2
        assert report["basis_labels"][0] == "e1"
        assert report["basis_labels"][-1] == "delta"


class TestWalls:
    def test_default_targets(self, capsys, rank2_file):
        code, out, _ = run(capsys, "walls", "--input", rank2_file, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert [w["picard"] for w in report["walls"]] == [[0, 1]]
        wall = report["walls"][0]
        assert wall["square"] == -2 and wall["div"] == 2
        assert wall["kind"] == "divisorial_half"
        assert wall["dual_square"] == "-1/2"
        assert len(wall["ambient"]) == 23

    def test_targets_override_with_cap(self, capsys, tmp_path):
        doc = {"picard_basis": RANK2_DOC["picard_basis"], "g": [3, -1]}
        path = tmp_path / "nom.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            "walls",
            "--input",
            str(path),
            "--targets",
            "-10:2",
            "--level-cap",
            "60",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert [w["picard"] for w in report["walls"]] == [[2, -3], [2, 3]]
        assert all(w["kind"] == "lagrangian_plane" for w in report["walls"])

    def test_missing_bound_is_validation_error(self, capsys, tmp_path):
        doc = {"picard_basis": RANK2_DOC["picard_basis"], "g": [3, -1]}
        path = tmp_path / "nobound.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "walls", "--input", str(path))
        assert code == 2
        assert "level_cap" in err

    def test_options_from_file(self, capsys, tmp_path):
        doc = {
            "picard_basis": RANK2_DOC["picard_basis"],
            "g": [3, -1],
            "options": {"targets": [[-10, 2]], "level_cap": 60},
        }
        path = tmp_path / "opts.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "walls", "--input", str(path), "--format", "json")
        assert code == 0
        assert [w["picard"] for w in json.loads(out)["walls"]] == [[2, -3], [2, 3]]


class TestAmple:
    def test_not_nef(self, capsys, rank2_file):
        code, out, _ = run(capsys, "ample", "--input", rank2_file, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "not_nef"
        assert report["certainty"] == "conjectural"
        assert report["witnesses"][0]["picard"] == [0, 1]
        assert report["witnesses"][0]["pairing_with_m"] == -2

    def test_ample_when_m_equals_g(self, capsys, tmp_path):
        doc = dict(RANK2_DOC, m=[3, -1])
        path = tmp_path / "mg.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "ample", "--input", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ample"
        assert report["certainty"] == "proven"
        assert report["witnesses"] == []

    def test_missing_m_rejected(self, capsys, tmp_path):
        doc = {"picard_basis": RANK2_DOC["picard_basis"], "g": [3, -1]}
        path = tmp_path / "nom.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ample", "--input", str(path))
        assert code == 2
        assert "'m'" in err

    def test_non_ample_polarization_exits_three(self, capsys, tmp_path):
        doc = dict(RANK2_DOC, g=[1, 0])
        path = tmp_path / "badg.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ample", "--input", str(path))
        assert code == 3
        assert "not ample" in err


class TestNefThreshold:
    def test_fixture(self, capsys, rank2_file):
        code, out, _ = run(capsys, "nef-threshold", "--input", rank2_file, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["tau"] == "1/2"
        assert [w["picard"] for w in report["walls"]] == [[0, 1]]

    def test_text_output(self, capsys, rank2_file):
        code, out, _ = run(capsys, "nef-threshold", "--input", rank2_file)
        assert code == 0
        assert "tau: 1/2" in out

    def test_precondition_exit_code(self, capsys, tmp_path):
        doc = dict(RANK2_DOC, m=[1, 1])  # isotropic m
        path = tmp_path / "iso.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "nef-threshold", "--input", str(path))
        assert code == 3
        assert "(m, m)" in err


class TestClassify:
    def test_delta(self, capsys, rank2_file):
        rho = ",".join(str(x) for x in DELTA)
        code, out, _ = run(
            capsys, "classify", "--input", rank2_file, "--rho", rho, "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "divisorial_half"
        assert report["square"] == -2 and report["div"] == 2
        assert report["dual_square"] == "-1/2"
        assert report["dc_values"] == [-1, -2]
        assert report["picard_coords"] == ["0", "1"]

    def test_vector_outside_span(self, capsys, rank2_file):
        coords = [0] * 23
        coords[2] = 1
        coords[3] = -1
        rho = ",".join(str(x) for x in coords)
        code, out, _ = run(
            capsys, "classify", "--input", rank2_file, "--rho", rho, "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["picard_coords"] is None

    def test_bad_rho_rejected(self, capsys, rank2_file):
        code, _, err = run(capsys, "classify", "--input", rank2_file, "--rho", "1,2,3")
        assert code == 2
        assert "23" in err

    def test_non_primitive_rejected(self, capsys, rank2_file):
        rho = ",".join(str(3 * x) for x in DELTA)
        code, out, err = run(capsys, "classify", "--input", rank2_file, "--rho", rho)
        assert code == 2
        assert out == ""
        assert "gcd 3" in err

    def test_nonnegative_square_rejected(self, capsys, rank2_file):
        rho = ",".join(str(x) for x in H)
        code, _, err = run(capsys, "classify", "--input", rank2_file, "--rho", rho)
        assert code == 2
        assert "negative square" in err


class TestLagrangian:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "lagrangian", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["eliminant"]["quadratic"] == "23x^2+20x-2100=0"
        assert report["eliminant"]["coefficients"] == [23, 20, -2100]
        assert report["roots"] == ["-10", "210/23"]
        admissible = [s for s in report["solutions"] if s["admissible"]]
        assert admissible == [
            {"lambda_square": "-10", "a": "1/20", "b": "1/8", "admissible": True}
        ]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "lagrangian")
        assert code == 0
        assert "23x^2+20x-2100=0" in out
        assert "inadmissible" in out


class TestInputValidation:
    def test_invalid_json_reports_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"picard_basis": [[1,2,\n???')
        code, _, err = run(capsys, "walls", "--input", str(path))
        assert code == 2
        assert "line" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        doc = dict(RANK2_DOC, extra=1)
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "walls", "--input", str(path))
        assert code == 2
        assert "extra" in err

    def test_unknown_option_rejected(self, capsys, tmp_path):
        doc = dict(RANK2_DOC, options={"bogus": 1})
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "walls", "--input", str(path))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("options", [None, [], 0, False, ""], ids=repr)
    def test_non_object_options_rejected(self, capsys, tmp_path, options):
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(dict(RANK2_DOC, options=options)))
        code, out, err = run(capsys, "walls", "--input", str(path))
        assert (code, out) == (2, "")
        assert "options: expected an object" in err

    def test_empty_options_accepted(self, capsys, tmp_path):
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(dict(RANK2_DOC, options={})))
        assert run(capsys, "walls", "--input", str(path))[0] == 0

    def test_wrong_vector_length(self, capsys, tmp_path):
        doc = {"picard_basis": [[1, 2, 3]], "g": [1]}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "walls", "--input", str(path))
        assert code == 2
        assert "picard_basis[0]" in err

    def test_dependent_basis_rejected(self, capsys, tmp_path):
        doc = {
            "picard_basis": [list(H), [2 * x for x in H]],
            "g": [1, 0],
        }
        path = tmp_path / "dep.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "walls", "--input", str(path))
        assert code == 2
        assert "dependent" in err

    def test_non_saturated_basis_rejected(self, capsys, tmp_path):
        h = [1, 2] + [0] * 21
        e = [0] * 6 + [1] + [0] * 16
        doc = {
            "picard_basis": [[x + y for x, y in zip(h, e)], [x - y for x, y in zip(h, e)]],
            "g": [2, 1],
            "m": [3, 7],
        }
        path = tmp_path / "nonsat.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ample", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "index 2" in err

    def test_integer_strings_accepted(self, capsys, tmp_path):
        doc = {
            "picard_basis": RANK2_DOC["picard_basis"],
            "g": ["3", "-1"],
            "m": ["2", "1"],
        }
        path = tmp_path / "strs.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "ample", "--input", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["status"] == "not_nef"

    @pytest.mark.parametrize("text", ["\u00b2", "\u0661\u0662", "-\u0663", "\uff17"])
    def test_non_ascii_digits_rejected(self, capsys, tmp_path, text):
        # str.isdigit() accepts superscripts and other scripts' digits
        doc = dict(RANK2_DOC, g=[text, "-1"])
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "walls", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "g[0]" in err

    @pytest.mark.parametrize("text", ["\u00b2", "\u0661\u0662", "-\u0663", "\uff17", "1_0", "+2"])
    def test_non_ascii_digits_rejected_in_flags(self, capsys, rank2_file, text):
        # the flags parse integers like the JSON input does
        code, out, err = run(
            capsys, "walls", "--input", rank2_file, f"--targets=-{text}:2", "--format", "json"
        )
        assert (code, out) == (2, "")
        assert "--targets" in err
        rho = ",".join([text] + [str(x) for x in DELTA[1:]])
        code, out, err = run(capsys, "classify", "--input", rank2_file, f"--rho={rho}")
        assert (code, out) == (2, "")
        assert "--rho[0]" in err
        code, out, err = run(capsys, "walls", "--input", rank2_file, f"--level-cap={text}")
        assert (code, out) == (2, "")
        assert "--level-cap" in err

    @pytest.mark.parametrize("command", ["ample", "nef-threshold"])
    def test_bad_targets_rejected_before_the_verdict(self, capsys, tmp_path, command):
        doc = dict(RANK2_DOC, m=[0, 1], options={"targets": [[-2, 3]]})
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert "target" in err

    def test_float_rejected(self, capsys, tmp_path):
        doc = dict(RANK2_DOC, g=[3.5, -1])
        path = tmp_path / "float.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "walls", "--input", str(path))
        assert code == 2

    def test_integers_beyond_double_precision(self, capsys, tmp_path):
        # coordinates around 10^20 must survive exactly (as strings or
        # JSON numbers); the verdict for m = g is ample either way
        big = 10**20
        doc = {
            "picard_basis": RANK2_DOC["picard_basis"],
            "g": [str(3 * big), str(-big)],
            "m": [3 * big, -big],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "ample", "--input", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ample"
        assert report["input"]["g"] == [3 * big, -big]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "walls", "--input", "/nonexistent.json")
        assert code == 2
        assert "cannot read" in err


class TestRoundTrip:
    def test_rerun_is_identical(self, capsys, rank2_file):
        code, first, _ = run(capsys, "ample", "--input", rank2_file, "--format", "json")
        assert code == 0
        code, second, _ = run(capsys, "ample", "--input", rank2_file, "--format", "json")
        assert first == second

    def test_echoed_input_reproduces_report(self, capsys, tmp_path, rank2_file):
        code, out, _ = run(capsys, "nef-threshold", "--input", rank2_file, "--format", "json")
        assert code == 0
        report = json.loads(out)
        echoed = tmp_path / "echo.json"
        echoed.write_text(json.dumps(report["input"]))
        code, out2, _ = run(capsys, "nef-threshold", "--input", str(echoed), "--format", "json")
        assert code == 0
        assert json.loads(out2) == report


def run_json(command, path):
    """The CLI in-process with --format json: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--input", str(path), "--format", "json"])
    return code, out.getvalue()


def wall_rows(walls):
    return [(list(w.rho_picard), list(w.rho_ambient), w.square, w.div) for w in walls]


def payload_rows(payloads):
    return [(p["picard"], p["ambient"], p["square"], p["div"]) for p in payloads]


def library_answer(command, pic, g, m):
    """What the CLI must report, or None where it must exit with 3."""
    try:
        if command == "walls":
            return wall_rows(enumerate_walls(WallQuery(pic, g, m=m)))
        if command == "ample":
            verdict = is_ample(pic, g, m)
            return verdict.status.value, verdict.certainty, wall_rows(verdict.witnesses)
        tau, walls = nef_threshold(pic, g, m)
        return str(tau), wall_rows(walls)
    except PreconditionError:
        return None


def reported_answer(command, report):
    if command == "walls":
        return payload_rows(report["walls"])
    if command == "ample":
        return report["status"], report["certainty"], payload_rows(report["witnesses"])
    return report["tau"], payload_rows(report["walls"])


class TestJsonRoundTripProperty:
    """walls, ample and nef-threshold JSON against the library, and the
    echoed input fed back reproducing the report byte for byte."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
    def test_reports_match_the_library_and_reproduce(self, rank, seed):
        rng = random.Random(seed)
        pic = random_hyperbolic_picard(rng, rank)
        g, m = random_polarized_pair(rng, pic)
        doc = {"picard_basis": [list(b) for b in pic.basis], "g": list(g), "m": list(m)}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            echoed = Path(tmp) / "echoed.json"
            path.write_text(json.dumps(doc))
            for command in ("walls", "ample", "nef-threshold"):
                code, out = run_json(command, path)
                expected = library_answer(command, pic, g, m)
                if expected is None:
                    assert (code, out) == (3, "")
                    continue
                assert code == 0
                report = json.loads(out)
                assert reported_answer(command, report) == expected
                echoed.write_text(json.dumps(report["input"]))
                assert run_json(command, echoed) == (0, out)


class TestStartup:
    def test_import_does_not_load_numpy(self):
        # numpy serves only the brute-force test oracle
        src = str(Path(hyperwall.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, hyperwall, hyperwall.cli; print('numpy' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"


class TestClosedStdout:
    def test_reader_closing_early_gets_no_traceback(self, tmp_path):
        # about 120 kB of JSON: more than a pipe buffer, so the CLI is still
        # writing when the reader goes away
        doc = {
            "picard_basis": [list(H), list(DELTA), list(basis_vector("E8a_1"))],
            "g": [3, -1, -1],
            "options": {"level_cap": 120},
        }
        path = tmp_path / "many_walls.json"
        path.write_text(json.dumps(doc))
        src = str(Path(hyperwall.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyperwall.cli", "walls", "--input", str(path), "--format", "json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(300)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""  # no Traceback, nothing at all
