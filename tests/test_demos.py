"""Smoke test: every demo script runs to completion; demos 01, 02 and 03 print what they printed before."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_lattice_tour.py",
    "02_walls_and_ample_cone.py",
    "03_lagrangian_planes.py",
    "04_cli_session.py",
]


# demo 01's whole output: lattice data, pairings, divisibility, the
# admissibility table for the squares -2 ... -12 and the block signatures
DEMO_01_OUTPUT = Path(__file__).resolve().parent / "demo_01_lattice_tour.out"
# demo 02's whole output: walls, slices, verdicts and the nef-threshold walk
DEMO_02_OUTPUT = Path(__file__).resolve().parent / "demo_02_walls_and_ample_cone.out"
# demo 03's whole output: the eliminant, both plane solutions and the witness
DEMO_03_OUTPUT = Path(__file__).resolve().parent / "demo_03_lagrangian_planes.out"


def run_demo(demo, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=cwd, env=env, capture_output=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    done = run_demo(demo, tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout


def test_demo_01_output_is_unchanged(tmp_path):
    done = run_demo("01_lattice_tour.py", tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == DEMO_01_OUTPUT.read_bytes()


def test_demo_02_output_is_unchanged(tmp_path):
    done = run_demo("02_walls_and_ample_cone.py", tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == DEMO_02_OUTPUT.read_bytes()


def test_demo_03_output_is_unchanged(tmp_path):
    done = run_demo("03_lagrangian_planes.py", tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == DEMO_03_OUTPUT.read_bytes()
