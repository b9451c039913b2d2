"""Smoke test of tests/answer_digest.py, the answer digest used to compare trees."""

from answer_digest import digest, main


def test_two_runs_give_the_same_digest():
    first = digest(3, 2024)
    assert first == digest(3, 2024)
    assert first[0] > 3 * 10


def test_command_line_prints_the_digest(capsys):
    assert main(["--cases", "3", "--seed", "2024"]) == 0
    count, hexdigest = digest(3, 2024)
    assert capsys.readouterr().out == f"cases 3 seed 2024 answers {count} sha256 {hexdigest}\n"
