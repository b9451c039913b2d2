"""Smoke test of tests/answer_digest.py, the answer digest used to compare trees."""

from answer_digest import deep_digest, digest, error_digest, main


def test_two_runs_give_the_same_digest():
    first = digest(3, 2024)
    assert first == digest(3, 2024)
    assert first[0] > 3 * 10


def test_command_line_prints_the_digest(capsys):
    assert main(["--cases", "3", "--seed", "2024"]) == 0
    count, hexdigest = digest(3, 2024)
    assert capsys.readouterr().out == f"cases 3 seed 2024 answers {count} sha256 {hexdigest}\n"


def test_digest_is_pinned():
    """Every answer and error message of 40 seeded cases: any drift fails here."""
    assert digest(40, 2024) == (763, "5204e891632ad310e6f4b834d03c2f8ec6342f6366df2bf40a82023047f0a841")


def test_600_case_digest_is_pinned(capsys):
    """The default run of tests/answer_digest.py, every public verdict on
    600 seeded cases: any drift fails here."""
    assert main([]) == 0
    expected = (11205, "627b266fe681a71952dacaef5c85ceb54165cd488a080dc7d1f4ab74b2777331")
    assert capsys.readouterr().out == f"cases 600 seed 2024 answers {expected[0]} sha256 {expected[1]}\n"


def test_deep_digest_is_pinned(capsys):
    """Every answer of the deep-walk queries (ladder and capped shapes): any drift fails here."""
    assert main(["--deep"]) == 0
    expected = (64, "f164853679db3eaa799f3569740c266efb71c49b52793dd97855e6b9fd6d4daf")
    assert deep_digest() == expected
    assert capsys.readouterr().out == f"deep answers {expected[0]} sha256 {expected[1]}\n"


def test_error_digest_is_pinned(capsys):
    """Every error type and message of the malformed-input matrix: a changed
    error, or a changed order of the checks, fails here."""
    assert main(["--errors"]) == 0
    expected = (256, "556649ba5f523abd2d297a16b1559f9584ad4b9964c6d2fd6d2bb9f006f3baea")
    assert error_digest() == expected
    assert capsys.readouterr().out == f"errors answers {expected[0]} sha256 {expected[1]}\n"
