"""The benchmark's name hooks (perfbench/spans.py) still find every name.

The benchmark times the package's layers by rebinding names at module
boundaries; a hooked name that is renamed or removed makes every metric
that depends on it read null.  This installs the tracer in memory, checks
that nothing is missing and undoes it; no file is written.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from hyperwall import PicardLattice, WallQuery, basis_vector, cones, enumeration, vector_from_labels

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_resolves():
    original = enumeration.integer_interval
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        assert enumeration.integer_interval is not original
        assert dict(tracer.missing) == {}
    finally:
        tracer.uninstall()
    assert enumeration.integer_interval is original


# names the benchmark hooks in hyperwall.enumeration: every verdict builds
# a slice context and walks it, so each of them must see calls
CONTEXT_HOOKS = ("linear_form_basis", "ldl_positive", "solve_exact", "integer_interval")


def test_every_hooked_name_is_called(monkeypatch):
    """A hooked name must also be called: a dead import would keep its
    hook resolving while every metric that depends on it reads zero."""
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[module.__name__, name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in CONTEXT_HOOKS:
        count(enumeration, name)
    count(cones, "enumerate_walls")
    count(cones, "validate_polarization")
    pic = PicardLattice(
        [vector_from_labels({"e1": 1, "f1": 2}), basis_vector("delta"), basis_vector("E8a_1")]
    )
    g, m = (15, 1, 4), (3, 4, 0)  # the benchmark's rank-3 ladder rung
    verdicts = {
        "enumerate_walls": lambda: enumeration.enumerate_walls(WallQuery(pic, g, m)),
        "is_ample": lambda: cones.is_ample(pic, g, m),
        "nef_threshold": lambda: cones.nef_threshold(pic, g, m),
    }
    for verdict, run in verdicts.items():
        before = calls.copy()
        run()
        for name in CONTEXT_HOOKS:
            assert calls[enumeration.__name__, name] > before[enumeration.__name__, name], (verdict, name)
        # the cones.validate layer: is_ample checks g through the hooked
        # name; nef_threshold checks g by its own walk from level 0
        if verdict == "is_ample":
            key = (cones.__name__, "validate_polarization")
            assert calls[key] > before[key], verdict
    # is_ample reaches the wall list through the name hooked in cones
    assert calls[cones.__name__, "enumerate_walls"] > 0
    # nef_threshold reaches the hooked name when it rejects m
    key = (cones.__name__, "validate_polarization")
    before = calls[key]
    with pytest.raises(cones.PreconditionError, match=r"\(m, g\) > 0"):
        cones.nef_threshold(pic, g, tuple(-c for c in m))
    assert calls[key] == before + 1
