"""The benchmark's name hooks (perfbench/spans.py) still find every name.

The benchmark times the package's layers by rebinding names at module
boundaries; a hooked name that is renamed or removed makes every metric
that depends on it read null.  This installs the tracer in memory, checks
that nothing is missing and undoes it; no file is written.
"""

import importlib.util
from pathlib import Path

from hyperwall import enumeration

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
