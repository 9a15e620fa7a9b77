"""Every name the benchmark's tracer wraps still exists where it looks it up.

``perfbench/tracing.py`` replaces each ``(owner, attr)`` of its ``WRAPS``
table at run time; a name deleted from the package would only fail in the
traced benchmark run.  This resolves them all without installing the tracer.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{owner}.{attr}"
        for _, owner, names in tracing.WRAPS
        for attr in names
        if not callable(getattr(tracing._resolve(owner), attr, None))
    ]
    assert not missing, missing
