"""The benchmark's tracer patches the program's names: each must exist."""

import importlib.util
from pathlib import Path

from photon_router.core import OutputReport

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores_every_name():
    # perfbench/tracing.py looks each function up by name with getattr, so a
    # renamed or removed name fails here, not only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [(ns, attr, getattr(ns, attr)) for ns, attr in tracing._PATCHES]
    method = OutputReport.__dict__["from_channel_numbers"]

    tracer = tracing.Tracer()
    try:
        # a failed install leaves what it patched for uninstall to restore
        tracer.install()
        assert all(getattr(ns, attr) is not fn for ns, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(ns, attr) is fn for ns, attr, fn in originals)
    assert OutputReport.__dict__["from_channel_numbers"] is method
