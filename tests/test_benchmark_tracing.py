"""The benchmark's traced names still exist where its tracer looks them up.

``perfbench/tracing.py`` wraps public names of the package by module and
attribute; a refactor that renames or moves one leaves that layer unmeasured.
The traced benchmark run that would show it is slow and lives outside this
suite, so this test installs the tracer alone, then checks that uninstalling
puts every original object back.
"""

import importlib
import importlib.util
from pathlib import Path

from ksivi.family import SIVParams
from ksivi.targets import Banana

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_found_and_restored():
    tracing = load_tracing()
    patched = [(importlib.import_module(m), attr) for m, attr, _, _ in tracing.MODULE_PATCHES]
    before = [getattr(module, attr) for module, attr in patched]
    from_flat = vars(SIVParams)["from_flat"]
    target = Banana()
    tracer = tracing.Tracer()
    tracer.install(target)
    try:
        assert tracer.unmeasured == []
        assert vars(SIVParams)["from_flat"] is not from_flat
        assert all(getattr(module, attr) is not fn for (module, attr), fn in zip(patched, before))
    finally:
        tracer.uninstall()
    assert vars(SIVParams)["from_flat"] is from_flat
    for (module, attr), fn in zip(patched, before):
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr} not restored"
    assert not any(attr in vars(target) for attr, _, _ in tracing.TARGET_METHODS)
