"""The benchmark's traced names still exist where its tracer looks them up.

``perfbench/tracing.py`` wraps public names of the package by module and
attribute; a refactor that renames or moves one leaves that layer unmeasured.
The traced benchmark run that would show it is slow and lives outside this
suite, so these tests install the tracer alone: one checks that uninstalling
puts every original object back, the other that a short training run and one
``evaluate`` still call every traced name, since a refactor that routes a call
around one leaves its layer reading 0.  Each estimator's training run must
reach every traced training name on its own, so that a path of one estimator
cannot hide behind the other's calls.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from ksivi import cli, train
from ksivi.family import SIVParams, siv_init
from ksivi.nets import NetArch
from ksivi.runio import write_samples_csv
from ksivi.targets import Banana

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
TRAINING_MODULES = ("ksivi.train", "ksivi.estimators", "ksivi.family")  # where training's calls are traced


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


def test_every_traced_name_is_called(tmp_path, capsys):
    tracing = load_tracing()
    rng = np.random.default_rng(5)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        write_samples_csv(path, rng.standard_normal((40, 2)))
    target = Banana()
    tracer = tracing.Tracer()
    tracer.install(target)
    try:
        init = siv_init(NetArch((3, 8, 2)), seed=6)
        per_run = {}
        for estimator in ("vanilla", "ustat"):
            config = train.TrainConfig(iterations=3, batch_size=8, learning_rate=1e-3, estimator=estimator, seed=7)
            start = len(tracer.names)
            train.train(config, target, init, iteration_hook=lambda t, params: None)
            per_run[estimator] = set(tracer.names[start:])
        assert cli.main(["evaluate", *map(str, paths), "--metrics", "sliced_wd,kl_knn,mmd2,corr"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # each estimator alone reaches every training name: one run cannot cover for the other
    for estimator, names in per_run.items():
        missed = [
            f"{module}.{attr}"
            for module, attr, name, _ in tracing.MODULE_PATCHES
            if module in TRAINING_MODULES and name not in names
        ]
        assert missed == [], estimator
        assert "family.unflatten" in names, estimator
    recorded = set(tracer.names)
    # metrics.mmd2_vstat has no caller left; it stays until the tracer's names are revised
    uncalled = [
        f"{module}.{attr}"
        for module, attr, name, _ in tracing.MODULE_PATCHES
        if name not in recorded and name != "metrics.mmd2_vstat"
    ]
    assert uncalled == []
    assert "family.unflatten" in recorded
