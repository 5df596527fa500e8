"""The benchmark's span recorder still finds every function it wraps.

``bench/spans.py`` wraps ofbmkit functions and ``CirculantEmbedding`` methods
by name, so renaming or deleting one of them would break traced benchmark
runs without failing any other test.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from ofbmkit.synthesis import CirculantEmbedding

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def _ofbmkit_holders(fn):
    """(module, attribute) of every ofbmkit module attribute bound to fn."""
    return [
        (mod, attr)
        for key, mod in list(sys.modules.items())
        if key.split(".")[0] == "ofbmkit"
        for attr, value in list(vars(mod).items())
        if value is fn
    ]


def test_every_wrapped_name_resolves(spans):
    for mod_name, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
    for attr, _ in spans.METHODS:
        assert callable(CirculantEmbedding.__dict__[attr]), attr


def test_install_wraps_and_uninstall_restores(spans):
    functions = {
        (mod_name, attr): getattr(importlib.import_module(mod_name), attr)
        for mod_name, attr, _ in spans.FUNCTIONS
    }
    holders = {key: _ofbmkit_holders(fn) for key, fn in functions.items()}
    methods = {attr: CirculantEmbedding.__dict__[attr] for attr, _ in spans.METHODS}
    rec = spans.Recorder()
    rec.install()
    try:
        for key, fn in functions.items():
            assert getattr(sys.modules[key[0]], key[1]) is not fn, key
        for attr, method in methods.items():
            assert CirculantEmbedding.__dict__[attr] is not method, attr
    finally:
        rec.uninstall()
    for key, fn in functions.items():
        for mod, attr in holders[key]:
            assert getattr(mod, attr) is fn, (mod.__name__, attr)
    for attr, method in methods.items():
        assert CirculantEmbedding.__dict__[attr] is method, attr


def test_traced_sliding_records_its_estimation_spans(spans):
    # each block of windows is one analyze call, so a traced sliding run
    # times the estimators and their eigendecompositions
    from ofbmkit import analysis

    x = np.random.default_rng(0).normal(size=(2, 1200)).cumsum(axis=1)
    rec = spans.Recorder(op_spans=("estimation.analyze",))
    rec.install()
    try:
        analysis.sliding_window_estimates(x, 514, 128, 1, 4)
    finally:
        rec.uninstall()
    names = {s[2] for s in rec.spans}
    for name in (
        "estimation.analyze", "estimation.sorted_eigenvalues", "estimation.averaged_log_eigenvalues"
    ):
        assert name in names, name
