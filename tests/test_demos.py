"""Each narrative script in ``demos/`` runs to the end against the package as it is.

The demos read library internals that no CLI command exposes (demo 02 the
sampling map's ``realized_covariance``, demo 04 ``run_mc`` with threads), so
a change to those breaks a demo before it breaks anything else.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# a line each demo prints when its numbers come out as the narrative says
EXPECTED = {
    "01_model_and_feasibility.py": "equal exponents allow full correlation",
    "02_synthesis.py": "bit-identical for equal seeds: True",
    "03_estimation.py": "bias-corrected   H^M,bc",
    "04_monte_carlo.py": "spectral norms of the performance matrices:",
    "05_sliding_windows.py": "15 windows of 4096 samples, hop 2048",
}


def test_every_demo_is_listed():
    assert [demo.name for demo in DEMOS] == sorted(EXPECTED)


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert EXPECTED[demo.name] in out.getvalue()
