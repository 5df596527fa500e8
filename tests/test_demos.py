"""Each narrative script in ``demos/``, and the README's library quick start,
runs to the end against the package as it is.

The demos read library internals that no CLI command exposes (demo 02 the
sampling map's ``realized_covariance``, demo 04 ``run_mc`` with threads), so
a change to those breaks a demo before it breaks anything else.
"""

import contextlib
import io
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

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


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "'mse'" in proc.stdout.splitlines()[-1]
