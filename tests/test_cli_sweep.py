"""The environment tools/cli_sweep.py gives the commands it runs in OUT/<name>/."""

import importlib.util
import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_SPEC = importlib.util.spec_from_file_location("cli_sweep", os.path.join(_ROOT, "tools", "cli_sweep.py"))
cli_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_sweep)


def test_a_relative_pythonpath_is_imported_in_the_command_directory(tmp_path, monkeypatch):
    # the README runs the sweep as PYTHONPATH=src from the repository root
    monkeypatch.chdir(_ROOT)
    env = cli_sweep.child_env({**os.environ, "PYTHONPATH": "src"})
    proc = subprocess.run([sys.executable, "-c", "import ofbmkit; print(ofbmkit.__file__)"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    assert os.path.samefile(proc.stdout.strip(), os.path.join("src", "ofbmkit", "__init__.py"))
