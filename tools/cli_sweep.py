"""Run a fixed list of CLI commands and keep everything each one leaves.

    python tools/cli_sweep.py OUT

Each command runs in ``OUT/<name>/``, with the inputs in ``OUT/inputs/``,
and writes its output files there, next to ``exit_code``, ``stdout`` and
``stderr``.  The package is the one ``python -m ofbmkit.cli`` imports, with
each ``PYTHONPATH`` entry made absolute, so running the sweep with two source
trees on ``PYTHONPATH`` and comparing the two directories with ``diff -r``
shows every byte a change moves.  Exits 1 when a command's exit code is not
the one listed, 2 when OUT is not empty.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import numpy as np

M2 = {"H": [0.4, 0.8], "var": [1.0, 1.0], "rho": [[1.0, 0.3], [0.3, 1.0]],
      "W": [[1.0, 0.6], [-0.5, 1.0]]}
M3 = {"H": [0.3, 0.5, 0.7], "var": [1.0, 2.0, 0.5],
      "rho": [[1.0, 0.2, 0.1], [0.2, 1.0, 0.2], [0.1, 0.2, 1.0]],
      "W": [[1.0, 0.2, 0.0], [-0.1, 1.0, 0.3], [0.0, 0.4, 1.0]]}

SERIES = "../synth-csv/x.csv"
SLIDING = ["--window", "2048", "--hop", "300", "--j1", "2", "--j2", "6"]

# name, expected exit code, arguments after "ofbmkit"
COMMANDS = [
    ("synth-csv", 0, ["synth", "--params", "../inputs/m2.json", "--n", "16384",
                      "--seed", str(2**64 - 1), "--kind", "mfbm", "--out", "x.csv"]),
    ("synth-bin-mfgn", 0, ["synth", "--params", "../inputs/m3.json", "--n", "4096", "--seed", "5",
                           "--kind", "mfgn", "--format", "bin", "--out", "x.bin"]),
    ("synth-bin-mfbm", 0, ["synth", "--params", "../inputs/m3.json", "--n", "4096", "--seed", "5",
                           "--kind", "mfbm", "--format", "bin", "--out", "x.bin"]),
    ("estimate-auto", 0, ["estimate", SERIES, "--out-dir", "."]),
    ("estimate-haar", 0, ["estimate", SERIES, "--j1", "3", "--j2", "8", "--weights", "uniform",
                          "--filter", "haar", "--out-dir", "."]),
    ("mc-threads-1", 0, ["mc", "--params", "../inputs/m3.json", "--n", "8192", "--n-mc", "20",
                         "--seed", "11", "--threads", "1", "--out-dir", "."]),
    ("mc-threads-2", 0, ["mc", "--params", "../inputs/m3.json", "--n", "8192", "--n-mc", "20",
                         "--seed", "11", "--threads", "2", "--out-dir", "."]),
    ("sliding", 0, ["sliding", SERIES, *SLIDING, "--out-dir", "."]),
    # windows further apart than a window: the samples between them are cut out
    ("sliding-gaps", 0, ["sliding", SERIES, "--window", "520", "--hop", "261", "--j1", "1",
                         "--j2", "4", "--out-dir", "."]),
    ("sliding-labelled", 0, ["sliding", "../inputs/m2-labelled.csv", *SLIDING,
                             "--label-column", "label", "--alpha", "0.2", "--out-dir", "."]),
    ("refuse-flat-channel", 4, ["estimate", "../inputs/flat.csv", "--j1", "2", "--j2", "6",
                                "--out-dir", "."]),
    # one channel, flat over its second half: the bias-corrected windows there are flat
    ("refuse-flat-half", 4, ["estimate", "../inputs/flat-half.csv", "--j1", "1", "--j2", "4",
                             "--out-dir", "."]),
    ("refuse-flat-window", 4, ["sliding", "../inputs/flat-from-4096.csv", "--window", "2048",
                               "--hop", "1024", "--j1", "1", "--j2", "4", "--out-dir", "."]),
    ("refuse-dependent-channels", 4, ["sliding", "../inputs/dependent.csv", "--window", "2048",
                                      "--hop", "1024", "--j1", "1", "--j2", "4", "--out-dir", "."]),
    # hop 300 splits the windows into 4 phases; the window named is 600..4695
    ("refuse-dependent-stretch", 4, ["sliding", "../inputs/dependent-4096-5119.csv", "--window",
                                     "4096", "--hop", "300", "--j1", "1", "--j2", "4", "--out-dir", "."]),
]


def _write_series(path, x, labels=None) -> None:
    header = ["t"] + [f"c{m + 1}" for m in range(len(x))] + (["label"] if labels else [])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for t, values in enumerate(zip(*x.tolist())):
            writer.writerow([t, *map(repr, values)] + ([labels[t]] if labels else []))


def _write_inputs(inputs) -> None:
    """Model files and the series the refusals read; the others read synth-csv's path."""
    os.makedirs(inputs)
    for name, doc in (("m2.json", M2), ("m3.json", M3)):
        with open(os.path.join(inputs, name), "w") as fh:
            json.dump(doc, fh)
    walk = np.random.default_rng(2024).normal(size=(3, 8192)).cumsum(axis=1)
    flat = walk[:, :4096].copy()
    flat[1] = 5.0
    _write_series(os.path.join(inputs, "flat.csv"), flat)
    half = walk[:1, :4096].copy()
    half[0, 2048:] = half[0, 2047]
    _write_series(os.path.join(inputs, "flat-half.csv"), half)
    stretch = walk[:2].copy()
    stretch[1, 4096:] = stretch[1, 4096]
    _write_series(os.path.join(inputs, "flat-from-4096.csv"), stretch)
    dependent = walk[:, :4096].copy()
    dependent[2] = 0.3 * dependent[0] + 0.7 * dependent[1]
    _write_series(os.path.join(inputs, "dependent.csv"), dependent)
    stretch = walk.copy()
    stretch[2, 4096:5120] = 0.5 * stretch[0, 4096:5120] + 0.25 * stretch[1, 4096:5120]
    _write_series(os.path.join(inputs, "dependent-4096-5119.csv"), stretch)


def child_env(environ) -> dict:
    """``environ`` with each ``PYTHONPATH`` entry absolute, as the commands run in OUT/<name>/."""
    env = dict(environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep)))
    return env


def _label_series(inputs, synth_dir) -> None:
    """The synthesized series with a label column: "rest" for its first half, "task" after."""
    with open(os.path.join(synth_dir, "x.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    half = (len(rows) - 1) // 2
    with open(os.path.join(inputs, "m2-labelled.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0] + ["label"])
        writer.writerows(row + ["rest" if i < half else "task"] for i, row in enumerate(rows[1:]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/cli_sweep.py OUT", file=sys.stderr)
        return 2
    out = argv[0]
    if os.path.exists(out) and os.listdir(out):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    inputs = os.path.join(out, "inputs")
    _write_inputs(inputs)
    env = child_env(os.environ)
    failed = []
    for name, expected, args in COMMANDS:
        cwd = os.path.join(out, name)
        os.makedirs(cwd)
        proc = subprocess.run([sys.executable, "-m", "ofbmkit.cli", *args], cwd=cwd, env=env,
                              capture_output=True, text=True)
        for stream, text in (("exit_code", f"{proc.returncode}\n"), ("stdout", proc.stdout),
                             ("stderr", proc.stderr)):
            with open(os.path.join(cwd, stream), "w") as fh:
                fh.write(text)
        ok = proc.returncode == expected
        print(f"{name}: exit {proc.returncode}" + ("" if ok else f", expected {expected}"))
        if not ok:
            failed.append(name)
        if name == "synth-csv" and ok:
            _label_series(inputs, cwd)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
