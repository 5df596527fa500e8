"""ofbmkit benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload {mc,sliding,cli} --seed N --seconds S --trace {0,1}

The package is measured from the working tree: ``src`` goes on the import
path and CLI commands run as ``python -m ofbmkit.cli``.  BLAS is pinned to one
thread, so no workload runs more threads than ``nproc``.

``--trace 0`` sets up, warms up, then runs the workload's closed loop for S
seconds and reports the end-to-end metrics:

* ``ops_per_ref`` -- operations per reference unit: the median over
  operations of (operation time / reference time measured right after it),
  inverted and scaled to one operation (see ``reference.py``).  It is
  realizations per unit of the mc studies at threads=nproc, windows per unit
  on sliding, and 4 / the sum of per-command median ratios on cli.  The host's
  speed drifts by up to 2x within minutes, and dividing by the reference
  cancels most of it.  The plain rates (realizations/s at threads=nproc and
  at 1, windows/s, commands/s) and the reference times are in the report;
* ``setup_s`` -- median over fresh interpreters of the time to the first timed
  operation: import and model validation, plus the embedding build on mc; on
  cli, ``ofbmkit.cli --version``.  Each is divided by a cold reference run
  right after it and given in seconds at the reference's nominal speed
  (``reference.COLD_NOMINAL_S``); the plain wall times are in the report;
* ``peak_rss_mb`` -- peak RSS of the workload process (cli: of its commands).

``--trace 1`` runs the same loop with every other operation traced: the span
recorder wraps the package's public functions (see ``spans.py``).  It
reports the per-layer metrics of ``layers.py``, including the tracing
overhead against the untraced operations.

Every run checks the program's outputs.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  A readable report goes to
standard error and, as JSON, to ``bench/out/``: provenance, fail_ratio,
per-operation medians and percentiles, every operation's wall time, and the
verdict of each check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
BLAS_THREADS = "1"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

E2E_UNITS = {"ops_per_ref": "1/ref", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_environment() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


def _run_text(argv) -> str:
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "l3_cache_bytes": _run_text(["getconf", "LEVEL3_CACHE_SIZE"]),
        "git_commit": _run_text(["git", "rev-parse", "HEAD"]),
    }


def closed_loop(w, seconds: float, rec=None) -> list:
    """Run operations back to back until ``seconds`` have passed.

    With a recorder, every other operation runs traced, so traced and
    untraced operations see the same machine conditions.
    """
    samples = []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or (rec is not None and k < 2):
        tracing = rec is not None and k % 2 == 1
        if tracing:
            w.set_recorder(rec)
        try:
            sample = w.op(k)
        finally:
            if tracing:
                w.set_recorder(None)
        k += 1
        if sample is not None:
            sample["traced"] = tracing
            samples.append(sample)
    if not samples:
        raise RuntimeError("no operation completed")
    return samples


def seconds_per_op(samples) -> float:
    return sum(s["wall"] for s in samples) / sum(s["ops"] for s in samples)


def untraced(w, seconds, report) -> dict:
    import reference
    from workloads import run_fresh

    setup, refs = [], []
    for _ in range(SETUP_REPEATS):
        wall, proc = run_fresh(w.setup_argv(), w.dir)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up command failed: {proc.stderr}")
        setup.append(wall)
        refs.append(reference.cold(w.dir))
    w.warm_up()
    samples = closed_loop(w, seconds)
    report["setup_s"] = {"wall": setup, "cold_ref": refs}
    report["breakdown"] = w.breakdown(samples)
    report["samples"] = samples
    return {
        "ops_per_ref": w.throughput(samples),
        "setup_s": median(t / r for t, r in zip(setup, refs)) * reference.COLD_NOMINAL_S,
        "peak_rss_mb": w.peak_rss_mb(),
    }


def traced(w, seconds, report, spans_path) -> dict:
    from layers import blocking_path_s, layer_metrics
    from spans import Recorder, SpanTable
    from workloads import Cli, import_times

    import_s, scipy_s = import_times(w.dir, IMPORT_REPEATS)
    w.warm_up()
    rec = Recorder(op_spans=w.op_spans)
    run = closed_loop(w, seconds, rec)
    base = [s for s in run if not s["traced"]]
    samples = [s for s in run if s["traced"]]
    spans = rec.spans
    n_ops = sum(s["ops"] for s in samples)
    untraced_s = seconds_per_op(base)
    extra = {
        "cli.import_s": import_s,
        "cli.import_scipy_stats_s": scipy_s,
        "cli.output_bytes": sum(getattr(w, "output_bytes", [])) / n_ops,
        "trace.overhead_ratio": seconds_per_op(samples) / untraced_s - 1.0,
    }
    metrics = layer_metrics(spans, n_ops, extra)
    if not isinstance(w, Cli):
        # the self times along the blocking path should add up to the untraced
        # time per operation, give or take the tracing overhead (no span covers
        # the interpreter start of a CLI command)
        report["blocking_path_ratio"] = blocking_path_s(SpanTable(spans)) / n_ops / untraced_s - 1.0
    report["spans"] = len(spans)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ofbmkit" / "__init__.py").is_file():
        print(f"error: no ofbmkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    import workloads
    from layers import PER_LAYER

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance()}
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{stem}-", dir=OUT_DIR))
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        w.setup()
        if args.trace:
            values = traced(w, args.seconds, report, OUT_DIR / f"{stem}-spans.json")
            units = PER_LAYER
        else:
            values = untraced(w, args.seconds, report)
            units = E2E_UNITS
        w.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["unit"] = w.unit
    report["checks"] = {name: {"passed": p, "failed": f} for name, (p, f) in w.checks.items()}
    report["attempted"], report["failed"] = w.attempted, w.failed
    report["fail_ratio"] = w.failed / w.attempted
    report["metrics"] = values
    if hasattr(w, "bc_summary"):
        report["bc_summary"] = w.bc_summary
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    err = sys.stderr
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}", file=err)
    for key, value in report["provenance"].items():
        print(f"  {key:<22} {value}", file=err)
    for name, value in values.items():
        print(f"  {name:<38} {value:.6g} {units[name]}", file=err)
    print(f"  {'fail_ratio':<38} {report['fail_ratio']:.6g} "
          f"({w.failed} of {w.attempted} {w.unit}s)", file=err)
    for key in ("setup_s", "breakdown", "blocking_path_ratio", "bc_summary"):
        if key in report:
            print(f"  {key}: {json.dumps(report[key])}", file=err)
    for name, tally in report["checks"].items():
        verdict = "PASS" if tally["failed"] == 0 else "FAIL"
        print(f"  check {verdict} {name} ({tally['passed']} passed, {tally['failed']} failed)",
              file=err)

    print(json.dumps({
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
