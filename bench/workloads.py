"""The benchmark's workloads: mc, sliding and cli.

Each workload is a closed loop in one process: the next operation starts when
the previous one has completed.  Inputs are made from the run's seed; the
program only sees them as arguments and files.  In-process workloads call the
package through module attributes (``analysis.run_mc``), so the span recorder
sees the calls when it is installed.  Untraced operations time fixed
reference work right after their timed part (``reference.py``), and the gated
rate is taken relative to it.

* ``mc`` -- Monte Carlo studies (``run_mc``) on the equal-H M=4 model of
  ``demos/04`` at n=2^14 (auto octaves 6..9).  Each operation runs one study
  at ``threads=nproc`` and the same study at ``threads=1``.  Synthesis is
  most of the work, so a change to ``CirculantEmbedding.sample`` shows here.
* ``sliding`` -- ``sliding_window_estimates`` over 64-window chunks of a
  4 x 2^20 series made in set-up (window 4096, hop 512, octaves 1..4, 2041
  windows in all).  No synthesis in the loop; wavelet and estimation do many
  small calls.
* ``cli`` -- cold ``python -m ofbmkit.cli`` commands, one after another:
  synth (M=2, n=2^17, CSV), estimate on that CSV, sliding on the same series
  with a label column, mc (n=2^13, --threads 1).  Import and CSV I/O
  dominate, and synth pays one embedding build for one sample.
"""

from __future__ import annotations

import csv
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import reference
from ofbmkit import analysis, estimation, model
from ofbmkit.errors import OfbmkitError
from ofbmkit.synthesis import CirculantEmbedding, path_from_csv
from ofbmkit.wavelet import filter_bank
from spans import merge

BENCH_DIR = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
COMMAND_TIMEOUT_S = 120

_rho4 = 0.7 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
DEMO04_MODEL = {
    "H": [0.6] * 4,
    "var": [1.0] * 4,
    "rho": _rho4.tolist(),
    "W": [
        [1.0, 0.5, -0.3, 0.2],
        [-0.4, 1.1, 0.3, -0.2],
        [0.2, -0.3, 0.9, 0.4],
        [0.1, 0.2, -0.5, 1.2],
    ],
}
README_MODEL = {
    "H": [0.4, 0.8],
    "var": [1.0, 1.0],
    "rho": [[1.0, 0.3], [0.3, 1.0]],
    "W": [[1.0, 0.6], [-0.5, 1.0]],
}


def run_fresh(argv, cwd) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of a fresh interpreter running ``argv``, and its result."""
    t = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S
    )
    return time.perf_counter() - t, proc


def strict_json(path):
    """Parse a JSON file, rejecting NaN and infinities."""
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def summary(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    v = np.sort(np.asarray(values, dtype=float))
    out = {"median": float(np.median(v)), "count": int(v.size)}
    pct = int(100 * (1 - 10 / v.size))
    if pct > 50:
        out[f"p{pct}"] = float(np.percentile(v, pct))
    return out


def write_params(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class Workload:
    """Shared bookkeeping: attempted and failed operations, named checks."""

    unit = "operation"
    op_spans: tuple = ()
    REF_UNITS = 1  # reference kernel units timed with each untraced operation

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[int]] = {}  # name -> [passed, failed]
        self._recorder = None

    def check(self, name: str, ok: bool, covers: int) -> bool:
        """Record a correctness check; a failure fails the operations it covers.

        An operation that fails several checks may be counted more than once,
        so the count is capped at the operations attempted.
        """
        tally = self.checks.setdefault(name, [0, 0])
        tally[0 if ok else 1] += 1
        if not ok:
            self.failed = min(self.failed + covers, self.attempted)
        return ok

    def set_recorder(self, rec) -> None:
        """Trace the package with ``rec`` from now on; None stops tracing."""
        if rec is None:
            self._recorder.uninstall()
        else:
            rec.install()
        self._recorder = rec

    def time_reference(self):
        """Seconds per reference unit now, or None while tracing.

        Untraced operations time the reference right after their timed work
        and divide by it (see ``reference.py``).
        """
        return None if self._recorder is not None else reference.timed(self.REF_UNITS)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def warm_up(self) -> None:
        pass

    def finish(self) -> None:
        pass


class Mc(Workload):
    """Pairs of identical studies, at threads=nproc and then at threads=1."""

    unit = "realization"
    op_spans = ("synthesis.sample",)
    REF_UNITS = 10
    N = 2**14
    REALIZATIONS = 32  # per run_mc study
    H = 0.6
    SE_MULTIPLE = 5.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.bc = []

    def setup(self):
        self.params_path = self.dir / "params.json"
        write_params(self.params_path, DEMO04_MODEL)
        self.params = model.load_params(self.params_path)

    def setup_argv(self):
        code = (
            "import sys\n"
            "from ofbmkit.model import load_params\n"
            "from ofbmkit.synthesis import CirculantEmbedding\n"
            "CirculantEmbedding(load_params(sys.argv[1]), int(sys.argv[2]))\n"
        )
        return [sys.executable, "-c", code, str(self.params_path), str(self.N)]

    def config(self, k: int) -> analysis.McConfig:
        # study k uses seeds seed0 + 1 .. seed0 + R, disjoint across studies and runs
        seed0 = self.seed * 10**7 + k * self.REALIZATIONS
        return analysis.McConfig(
            params=self.params, n=self.N, n_mc=self.REALIZATIONS, seed0=seed0
        )

    def _study(self, cfg, threads):
        self.attempted += cfg.n_mc
        t = time.perf_counter()
        try:
            rep = analysis.run_mc(cfg, threads=threads)
        except OfbmkitError:
            self.check("run_mc raises no error", False, cfg.n_mc)
            return None, 0.0
        return rep, time.perf_counter() - t

    def op(self, k):
        return self._pair(self.config(k + 1))

    def warm_up(self):
        self._pair(self.config(0))

    def _pair(self, cfg):
        rep, wall = self._study(cfg, NPROC)
        ref = self.time_reference()  # between the studies, next to both
        rep_1t, wall_1t = self._study(cfg, 1)
        if rep is None or rep_1t is None:
            return None
        same = analysis.report_to_json(rep) == analysis.report_to_json(rep_1t)
        self.check(f"report_to_json identical at threads={NPROC} and 1", same, 2 * cfg.n_mc)
        est = np.stack([rep.estimates[c] for c in analysis.ESTIMATORS])
        if self.check("every estimate is finite", bool(np.isfinite(est).all()), 2 * cfg.n_mc):
            self.bc.append(rep.estimates["BC"])
        return {"wall": wall + wall_1t, "ops": 2 * cfg.n_mc, "nproc": wall, "1t": wall_1t,
                "ref": ref}

    def throughput(self, samples):
        return self.REALIZATIONS / median(s["nproc"] / s["ref"] for s in samples)

    def breakdown(self, samples):
        out = {}
        for t, key in ((NPROC, "nproc"), (1, "1t")):
            out[f"realizations_per_s at threads={t}"] = (
                self.REALIZATIONS / median(s[key] for s in samples)
            )
            out[f"realizations_per_ref at threads={t}"] = (
                self.REALIZATIONS / median(s[key] / s["ref"] for s in samples)
            )
        return out | {"study_s": summary([s["nproc"] for s in samples]),
                      "ref_s": summary([s["ref"] for s in samples])}

    def finish(self):
        """The BC estimates average to H within SE_MULTIPLE standard errors."""
        if not self.bc:
            return
        per_realization = np.concatenate(self.bc).mean(axis=1)
        mean = per_realization.mean()
        se = per_realization.std(ddof=1) / np.sqrt(per_realization.size)
        self.bc_summary = {"mean": float(mean), "se": float(se), "n": per_realization.size}
        self.check(
            f"mean BC estimate within {self.SE_MULTIPLE:g} SE of H={self.H}",
            bool(abs(mean - self.H) <= self.SE_MULTIPLE * se),
            self.attempted,
        )


class Sliding(Workload):
    """Chunks of CHUNK consecutive windows, one sliding call each, across the series.

    Chunk k starts at window (k * CHUNK) mod (windows - CHUNK + 1), so the
    chunks sweep the whole series again and again, and each is followed by
    one reference unit.
    """

    unit = "window"
    op_spans = ("estimation.analyze",)
    WINDOW, HOP, J1, J2 = 4096, 512, 1, 4
    SEGMENT, SEGMENTS = 2**16, 16  # series of SEGMENTS independent mfGn blocks
    CHUNK = 64  # windows per operation
    RECHECKED = 3  # seed-chosen windows re-run through analyze

    def setup(self):
        self.params_path = self.dir / "params.json"
        write_params(self.params_path, DEMO04_MODEL)
        emb = CirculantEmbedding(model.load_params(self.params_path), self.SEGMENT)
        noise = [
            emb.sample(self.seed * self.SEGMENTS + i, kind="mfGn").data
            for i in range(self.SEGMENTS)
        ]
        self.x = np.cumsum(np.concatenate(noise, axis=1), axis=1)
        self.windows = (self.x.shape[1] - self.WINDOW) // self.HOP + 1
        self.starts = self.windows - self.CHUNK + 1  # distinct chunk positions
        self.span = self.WINDOW + (self.CHUNK - 1) * self.HOP  # samples per chunk
        rng = np.random.default_rng(self.seed)
        self.picks = sorted(rng.choice(self.windows, self.RECHECKED, replace=False).tolist())
        self.picked = []  # (window, chunk's first window, record) when a chunk covers a pick

    def setup_argv(self):
        code = "import sys\nfrom ofbmkit.model import load_params\nload_params(sys.argv[1])\n"
        return [sys.executable, "-c", code, str(self.params_path)]

    def _chunk(self, first):
        x = self.x[:, first * self.HOP : first * self.HOP + self.span]
        return analysis.sliding_window_estimates(x, self.WINDOW, self.HOP, self.J1, self.J2)

    def warm_up(self):
        for k in range(16):
            self._chunk(k * self.CHUNK % self.starts)

    def op(self, k):
        first = k * self.CHUNK % self.starts
        self.attempted += self.CHUNK
        t = time.perf_counter()
        try:
            recs = self._chunk(first)
        except OfbmkitError:
            self.check("sliding_window_estimates raises no error", False, self.CHUNK)
            return None
        wall = time.perf_counter() - t
        ref = self.time_reference()
        if not self.check(
            "window count is floor((N - w) / hop) + 1", len(recs) == self.CHUNK, self.CHUNK
        ):
            return None
        est = np.stack([np.stack([r.h_u, r.h_m, r.h_m_bc]) for r in recs])
        finite = np.isfinite(est).all(axis=(1, 2))
        self.check("every estimate is finite", bool(finite.all()), int((~finite).sum()))
        self.picked += [
            (i, first, recs[i - first]) for i in self.picks if first <= i < first + self.CHUNK
        ]
        return {"wall": wall, "ops": self.CHUNK, "ref": ref}

    def throughput(self, samples):
        return self.CHUNK / median(s["wall"] / s["ref"] for s in samples)

    def breakdown(self, samples):
        walls = [s["wall"] for s in samples]
        return {
            "windows_per_s": self.CHUNK / median(walls),
            "chunk_s": summary(walls),
            "ref_s": summary([s["ref"] for s in samples]),
            "series_windows": self.windows,
        }

    def finish(self):
        """Picked windows re-run through analyze on the same slice match bit for bit."""
        f = filter_bank()
        for i, first, rec in self.picked:
            start = i * self.HOP
            ref = estimation.analyze(
                self.x[:, start : start + self.WINDOW], self.J1, self.J2, f=f,
                t_start=(i - first) * self.HOP,
            )
            same = all(
                np.array_equal(getattr(rec, a), getattr(ref, a))
                for a in ("t_start", "h_u", "h_m", "h_m_bc", "log_eig", "log_eig_bc", "diag_logs")
            )
            self.check("re-run window equals its sliding record", same, 1)


class Cli(Workload):
    unit = "command"
    COMMANDS = ("synth", "estimate", "sliding", "mc")
    N = 2**17
    MC_N, MC_REALIZATIONS = 2**13, 32
    WINDOW, HOP, J1, J2 = 4096, 1024, 1, 4

    def setup(self):
        d = self.dir
        self.params_path = d / "params.json"
        write_params(self.params_path, README_MODEL)
        self.series = d / "x.csv"
        self.labelled = d / "xl.csv"
        self.out = {c: d / f"out-{c}" for c in self.COMMANDS}
        self.out["synth"] = self.series
        params = model.load_params(self.params_path)
        self.data = CirculantEmbedding(params, self.N).sample(self.seed, kind="mfBm").data
        j1, j2 = estimation.scaling_range(self.N, estimation.ScalingRangeConfig())
        ref = estimation.analyze(self.data, j1, j2)
        self.ref_h = {"H_U": ref.h_u.tolist(), "H_M": ref.h_m.tolist(), "H_M_bc": ref.h_m_bc.tolist()}
        self.windows = (self.N - self.WINDOW) // self.HOP + 1
        with open(self.labelled, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "c1", "c2", "label"])
            for t in range(self.N):
                label = "a" if t < self.N // 2 else "b"
                writer.writerow([t] + [repr(float(v)) for v in self.data[:, t]] + [label])
        self.argv = {
            "synth": ["synth", "--params", str(self.params_path), "--n", str(self.N),
                      "--seed", str(self.seed), "--out", str(self.series)],
            "estimate": ["estimate", str(self.series), "--out-dir", str(self.out["estimate"])],
            "sliding": ["sliding", str(self.labelled), "--window", str(self.WINDOW),
                        "--hop", str(self.HOP), "--j1", str(self.J1), "--j2", str(self.J2),
                        "--label-column", "label", "--out-dir", str(self.out["sliding"])],
            "mc": ["mc", "--params", str(self.params_path), "--n", str(self.MC_N),
                   "--n-mc", str(self.MC_REALIZATIONS), "--seed", str(self.seed),
                   "--threads", "1", "--out-dir", str(self.out["mc"])],
        }
        self.output_bytes = []

    def setup_argv(self):
        return [sys.executable, "-m", "ofbmkit.cli", "--version"]

    def _outputs(self, command):
        out = self.out[command]
        if command == "synth":
            return [out, Path(f"{out}.embedding.json")]
        return [p for p in sorted(out.iterdir()) if p.is_file()]

    def _verify(self, command) -> bool:
        out = self.out[command]
        if command == "synth":
            with open(out, encoding="utf-8", newline="") as fh:
                return np.array_equal(path_from_csv(fh), self.data)
        if command == "estimate":
            doc = strict_json(out / "estimate.json")
            return all(doc[k] == v for k, v in self.ref_h.items())
        if command == "sliding":
            strict_json(out / "groups.json")
            with open(out / "windows.csv", encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            return rows == self.windows * len(analysis.ESTIMATORS) * len(README_MODEL["H"])
        strict_json(out / "mc_report.json")
        return True

    def _command(self, command):
        self.attempted += 1
        if self._recorder is not None:
            spans_path = self.dir / "spans.json"
            argv = [sys.executable, str(BENCH_DIR / "cli_driver.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "ofbmkit.cli"]
        wall, proc = run_fresh(argv + self.argv[command], self.dir)
        ref = self.time_reference()
        if ref is not None:
            self.refs[command] = ref
        if not self.check(f"{command} exits 0", proc.returncode == 0, 1):
            sys.stderr.write(proc.stderr)
            return wall
        try:
            ok = self._verify(command)
        except (OSError, ValueError, KeyError) as exc:
            ok = False
            sys.stderr.write(f"{command}: {exc}\n")
        self.check(f"{command} output verified", ok, 1)
        if self._recorder is not None:
            with open(spans_path, encoding="utf-8") as fh:
                merge(self._recorder.spans, json.load(fh))
            self.output_bytes.append(sum(p.stat().st_size for p in self._outputs(command)))
        return wall

    def op(self, k):
        self.refs = {}
        walls = {c: self._command(c) for c in self.COMMANDS}
        return {"wall": sum(walls.values()), "ops": len(walls), "walls": walls,
                "refs": self.refs}

    def throughput(self, samples):
        per_ref = [median(s["walls"][c] / s["refs"][c] for s in samples) for c in self.COMMANDS]
        return len(self.COMMANDS) / sum(per_ref)

    def breakdown(self, samples):
        medians = [median(s["walls"][c] for s in samples) for c in self.COMMANDS]
        return {"commands_per_s": len(self.COMMANDS) / sum(medians)} | {
            f"cli_{c}_s": summary([s["walls"][c] for s in samples]) for c in self.COMMANDS
        } | {"ref_s": summary([r for s in samples for r in s["refs"].values()])}

    def time_reference(self):
        """Seconds of a cold reference run right after a command, or None while tracing."""
        return None if self._recorder is not None else reference.cold(self.dir)

    def set_recorder(self, rec):
        """Run commands under bench/cli_driver.py and merge their spans into ``rec``."""
        self._recorder = rec

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {"mc": Mc, "sliding": Sliding, "cli": Cli}


def import_times(cwd, repeats: int) -> tuple[float, float]:
    """Median cold ``import ofbmkit.cli`` time and ``scipy.stats`` share of it.

    The first comes from plain fresh interpreters (warm .pyc files), the
    second from ``python -X importtime``.
    """
    code = "import time\nt = time.perf_counter()\nimport ofbmkit.cli\nprint(time.perf_counter() - t)\n"
    plain, scipy_stats = [], []
    for _ in range(repeats):
        _, proc = run_fresh([sys.executable, "-c", code], cwd)
        plain.append(float(proc.stdout.strip()))
        _, proc = run_fresh([sys.executable, "-X", "importtime", "-c", "import ofbmkit.cli"], cwd)
        match = re.search(r"^import time:\s+\d+ \|\s+(\d+) \|\s*scipy\.stats$", proc.stderr, re.M)
        scipy_stats.append(int(match.group(1)) * 1e-6 if match else 0.0)
    return median(plain), median(scipy_stats)
