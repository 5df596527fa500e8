"""Command-line front end: synth, estimate, mc, sliding.

Every command is deterministic given its full flag set; outputs are written
atomically (temp file + rename).  Exit codes: 0 ok, 2 usage or file problems
(argparse, a missing or unreadable file, a parameter file that is not JSON),
5 internal; an :class:`~ofbmkit.errors.OfbmkitError` exits with its own
``exit_code`` (see :mod:`ofbmkit.errors`: 2 malformed input or seed, 3 model
validation, 4 data/estimation).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__
from .analysis import (
    McConfig,
    _window_starts,
    bh_reject,
    chi2_quantiles,
    report_to_dict,
    run_mc,
    sliding_window_estimates,
    wilcoxon_ranksum,
)
from .errors import DataError, MalformedInput, OfbmkitError
from .estimation import (
    DEFAULT_BALANCE,
    ESTIMATORS,
    ScalingRangeConfig,
    analyze,
    record_to_dict,
    scaling_range,
)
from .model import load_params
from .synthesis import (
    RNG_ID,
    CirculantEmbedding,
    _check_seeds,
    path_to_binary,
    path_to_csv,
    series_from_csv,
    table_to_csv,
)
from .wavelet import DEFAULT_FILTER, dwt, filter_bank, spectrum_set

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 5


def _taps_hash() -> str:
    f = filter_bank()
    return hashlib.sha256(f.lowpass.tobytes() + f.highpass.tobytes()).hexdigest()[:16]


def version_string() -> str:
    return f"ofbmkit {__version__} (filter {DEFAULT_FILTER} taps sha256/16={_taps_hash()}, rng {RNG_ID})"


def _umask() -> int:
    """The process umask, which can only be read by setting it."""
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


@contextmanager
def _atomic_open(path, mode="w"):
    """Write to a sibling temp file then rename over the target.

    The temp file is created 0600; the target gets the mode of a plain new
    file, 0666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-ofbmkit-")
    try:
        newline = "" if "b" not in mode else None
        with os.fdopen(fd, mode, newline=newline) as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_json(path, payload: dict) -> None:
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with _atomic_open(path) as fh:
        table_to_csv(fh, header, rows)


def _range_config(args) -> ScalingRangeConfig:
    return ScalingRangeConfig(beta=args.beta, n0=args.n0)


def _weights_mode(args) -> str:
    return args.weights.replace("-", "_")


@contextmanager
def _decoding(role: str, path):
    """Report a file that is not UTF-8 as MalformedInput naming it and its role."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{role} file {path} is not UTF-8: {exc}") from exc


def _read_params(path):
    with _decoding("--params", path):
        return load_params(path)


def _read_series(path, label_column: str | None = None):
    with _decoding("series", path), open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return series_from_csv(fh, label_column)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    params = _read_params(args.params)
    _check_seeds(args.seed)  # before the embedding, which can take seconds to build
    emb = CirculantEmbedding(params, args.n)
    kind = "mfBm" if args.kind == "mfbm" else "mfGn"
    path = emb.sample(args.seed, kind=kind)
    out = args.out
    if args.format == "csv":
        with _atomic_open(out) as fh:
            path_to_csv(path, fh)
    else:
        with _atomic_open(out, "wb") as data_fh, _atomic_open(out + ".json") as sidecar_fh:
            path_to_binary(path, data_fh, sidecar_fh)
    _write_json(out + ".embedding.json", asdict(emb.report))
    return EXIT_OK


def cmd_estimate(args) -> int:
    x, _ = _read_series(args.input)
    j1, j2 = scaling_range(x.shape[1], _range_config(args), args.j1, args.j2)
    pyr = dwt(x, j2, filter_bank(args.filter))
    rec = analyze(pyr, j1, j2, balance=_weights_mode(args))
    out = args.out_dir
    _write_json(os.path.join(out, "estimate.json"), record_to_dict(rec))
    spectra = [
        (j, a + 1, b + 1, value, pyr.counts[j - 1])
        for j, spectrum in zip(range(j1, j2 + 1), spectrum_set(pyr, j1, j2).tolist())
        for a, row in enumerate(spectrum)
        for b, value in enumerate(row)
    ]
    _write_csv(os.path.join(out, "spectra.csv"), ["j", "m", "mp", "s", "n_j"], spectra)
    diag, eig, bc = rec.diag_logs.tolist(), rec.log_eig.tolist(), rec.log_eig_bc.tolist()
    logeig = [
        (j, m + 1, diag[row][m], eig[row][m], bc[row][m])
        for row, j in enumerate(range(j1, j2 + 1))
        for m in range(rec.h_m.size)
    ]
    _write_csv(os.path.join(out, "logeig.csv"), ["j", "m", "log_diag", "log_eig", "log_eig_bc"], logeig)
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg = McConfig(
        params=_read_params(args.params), n=args.n, n_mc=args.n_mc, seed0=args.seed,
        range_cfg=_range_config(args), filter_name=args.filter, balance=_weights_mode(args),
        j1=args.j1, j2=args.j2,
    )
    rep = run_mc(cfg, threads=args.threads)
    out = args.out_dir
    _write_json(os.path.join(out, "mc_report.json"), report_to_dict(rep))
    estimates = [
        (r + 1, code, m + 1, value)
        for code in ESTIMATORS
        for r, row in enumerate(rep.estimates[code].tolist())
        for m, value in enumerate(row)
    ]
    _write_csv(os.path.join(out, "estimates.csv"), ["r", "estimator", "m", "value"], estimates)
    # one plotting position and chi-square quantile per realization, shared by the estimators
    probs = (np.arange(1, cfg.n_mc + 1) - 0.5) / cfg.n_mc
    chi2 = chi2_quantiles(cfg.params.m, probs).tolist()
    qq = [
        (code, *values)
        for code, stats in rep.stats.items()
        if not np.isnan(stats["mahalanobis"]).any()
        for values in zip(probs.tolist(), chi2, np.sort(stats["mahalanobis"]).tolist())
    ]
    header = ["estimator", "p", "chi2_quantile", "mahalanobis_quantile"]
    _write_csv(os.path.join(out, "qq.csv"), header, qq)
    norms = [
        (cfg.n, float(np.log2(cfg.n)), code, name, float(value))
        for code, stats in rep.stats.items()
        for name, value in stats["spectral_norms"].items()
    ]
    header = ["n", "log2_n", "estimator", "matrix", "spectral_norm"]
    _write_csv(os.path.join(out, "spectral_norms.csv"), header, norms)
    corr = [
        (code, a + 1, b + 1, value)
        for code, stats in rep.stats.items()
        for a, row in enumerate(stats["corr"].tolist())
        for b, value in enumerate(row)
    ]
    _write_csv(os.path.join(out, "corr.csv"), ["estimator", "m", "mp", "corr"], corr)
    return EXIT_OK


def _window_labels(labels: np.ndarray, window: int, hop: int) -> np.ndarray:
    """Majority label of each window of :func:`~ofbmkit.analysis._window_starts`'s
    grid, which checks the hop and length; a tie goes to the label that sorts first.

    The labels are coded once in sorted order, so each window counts small
    integers and argmax, which returns the first maximum, takes the lowest code.
    """
    starts = _window_starts(labels.size, window, hop)
    values, codes = np.unique(labels, return_inverse=True)
    modes = [np.bincount(codes[s : s + window]).argmax() for s in starts]
    return values[np.asarray(modes, dtype=np.intp)]


def cmd_sliding(args) -> int:
    x, labels = _read_series(args.input, args.label_column)
    if labels is not None:
        wlabels = _window_labels(labels, args.window, args.hop)
        # a bare np.unique would import numpy.ma
        groups = sorted(set(wlabels.tolist()))
        if len(groups) != 2:
            raise DataError(f"need exactly two window labels, got {groups}")
    records = sliding_window_estimates(
        x,
        args.window,
        args.hop,
        args.j1,
        args.j2,
        f=filter_bank(args.filter),
        balance=_weights_mode(args),
    )
    h = np.stack([[getattr(r, name) for name in ESTIMATORS.values()] for r in records])
    if labels is not None:
        # the tests and BH run before any file is written, so a bad --alpha writes nothing
        mask = wlabels == groups[0]
        tests = {}
        for e, code in enumerate(ESTIMATORS):
            pvals = [wilcoxon_ranksum(h[mask, e, m], h[~mask, e, m]) for m in range(h.shape[2])]
            tests[code] = bh_reject(pvals, args.alpha)

    out = args.out_dir
    windows = [
        (rec.t_start, code, m + 1, value)
        for rec, vectors in zip(records, h.tolist())
        for code, vector in zip(ESTIMATORS, vectors)
        for m, value in enumerate(vector)
    ]
    _write_csv(os.path.join(out, "windows.csv"), ["t_start", "estimator", "m", "value"], windows)
    if labels is not None:
        pvalues = [
            (code, rank + 1, i + 1, p, threshold, rejected)
            for code, t in tests.items()
            for rank, (i, p, threshold, rejected) in enumerate(
                zip(t["original_indices"], t["pvalues"], t["bh_thresholds"], t["rejected"])
            )
        ]
        header = ["estimator", "rank", "m", "pvalue", "bh_threshold", "rejected"]
        _write_csv(os.path.join(out, "pvalues.csv"), header, pvalues)
        payload = {"groups": groups, "alpha": args.alpha, "tests": tests}
        _write_json(os.path.join(out, "groups.json"), payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_range_flags(p: argparse.ArgumentParser):
    p.add_argument("--j1", type=int, default=None, help="first regression octave (overrides auto range)")
    p.add_argument("--j2", type=int, default=None, help="last regression octave")
    p.add_argument("--beta", type=float, default=ScalingRangeConfig.beta, help="scaling-range exponent")
    p.add_argument(
        "--n0", type=int, default=ScalingRangeConfig.n0, help="reference sample size for the base range"
    )


def _add_analysis_flags(p: argparse.ArgumentParser):
    p.add_argument("--filter", default=DEFAULT_FILTER, help="wavelet filter name (haar, db2, db3, db4)")
    p.add_argument(
        "--weights",
        choices=["uniform", "by-count"],
        default=DEFAULT_BALANCE.replace("_", "-"),
        help="regression weight balance",
    )


def _thread_count(text: str) -> int:
    """mc --threads: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _output_path(text: str) -> str:
    """--out, --out-dir: a path that is not empty, which would name the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofbmkit",
        description="Synthesis and wavelet eigenvalue-regression estimation "
        "of multivariate selfsimilar processes",
    )
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a sample path")
    p.add_argument("--params", required=True, help="model parameter JSON file")
    p.add_argument("--n", type=int, required=True, help="samples per component")
    p.add_argument("--seed", type=int, required=True, help="64-bit seed")
    p.add_argument("--kind", choices=["mfgn", "mfbm"], default="mfbm")
    p.add_argument("--format", choices=["csv", "bin"], default="csv")
    p.add_argument("--out", type=_output_path, required=True, help="output file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("estimate", help="estimate selfsimilarity exponents of a series")
    p.add_argument("input", help="input series CSV (t, c1..cM)")
    p.add_argument("--out-dir", type=_output_path, required=True)
    _add_range_flags(p)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("mc", help="Monte Carlo estimator benchmark")
    p.add_argument("--params", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-mc", type=int, required=True, dest="n_mc")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="worker threads; has no effect on output",
    )
    p.add_argument("--out-dir", type=_output_path, required=True)
    _add_range_flags(p)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("sliding", help="sliding-window estimation over a long series")
    p.add_argument("input", help="input series CSV (t, c1..cM[, label])")
    p.add_argument("--window", type=int, required=True, help="window length in samples")
    p.add_argument("--hop", type=int, required=True, help="hop between window starts")
    p.add_argument("--j1", type=int, required=True)
    p.add_argument("--j2", type=int, required=True)
    p.add_argument("--label-column", default=None, help="CSV column holding group labels")
    p.add_argument("--alpha", type=float, default=0.05, help="false discovery rate")
    p.add_argument("--out-dir", type=_output_path, required=True)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_sliding)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OfbmkitError as exc:
        print(exc.line(), file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
