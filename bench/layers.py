"""Per-layer metrics computed from the spans of a traced run.

Times are seconds per call of the named function (self time where the name
says so).  Counts are exact and taken from shapes and sizes seen at the
wrapped calls; ``*_calls`` counts are per operation (a realization on mc, a
window on sliding, a command on cli).  A layer that a workload never calls
reads 0.
"""

from __future__ import annotations

from spans import SpanTable

CLI_COMMANDS = ("synth", "estimate", "sliding", "mc")

# name -> unit, in the order BENCHMARK.json lists them.  The comments name
# the end-to-end metric (workload) each group should move.
PER_LAYER = {
    # build: setup_s (mc), ops_per_s (cli, one build per synth); sample and
    # noise: ops_per_s (mc, cli); csv: ops_per_s (cli)
    "synthesis.embedding_build_s": "s",
    "synthesis.embedding_size": "count",
    "synthesis.sample_s": "s",
    "synthesis.noise_s": "s",
    "synthesis.sample_self_s": "s",
    "synthesis.normals_per_sample": "count",
    "synthesis.csv_write_s": "s",
    "synthesis.csv_read_s": "s",
    "synthesis.csv_bytes": "count",
    # ops_per_s (sliding), a little on mc
    "wavelet.dwt_s": "s",
    "wavelet.dwt_calls": "count",
    "wavelet.spectrum_set_s": "s",
    "wavelet.windowed_spectra_s": "s",
    "wavelet.windowed_spectra_calls": "count",
    # ops_per_s (sliding), a little on mc
    "estimation.analyze_s": "s",
    "estimation.analyze_self_s": "s",
    "estimation.eig_s": "s",
    "estimation.eig_matrices_per_analyze": "count",
    "estimation.regression_weights_s": "s",
    # mc_*: ops_per_s (mc); sliding_self: ops_per_s (sliding); wilcoxon and
    # chi2: ops_per_s (cli, the sliding and mc commands)
    "analysis.mc_aggregate_s": "s",
    "analysis.mc_worker_busy_ratio": "ratio",
    "analysis.sliding_self_s": "s",
    "analysis.wilcoxon_s": "s",
    "analysis.wilcoxon_calls": "count",
    "analysis.chi2_quantiles_s": "s",
    # import: setup_s (all), ops_per_s (cli); the rest: ops_per_s (cli)
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    **{f"cli.{c}.self_s": "s" for c in CLI_COMMANDS},
    "cli.output_bytes": "count",
    "model.load_params_s": "s",
    "trace.overhead_ratio": "ratio",
}

EIG = ("estimation.sorted_eigenvalues", "estimation.averaged_log_eigenvalues")


def _per(total, n):
    return total / n if n else 0.0


def realizations(table: SpanTable):
    """(run_mc span, [(start, end) of each realization]) for every study.

    A realization is a ``sample`` call and the ``analyze`` call that follows
    it on the same thread with the same operation id (the seed).
    """
    out = []
    for study in table.by_name["analysis.run_mc"]:
        started = {}
        spans = []
        for s in sorted(table.children[study[0]], key=lambda s: s[5]):
            if s[2] == "synthesis.sample":
                started[(s[4], s[3])] = s[5]
            elif s[2] == "estimation.analyze" and (s[4], s[3]) in started:
                spans.append((started.pop((s[4], s[3])), s[6]))
        out.append((study, spans))
    return out


def blocking_path_s(table: SpanTable) -> float:
    """Time along the steps that block the result, summed over the run.

    A study (``run_mc``) blocks on its set-up before the first realization,
    its aggregation after the last, and its realizations spread over its
    threads; a sliding pass blocks on all of its spans, which run on one
    thread.  Summed self times of those steps.
    """
    total = 0.0
    for study, spans in realizations(table):
        if not spans:
            continue
        threads = study[7] or 1
        busy = sum(end - start for start, end in spans)
        total += (min(s for s, _ in spans) - study[5]) + (study[6] - max(e for _, e in spans))
        total += busy / threads
    total += table.total("analysis.sliding_window_estimates")
    return total


def layer_metrics(spans, n_ops: int, extra: dict) -> dict:
    """Every PER_LAYER metric from the spans of ``n_ops`` traced operations.

    ``extra`` supplies what spans do not: ``cli.import_s``,
    ``cli.import_scipy_stats_s``, ``cli.output_bytes`` and
    ``trace.overhead_ratio``.
    """
    t = SpanTable(spans)
    samples = t.calls("synthesis.sample")
    analyzes = t.calls("estimation.analyze")
    m = {
        "synthesis.embedding_build_s": t.mean("synthesis.embedding_build"),
        "synthesis.embedding_size": _per(
            t.info_total("synthesis.embedding_build"), t.calls("synthesis.embedding_build")
        ),
        "synthesis.sample_s": t.mean("synthesis.sample"),
        "synthesis.noise_s": _per(t.total("synthesis.noise"), samples),
        "synthesis.sample_self_s": t.self_mean("synthesis.sample"),
        "synthesis.normals_per_sample": _per(t.info_total("synthesis.noise"), samples),
        "synthesis.csv_write_s": t.mean("synthesis.csv_write"),
        "synthesis.csv_read_s": t.mean("synthesis.csv_read"),
        "synthesis.csv_bytes": _per(
            t.info_total("synthesis.csv_write"), t.calls("synthesis.csv_write")
        ),
        "wavelet.dwt_s": t.mean("wavelet.dwt"),
        "wavelet.dwt_calls": _per(t.calls("wavelet.dwt"), n_ops),
        "wavelet.spectrum_set_s": t.mean("wavelet.spectrum_set"),
        "wavelet.windowed_spectra_s": t.mean("wavelet.windowed_spectra"),
        "wavelet.windowed_spectra_calls": _per(t.calls("wavelet.windowed_spectra"), n_ops),
        "estimation.analyze_s": t.mean("estimation.analyze"),
        "estimation.analyze_self_s": t.self_mean("estimation.analyze"),
        "estimation.eig_s": _per(sum(t.total(n) for n in EIG), analyzes),
        "estimation.eig_matrices_per_analyze": _per(sum(t.info_total(n) for n in EIG), analyzes),
        "estimation.regression_weights_s": t.mean("estimation.regression_weights"),
        "analysis.sliding_self_s": t.self_mean("analysis.sliding_window_estimates"),
        "analysis.wilcoxon_s": t.mean("analysis.wilcoxon_ranksum"),
        "analysis.wilcoxon_calls": _per(t.calls("analysis.wilcoxon_ranksum"), n_ops),
        "analysis.chi2_quantiles_s": t.mean("analysis.chi2_quantiles"),
        "model.load_params_s": t.mean("model.load_params"),
    }
    studies = [(study, spans) for study, spans in realizations(t) if spans]
    aggregate = [study[6] - max(end for _, end in spans) for study, spans in studies]
    m["analysis.mc_aggregate_s"] = _per(sum(aggregate), len(aggregate))
    # busy ratio of the studies run with the most threads
    threads = max((study[7] or 1 for study, _ in studies), default=1)
    widest = [(study, spans) for study, spans in studies if (study[7] or 1) == threads]
    busy = sum(end - start for _, spans in widest for start, end in spans)
    capacity = sum(threads * (study[6] - study[5]) for study, _ in widest)
    m["analysis.mc_worker_busy_ratio"] = _per(busy, capacity)
    for c in CLI_COMMANDS:
        m[f"cli.{c}.self_s"] = t.self_mean(f"cli.{c}")
    m.update(extra)
    return {name: m[name] for name in PER_LAYER}
