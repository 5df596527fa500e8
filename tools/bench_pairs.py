"""Run the benchmark on two source trees in alternating pairs, and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S
        [--aa K] [--out FILE]

PARENT and CHANGE are git revisions, or ``WORKTREE`` for the working tree:
the files ``git ls-files`` lists, tracked or untracked but not ignored.  Each
side is copied once into a temporary directory (a revision by ``git
archive``) and runs ``bench/run.py --workload W --seed s --seconds S --trace
0`` from its copy.  Both sides of a pair run the same seed, and pairs
alternate which side runs first: the parent in even pairs, the change in odd
ones.  The seeds are drawn from ``random.Random(SEED_BASE)``, a constant, so
no run can pick its seeds, and they are recorded.  ``--aa K`` adds K pairs of two copies of PARENT, whose spread is the shift that no
change of code caused.  ``--workload`` may be given more than once; each
workload's pairs run in turn.  The report ties each side to the code it
timed by ``code_sha256``: the digest ``code_digest`` takes over the copy's
``src/`` and ``bench/`` before any run.  In a clean checkout of a revision
the same digest is ``git ls-files -z src bench | xargs -0 sha256sum |
sha256sum``.

For every end-to-end metric of ``BENCHMARK.json`` the report gives each
side's median and quartiles, each pair's change/parent ratio, the pairs the
change wins (ties count for neither), the verdict against the metric's bound,
and whether a gain may be claimed: over at least 10 pairs, the change wins 9
in 10, and its median is better than the parent's by more than the parent's
interquartile range.  In the A/A blocks, "parent" is the first copy and
"change" the second.  The report, the skeleton of a ``BENCH_<PR>.json``, is
written as JSON to FILE or to standard output, and a summary to standard
error.  Exits 1 when a run fails or reports a failed check, 2 on bad
arguments.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from statistics import quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"
CLAIM_SHARE, CLAIM_PAIRS = 0.9, 10
SEED_BASE = 1
CODE_DIRS = ("src", "bench")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def describe(rev: str) -> str:
    """The commit a revision names, or HEAD's with ``+worktree`` (and ``-dirty``) for WORKTREE."""
    if rev != WORKTREE:
        return _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dirty = "-dirty" if _git("status", "--porcelain") else ""
    return f"{_git('rev-parse', 'HEAD')}+worktree{dirty}"


def copy_tree(rev: str, dest: str) -> None:
    """Write the files of ``rev`` (a revision or WORKTREE) under ``dest``."""
    os.makedirs(dest)
    if rev == WORKTREE:
        listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for path in filter(None, listed.split("\0")):
            src = os.path.join(ROOT, path)
            if os.path.isfile(src):  # a tracked file deleted from the tree is left out
                os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, path))
        return
    proc = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        # the "data" filter, where this Python has it, refuses links out of dest
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    if proc.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def code_digest(tree: str) -> str:
    """SHA-256 of the ``sha256sum`` listing of every file under ``tree``'s
    CODE_DIRS, in byte order of path."""
    paths = []
    for top in CODE_DIRS:
        for base, _, names in os.walk(os.path.join(tree, top)):
            paths += [os.path.relpath(os.path.join(base, n), tree) for n in names]
    listing = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.replace(os.sep, "/").encode()):
        with open(os.path.join(tree, path), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        listing.update(f"{digest}  {path.replace(os.sep, '/')}\n".encode())
    return listing.hexdigest()


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from ``tree``: its last stdout line, plus the
    provenance of its report file; ``error`` is set when the run fails."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    report = os.path.join(tree, "bench", "out", f"{workload}-seed{seed}-trace0.json")
    with open(report, encoding="utf-8") as fh:
        result["provenance"] = json.load(fh)["provenance"]
    return result


def spread(values: list) -> dict:
    """Median, quartiles (inclusive method), min and max of a sample."""
    q1, q2, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def compare(spec: dict, parent: list, change: list) -> dict:
    """One end-to-end metric over paired runs: ``spec`` is its BENCHMARK.json entry
    (name, better, bound), and parent[i] and change[i] are pair i's values."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p, c = spread(parent), spread(change)
    ratios = [b / a for a, b in zip(parent, change)]
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    enough = len(ratios) >= CLAIM_PAIRS and wins >= math.ceil(CLAIM_SHARE * len(ratios))
    worse_by = -sign * (c["median"] - p["median"]) / p["median"]
    return {
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"],
        "change_worse_by": worse_by,
        "within_bound": worse_by <= spec["bound"],
        "change_better_pairs": f"{wins}/{len(ratios)}",
        "gain_claimable": enough and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"],
        "pair_ratios": ratios,
        "runs": {"parent": parent, "change": change},
    }


def run_pairs(trees: tuple, workload: str, seeds: list, seconds: float, specs: list,
              sides=("parent", "change")) -> dict:
    """Alternating pairs of runs of ``trees`` (the parent's first), one per seed."""
    runs = {side: [] for side in sides}
    first = []
    for k, seed in enumerate(seeds):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        first.append(sides[order[0]])
        for i in order:
            result = run_once(trees[i], workload, seed, seconds)
            runs[sides[i]].append(result)
            status = result.get("error") or ("correct" if result["correct"] else "INCORRECT")
            print(f"{workload} pair {k + 1}/{len(seeds)} seed {seed} {sides[i]}: {status}",
                  file=sys.stderr)
    out = {"pairs": len(seeds), "seeds": seeds, "first": first}
    if any("error" in r for rs in runs.values() for r in rs):
        out["errors"] = {s: [r["error"] for r in rs if "error" in r] for s, rs in runs.items()}
        return out
    out["fail_ratio"] = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                         for s, rs in runs.items()}
    out["all_correct"] = all(r["correct"] for rs in runs.values() for r in rs)
    a, b = (runs[s] for s in sides)
    for spec in specs:
        name = spec["name"]
        out[name] = compare(spec, [r["metrics"][name]["value"] for r in a],
                            [r["metrics"][name]["value"] for r in b])
    out["provenance"] = a[0]["provenance"]
    return out


def _summary(workload: str, block: dict, specs: list, label: str) -> None:
    if "errors" in block:
        print(f"{label} {workload}: runs failed: {block['errors']}", file=sys.stderr)
        return
    print(f"{label} {workload}: {block['pairs']} pairs, fail ratio {block['fail_ratio']}",
          file=sys.stderr)
    for spec in specs:
        m = block[spec["name"]]
        print(f"  {spec['name']:<12} parent {m['parent']['median']:.6g} "
              f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}]  change "
              f"{m['change']['median']:.6g} [{m['change']['q1']:.6g}, {m['change']['q3']:.6g}]  "
              f"x{m['change_over_parent']:.4f}  better in {m['change_better_pairs']}  "
              f"{'within' if m['within_bound'] else 'BEYOND'} bound {spec['bound']}"
              + ("  gain claimable" if m["gain_claimable"] else ""), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--aa", type=int, default=0, metavar="K")
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.aa < 0 or args.seconds <= 0:
        parser.error("need --pairs >= 1, --aa >= 0 and --seconds > 0")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    unknown = [w for w in args.workload if w not in names]
    if unknown:
        parser.error(f"unknown workload {unknown}; BENCHMARK.json lists {names}")
    specs = bench["end_to_end"]
    commits = {side: describe(rev) for side, rev in (("parent", args.parent),
                                                     ("change", args.change))}

    rng = random.Random(SEED_BASE)
    seeds = {w: [rng.randrange(10**6) for _ in range(args.pairs + args.aa)] for w in args.workload}
    report = {
        "what": "",
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0, run from a copy of each tree",
        "tool": "python tools/bench_pairs.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "parent_commit": commits["parent"],
        "change_code": commits["change"],
        "order": "workloads in turn; within a workload, pairs alternate which side runs first "
                 "(the parent in even pairs, the change in odd ones); both sides of a pair use "
                 "the same seed; end_to_end.<workload>.first names the side that ran first",
        "code_sha256": {},
        "seeds": {"base": SEED_BASE, **seeds},
        "claim": {"workload": "", "metric": "",
                  "rule": f"better in >= {CLAIM_SHARE:g} of >= {CLAIM_PAIRS} pairs, and the "
                          "change's median better than the parent's by more than the parent's IQR",
                  "result": ""},
        "end_to_end": {},
    }
    if args.aa:
        report["aa"] = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change", "parent-copy")}
        copy_tree(args.parent, trees["parent"])
        copy_tree(args.change, trees["change"])
        report["code_sha256"] = {side: code_digest(trees[side]) for side in ("parent", "change")}
        if args.aa:
            shutil.copytree(trees["parent"], trees["parent-copy"])
        for w in args.workload:
            block = run_pairs((trees["parent"], trees["change"]), w, seeds[w][: args.pairs],
                              args.seconds, specs)
            report["end_to_end"][w] = block
            _summary(w, block, specs, "A/B")
            if args.aa:
                aa = run_pairs((trees["parent"], trees["parent-copy"]), w, seeds[w][args.pairs :],
                               args.seconds, specs, sides=("parent", "parent-copy"))
                report["aa"][w] = aa
                _summary(w, aa, specs, "A/A")

    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    blocks = [*report["end_to_end"].values(), *report.get("aa", {}).values()]
    return 0 if all("errors" not in b and b["all_correct"] for b in blocks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
