"""The comparison rules of tools/bench_pairs.py, on fixed paired readings,
and the digest that ties a report to the code it timed."""

import hashlib
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "ops_per_ref", "better": "higher", "bound": 0.25}
LOWER = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_spread_gives_inclusive_quartiles():
    s = bench_pairs.spread(PARENT)
    assert (s["q1"], s["median"], s["q3"]) == (99.25, 100.0, 100.75)
    assert (s["min"], s["max"]) == (98.0, 102.0)
    assert bench_pairs.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "min": 3.0, "max": 3.0}


def test_a_gain_in_nine_of_ten_pairs_beyond_the_parents_iqr_is_claimable():
    change = [p + 5.0 for p in PARENT]
    change[3] = PARENT[3]  # a tie counts for neither side
    m = bench_pairs.compare(HIGHER, PARENT, change)
    assert m["change_better_pairs"] == "9/10"
    assert m["pair_ratios"][3] == 1.0 and m["pair_ratios"][0] == 1.05
    assert m["within_bound"] and m["change_worse_by"] == -0.05
    assert m["gain_claimable"]


def test_no_gain_is_claimable_from_eight_wins_a_shift_inside_the_iqr_or_few_pairs():
    change = [p + 5.0 for p in PARENT]
    change[3] = change[5] = 90.0
    assert bench_pairs.compare(HIGHER, PARENT, change)["change_better_pairs"] == "8/10"
    assert not bench_pairs.compare(HIGHER, PARENT, change)["gain_claimable"]
    # every pair won, by less than the parent's interquartile range of 1.5
    assert not bench_pairs.compare(HIGHER, PARENT, [p + 1.0 for p in PARENT])["gain_claimable"]
    assert not bench_pairs.compare(HIGHER, PARENT[:9], [p + 5.0 for p in PARENT[:9]])["gain_claimable"]


def test_a_lower_is_better_metric_worse_than_its_bound_is_flagged():
    m = bench_pairs.compare(LOWER, PARENT, [p * 1.2 for p in PARENT])
    assert m["change_better_pairs"] == "0/10"
    assert not m["within_bound"] and abs(m["change_worse_by"] - 0.2) < 1e-12
    m = bench_pairs.compare(LOWER, PARENT, [p * 0.8 for p in PARENT])
    assert m["within_bound"] and m["gain_claimable"]


def test_the_code_digest_covers_src_and_bench_only(tmp_path):
    files = {"src/pkg/a.py": b"x = 1\n", "bench/run.py": b"run\n", "README.md": b"docs\n"}
    for path, data in files.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_bytes(data)
    listing = "".join(f"{hashlib.sha256(files[p]).hexdigest()}  {p}\n"
                      for p in ("bench/run.py", "src/pkg/a.py"))
    digest = bench_pairs.code_digest(str(tmp_path))
    assert digest == hashlib.sha256(listing.encode()).hexdigest()
    (tmp_path / "README.md").write_bytes(b"other docs\n")
    assert bench_pairs.code_digest(str(tmp_path)) == digest
    (tmp_path / "src/pkg/a.py").write_bytes(b"x = 2\n")
    assert bench_pairs.code_digest(str(tmp_path)) != digest


def test_the_seeds_cannot_be_chosen(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", "HEAD", "--workload", "sliding", "--pairs", "1",
                          "--seconds", "1", "--seed-base", "3"])
    assert exc.value.code == 2 and "--seed-base" in capsys.readouterr().err
