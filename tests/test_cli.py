import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ofbmkit import analysis, cli, errors
from ofbmkit.cli import main, version_string
from ofbmkit.model import make_params, params_to_json
from ofbmkit.synthesis import RNG_ID, CirculantEmbedding


@pytest.fixture
def params_file(tmp_path):
    p = make_params(
        [0.4, 0.7], [1.0, 1.0], [[1.0, 0.4], [0.4, 1.0]], [[1.0, 0.3], [-0.2, 1.0]]
    )
    path = tmp_path / "params.json"
    path.write_text(params_to_json(p) + "\n")
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    doc = {
        "H": [0.2, 0.8],
        "var": [1.0, 1.0],
        "rho": [[1.0, 0.9], [0.9, 1.0]],
        "W": [[1.0, 0.0], [0.0, 1.0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _synth(params_file, tmp_path, name="x.csv", extra=()):
    out = tmp_path / name
    rc = main(
        ["synth", "--params", params_file, "--n", "600", "--seed", "7", "--out", str(out)]
        + list(extra)
    )
    assert rc == 0
    return out


def test_synth_deterministic_bytes(params_file, tmp_path):
    a = _synth(params_file, tmp_path, "a.csv")
    b = _synth(params_file, tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()
    assert json.loads((tmp_path / "a.csv.embedding.json").read_text())["clipped_mass"] == 0.0


def test_synth_binary_sidecar(params_file, tmp_path):
    out = _synth(params_file, tmp_path, "x.bin", extra=["--format", "bin"])
    meta = json.loads((tmp_path / "x.bin.json").read_text())
    assert meta["M"] == 2 and meta["N"] == 600 and meta["rng"] == RNG_ID
    raw = np.frombuffer(out.read_bytes(), dtype="<f8").reshape(2, 600)
    assert np.isfinite(raw).all()


def test_missing_params_exit_2(tmp_path, capsys):
    rc = main(
        ["synth", "--params", str(tmp_path / "absent.json"), "--n", "64", "--seed", "1",
         "--out", str(tmp_path / "y.csv")]
    )
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


def test_infeasible_params_exit_3(infeasible_file, tmp_path, capsys):
    rc = main(
        ["synth", "--params", infeasible_file, "--n", "64", "--seed", "1",
         "--out", str(tmp_path / "y.csv")]
    )
    assert rc == 3
    assert "CorrelationInfeasible" in capsys.readouterr().err


def test_estimate_pipeline_smoke(params_file, tmp_path):
    series = _synth(params_file, tmp_path, "series.csv", extra=["--n", "5000"])
    out_dir = tmp_path / "est"
    rc = main(
        ["estimate", str(series), "--out-dir", str(out_dir), "--j1", "2", "--j2", "5"]
    )
    assert rc == 0
    rec = json.loads((out_dir / "estimate.json").read_text())
    assert rec["j1"] == 2 and rec["j2"] == 5
    for key in ("H_U", "H_M", "H_M_bc"):
        assert len(rec[key]) == 2
    with open(out_dir / "logeig.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "m", "log_diag", "log_eig", "log_eig_bc"]
    assert len(rows) == 1 + 4 * 2
    with open(out_dir / "spectra.csv", newline="") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["j", "m", "mp", "s", "n_j"]
    assert len(srows) == 1 + 4 * 4  # 4 octaves, 2x2 spectra


def test_estimate_auto_range(params_file, tmp_path):
    series = _synth(params_file, tmp_path, "auto.csv", extra=["--n", "8192"])
    out_dir = tmp_path / "auto_est"
    rc = main(["estimate", str(series), "--out-dir", str(out_dir)])
    assert rc == 0
    rec = json.loads((out_dir / "estimate.json").read_text())
    assert (rec["j1"], rec["j2"]) == (6, 9)


def test_estimate_too_short_exit_4(params_file, tmp_path, capsys):
    series = _synth(params_file, tmp_path, "short.csv", extra=["--n", "120"])
    rc = main(
        ["estimate", str(series), "--out-dir", str(tmp_path / "e2"), "--j1", "3", "--j2", "8"]
    )
    assert rc == 4


def _no_embedding(*args, **kwargs):
    raise AssertionError("circulant embedding built before the arguments were checked")


@pytest.mark.parametrize("command", ["estimate", "mc"])
@pytest.mark.parametrize(
    "octaves",
    [["--j1", "5"], ["--j1", "5", "--j2", "5"], ["--beta", "1.5"], ["--beta", "nan"], ["--n0", "100"]],
)
def test_octave_range_rule_exit_4(params_file, tmp_path, capsys, monkeypatch, command, octaves):
    # one rule for both commands, --beta and --n0 included; mc applies it
    # before any synthesis
    if command == "estimate":
        argv = ["estimate", str(_synth(params_file, tmp_path, extra=["--n", "2048"]))]
    else:
        monkeypatch.setattr(analysis, "CirculantEmbedding", _no_embedding)
        argv = ["mc", "--params", params_file, "--n", "2048", "--n-mc", "4", "--seed", "1"]
    rc = main(argv + octaves + ["--out-dir", str(tmp_path / "o")])
    assert rc == 4
    assert "DegenerateRange" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["estimate", "sliding", "synth", "mc"])
def test_file_that_is_not_utf8_exit_2(params_file, tmp_path, capsys, command):
    # the message names the bad file and its role; the good file next to it runs
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,c1\n0,1.5\xff\n")
    labelled = command == "sliding"
    series = _write_series(tmp_path / "good.csv", _walk_rows(3000, label=labelled),
                           ("t", "c1", "c2") + ("label",) * labelled)
    out = ["--out-dir", str(tmp_path / "o")]
    if command == "synth":
        argv = ["synth", "--params", str(bad), "--n", "64", "--seed", "1", "--out", str(tmp_path / "y")]
    elif command == "mc":
        argv = ["mc", "--params", str(bad), "--n", "2048", "--n-mc", "2", "--seed", "1",
                "--j1", "2", "--j2", "6"] + out
    else:
        argv = [command, str(bad), "--j1", "1", "--j2", "4"] + out
        argv += ["--window", "520", "--hop", "260", "--label-column", "label"] if labelled else []
    assert main(argv) == 2
    err = capsys.readouterr().err
    role = "--params" if command in ("synth", "mc") else "series"
    assert f"{role} file {bad} is not UTF-8" in err and "can't decode byte 0xff" in err
    good = params_file if command in ("synth", "mc") else series
    assert main([good if a == str(bad) else a for a in argv]) == 0


def test_mc_threads_identical_outputs(params_file, tmp_path):
    outs = []
    for threads, name in ((1, "mc1"), (8, "mc8")):
        out_dir = tmp_path / name
        rc = main(
            ["mc", "--params", params_file, "--n", "4096", "--n-mc", "12", "--seed", "99",
             "--j1", "3", "--j2", "6", "--threads", str(threads), "--out-dir", str(out_dir)]
        )
        assert rc == 0
        outs.append(out_dir)
    for fname in ("mc_report.json", "estimates.csv", "qq.csv", "spectral_norms.csv", "corr.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_mc_report_contents(params_file, tmp_path):
    out_dir = tmp_path / "mc"
    rc = main(
        ["mc", "--params", params_file, "--n", "4096", "--n-mc", "8", "--seed", "5",
         "--j1", "3", "--j2", "6", "--out-dir", str(out_dir)]
    )
    assert rc == 0
    rep = _strict_json((out_dir / "mc_report.json").read_text())
    assert set(rep["estimators"]) == {"U", "M", "BC"}
    for code in ("U", "M", "BC"):
        mse = np.asarray(rep["estimators"][code]["mse"])
        b2 = np.asarray(rep["estimators"][code]["bias2"])
        cov = np.asarray(rep["estimators"][code]["cov"])
        np.testing.assert_allclose(mse, b2 + cov, atol=1e-10)


def test_mc_computes_the_chi2_quantiles_once_for_every_estimator(params_file, tmp_path, monkeypatch):
    # n_mc = 8 > M = 2: all three estimators have Mahalanobis distances and QQ rows
    calls, original = [], analysis.chi2_quantiles

    def counted(dof, probs):
        calls.append(dof)
        return original(dof, probs)

    # the command's own name, and the library's for a helper that would call it
    for module in (cli, analysis):
        monkeypatch.setattr(module, "chi2_quantiles", counted, raising=False)
    rc = main(["mc", "--params", params_file, "--n", "4096", "--n-mc", "8", "--seed", "5",
               "--j1", "3", "--j2", "6", "--out-dir", str(tmp_path / "mc")])
    assert rc == 0
    assert calls == [2]
    with open(tmp_path / "mc" / "qq.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[0] for r in rows] == ["U"] * 8 + ["M"] * 8 + ["BC"] * 8


def test_mc_readme_smoke_command_writes_strict_json(params_file, tmp_path):
    # the README smoke benchmark: corr (n_mc < 3) and mahalanobis (n_mc <= M)
    # are undefined and written as null, never as NaN
    out_dir = tmp_path / "smoke"
    rc = main(
        ["mc", "--params", params_file, "--n", "8192", "--n-mc", "2", "--seed", "1",
         "--out-dir", str(out_dir)]
    )
    assert rc == 0
    rep = _strict_json((out_dir / "mc_report.json").read_text())
    for code in ("U", "M", "BC"):
        assert rep["estimators"][code]["corr"] is None
        assert rep["estimators"][code]["mahalanobis"] is None
        assert np.isfinite(rep["estimators"][code]["estimates"]).all()
    # the one run whose tables hold non-finite floats (corr.csv is all nan)
    # and a table with no rows (qq.csv); digests captured before every CSV
    # table went through one writer, and recaptured once each spectrum entry
    # became one dot product
    got = {path.name: _sha256(path) for path in out_dir.iterdir()}
    assert got == SMOKE_GOLDEN


SMOKE_GOLDEN = {
    "corr.csv": "44da0974e5bbc3e777ff7cb9b825d637aa45577f82bc5e4c886d88f9b664cdc0",
    "estimates.csv": "5422cd981721da389b6f5ff1edcc129d17a92a60ddc815d5970311a765e04bd2",
    "mc_report.json": "80a2e4b39d58a07b0207fc4e6ed5d80b29bc21103607751dba4de8e7d7dee945",
    "qq.csv": "49605df8a52160ff9a87ed34ee32b6f29ad811edf5e409bdc616b81da0d45e9b",
    "spectral_norms.csv": "60e609ab77074da83031a1c86c6d4df2886a8747430f0072d0af95c03d095a22",
}


@pytest.mark.parametrize("command", ["estimate", "sliding", "synth", "mc"])
def test_input_with_a_utf8_byte_order_mark_reads_as_without_it(params_file, tmp_path, command):
    # a BOM (as spreadsheet exports write) is neither part of the first header
    # name, which would make a t column a channel, nor a JSON syntax error
    if command in ("synth", "mc"):
        plain = tmp_path / "params.json"
    else:
        labelled = command == "sliding"
        plain = tmp_path / "series.csv"
        _write_series(plain, _walk_rows(3000, label=labelled), ("t", "c1", "c2") + ("label",) * labelled)
    bom = tmp_path / "bom" / plain.name
    bom.parent.mkdir()
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for source in (plain, bom):
        out = source.parent / "out"
        if command == "synth":
            out.mkdir()
            argv = ["synth", "--params", str(source), "--n", "64", "--seed", "1", "--out", str(out / "x.csv")]
        elif command == "mc":
            argv = ["mc", "--params", str(source), "--n", "2048", "--n-mc", "2", "--seed", "1",
                    "--j1", "2", "--j2", "6", "--out-dir", str(out)]
        else:
            argv = [command, str(source), "--j1", "1", "--j2", "4", "--out-dir", str(out)]
            argv += ["--window", "520", "--hop", "260", "--label-column", "label"] if labelled else []
        assert main(argv) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1]
    if command == "estimate":
        assert len(json.loads(outputs[0]["estimate.json"])["H_U"]) == 2


def test_sliding_row_count_and_labels(tmp_path):
    rng = np.random.default_rng(3)
    n = 4200
    x = rng.normal(size=n).cumsum()
    path = tmp_path / "series.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "c1", "label"])
        for t in range(n):
            writer.writerow([t, repr(float(x[t])), "a" if t < n // 2 else "b"])
    out_dir = tmp_path / "sl"
    rc = main(
        ["sliding", str(path), "--window", "520", "--hop", "260", "--j1", "1", "--j2", "4",
         "--label-column", "label", "--alpha", "0.05", "--out-dir", str(out_dir)]
    )
    assert rc == 0
    with open(out_dir / "windows.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected_windows = (n - 520) // 260 + 1
    assert len(rows) == expected_windows * 3  # M=1, three estimators
    groups = json.loads((out_dir / "groups.json").read_text())
    assert groups["groups"] == ["a", "b"]
    assert set(groups["tests"]) == {"U", "M", "BC"}


def test_sliding_hop_exceeds_window_exit_4(tmp_path):
    path = tmp_path / "s.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "c1"])
        for t in range(2000):
            writer.writerow([t, "0.5"])
    rc = main(
        ["sliding", str(path), "--window", "100", "--hop", "200", "--j1", "1", "--j2", "3",
         "--out-dir", str(tmp_path / "out")]
    )
    assert rc == 4


def test_version_embeds_identifiers(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out.replace("\n", " ")
    assert "taps sha256" in out
    assert RNG_ID in out
    assert "taps sha256" in version_string() and RNG_ID in version_string()


def _write_series(path, rows, header=("t", "c1", "c2")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def _walk_rows(n, label=False):
    x = np.random.default_rng(5).normal(size=(2, n)).cumsum(axis=1)
    return [
        [t, repr(float(x[0, t])), repr(float(x[1, t]))] + (["a" if t < n // 2 else "b"] if label else [])
        for t in range(n)
    ]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_estimate_non_finite_sample_exit_4(tmp_path, capsys, bad):
    rows = _walk_rows(3000)
    rows[1234][2] = bad
    out_dir = tmp_path / "est"
    rc = main(["estimate", _write_series(tmp_path / "x.csv", rows), "--out-dir", str(out_dir),
               "--j1", "1", "--j2", "4"])
    assert rc == 4
    assert "NonFiniteData" in capsys.readouterr().err
    assert not (out_dir / "estimate.json").exists()


@pytest.mark.parametrize("level", ["5.0", "0.0"], ids=["constant", "zero"])
def test_estimate_flat_channel_exit_4(tmp_path, capsys, level):
    rows = _walk_rows(3000)
    for row in rows:
        row[1] = level
    out_dir = tmp_path / "est"
    rc = main(["estimate", _write_series(tmp_path / "x.csv", rows), "--out-dir", str(out_dir),
               "--j1", "1", "--j2", "4"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err == "estimation error: NonPositiveDiagonal: channel 1 has no fluctuation at octave 1\n"
    assert not out_dir.exists()


def test_sliding_flat_stretch_exit_4_naming_its_window(tmp_path, capsys):
    # channel 2 is constant from sample 4096 on
    x = np.random.default_rng(3).normal(size=(2, 8192)).cumsum(axis=1)
    x[1, 4096:] = x[1, 4096]
    rows = [[t, repr(float(a)), repr(float(b))] for t, (a, b) in enumerate(zip(*x))]
    series = _write_series(tmp_path / "x.csv", rows)
    rc = main(["sliding", series, "--window", "2048", "--hop", "1024", "--j1", "1", "--j2", "4",
               "--out-dir", str(tmp_path / "sl")])
    assert rc == 4
    assert capsys.readouterr().err == (
        "estimation error: NonPositiveDiagonal: window at samples 4096..6143: "
        "channel 2 has no fluctuation at octave 1\n"
    )
    assert os.listdir(tmp_path) == ["x.csv"]


def test_sliding_dependent_stretch_exit_4_naming_the_earliest_refused_window(tmp_path, capsys):
    # channel 3 mixes the others over samples 4096..5119; windows of starts
    # 600 apart share a pyramid (hop 300, 2^j2 = 16), and 600..4695 is the
    # earliest that analyze refuses, though 1200..5295 is met first
    x = np.random.default_rng(3).normal(size=(3, 8192)).cumsum(axis=1)
    x[2, 4096:5120] = 0.5 * x[0, 4096:5120] + 0.25 * x[1, 4096:5120]
    rows = [[t, *map(repr, map(float, col))] for t, col in enumerate(x.T)]
    series = _write_series(tmp_path / "x.csv", rows, ("t", "c1", "c2", "c3"))
    rc = main(["sliding", series, "--window", "4096", "--hop", "300", "--j1", "1", "--j2", "4",
               "--out-dir", str(tmp_path / "sl")])
    assert rc == 4
    assert capsys.readouterr().err == (
        "estimation error: RankDeficientSpectrum: window at samples 600..4695: "
        "a windowed wavelet spectrum at octave 1 has numerical rank 2 < M = 3: "
        "the channels are linearly dependent; drop a channel or undo the common reference\n"
    )
    assert os.listdir(tmp_path) == ["x.csv"]


def test_sliding_non_finite_sample_exit_4(tmp_path, capsys):
    rows = _walk_rows(3000, label=True)
    rows[2999][1] = "nan"
    out_dir = tmp_path / "sl"
    rc = main(["sliding", _write_series(tmp_path / "x.csv", rows, ("t", "c1", "c2", "label")),
               "--window", "520", "--hop", "260", "--j1", "1", "--j2", "4",
               "--label-column", "label", "--out-dir", str(out_dir)])
    assert rc == 4
    assert "NonFiniteData" in capsys.readouterr().err
    assert not (out_dir / "windows.csv").exists()


@pytest.mark.parametrize("command", ["estimate", "sliding"])
def test_ragged_row_exit_2(tmp_path, capsys, command):
    rows = _walk_rows(3000)
    rows[10] = rows[10][:2]
    path = _write_series(tmp_path / "x.csv", rows)
    extra = ["--window", "520", "--hop", "260"] if command == "sliding" else []
    rc = main([command, path, "--j1", "1", "--j2", "4", "--out-dir", str(tmp_path / "o")] + extra)
    assert rc == 2
    assert "data row 11 has 2 fields" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "sliding"])
@pytest.mark.parametrize(
    "content", ["", "t,c1,c2\n", "t,c1\n0,1.5\n1,x\n", "t,c1\n0,1.5\n\n1,2.5\n2,x\n"]
)
def test_empty_or_non_numeric_series_exit_2(tmp_path, capsys, command, content):
    path = tmp_path / "x.csv"
    path.write_text(content)
    extra = ["--window", "520", "--hop", "260"] if command == "sliding" else []
    rc = main([command, str(path), "--j1", "1", "--j2", "4", "--out-dir", str(tmp_path / "o")] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert "malformed input" in err
    if "x" in content:
        # rows are counted as in the ragged-row message: non-blank rows after the header, from 1
        rows = [line for line in content.splitlines()[1:] if line]
        assert f"non-numeric sample 'x' in data row {len(rows)}, column 2" in err


_FUZZ_X = np.random.default_rng(3).normal(size=(2, 40)).cumsum(axis=1).tolist()  # floats: plain reprs
# 40 rows: enough for octaves 1..2 with the default filter, so the file as written estimates
_FUZZ_VALID = ("t,c1,c2\r\n" + "".join(
    f"{t},{_FUZZ_X[0][t]!r},{_FUZZ_X[1][t]!r}\r\n" for t in range(40)
)).encode()
_FUZZ_PIECES = [b'"', b",", b"\n", b"\r", b"\xff", b"\xc3", b"\x00", b" ", b"x", b"-", b"e", b"nan", b"t"]


# the same walk with a label column: windows 0..31 and 8..39 have majorities a and b
_FUZZ_LABELLED = ("t,c1,c2,label\r\n" + "".join(
    f"{t},{_FUZZ_X[0][t]!r},{_FUZZ_X[1][t]!r},{'ab'[t >= 20]}\r\n" for t in range(40)
)).encode()


@st.composite
def _mutated_series(draw, valid=_FUZZ_VALID, pieces=_FUZZ_PIECES):
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        piece = draw(st.sampled_from(pieces) | st.binary(min_size=1, max_size=3))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "truncate"]))
        if edit == "insert":
            data[i:i] = piece
        elif edit == "replace":
            data[i : i + len(piece)] = piece
        elif edit == "delete":
            del data[i : i + len(piece)]
        else:
            del data[i:]
    return bytes(data)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(content=st.binary(max_size=40) | _mutated_series())
def test_estimate_never_exits_5_on_malformed_input(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "x.csv"
    path.write_bytes(content)
    rc = main(["estimate", str(path), "--j1", "1", "--j2", "2", "--out-dir", str(path.parent / "o")])
    assert rc in (0, 2, 4)


# --window, --hop, --alpha, --j1, --j2 under which both valid files estimate
_FUZZ_FLAGS = (32, 8, 0.05, 1, 2)
_FUZZ_FLAG_VALUES = st.tuples(
    st.integers(-2, 48),
    st.sampled_from([0, -5]) | st.integers(-6, 40),
    st.sampled_from([0.0, 1.0, 2.0, -0.5]) | st.floats(),
    st.integers(-1, 4),
    st.integers(-1, 5),
)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), labelled=st.booleans())
def test_sliding_never_exits_5_on_malformed_input(tmp_path_factory, data, labelled):
    valid = _FUZZ_LABELLED if labelled else _FUZZ_VALID
    content = data.draw(st.binary(max_size=40) | _mutated_series(valid) | st.just(valid))
    flags = data.draw(st.just(_FUZZ_FLAGS) | _FUZZ_FLAG_VALUES)
    path = tmp_path_factory.mktemp("fuzz") / "x.csv"
    path.write_bytes(content)
    out_dir = path.parent / "o"
    names = ("--window", "--hop", "--alpha", "--j1", "--j2")
    # "--hop=-5": a separate "-inf" or "-1e-05" would be read as a flag
    argv = ["sliding", str(path), *(f"{name}={value}" for name, value in zip(names, flags)),
            "--out-dir", str(out_dir)]
    rc = main(argv + (["--label-column", "label"] if labelled else []))
    assert rc in (0, 2, 3, 4)
    assert rc == 0 or content != valid or flags != _FUZZ_FLAGS
    assert rc == 0 or not out_dir.exists()  # every check runs before the first write


_FUZZ_PARAMS = json.dumps(
    {"H": [0.4, 0.7], "var": [1.0, 1.0], "rho": [[1.0, 0.4], [0.4, 1.0]], "W": [[1.0, 0.3], [-0.2, 1.0]]},
    indent=2,
).encode()
_FUZZ_JSON_PIECES = [b'"', b",", b"{", b"}", b"[", b"]", b":", b"-", b"0", b"1e400", b"NaN",
                     b"Infinity", b"null", b"true", b'"H"', b"\xff", b" "]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated_params(draw):
    doc = json.loads(_FUZZ_PARAMS)
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(_JSON_VALUES)
    return json.dumps(doc).encode()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(content=st.binary(max_size=40) | _mutated_series(_FUZZ_PARAMS, _FUZZ_JSON_PIECES)
       | _mutated_params() | _JSON_VALUES.map(lambda v: json.dumps(v).encode()))
def test_synth_never_exits_5_on_malformed_params(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "p.json"
    path.write_bytes(content)
    rc = main(["synth", "--params", str(path), "--n", "64", "--seed", "1", "--out", str(path.parent / "y.csv")])
    assert rc in (0, 2, 3, 4)


def test_sliding_missing_label_column_exit_2(tmp_path):
    path = _write_series(tmp_path / "x.csv", _walk_rows(3000))
    rc = main(["sliding", path, "--window", "520", "--hop", "260", "--j1", "1", "--j2", "4",
               "--label-column", "label", "--out-dir", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("command", ["estimate", "sliding"])
def test_label_column_without_label_flag_names_it_exit_2(tmp_path, capsys, command):
    path = _write_series(tmp_path / "xl.csv", _walk_rows(3000, label=True), ("t", "c1", "c2", "Group"))
    extra = ["--window", "520", "--hop", "260"] if command == "sliding" else []
    rc = main([command, path, "--j1", "1", "--j2", "4", "--out-dir", str(tmp_path / "o")] + extra)
    assert rc == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert "non-numeric sample 'a' in data row 1, column 4 ('Group'); " in err
    assert "estimate and unlabelled sliding read numeric columns only" in err
    assert "(sliding --label-column takes labels)" in err


def test_labelled_sliding_names_a_non_numeric_sample_column_without_the_label_note(tmp_path, capsys):
    rows = _walk_rows(3000, label=True)
    rows[6][2] = "x"
    path = _write_series(tmp_path / "xl.csv", rows, ("t", "c1", "c2", "label"))
    rc = main(["sliding", path, "--window", "520", "--hop", "260", "--j1", "1", "--j2", "4",
               "--label-column", "label", "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "non-numeric sample 'x' in data row 7, column 3 ('c2')\n" in err


@pytest.mark.parametrize("header", [("label", "t", "c1", "c2"), ("c1", "c2", "t", "label")])
def test_sliding_drops_t_column_anywhere(tmp_path, header):
    rows = _walk_rows(3000, label=True)
    ref = _write_series(tmp_path / "ref.csv", rows, ("t", "c1", "c2", "label"))
    order = [("t", "c1", "c2", "label").index(name) for name in header]
    moved = _write_series(tmp_path / "moved.csv", [[row[i] for i in order] for row in rows], header)
    for path, out in ((ref, "r"), (moved, "m")):
        assert main(["sliding", path, "--window", "520", "--hop", "260", "--j1", "1", "--j2", "4",
                     "--label-column", "label", "--out-dir", str(tmp_path / out)]) == 0
    for name in ("windows.csv", "pvalues.csv", "groups.json"):
        assert (tmp_path / "m" / name).read_bytes() == (tmp_path / "r" / name).read_bytes()
    with open(tmp_path / "m" / "windows.csv", newline="") as fh:
        assert {row[2] for row in list(csv.reader(fh))[1:]} == {"1", "2"}


def test_cli_import_does_not_load_scipy_stats(tmp_path):
    # nor scipy at all: only mc and synth call scipy.special; the labelled run
    # has 12 and 13 windows per group, so the rank-sum test takes its normal branch
    series = _write_series(tmp_path / "x.csv", _walk_rows(3000))
    labelled = _write_series(tmp_path / "xl.csv", _walk_rows(3000, label=True), ("t", "c1", "c2", "label"))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "\n".join(
        [
            "import sys, ofbmkit.cli",
            "def loaded():",
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "assert not loaded(), loaded()",
            f"assert ofbmkit.cli.main(['estimate', {series!r}, '--out-dir', {str(tmp_path / 'e')!r},"
            " '--j1', '1', '--j2', '4']) == 0",
            f"assert ofbmkit.cli.main(['sliding', {series!r}, '--out-dir', {str(tmp_path / 's')!r},"
            " '--window', '520', '--hop', '260', '--j1', '1', '--j2', '4']) == 0",
            f"assert ofbmkit.cli.main(['sliding', {labelled!r}, '--out-dir', {str(tmp_path / 'l')!r},"
            " '--window', '520', '--hop', '100', '--j1', '1', '--j2', '4', '--label-column', 'label']) == 0",
            "assert 'numpy.ma' not in sys.modules",
            "print(loaded())",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "e" / "estimate.json").exists() and (tmp_path / "s" / "windows.csv").exists()
    assert (tmp_path / "l" / "pvalues.csv").exists()


@pytest.mark.parametrize("command", ["estimate", "mc", "sliding"])
def test_out_dir_that_is_a_file_exit_2_and_writes_nothing(params_file, tmp_path, capsys, command):
    series = _write_series(tmp_path / "x.csv", _walk_rows(3000))
    argv = {
        "estimate": ["estimate", series, "--j1", "1", "--j2", "4"],
        "mc": ["mc", "--params", params_file, "--n", "2048", "--n-mc", "3", "--seed", "5",
               "--j1", "2", "--j2", "5"],
        "sliding": ["sliding", series, "--window", "520", "--hop", "260", "--j1", "1", "--j2", "4"],
    }[command]
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    before = sorted(os.listdir(tmp_path))
    assert main(argv + ["--out-dir", str(taken)]) == 2
    assert f"File exists: '{taken}'" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before  # no .tmp-ofbmkit-* file is left
    assert taken.read_text() == "not a directory\n"


def test_a_write_that_fails_partway_keeps_the_target_and_leaves_no_temp_file(tmp_path):
    # outputs are written atomically: a failure while rows are produced
    # leaves an existing target as it was, and removes the temp file
    target = tmp_path / "windows.csv"
    target.write_bytes(b"t_start,estimator,m,value\r\n0,U,1,0.5\r\n")

    def rows():
        # past two of table_to_csv's chunks, so part of the table is on disk
        yield from ((t, "U", 1, 0.25) for t in range(10_000))
        raise ZeroDivisionError("a row failed")

    with pytest.raises(ZeroDivisionError, match="a row failed"):
        cli._write_csv(str(target), ["t_start", "estimator", "m", "value"], rows())
    assert target.read_bytes() == b"t_start,estimator,m,value\r\n0,U,1,0.5\r\n"
    assert os.listdir(tmp_path) == ["windows.csv"]


@pytest.mark.parametrize("command", ["synth", "estimate", "mc", "sliding"])
def test_empty_output_path_exit_2_and_writes_nothing(params_file, tmp_path, capsys, monkeypatch,
                                                     command):
    series = _write_series(tmp_path / "x.csv", _walk_rows(3000))
    argv = {
        "synth": ["synth", "--params", params_file, "--n", "1024", "--seed", "1", "--out", ""],
        "estimate": ["estimate", series, "--j1", "1", "--j2", "4", "--out-dir", ""],
        "mc": ["mc", "--params", params_file, "--n", "2048", "--n-mc", "3", "--seed", "5",
               "--j1", "2", "--j2", "5", "--out-dir", ""],
        "sliding": ["sliding", series, "--window", "520", "--hop", "260", "--j1", "1", "--j2", "4",
                    "--out-dir", ""],
    }[command]
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    before = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    flag = "--out" if command == "synth" else "--out-dir"
    assert f"{flag}: must not be empty" in capsys.readouterr().err
    assert os.listdir(cwd) == []
    assert sorted(os.listdir(tmp_path)) == before


def _window_labels_per_window(labels, window, hop):
    """The majority rule window by window: np.unique sorts, argmax takes the first tie."""
    out = []
    for start in range(0, labels.size - window + 1, hop):
        values, counts = np.unique(labels[start : start + window], return_counts=True)
        out.append(values[np.argmax(counts)])
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    labels=st.lists(st.sampled_from(["b", "a", "c", "a b", ""]), min_size=1, max_size=60),
    window=st.integers(1, 60),
    hop=st.integers(1, 60),
)
def test_window_labels_equal_the_per_window_majority(labels, window, hop):
    labels = np.array(labels)
    window = min(window, labels.size)
    hop = min(hop, window)
    got = cli._window_labels(labels, window, hop)
    assert got.tolist() == [str(v) for v in _window_labels_per_window(labels, window, hop)]


def test_sliding_needs_exactly_two_window_labels_exit_4(tmp_path, capsys):
    rows = [row[:3] + ["abc"[3 * row[0] // 3000]] for row in _walk_rows(3000)]
    path = _write_series(tmp_path / "x.csv", rows, ("t", "c1", "c2", "label"))
    rc = main(["sliding", path, "--window", "520", "--hop", "260", "--j1", "1", "--j2", "4",
               "--label-column", "label", "--out-dir", str(tmp_path / "o")])
    assert rc == 4
    assert "need exactly two window labels, got ['a', 'b', 'c']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # checked before any estimate is written


def test_window_labels_tie_goes_to_the_first_label_in_sorted_order():
    labels = np.array(["b", "b", "a", "a", "c", "c", "c", "b"])
    assert cli._window_labels(labels, 4, 2).tolist() == ["a", "a", "c"]
    assert cli._window_labels(np.array(["b", "b", "a", "a"] * 8), 4, 1).tolist() == ["a"] * 29


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_synth_seed_outside_64_bits_exit_2(params_file, tmp_path, capsys, monkeypatch, seed):
    monkeypatch.setattr(cli, "CirculantEmbedding", _no_embedding)  # the seed is checked first
    out = tmp_path / "x.csv"
    rc = main(["synth", "--params", params_file, "--n", "600", "--seed", str(seed), "--out", str(out)])
    assert rc == 2
    assert "outside the valid range 0..18446744073709551615" in capsys.readouterr().err
    assert not out.exists()


def test_mc_last_seed_outside_64_bits_exit_2(params_file, tmp_path, capsys):
    # realization r = 1..n_mc uses seed0 + r; the last ones overflow here
    rc = main(["mc", "--params", params_file, "--n", "2048", "--n-mc", "4", "--seed", str(2**64 - 3),
               "--j1", "2", "--j2", "6", "--out-dir", str(tmp_path / "mc")])
    assert rc == 2
    assert f"seeds {2**64 - 3}..{2**64 + 1} outside the valid range" in capsys.readouterr().err
    assert not (tmp_path / "mc").exists()


def test_mc_only_the_last_drawn_seed_outside_64_bits_exit_2_before_any_build(
    params_file, tmp_path, capsys, monkeypatch
):
    # seed0 + n_mc = 2^64 is drawn by the last realization alone; it is
    # rejected before the embedding is built or any realization drawn
    monkeypatch.setattr(analysis, "CirculantEmbedding", _no_embedding)
    rc = main(["mc", "--params", params_file, "--n", "2048", "--n-mc", "4", "--seed", str(2**64 - 4),
               "--j1", "2", "--j2", "6", "--threads", "1", "--out-dir", str(tmp_path / "mc")])
    assert rc == 2
    assert f"seeds {2**64 - 4}..{2**64} outside the valid range" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["params.json"]


@pytest.mark.parametrize("n", ["1", "0", "-4"])
@pytest.mark.parametrize("command", ["synth", "mc"])
def test_fewer_than_two_samples_exit_4(params_file, tmp_path, capsys, command, n):
    # a bad --n is a data error, not a fault of the model file; nothing is written
    out = tmp_path / "o"
    if command == "synth":
        argv = ["synth", "--params", params_file, f"--n={n}", "--seed", "1", "--out", str(out)]
    else:
        argv = ["mc", "--params", params_file, f"--n={n}", "--n-mc", "2", "--seed", "1",
                "--j1", "1", "--j2", "2", "--out-dir", str(out)]
    assert main(argv) == 4
    assert f"SeriesTooShort: need at least 2 samples, got {n}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["params.json"]


@pytest.mark.parametrize(
    "threads, message",
    [("0", "must be at least 1, got 0"), ("-3", "must be at least 1, got -3"),
     ("abc", "invalid int value: 'abc'"), ("1.5", "invalid int value: '1.5'")],
    ids=["0", "-3", "abc", "1.5"],
)
def test_threads_not_an_integer_of_at_least_one_exit_2(params_file, tmp_path, capsys, monkeypatch,
                                                       threads, message):
    # mc --threads is checked when mc parses its flags; a large count is not
    # run, since it would start that many threads
    monkeypatch.setattr(analysis, "CirculantEmbedding", _no_embedding)
    out = tmp_path / "mc"
    rc = main(["mc", "--params", params_file, "--n", "2048", "--n-mc", "2", "--seed", "1",
               "--j1", "2", "--j2", "6", "--out-dir", str(out), "--threads", threads])
    assert rc == 2
    assert f"argument --threads: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("labelled", [False, True])
@pytest.mark.parametrize("hop", [0, -5])
def test_sliding_hop_below_one_exit_4(tmp_path, capsys, hop, labelled):
    header = ("t", "c1", "c2", "label") if labelled else ("t", "c1", "c2")
    path = _write_series(tmp_path / "x.csv", _walk_rows(3000, label=labelled), header)
    out_dir = tmp_path / "sl"
    rc = main(["sliding", path, "--window", "520", f"--hop={hop}", "--j1", "1", "--j2", "4",
               "--out-dir", str(out_dir)] + (["--label-column", "label"] if labelled else []))
    assert rc == 4
    assert f"WindowTooSmall: need window >= hop >= 1, got (520, {hop})" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("alpha", ["0", "2"])
def test_sliding_alpha_outside_unit_interval_exit_4(tmp_path, capsys, alpha):
    path = _write_series(tmp_path / "x.csv", _walk_rows(3000, label=True), ("t", "c1", "c2", "label"))
    out_dir = tmp_path / "sl"
    rc = main(["sliding", path, "--window", "520", "--hop", "260", "--j1", "1", "--j2", "4",
               "--label-column", "label", "--alpha", alpha, "--out-dir", str(out_dir)])
    assert rc == 4
    assert f"BadProbability: alpha must be in (0, 1), got {float(alpha)}" in capsys.readouterr().err
    assert not out_dir.exists()  # the tests run before windows.csv is written


def test_sliding_series_exactly_one_window_long_gives_one_window(tmp_path):
    path = _write_series(tmp_path / "x.csv", _walk_rows(600))
    out_dir = tmp_path / "sl"
    rc = main(["sliding", path, "--window", "600", "--hop", "300", "--j1", "1", "--j2", "4",
               "--out-dir", str(out_dir)])
    assert rc == 0
    with open(out_dir / "windows.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 3 * 2 and {row[0] for row in rows} == {"0"}  # three estimators, M = 2


def test_sliding_series_shorter_than_window_exit_4(tmp_path, capsys):
    path = _write_series(tmp_path / "x.csv", _walk_rows(500))
    out_dir = tmp_path / "sl"
    rc = main(["sliding", path, "--window", "600", "--hop", "300", "--j1", "1", "--j2", "4",
               "--out-dir", str(out_dir)])
    assert rc == 4
    assert "series of 500 samples is shorter than one window of 600" in capsys.readouterr().err
    assert not out_dir.exists()


# sha256 of CLI outputs for fixed inputs, captured before sliding windows were
# batched; the series is `synth --n 4096 --seed 7` of the params_file model.
# Every estimate-side digest was recaptured once each spectrum entry became
# one dot product: values moved in their last bits only, paths not at all.
GOLDEN = {
    "x.csv": "05f87416102ea3e6f253bc92c186ad2121cab78be712c127f52d46eb542396e8",
    "estimate.json": "33f36d16facd5eb511d31b8f8aff4b72db1bc8515e4359f5ebcff83894e812d2",
    "logeig.csv": "219f791a2a2f4a93431e06d96a331f84ea5d2ff4f0be612fceb78797e6634532",
    "spectra.csv": "49ed4b25374cd9fb17f97a17ae8574abb8a3439dbec6f6ce5343fe1cec959f3f",
    "windows.csv": "fb85b7f1a4331af10cb72a5f955bfe9d21394f64776f282a4e1499725c207571",
    "windows_haar.csv": "0a0a695975c7b4a00ab399bab68b6481ef79bf1136e5db4c7b2fc9c8d71dbcbd",
    "mc_report.json": "05b61e34bd42b942839f76ae4873d7a28464fd36ae5b0074591a0d1a9c5b0019",
    # captured later, once chi-square quantiles came from scipy.special.gammaincinv
    "qq.csv": "1d86fc98d3c88b489d1aa8d49eef9e009947a039fab7910887371d5890aea1f0",
    # recaptured once the rank-sum p-values came from math.erfc: only their last
    # digits moved, and no BH decision changed
    "pvalues.csv": "0ce69454f15940410fcf21ee8bb72dc4ce3716fe49eed9e1cd1581fe2a2c296d",
    "groups.json": "c7770a557d5d8ee0afeee731ca5503a3387834468427d9d54d98fd6d40b7ffe6",
    # captured later, before every CSV table went through one writer
    "estimates.csv": "6c10c9f2d68ab3436e67ab2a7cd8b828ac43711e066d3f47ede24018bc58e832",
    "spectral_norms.csv": "d5dce30cb0b39c3cd9aa42a1c936b2817af94eeadf1c0993b4975e30f8cdc014",
    "corr.csv": "28d05a953aa50974f826461230ef0e447013e486fb25ecc8707fbb11dc188d13",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_outputs_match_golden_digests(params_file, tmp_path):
    series = _synth(params_file, tmp_path, extra=["--n", "4096"])
    rows = list(csv.reader(open(series, newline="")))
    labelled = _write_series(
        tmp_path / "xl.csv",
        [r + ["a" if k < 2048 else "b"] for k, r in enumerate(rows[1:])],
        rows[0] + ["label"],
    )
    assert main(["estimate", str(series), "--out-dir", str(tmp_path / "e"), "--j1", "2", "--j2", "6"]) == 0
    assert main(["sliding", labelled, "--window", "1030", "--hop", "77", "--j1", "1", "--j2", "4",
                 "--label-column", "label", "--out-dir", str(tmp_path / "s")]) == 0
    assert main(["sliding", labelled, "--window", "600", "--hop", "600", "--j1", "2", "--j2", "5",
                 "--filter", "haar", "--label-column", "label", "--out-dir", str(tmp_path / "h")]) == 0
    assert main(["mc", "--params", params_file, "--n", "2048", "--n-mc", "4", "--seed", "1",
                 "--j1", "2", "--j2", "6", "--out-dir", str(tmp_path / "mc")]) == 0
    got = {
        "x.csv": _sha256(series),
        **{name: _sha256(tmp_path / "e" / name) for name in ("estimate.json", "logeig.csv", "spectra.csv")},
        **{name: _sha256(tmp_path / "s" / name) for name in ("windows.csv", "pvalues.csv", "groups.json")},
        "windows_haar.csv": _sha256(tmp_path / "h" / "windows.csv"),
        **{name: _sha256(tmp_path / "mc" / name)
           for name in ("mc_report.json", "qq.csv", "estimates.csv", "spectral_norms.csv", "corr.csv")},
    }
    assert got == GOLDEN


# sha256 of `synth --format bin` outputs (n 600, seed 7), captured while the
# command still wrote the raw bytes and the sidecar itself
BINARY_GOLDEN = {
    "mfbm": ("4eaaa30645cfa5103ebd2550dd35ccddf2889777d6e571205dfb474a8f625e8c",
             "7fe017d97e38817cdc6355cc011877bd7516135d5594e1d991e580e08dcdca8e"),
    "mfgn": ("f061fe4103ab05d7a3e1569eca592ef3d18370245c8668a0a7f5b043ae85ce18",
             "2a9c035a94388e98582d60190f4c5f11756e1c1c61cf2c76861bee6cd0756783"),
}


@pytest.mark.parametrize("kind", sorted(BINARY_GOLDEN))
def test_synth_binary_matches_golden_digests(params_file, tmp_path, kind):
    out = _synth(params_file, tmp_path, "x.bin", extra=["--format", "bin", "--kind", kind])
    assert (_sha256(out), _sha256(tmp_path / "x.bin.json")) == BINARY_GOLDEN[kind]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "params.json", "x.bin", "x.bin.embedding.json", "x.bin.json"
    ]


def _error_classes(cls=errors.OfbmkitError):
    return [cls] + [sub for child in cls.__subclasses__() for sub in _error_classes(child)]


# (branch, exit code, stderr line), the most specific branch first
_ERROR_BRANCHES = [
    (errors.MalformedInput, 2, "error: malformed input: {message}"),
    (errors.SeedOutOfRange, 2, "error: {message}"),
    (errors.ModelValidationError, 3, "model validation error: {name}: {message}"),
    (errors.DataError, 4, "estimation error: {name}: {message}"),
    (errors.OfbmkitError, 4, "error: {name}: {message}"),
]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_exits_with_its_branch_code_and_line(tmp_path, capsys, monkeypatch, cls):
    # braces and a percent sign in the message must reach stderr as they are
    exc = cls(0, 1, 0.9, 0.5) if cls is errors.CorrelationInfeasible else cls("bad {x} at 100%")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_synth", fail)
    rc = main(["synth", "--params", "p.json", "--n", "8", "--seed", "1", "--out", str(tmp_path / "x")])
    code, line = next((code, line) for branch, code, line in _ERROR_BRANCHES if isinstance(exc, branch))
    assert rc == code
    assert capsys.readouterr().err == line.format(name=cls.__name__, message=exc) + "\n"
    assert os.listdir(tmp_path) == []


def test_an_unexpected_exception_exits_5(tmp_path, capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("not an ofbmkit error")

    monkeypatch.setattr(cli, "cmd_estimate", fail)
    rc = main(["estimate", "x.csv", "--out-dir", str(tmp_path / "o")])
    assert rc == 5
    assert capsys.readouterr().err == "internal error: RuntimeError: not an ofbmkit error\n"
    assert os.listdir(tmp_path) == []


def _model_file(tmp_path, var=(1.0, 1.0), w="[[1, 0], [0, 1]]"):
    # written by hand: the W of a repro may hold NaN or Infinity
    path = tmp_path / "model.json"
    path.write_text(
        f'{{"H": [0.4, 0.6], "var": {list(var)}, "rho": [[1, 0.2], [0.2, 1]], "W": {w}}}'
    )
    return str(path)


_EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
# one model document per validation branch, as changes to the document
# {"H": [0.4, 0.6], "var": [1, 1], "rho": [[1, 0.2], [0.2, 1]], "W": I}, and the
# line it prints; the "-before-" rows fail two checks and pin which runs first
_INVALID_MODELS = {
    "sigma-shape": (
        {"rho": _EYE3},
        "DimensionMismatch: expected 2 variances and a 2x2 correlation matrix, "
        "got shapes (2,) and (3, 3)",
    ),
    "sigma-variance": ({"var": [1, 0]}, "CovarianceNotPSD: variances must be positive, got [1. 0.]"),
    "sigma-asymmetric": (
        {"rho": [[1, 0.2], [0.3, 1]]}, "CovarianceNotPSD: correlation matrix is not symmetric"
    ),
    "sigma-diagonal": (
        {"rho": [[0.9, 0.2], [0.2, 1]]},
        "CovarianceNotPSD: correlation matrix must have a unit diagonal",
    ),
    "sigma-entry-range": (
        {"rho": [[1, 1.5], [1.5, 1]]}, "CovarianceNotPSD: correlation entries must lie in [-1, 1]"
    ),
    "sigma-psd": (
        {"H": [0.4, 0.5, 0.6], "var": [1, 1, 1], "W": _EYE3,
         "rho": [[1, 0.8, -0.8], [0.8, 1, 0.8], [-0.8, 0.8, 1]]},
        "CovarianceNotPSD: assembled covariance has eigenvalue -6.000e-01 below the PSD tolerance",
    ),
    "hurst-shape": (
        {"H": [[0.4, 0.6]]}, "DimensionMismatch: Hurst vector must be one-dimensional and nonempty"
    ),
    "hurst-range": (
        {"H": [0.4, 1.2]}, "HurstOutOfRange: Hurst exponents must lie in (0, 1), got [0.4 1.2]"
    ),
    "hurst-order": (
        {"H": [0.6, 0.4]},
        "HurstUnsorted: Hurst exponents must be nondecreasing, got [0.6 0.4]; "
        "reorder components explicitly rather than relying on sorting",
    ),
    "mixing-square": (
        {"W": [[1, 0, 0], [0, 1, 0]]}, "DimensionMismatch: mixing matrix must be square, got shape (2, 3)"
    ),
    "mixing-finite": (
        {"W": [[1, float("nan")], [0, 1]]},
        "SingularMixing: mixing matrix entries must be finite, got [[1.0, nan], [0.0, 1.0]]",
    ),
    "mixing-singular": (
        {"W": [[1, 0], [0, 1e-12]]},
        "SingularMixing: mixing matrix is numerically singular (sigma_min/sigma_max = 1.000e-12)",
    ),
    "dimensions": (
        {"H": [0.3, 0.5, 0.7]},
        "DimensionMismatch: inconsistent dimensions: H has 3, Sigma has 2, W has 2",
    ),
    "feasibility": (
        {"H": [0.2, 0.8], "rho": [[1, 0.9], [0.9, 1]]},
        "CorrelationInfeasible: correlation rho[0,1] = 0.9 exceeds the feasible bound "
        "rho_max = 0.661997 for this Hurst pair",
    ),
    "document": (
        {"W": "I"}, "DimensionMismatch: malformed parameter document: could not convert string to float: 'I'"
    ),
    "sigma-before-hurst": (
        {"H": [0.6, 0.4], "var": [1, -1]}, "CovarianceNotPSD: variances must be positive, got [ 1. -1.]"
    ),
    "hurst-before-mixing": (
        {"H": [0.4, 1.5], "W": [[1, 0], [0, 0]]},
        "HurstOutOfRange: Hurst exponents must lie in (0, 1), got [0.4 1.5]",
    ),
    "mixing-before-dimensions": (
        {"H": [0.3, 0.5, 0.7], "W": [[1, 0], [0, float("inf")]]},
        "SingularMixing: mixing matrix entries must be finite, got [[1.0, 0.0], [0.0, inf]]",
    ),
    "dimensions-before-feasibility": (
        {"H": [0.2, 0.8, 0.9], "rho": [[1, 0.9], [0.9, 1]]},
        "DimensionMismatch: inconsistent dimensions: H has 3, Sigma has 2, W has 2",
    ),
}


@pytest.mark.parametrize("model", list(_INVALID_MODELS))
def test_each_model_validation_branch_exit_3_with_its_line(tmp_path, capsys, monkeypatch, model):
    change, line = _INVALID_MODELS[model]
    doc = {"H": [0.4, 0.6], "var": [1, 1], "rho": [[1, 0.2], [0.2, 1]], "W": [[1, 0], [0, 1]]}
    (tmp_path / "model.json").write_text(json.dumps(doc | change))
    monkeypatch.setattr(CirculantEmbedding, "__init__", _no_embedding)
    argv = ["synth", "--params", str(tmp_path / "model.json"), "--n", "64", "--seed", "1",
            "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"model validation error: {line}\n"
    assert os.listdir(tmp_path) == ["model.json"]


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
@pytest.mark.parametrize("command", ["synth", "mc"])
def test_non_finite_mixing_exit_3(tmp_path, capsys, command, entry):
    params = _model_file(tmp_path, w=f"[[1, {entry}], [0, 1]]")
    out = str(tmp_path / "o")
    if command == "synth":
        argv = ["synth", "--params", params, "--n", "1024", "--seed", "1", "--out", out]
    else:
        argv = ["mc", "--params", params, "--n", "1024", "--n-mc", "2", "--seed", "1",
                "--j1", "1", "--j2", "4", "--out-dir", out]
    assert main(argv) == 3
    assert "model validation error: SingularMixing: mixing matrix entries must be finite" in (
        capsys.readouterr().err
    )
    assert os.listdir(tmp_path) == ["model.json"]


_OVERFLOWING_MODELS = {
    "var-8e307": {"var": (8e307, 8e307)},  # Sigma is finite, the spectral eigenvalues are not
    "w-1e300": {"var": (1e10, 1.0), "w": "[[1e300, 0], [0, 1e300]]"},  # a draw's FFT overflows
}


def _synth_or_mc_argv(command, params, out):
    if command == "mc":
        return ["mc", "--params", params, "--n", "1024", "--n-mc", "2", "--seed", "1",
                "--j1", "1", "--j2", "4", "--out-dir", out]
    return ["synth", "--params", params, "--n", "1024", "--seed", "1", "--out", out,
            "--format", command[-3:]]


@pytest.mark.parametrize("model", sorted(_OVERFLOWING_MODELS))
@pytest.mark.parametrize("command", ["synth-csv", "synth-bin", "mc"])
def test_overflowing_embedding_exit_4_and_writes_nothing(tmp_path, capsys, monkeypatch, command, model):
    params = _model_file(tmp_path, **_OVERFLOWING_MODELS[model])
    if command == "mc":
        # the embedding fails before any realization is drawn
        monkeypatch.setattr(CirculantEmbedding, "sample", _no_embedding)
    assert main(_synth_or_mc_argv(command, params, str(tmp_path / "o"))) == 4
    assert capsys.readouterr().err == (
        "estimation error: EmbeddingFailed: embedding of size 2048 overflows double precision: "
        "the model's scale is too large\n"
    )
    assert os.listdir(tmp_path) == ["model.json"]


@pytest.mark.parametrize("command", ["synth-csv", "synth-bin", "mc"])
def test_covariance_that_overflows_exit_3_and_writes_nothing(tmp_path, capsys, monkeypatch, command):
    # each variance is finite; their sum, the trace of Sigma, is not
    params = _model_file(tmp_path, var=(1e308, 1e308))
    monkeypatch.setattr(CirculantEmbedding, "__init__", _no_embedding)
    assert main(_synth_or_mc_argv(command, params, str(tmp_path / "o"))) == 3
    assert capsys.readouterr().err == (
        "model validation error: CovarianceNotPSD: assembled covariance overflows double "
        "precision: the variances are too large\n"
    )
    assert os.listdir(tmp_path) == ["model.json"]


def test_spectral_mass_of_a_large_finite_model_is_finite(tmp_path, capsys):
    # the weighted sum of |eigenvalues| would overflow; the mass is taken on a scaled copy
    params = _model_file(tmp_path, var=(1e307, 1e307))
    out = tmp_path / "x.csv"
    assert main(["synth", "--params", params, "--n", "1024", "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = _strict_json((tmp_path / "x.csv.embedding.json").read_text())
    assert 0.0 <= report["clipped_mass"] < 1e-6


@pytest.mark.parametrize("scale, error", [(1e200, "NonFiniteData"), (1e-200, "NonPositiveDiagonal")])
@pytest.mark.parametrize("command", ["estimate", "sliding"])
def test_finite_series_whose_spectra_leave_double_range_exit_4(tmp_path, capsys, command, scale, error):
    # every sample is finite; the squares of the coefficients overflow or underflow
    x = np.random.default_rng(0).normal(size=(2, 8192)).cumsum(axis=1) * scale
    rows = [[t, repr(a), repr(b)] for t, (a, b) in enumerate(zip(*x.tolist()))]
    series = _write_series(tmp_path / "x.csv", rows)
    out = str(tmp_path / "o")
    extra = ["--window", "4096", "--hop", "1024", "--j1", "1", "--j2", "4"] if command == "sliding" else []
    assert main([command, series, "--out-dir", out] + extra) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"estimation error: {error}: ")
    if error == "NonFiniteData":
        octave = 1 if command == "sliding" else 6  # the first of the octave range
        assert f"the wavelet spectrum at octave {octave} overflows double precision" in err
    assert os.listdir(tmp_path) == ["x.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_outputs_get_the_mode_of_a_plain_new_file(params_file, tmp_path, umask):
    series = _write_series(tmp_path / "in.csv", _walk_rows(3000))
    labelled = _write_series(tmp_path / "inl.csv", _walk_rows(3000, label=True), ("t", "c1", "c2", "label"))
    out = tmp_path / "out"
    commands = [
        ["synth", "--params", params_file, "--n", "600", "--seed", "7", "--out", str(out / "x.csv")],
        ["synth", "--params", params_file, "--n", "600", "--seed", "7", "--format", "bin",
         "--out", str(out / "x.bin")],
        ["estimate", series, "--j1", "1", "--j2", "4", "--out-dir", str(out / "e")],
        ["sliding", labelled, "--window", "1000", "--hop", "500", "--j1", "1", "--j2", "4",
         "--label-column", "label", "--out-dir", str(out / "s")],
        ["mc", "--params", params_file, "--n", "1024", "--n-mc", "4", "--seed", "1",
         "--j1", "1", "--j2", "4", "--out-dir", str(out / "mc")],
    ]
    previous = os.umask(umask)
    try:
        for argv in commands:
            assert main(argv) == 0
    finally:
        os.umask(previous)
    modes = {p.relative_to(out).as_posix(): p.stat().st_mode & 0o777 for p in out.rglob("*") if p.is_file()}
    assert len(modes) == 2 + 3 + 3 + 3 + 5
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)


def _dependent_channels(kind, n=4096):
    """Three channels of the H 0.4/0.6/0.8 mfBm: average-referenced, with c3 an
    exact mixture 0.3 c1 + 0.7 c2, or that mixture plus 2e-6 of a fourth
    independent channel (an eigenvalue ratio near 1e-12)."""
    params = make_params([0.4, 0.6, 0.8], [1.0] * 3, np.eye(3).tolist(), np.eye(3).tolist())
    x = CirculantEmbedding(params, n).sample(3, kind="mfBm").data
    if kind == "average-reference":
        return x - x.mean(axis=0)
    c3 = 0.3 * x[0] + 0.7 * x[1]
    if kind == "near-mixture":
        c3 = c3 + 2e-6 * np.random.default_rng(4).normal(size=n).cumsum()
    return np.vstack([x[:2], c3])


@pytest.mark.parametrize("kind", ["average-reference", "mixture", "near-mixture"])
@pytest.mark.parametrize("command", ["estimate", "sliding"])
def test_linearly_dependent_channels_exit_4_naming_the_rank(tmp_path, capsys, command, kind):
    x = _dependent_channels(kind)
    rows = [[t, *map(repr, values)] for t, values in enumerate(zip(*x.tolist()))]
    series = _write_series(tmp_path / "x.csv", rows, ("t", "c1", "c2", "c3"))
    out = str(tmp_path / "o")
    if command == "estimate":
        extra, octave, window = ["--j1", "2", "--j2", "6"], 2, ""
    else:
        extra, octave = ["--window", "2048", "--hop", "1024", "--j1", "1", "--j2", "4"], 1
        window = "window at samples 0..2047: "
    rc = main([command, series, "--out-dir", out] + extra)
    if kind == "near-mixture":
        assert rc == 0
        return
    assert rc == 4
    assert capsys.readouterr().err == (
        f"estimation error: RankDeficientSpectrum: {window}the wavelet spectrum at octave {octave} "
        "has numerical rank 2 < M = 3: the channels are linearly dependent; "
        "drop a channel or undo the common reference\n"
    )
    assert os.listdir(tmp_path) == ["x.csv"]


def test_a_window_with_dependent_channels_exit_4_and_writes_nothing(tmp_path, capsys):
    # c3 mixes c1 and c2 over the first quarter only: the full spectra have
    # rank 3 and every eigenvalue of the windows there is positive rounding
    # noise, yet the windows are refused by the full spectra's rank rule
    x = np.random.default_rng(12).normal(size=(3, 4096)).cumsum(axis=1)
    x[2, :1024] = 0.7 * x[0, :1024] - 0.37 * x[1, :1024]
    rows = [[t, *map(repr, values)] for t, values in enumerate(zip(*x.tolist()))]
    series = _write_series(tmp_path / "x.csv", rows, ("t", "c1", "c2", "c3"))
    rc = main(["estimate", series, "--j1", "1", "--j2", "4", "--out-dir", str(tmp_path / "o")])
    assert rc == 4
    assert capsys.readouterr().err == (
        "estimation error: RankDeficientSpectrum: a windowed wavelet spectrum at octave 1 has "
        "numerical rank 2 < M = 3: the channels are linearly dependent; drop a channel or "
        "undo the common reference\n"
    )
    assert os.listdir(tmp_path) == ["x.csv"]


def test_parser_defaults_are_the_library_defaults():
    from ofbmkit.estimation import DEFAULT_BALANCE, ScalingRangeConfig
    from ofbmkit.wavelet import DEFAULT_FILTER

    parser = cli.build_parser()
    for argv in (
        ["estimate", "x.csv", "--out-dir", "o"],
        ["mc", "--params", "p.json", "--n", "64", "--n-mc", "2", "--seed", "1", "--out-dir", "o"],
        ["sliding", "x.csv", "--window", "64", "--hop", "8", "--j1", "1", "--j2", "2", "--out-dir", "o"],
    ):
        args = parser.parse_args(argv)
        assert args.filter == DEFAULT_FILTER
        assert cli._weights_mode(args) == DEFAULT_BALANCE
        if argv[0] != "sliding":
            assert cli._range_config(args) == ScalingRangeConfig()
