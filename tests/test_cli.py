import csv
import json

import numpy as np
import pytest

from ofbmkit.cli import main, version_string
from ofbmkit.model import make_params, save_params
from ofbmkit.synthesis import RNG_ID


@pytest.fixture
def params_file(tmp_path):
    p = make_params(
        [0.4, 0.7], [1.0, 1.0], [[1.0, 0.4], [0.4, 1.0]], [[1.0, 0.3], [-0.2, 1.0]]
    )
    path = tmp_path / "params.json"
    save_params(p, path)
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
