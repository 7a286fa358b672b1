"""Command-line driver: files, formats, determinism, exit codes."""

import json
import warnings

import numpy as np
import pytest

from cscrack.cli import main


def _read_csv(path):
    header = []
    rows = []
    cols = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif cols is None:
            cols = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows)
    return header, {c: data[:, i] for i, c in enumerate(cols)}


def test_solve_writes_all_outputs(tmp_path):
    rc = main(["solve", "--nu", "0.3", "--p", "10", "--n", "96",
               "--out", str(tmp_path)])
    assert rc == 0
    for name in ("densities.csv", "profiles.csv", "neartip.csv",
                 "summary.json"):
        assert (tmp_path / name).exists(), name
    summary = json.loads((tmp_path / "summary.json").read_text())
    for key in ("f1", "g1", "K_I", "K_I_ratio", "J", "J_ratio", "n",
                "condition"):
        assert key in summary
    assert 1.0 < summary["K_I_ratio"] < 1.35
    assert summary["n"] == 96


def test_solve_regression_value(tmp_path):
    # pinned after the first verified run at nu=0.3, p=10, n=128
    rc = main(["solve", "--nu", "0.3", "--p", "10", "--n", "128",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["K_I_ratio"] == pytest.approx(1.2158046071654391,
                                                 rel=1e-9)


def test_solve_classical_degeneration(tmp_path):
    with pytest.warns(RuntimeWarning):
        rc = main(["solve", "--nu", "0.3", "--p", "1e4", "--n", "128",
                   "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["K_I_ratio"] == pytest.approx(1.0, abs=0.01)
    assert summary["classical_degenerate"] is True


def test_outputs_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "--p", "5", "--n", "64",
                     "--out", str(out)]) == 0
    for name in ("densities.csv", "profiles.csv", "neartip.csv",
                 "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_csv_headers_echo_config(tmp_path):
    main(["solve", "--nu", "0.25", "--p", "7", "--n", "64",
          "--out", str(tmp_path)])
    header, cols = _read_csv(tmp_path / "densities.csv")
    joined = "\n".join(header)
    assert "nu=0.25" in joined and "p=7" in joined and "n=64" in joined
    assert "# columns: s,f,g" in joined
    assert set(cols) == {"s", "f", "g"}


def test_normalized_columns_present(tmp_path):
    main(["solve", "--p", "5", "--n", "64", "--sigma0", "2.5",
          "--out", str(tmp_path)])
    _, prof = _read_csv(tmp_path / "profiles.csv")
    assert np.allclose(prof["delta_uy_norm"],
                       prof["delta_uy"] / 2.5, rtol=1e-12)
    _, near = _read_csv(tmp_path / "neartip.csv")
    assert np.allclose(near["sigma_yy_over_sigma0"],
                       near["sigma_yy"] / 2.5, rtol=1e-12)


def test_summary_csv_format(tmp_path):
    rc = main(["solve", "--p", "5", "--n", "64", "--format", "csv",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "summary.csv").exists()
    _, cols = _read_csv(tmp_path / "summary.csv")
    assert "K_I_ratio" in cols


def test_malformed_config_exits_one(tmp_path, capsys):
    assert main(["solve", "--p", "not-a-number"]) == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0 and err.startswith("error:")
    assert main(["solve", "--p", "-3", "--out", str(tmp_path)]) == 1
    assert main(["bogus-command"]) == 1
    capsys.readouterr()
    # non-finite or unrepresentable inputs: a one-line message, no files
    out = tmp_path / "never"
    sweep = ["sweep", "--p-steps", "2", "--n", "16"]
    for argv, codes in ((["solve", "--p", "inf"], (1,)),
                        (["solve", "--p", "nan"], (1,)),
                        (["solve", "--mu", "inf"], (1,)),
                        (["solve", "--p", "1e-300", "--n", "16"], (1, 2)),
                        (["baseline", "--a", "inf"], (1,)),
                        (sweep + ["--p-min", "1", "--p-max", "inf"], (1,)),
                        (sweep + ["--p-min", "inf", "--p-max", "inf"], (1,)),
                        (sweep + ["--p-min", "1e-300", "--p-max", "1e-299"],
                         (1, 2))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) in codes, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, argv
        assert not out.exists(), argv


def test_sweep_outputs_and_flags(tmp_path):
    rc = main(["sweep", "--p-min", "1", "--p-max", "100", "--p-steps", "5",
               "--log-spaced", "--nu-list", "0.0,0.3", "--n", "64",
               "--out", str(tmp_path)])
    assert rc == 0
    _, cols = _read_csv(tmp_path / "sweep.csv")
    assert len(cols["p"]) == 10
    assert np.all(np.diff(cols["ell_over_a"]) >= 0.0)   # sorted by ell/a
    flags = json.loads((tmp_path / "sweep_summary.json").read_text())
    mono = flags["monotonicity"]
    assert set(mono) == {"nu=0", "nu=0.3"}
    for rec in mono.values():
        assert rec["K_ratio_strictly_decreasing_in_ell_over_a"] is True
        assert rec["J_below_classical"] is True


def test_sweep_empty_range_errors(tmp_path):
    assert main(["sweep", "--p-min", "5", "--p-max", "1", "--p-steps", "3",
                 "--out", str(tmp_path)]) == 1
    assert main(["sweep", "--p-min", "1", "--p-max", "5", "--p-steps", "0",
                 "--out", str(tmp_path)]) == 1
    assert main(["sweep", "--p-min", "1", "--p-max", "5", "--p-steps", "3",
                 "--nu-list", "", "--out", str(tmp_path)]) == 1


def test_field_grid_output_and_traces(tmp_path):
    rc = main(["field", "--b", "1", "--omega", "0", "--ell", "1",
               "--x-min", "-3", "--x-max", "3", "--x-num", "6",
               "--y-min", "0", "--y-max", "0", "--y-num", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    _, cols = _read_csv(tmp_path / "field.csv")
    assert len(cols["x"]) == 6
    # pure dislocation: rotation trace vanishes on the line
    assert np.allclose(cols["omega"], 0.0, atol=1e-14)
    assert np.allclose(cols["syx"], 0.0, atol=1e-14)


def test_field_disclination_far_couple_stress(tmp_path):
    rc = main(["field", "--b", "0", "--omega", "1", "--ell", "1",
               "--x-min", "-50", "--x-max", "50", "--x-num", "2",
               "--y-min", "0", "--y-max", "0", "--y-num", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    _, cols = _read_csv(tmp_path / "field.csv")
    assert cols["myz"][0] == pytest.approx(1.0, abs=1e-6)    # x = -50
    assert cols["myz"][1] == pytest.approx(-1.0, abs=1e-6)   # x = +50


def test_field_grid_validation(tmp_path, capsys):
    rc = main(["field", "--x-min", "0", "--x-max", "0", "--x-num", "1",
               "--y-min", "0", "--y-max", "0", "--y-num", "1",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "(0, 0)" in capsys.readouterr().err
    assert main(["field", "--x-min", "0", "--x-max", "1", "--x-num", "0",
                 "--y-min", "0", "--y-max", "0", "--y-num", "1",
                 "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    out = tmp_path / "never"
    for bad in (["--ell", "nan"], ["--ell", "inf"], ["--mu", "inf"]):
        assert main(["field", "--x-min", "1", "--x-max", "2", "--x-num", "2",
                     "--y-min", "0", "--y-max", "1", "--y-num", "2",
                     "--out", str(out)] + bad) == 1, bad
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, bad
        assert not out.exists(), bad


def test_baseline_outputs(tmp_path):
    rc = main(["baseline", "--nu", "0.3", "--n", "128",
               "--out", str(tmp_path)])
    assert rc == 0
    rec = json.loads((tmp_path / "baseline.json").read_text())
    assert rec["K_I"] == pytest.approx(np.sqrt(np.pi), rel=1e-12)
    assert rec["K_I_discrete_rel_err"] < 1e-6
    assert (tmp_path / "baseline_cod.csv").exists()
