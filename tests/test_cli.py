"""Command-line driver: files, formats, determinism, exit codes."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cscrack
from cscrack import cli
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
                "condition", "residual"):
        assert key in summary
    assert 0.0 <= summary["residual"] < 1e-10
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


def test_solve_classical_degeneration(tmp_path, capsys):
    # the degenerate switch is reported as one stderr line, not as a
    # Python warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve", "--nu", "0.3", "--p", "1e4", "--n", "128",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err == (
        "warning: a/ell = 10000 exceeds the kernel resolvability limit 256 "
        "at n = 128; solving the classical degenerate system instead\n")
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
                         (1, 2)),
                        # repeated p values, also as the CSV prints them
                        (sweep + ["--p-min", "1", "--p-max", "1"], (1,)),
                        (sweep + ["--p-min", "1",
                                  "--p-max", "1.0000000000001"], (1,))):
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


def test_sweep_rows_match_independent_solves(tmp_path):
    # sweep solves the nus of one p together; each row must still be what
    # `solve` reports for that (nu, p), at the CSV's 12 digits
    assert main(["sweep", "--p-min", "2", "--p-max", "6", "--p-steps", "3",
                 "--nu-list", "0.5,0,0.25", "--n", "32",
                 "--out", str(tmp_path / "sweep")]) == 0
    _, rows = _read_csv(tmp_path / "sweep" / "sweep.csv")
    assert len(rows["p"]) == 9
    for p, nu, kr, jr in zip(rows["p"], rows["nu"], rows["K_I_ratio"],
                             rows["J_ratio"]):
        out = tmp_path / f"solve-{p:g}-{nu:g}"
        assert main(["solve", "--nu", repr(float(nu)), "--p", repr(float(p)),
                     "--n", "32", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert kr == float(format(summary["K_I_ratio"], ".12g")), (p, nu)
        assert jr == float(format(summary["J_ratio"], ".12g")), (p, nu)


def test_sweep_rejects_repeated_nu(tmp_path, capsys):
    # a repeated nu would write duplicate rows, and two nus that print
    # alike would share one entry of the summary's flags
    base = ["sweep", "--p-min", "1", "--p-max", "2", "--p-steps", "1",
            "--n", "16", "--out", str(tmp_path / "never")]
    for nus in ("0.3,0.3", "0,0.3,0.30000000000000004"):
        assert main(base + ["--nu-list", nus]) == 1, nus
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repeats" in err, nus
        assert not (tmp_path / "never").exists()
    assert main(base[:-1] + [str(tmp_path / "ok"), "--nu-list", "0.3"]) == 0
    flags = json.loads((tmp_path / "ok" / "sweep_summary.json").read_text())
    # a one-p sweep is trivially monotonic
    assert all(flags["monotonicity"]["nu=0.3"].values())


def test_baseline_rejects_zero_sigma0_like_solve(tmp_path, capsys):
    errs = []
    for cmd in ("solve", "baseline"):
        assert main([cmd, "--sigma0", "0", "--n", "16",
                     "--out", str(tmp_path / cmd)]) == 1
        errs.append(capsys.readouterr().err)
        assert not (tmp_path / cmd).exists()
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: --sigma0 must be nonzero")


def test_sweep_rejects_scale_flags(tmp_path, capsys):
    # the ratios do not depend on a, sigma0 or mu, and the summary is
    # always JSON, so sweep has none of these flags; its Poisson ratios
    # come from --nu-list alone, and --nu is no abbreviation of it
    base = ["sweep", "--p-min", "1", "--p-max", "2", "--p-steps", "2",
            "--n", "16", "--out", str(tmp_path / "never")]
    for flag, value in (("--a", "3"), ("--sigma0", "2"), ("--mu", "7"),
                        ("--format", "csv"), ("--nu", "0.1")):
        assert main(base + [flag, value]) == 1, flag
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err, flag
        assert not (tmp_path / "never").exists()


def _fuzz_argv(rng):
    """One random, often malformed, command line (without --out)."""
    def pick(values):
        return values[rng.integers(len(values))]

    nums = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "1e-7",
            "0.3", "5", "abc"]
    # n stays small or far beyond any memory, so no case allocates much
    ns = ["8", "16", "16", "24", "7", "-3", "100000000000", "1e3"]
    command = pick(["solve", "sweep", "baseline"])
    argv = [command, "--n", pick(ns)]
    flags = {"--nu": nums + ["0.5", "0.49", "-0.99"]}
    if command != "sweep":
        flags.update({"--sigma0": nums, "--a": nums, "--mu": nums,
                      "--format": ["csv", "json", "xml"],
                      "--profile-samples": ["3", "1", "-2", "5"]})
    if command == "solve":
        flags.update({"--p": nums + ["40", "1e4"],
                      "--neartip-samples": ["0", "4", "-1"]})
    if command == "sweep":
        # sweep has no scale flags: each of these is a usage error
        flags.update({"--p-min": nums, "--p-max": nums + ["1e4"],
                      "--p-steps": ["1", "2", "0"],
                      "--nu-list": ["0,0.5", "0.3", "", "x,1", "nan"],
                      "--a": ["2"], "--sigma0": ["2"], "--mu": ["2"],
                      "--format": ["csv"]})
    names = sorted(flags)
    for k in rng.permutation(len(names))[:rng.integers(1, 5)]:
        argv += [names[k], pick(flags[names[k]])]
    if command == "sweep" and "--p-steps" not in argv:
        argv += ["--p-min", "1", "--p-max", "3", "--p-steps", "2"]
    if command == "sweep" and rng.random() < 0.5:
        argv.append("--log-spaced")
    return argv


def _all_finite(out):
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            stack = [json.loads(text)]
            while stack:
                node = stack.pop()
                if isinstance(node, dict):
                    stack.extend(node.values())
                elif isinstance(node, float) and not math.isfinite(node):
                    return False
        else:
            rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
            if not all(math.isfinite(float(v))
                       for ln in rows[1:] for v in ln.split(",")):
                return False
    return True


def test_cli_fuzz_exit_contract(tmp_path, capsys):
    explicit = [
        ["solve", "--n", "100000000000"],
        ["sweep", "--p-min", "1", "--p-max", "2", "--p-steps", "2",
         "--n", "100000000000"],
        ["baseline", "--n", "100000000000"],
        ["solve", "--p", "nan"], ["solve", "--p", "inf"],
        ["solve", "--p", "-inf"],
        ["sweep", "--p-min", "nan", "--p-max", "2", "--p-steps", "2"],
        ["sweep", "--p-min", "1", "--p-max", "inf", "--p-steps", "2"],
        ["solve", "--sigma0", "0", "--n", "16"],
        ["solve", "--sigma0", "1e300", "--mu", "1e-300", "--n", "16"],
        ["solve", "--a", "1e-310", "--n", "16"],
        ["solve", "--p", "1e-300", "--n", "16"],
        ["sweep", "--p-min", "1e-300", "--p-max", "1e300", "--p-steps", "3",
         "--log-spaced", "--n", "16"],
    ]
    # a/ell far beyond the degenerate switch: the near-tip grid must not
    # round onto the tip
    huge_p = [["solve", "--p", p, "--n", "16"]
              for p in ("1e13", "1e15", "1e300")]
    grid = ["--x-min", "-1", "--x-max", "1", "--x-num", "2",
            "--y-min", "0", "--y-max", "1", "--y-num", "2"]
    # scales at the ends of the float range that overflow J; the one
    # error line names the non-finite output (exit 2)
    overflowed = [(["solve", "--sigma0", "1e160", "--n", "16"],
                   "J in summary"),
                  (["baseline", "--sigma0", "1e300", "--n", "16"],
                   "J in baseline")]
    # scales at which J is finite: J_ratio is read from f(1), g(1) alone,
    # so it keeps every digit of the unit crack's, and J is its classical
    # closed form (formed with sigma0/mu first) times J_ratio; None leaves
    # J unchecked (subnormal).  baseline writes the closed form itself
    scaled = [(["solve", "--mu", "1e-160", "--n", "16"], 9.91583979957e+159),
              (["solve", "--sigma0", "1e-300", "--n", "16"], 0.0),
              (["solve", "--sigma0", "1e-160", "--n", "16"], None),
              (["solve", "--sigma0", "1e200", "--mu", "1e200", "--n", "16"],
               9.91583979957e+199),
              (["solve", "--sigma0", "1e-160", "--mu", "1e-160", "--n", "16"],
               9.91583979957e-161),
              (["baseline", "--sigma0", "1e200", "--mu", "1e200", "--n", "16"],
               1.09955742876e+200)]
    # inputs refused as configuration errors (exit 1)
    rejected = [["baseline", "--sigma0", "0", "--n", "16"],
                ["solve", "--neartip-samples", "0", "--n", "16"],
                ["baseline", "--profile-samples", "2", "--n", "16"]]
    explicit += huge_p + rejected + [
        argv for argv, _ in overflowed + scaled] + [
        ["field", "--b", b, "--omega", om, "--ell", ell] + grid
        for ell in ("1e-300", "1e-150", "1e300")
        for b, om in (("1", "0"), ("0", "1"))]
    rng = np.random.default_rng(20261018)
    cases = explicit + [_fuzz_argv(rng) for _ in range(120)]
    codes = set()
    for k, argv in enumerate(cases):
        out = tmp_path / f"case{k}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        codes.add(rc)
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if rc == 0:
            assert _all_finite(out), argv
        else:
            # one stderr line: no Python warning printed before it
            assert err.count("\n") == 1, argv
            assert not caught, (argv, [str(w.message) for w in caught])
            assert not out.exists(), argv
    assert codes == {0, 1, 2}
    for argv in huge_p:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv + ["--out", str(tmp_path / argv[2])]) == 0
    for argv in rejected:
        assert main(argv + ["--out", str(tmp_path / "never")]) == 1, argv
        capsys.readouterr()
    for argv, name in overflowed:
        assert main(argv + ["--out", str(tmp_path / "never")]) == 2, argv
        assert capsys.readouterr().err == (
            f"numerical failure: non-finite {name}\n"), argv
    for k, (argv, j) in enumerate(scaled):
        out = tmp_path / f"scaled{k}"
        assert main(argv + ["--out", str(out)]) == 0, argv
        if argv[0] == "baseline":
            record = json.loads((out / "baseline.json").read_text())
        else:
            record = json.loads((out / "summary.json").read_text())
            assert record["J_ratio"] == 0.901802810862, argv
        assert j is None or record["J"] == j, argv
    # huge n: rejected before anything is allocated
    for argv in explicit[:3]:
        assert main(argv + ["--out", str(tmp_path / "never")]) == 1
        assert "too large" in capsys.readouterr().err


def test_failed_write_leaves_no_files(tmp_path, monkeypatch, capsys):
    # the second of solve's files fails to write: no output file and no
    # temporary is left, in an existing directory or in a new one
    real = cli._write_csv
    calls = []

    def flaky(path, config, columns):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        real(path, config, columns)

    monkeypatch.setattr(cli, "_write_csv", flaky)
    out = tmp_path / "existing"
    out.mkdir()
    (out / "keep.txt").write_text("kept\n")
    assert main(["solve", "--n", "16", "--out", str(out)]) == 1
    assert len(calls) == 2
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    calls.clear()
    assert main(["solve", "--n", "16", "--out", str(tmp_path / "new")]) == 1
    assert not (tmp_path / "new").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "disk full" in err
    # an --out that names a file is a configuration error, not a traceback
    monkeypatch.undo()
    assert main(["solve", "--n", "16", "--out", str(out / "keep.txt")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    # a successful write leaves exactly the named files
    assert main(["solve", "--n", "16", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "densities.csv", "keep.txt", "neartip.csv", "profiles.csv",
        "summary.json"]


def test_profile_samples_checked_before_solving(tmp_path, monkeypatch,
                                                capsys):
    # refused with the other option checks: no solve runs first
    def never(*args, **kwargs):
        raise AssertionError("solved before checking --profile-samples")

    monkeypatch.setattr(cli, "solve", never)
    monkeypatch.setattr(cli, "classical_baseline", never)
    for cmd in ("solve", "baseline"):
        for samples in ("2", "0", "-5"):
            assert main([cmd, "--n", "1024", "--profile-samples", samples,
                         "--out", str(tmp_path / "never")]) == 1
            assert capsys.readouterr().err == (
                "error: --profile-samples must be at least 3\n")
            assert not (tmp_path / "never").exists()


def test_json_summaries_print_twelve_digits(tmp_path):
    # computed values at the CSVs' 12 significant digits, so reruns are
    # byte-identical; the config echo stays exact
    a = 1.2345678901234567
    for cmd, name in (("solve", "summary.json"),
                      ("baseline", "baseline.json")):
        out = tmp_path / cmd
        assert main([cmd, "--n", "32", "--a", repr(a),
                     "--out", str(out)]) == 0
        rec = json.loads((out / name).read_text())
        assert rec["config"]["a"] == a
        floats = {k: v for k, v in rec.items() if isinstance(v, float)}
        assert "K_I" in floats and "J" in floats
        for key, value in floats.items():
            assert value == float(format(value, ".12g")), key


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
    # summaries print computed values at 12 significant digits
    assert rec["K_I"] == float(format(np.sqrt(np.pi), ".12g"))
    assert rec["K_I_discrete_rel_err"] < 1e-6
    assert (tmp_path / "baseline_cod.csv").exists()


def test_import_does_not_load_scipy_integrate():
    # every CLI call pays for what `import cscrack` loads; scipy.integrate
    # alone cost about a quarter of a second of it
    src = str(Path(cscrack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = ("import cscrack, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.integrate')))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_readme_command_lines(tmp_path, capsys):
    # the README's "Command line" examples run as written, with --out moved
    # under tmp_path, and write exactly the files that section names
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line")[1].split("\n## ")[0]
    block = section.split("```")[1].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.strip()]
    assert [argv[:2] for argv in commands] == [
        ["cscrack", cmd] for cmd in ("solve", "sweep", "field", "baseline")]
    written = set()
    for argv in commands:
        k = argv.index("--out") + 1
        out = tmp_path / argv[k]
        argv[k] = str(out)
        assert main(argv[1:]) == 0, argv
        written |= {path.name for path in out.iterdir()}
    capsys.readouterr()
    assert set(re.findall(r"`(\w+\.(?:csv|json))`", section)) == written
