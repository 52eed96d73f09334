"""End-to-end command-line tests.

Every subcommand runs in-process through main(argv) against temp
directories. The exit-code contract is pinned down on all branches:
0 for a holding verdict or plain success, 2 for a failing verdict, 1 for
usage and numeric errors. Artifact outputs are re-read and re-run to
check both content and byte-level determinism.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magflow import cli
from magflow.cli import build_parser, main
from magflow.profiles import load_profile, validate


def _knot_json(tmp_path, name, pts):
    path = tmp_path / name
    path.write_text(json.dumps([[float(c) for c in row] for row in pts]))
    return str(path)


def _circle4(P, e1, e2, rad, n=512):
    s = np.linspace(0.0, 2.0 * np.pi, n + 1)
    return (np.cos(rad) * np.asarray(P)[None, :]
            + np.sin(rad) * (np.cos(s)[:, None] * np.asarray(e1)
                             + np.sin(s)[:, None] * np.asarray(e2)))


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_group(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "magflow" in capsys.readouterr().out

    def test_missing_profile_file(self, capsys):
        assert main(["profile", "check", "/nonexistent/prof.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_state_string(self, capsys, tmp_path):
        rc = main(["flow", "trace", "sphere", "--m", "1",
                   "--state", "1.0,0.3", "--horizon", "1"])
        assert rc == 1
        capsys.readouterr()


_TRACE = ["flow", "trace", "sphere", "--m", "1", "--state", "1.0,0.4,0",
          "--horizon", "1"]


class TestArgumentBounds:
    # counts and tolerances are checked at parse time: a value out of
    # bounds is a usage error, before any computation can divide by it,
    # index an empty sample or report on zero samples
    @pytest.mark.parametrize("argv, flag", [
        (["repro", "bigm", "--target", "-1"], "--target"),
        (_TRACE + ["--n-out", "0"], "--n-out"),
        (["hopf", "verify", "--samples", "0"], "--samples"),
        (["profile", "make", "sphere", "--samples", "0"], "--samples"),
        (["cz", "latitude", "sphere", "--m", "0.5", "--covers", "0"],
         "--covers"),
        (["profile", "check", "sphere", "--tol", "-1"], "--tol"),
        (["profile", "check", "sphere", "--tol", "0"], "--tol"),
        (["profile", "check", "sphere", "--tol", "nan"], "--tol"),
        (["action", "scan", "sphere", "--m", "0.5", "--levels", "-1"],
         "--levels"),
        (["cz", "report", "sphere", "--m", "0.05", "--levels", "-1"],
         "--levels"),
        (["cz", "report", "sphere", "--m", "0.05", "--rho-orbits", "-1"],
         "--rho-orbits"),
        (["repro", "ellipsoids", "--levels", "-1"], "--levels"),
        # a negative rtol integrated with a negative error weight, and
        # rtol = atol = 0 divided by zero in the initial step
        (_TRACE + ["--rtol", "-1"], "--rtol"),
        (_TRACE + ["--atol", "0"], "--atol"),
        (_TRACE + ["--rtol", "0", "--atol", "0"], "--atol"),
    ], ids=["target", "n-out", "verify-samples", "make-samples", "covers",
            "tol-negative", "tol-zero", "tol-nan", "scan-levels",
            "report-levels", "rho-orbits", "ellipsoids-levels",
            "rtol-negative", "atol-zero", "rtol-atol-zero"])
    def test_out_of_bounds_is_a_usage_error(self, capsys, argv, flag):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"error: argument {flag}: '{argv[-1]}' is not" in err

    def test_non_numbers_keep_their_message(self, capsys):
        assert main(["action", "scan", "sphere", "--m", "0.5",
                     "--levels", "x"]) == 1
        assert "argument --levels: invalid int value: 'x'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        _TRACE + ["--n-out", "1"],
        ["cz", "latitude", "sphere", "--m", "0.5", "--covers", "1"],
        ["hopf", "verify", "--samples", "1"],
        ["repro", "bigm", "--target", "0"],
        ["action", "scan", "sphere", "--m", "0.5", "--levels", "0"],
        ["cz", "report", "sphere", "--m", "0.05", "--levels", "0",
         "--rho-orbits", "0"],
        _TRACE + ["--rtol", "0"],
    ], ids=["n-out", "covers", "verify-samples", "target", "levels",
            "report-levels", "rtol-zero"])
    def test_boundary_values_run(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_one_sample_table(self, capsys, tmp_path):
        table = tmp_path / "one.csv"
        assert main(["profile", "make", "sphere", "--table", str(table),
                     "--samples", "1"]) == 0
        capsys.readouterr()
        assert table.read_text().splitlines()[1:] == ["0,0,1,1"]


class TestRefusedRuns:
    # inputs the numerics cannot take fail with a ValueError: exit 1 and
    # one line on stderr, where they used to end in a traceback, a wrong
    # run or a hang
    @pytest.mark.parametrize("argv, message", [
        (_TRACE[:-1] + ["nan"], "integration time s_max = nan is not finite"),
        (_TRACE[:6] + ["0,0.3,0"] + _TRACE[7:],
         "start t0 = 0.0 is not inside (3.141592653589793e-06, "),
        # past the pole at ell = pi, on the profile's extension
        (_TRACE[:6] + ["5,0.3,0"] + _TRACE[7:],
         "start t0 = 5.0 is not inside (3.141592653589793e-06, "),
        # a band past the middle of the range ran its levels backwards
        (["action", "scan", "sphere", "--m", "0.5", "--levels", "3",
          "--band", "0.7"], "band 0.7 is not a share in (0, 0.5)"),
        (["action", "scan", "sphere", "--m", "0.5", "--levels", "3",
          "--band", "0"], "band 0.0 is not a share in (0, 0.5)"),
    ], ids=["horizon-nan", "state-at-pole", "state-past-pole",
            "band-past-half", "band-zero"])
    def test_refused(self, capsys, argv, message):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"error: {message}")

    def test_infinite_horizon_returns(self):
        # it used to integrate forever; a fresh process with a timeout, so
        # that a hang fails here instead of stalling the suite
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "magflow.cli",
                              *_TRACE[:-1], "inf"], capture_output=True,
                             text=True, timeout=60, env=env)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr == "error: integration time s_max = inf is not " \
                             "finite\n"


class TestProfileCommands:
    def test_make_sphere_artifacts(self, capsys, tmp_path):
        out = tmp_path / "sphere.json"
        table = tmp_path / "sphere.csv"
        rc = main(["profile", "make", "sphere", "--out", str(out),
                   "--table", str(table), "--samples", "32"])
        assert rc == 0
        assert ": OK" in capsys.readouterr().out
        p = load_profile(str(out))
        assert p.gamma(1.0) == pytest.approx(np.sin(1.0), rel=1e-12)
        lines = table.read_text().splitlines()
        assert lines[0] == "t,gamma,dgamma,curvature"
        assert len(lines) == 33

    def test_check_builtin_ok(self, capsys):
        assert main(["profile", "check", "ellipsoid:1.5"]) == 0
        capsys.readouterr()

    def test_check_invalid_profile(self, capsys, tmp_path):
        t = np.linspace(0.0, np.pi, 201)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "samples", "t": list(t),
                                   "gamma": list(0.8 * np.sin(t))}))
        assert main(["profile", "check", str(bad)]) == 2
        assert "INVALID" in capsys.readouterr().out


class TestContactBounds:
    def test_sphere_json(self, capsys, tmp_path):
        out = tmp_path / "bounds.json"
        rc = main(["contact", "bounds", "sphere", "--json-out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rep = json.loads(out.read_text())
        assert rep["m_gamma"] < 1e-8

    def test_spindle_bounds(self, capsys, tmp_path):
        out = tmp_path / "bounds.json"
        rc = main(["contact", "bounds", "spindle:0.1:0.2",
                   "--json-out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rep = json.loads(out.read_text())
        assert rep["m_gamma"] > 1.0


class TestActionScan:
    def test_sphere_scan_content(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["action", "scan", "sphere", "--m", "1",
                   "--levels", "9", "--out", str(out)])
        assert rc == 0
        assert "min action 2" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "I,t_minus,t_plus,s_half,action"
        acts = [float(r.split(",")[4]) for r in lines[1:]]
        assert len(acts) == 11             # 9 interior levels + 2 latitudes
        assert np.allclose(acts, 2.0, rtol=1e-8)

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["action", "scan", "ellipsoid:1.3", "--m", "0.7",
                         "--levels", "7", "--out", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_km_not_positive_refused(self, capsys):
        # the latitude rows alone used to pass, hiding the witness with
        # action -1.096 at t = 0.1
        rc = main(["action", "scan", "negative-action:0.1:0.9",
                   "--m", "0.016787", "--levels", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "K_m changes sign" in captured.err
        assert "min action" not in captured.out

    def test_spindle_default_band(self, capsys, tmp_path):
        # the outermost level sits LEVEL_BAND of the range inside I_min,
        # or --band of it
        for extra, rows in ((["--levels", "3"], 5),
                            (["--levels", "100", "--band", "1e-6"], 102)):
            out = tmp_path / "scan.csv"
            rc = main(["action", "scan", "spindle:0.07:0.2", "--m", "0.25",
                       "--out", str(out)] + extra)
            assert rc == 0
            assert "min action" in capsys.readouterr().out
            assert len(out.read_text().splitlines()) == 1 + rows

    @pytest.mark.parametrize("spec,m", [("sphere", "2"),
                                        ("ellipsoid:1.5", "0.25")])
    def test_min_action_lowest_tied_level(self, capsys, tmp_path, spec, m):
        # actions tie on every sphere level and in +-I pairs on the
        # ellipsoid; the report names the lowest I among the ties
        out = tmp_path / "scan.csv"
        assert main(["action", "scan", spec, "--m", m, "--levels", "100",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        acts = rows[:, 4]
        least = acts.min()
        tied = rows[acts - least <= 1e-9 * max(1.0, abs(least)), 0]
        assert tied.min() < 0.0 < tied.max()
        assert f"at I={tied.min():.6g}\n" in capsys.readouterr().out


class TestFlowTrace:
    def test_trace_csv(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main(["flow", "trace", "sphere", "--m", "1",
                   "--state", "1.2,0.3,0", "--horizon", "5",
                   "--n-out", "51", "--out", str(out)])
        assert rc == 0
        assert "pole_terminated=False" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "s,t,phi,theta,I_hat"
        assert len(lines) == 52
        I = [float(r.split(",")[4]) for r in lines[1:]]
        assert max(I) - min(I) < 1e-9


class TestCzCommands:
    def test_latitude_index(self, capsys):
        rc = main(["cz", "latitude", "sphere", "--m", "0.05"])
        assert rc == 0
        assert "cz index 3" in capsys.readouterr().out

    def test_report_holds(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["cz", "report", "sphere", "--m", "0.05",
                   "--levels", "9", "--rho-orbits", "2",
                   "--json-out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rep = json.loads(out.read_text())
        assert rep["verdict"] is True
        assert rep["lhs"] < rep["rhs"]

    def test_report_fails_at_large_m(self, capsys):
        rc = main(["cz", "report", "sphere", "--m", "2",
                   "--levels", "9", "--rho-orbits", "1"])
        assert rc == 2
        assert "fails" in capsys.readouterr().out


class TestHopfCommands:
    def test_verify(self, capsys):
        rc = main(["hopf", "verify", "--samples", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("[ok ]") == 4
        assert "FAIL" not in out

    def test_link_unlinked_circles(self, capsys, tmp_path):
        P = [1.0, 0, 0, 0]
        e1 = [0.0, 1, 0, 0]
        e2 = [0.0, 0, 1, 0]
        k1 = _knot_json(tmp_path, "k1.json", _circle4(P, e1, e2, 0.4))
        k2 = _knot_json(tmp_path, "k2.json",
                        _circle4([-1.0, 0, 0, 0], e1, e2, 0.4))
        assert main(["hopf", "link", k1, k2]) == 0
        assert "linking number 0" in capsys.readouterr().out

    def test_link_signs(self, capsys, tmp_path):
        # fibers of U -> e^{is} U through 1 and (1 + j) / sqrt(2) link +1
        # in either order; conjugation reverses the orientation of S^3, and
        # the sign with it
        s = np.linspace(0.0, 2.0 * np.pi, 513)
        circ = np.stack([np.cos(s), np.sin(s)] * 2, axis=1)
        fibers = [circ * [1, 1, 0, 0], circ * np.sqrt(0.5)]
        k1, k2, c1, c2 = (
            _knot_json(tmp_path, f"{name}.json", pts) for name, pts in
            [("k1", fibers[0]), ("k2", fibers[1]),
             ("c1", fibers[0] * [1, -1, -1, -1]),
             ("c2", fibers[1] * [1, -1, -1, -1])])
        for knots, lk in [((k1, k2), 1), ((k2, k1), 1), ((c1, c2), -1)]:
            assert main(["hopf", "link", *knots]) == 0
            assert capsys.readouterr().out == f"linking number {lk}\n"

    def test_lift_closed_latitude_double(self, capsys, tmp_path):
        csv = tmp_path / "path.csv"
        out = tmp_path / "lift.json"
        th = np.linspace(0.0, 4.0 * np.pi, 1601)
        rows = ["t,phi,theta"]
        rows += ["%.12g,%.12g,%.12g" % (np.pi / 4, np.pi / 2, v)
                 for v in th]
        csv.write_text("\n".join(rows) + "\n")
        rc = main(["hopf", "lift", str(csv), "--out", str(out)])
        assert rc == 0
        assert "closes after one traversal" in capsys.readouterr().out
        U = np.asarray(json.loads(out.read_text()))
        assert U.shape == (1601, 4)
        assert np.allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-9)

    def test_lift_open_path(self, capsys, tmp_path):
        csv = tmp_path / "open.csv"
        th = np.linspace(0.0, np.pi, 401)
        rows = ["t,phi,theta"]
        rows += ["%.12g,%.12g,%.12g" % (np.pi / 4, np.pi / 2, v)
                 for v in th]
        csv.write_text("\n".join(rows) + "\n")
        assert main(["hopf", "lift", str(csv)]) == 0
        assert "open path lifted" in capsys.readouterr().out

    def test_lift_rejects_a_nan_row(self, capsys, tmp_path):
        # the NaN row used to lift to "closes after two traversals" with
        # max residual nan
        csv = tmp_path / "nan.csv"
        th = np.linspace(0.0, 4.0 * np.pi, 1601)
        rows = ["t,phi,theta"]
        rows += ["%.12g,%.12g,%.12g" % (np.pi / 4, np.pi / 2, v) for v in th]
        rows[1 + 40] = "nan,%.12g,%.12g" % (np.pi / 2, th[40])
        csv.write_text("\n".join(rows) + "\n")
        assert main(["hopf", "lift", str(csv)]) == 1
        captured = capsys.readouterr()
        assert "frame 40 is not a finite" in captured.err
        assert captured.out == ""

    def test_link_rejects_a_nan_point(self, capsys, tmp_path):
        pts = _circle4([1.0, 0, 0, 0], [0.0, 1, 0, 0], [0.0, 0, 1, 0], 0.4)
        k1 = _knot_json(tmp_path, "k1.json", pts)
        pts[3, 0] = np.nan
        k2 = _knot_json(tmp_path, "k2.json", pts)
        assert main(["hopf", "link", k1, k2]) == 1
        assert "point 3 is not a finite" in capsys.readouterr().err

    def test_lift_missing_column(self, capsys, tmp_path):
        csv = tmp_path / "cols.csv"
        csv.write_text("t,phi\n0.5,0.1\n0.6,0.2\n")
        assert main(["hopf", "lift", str(csv)]) == 1
        assert "missing" in capsys.readouterr().err


class TestReproCommands:
    def test_ellipsoids_small(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["repro", "ellipsoids", "--ratios", "1,2",
                   "--m", "0.5", "--levels", "9", "--out", str(out)])
        assert rc == 0
        assert "verdict: all actions positive on 2" in \
            capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "ratio,m,n_levels,min_action,argmin_I,all_positive"
        assert len(lines) == 3
        assert all(r.endswith("True") for r in lines[1:])

    def test_noncon_witness(self, capsys, tmp_path):
        out = tmp_path / "witness.json"
        rc = main(["repro", "noncon", "--delta", "0.1", "--eps", "0.9",
                   "--json-out", str(out)])
        assert rc == 0
        assert "not_contact_witness" in capsys.readouterr().out
        rep = json.loads(out.read_text())
        assert rep["action"] < -0.5

    def test_bigm_profile(self, capsys, tmp_path):
        out = tmp_path / "spindle.json"
        rc = main(["repro", "bigm", "--target", "3", "--out", str(out)])
        assert rc == 0
        assert "verdict: True" in capsys.readouterr().out
        p = load_profile(str(out))
        assert validate(p).passed

    def test_bigm_unreachable_target(self, capsys):
        # cap radius below representable resolution is a numeric error
        assert main(["repro", "bigm", "--target", "1e9"]) == 1
        capsys.readouterr()


def _assert_defaults(parse):
    scan = parse(["action", "scan", "sphere", "--m", "1"])
    assert (scan.n_levels, scan.band, scan.out) == (33, 1e-3, None)
    trace = parse(["flow", "trace", "sphere", "--m", "1",
                   "--state", "1,0,0", "--horizon", "1"])
    assert (trace.rtol, trace.atol) == (1e-12, 1e-14)
    report = parse(["cz", "report", "sphere", "--m", "0.05"])
    assert (report.n_levels, report.json_out) == (33, None)
    ellipsoids = parse(["repro", "ellipsoids"])
    assert (ellipsoids.n_levels, ellipsoids.out) == (100, None)


class TestParserDefaults:
    def test_unset_flags_keep_defaults(self):
        _assert_defaults(build_parser().parse_args)


class TestSharedParser:
    """main parses with one parser per process, built on first use."""

    def test_main_builds_one_parser(self, monkeypatch, capsys):
        built = []

        def counting():
            built.append(None)
            return build_parser()
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            rcs = [main(argv) for argv in (
                ["hopf", "verify", "--samples", "50"], ["frobnicate"],
                ["repro", "noncon", "--delta", "0.1", "--eps", "0.9"],
                ["--help"])]
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert rcs == [0, 1, 0, 0]
        assert len(built) == 1

    def test_usage_error_then_valid_command(self, capsys, tmp_path):
        assert main(["action", "scan", "sphere", "--levels", "3"]) == 1
        assert "--m" in capsys.readouterr().err
        out = tmp_path / "scan.csv"
        assert main(["action", "scan", "sphere", "--m", "0.5",
                     "--levels", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 1 + 3 + 2

    def test_defaults_survive_non_default_flags(self, capsys, tmp_path):
        # flags set on one call leave nothing behind for the next
        for argv in (
                ["action", "scan", "sphere", "--m", "0.5", "--levels", "3",
                 "--band", "0.01", "--out", str(tmp_path / "scan.csv")],
                ["flow", "trace", "sphere", "--m", "1", "--state", "1,0.3,0",
                 "--horizon", "0.5", "--rtol", "1e-9", "--atol", "1e-10",
                 "--n-out", "5"],
                ["repro", "ellipsoids", "--ratios", "2", "--m", "0.5",
                 "--levels", "3", "--out", str(tmp_path / "e.csv")]):
            assert main(argv) == 0, argv
        capsys.readouterr()
        _assert_defaults(cli._parser().parse_args)
