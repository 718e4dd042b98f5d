"""CLI: exit codes, report determinism, CSV output."""

import json
import math

import pytest

from jetlag.cli import EX_IRREGULAR, EX_OK, EX_USAGE, EX_VERIFY_FAIL, run

from conftest import (
    corpus_config,
    nan_at_point_config,
    nan_lagrangian_config,
    non_finite_lattice_configs,
    quartic_config,
    scaled_flat_config,
    sphere_config,
)


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExitCodes:
    def test_analyze_regular(self, tmp_path, capsys):
        path = write_config(tmp_path, sphere_config())
        assert run(["analyze", "--config", path]) == EX_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["regularity"]["is_kronecker"] is True

    def test_analyze_quartic_irregular(self, tmp_path, capsys):
        path = write_config(tmp_path, quartic_config(count=8))
        assert run(["analyze", "--config", path]) == EX_IRREGULAR
        rep = json.loads(capsys.readouterr().out)
        assert rep["regularity"]["is_kronecker"] is False

    def test_analyze_fails_the_gate_on_a_nan_lagrangian(self, tmp_path, capsys):
        # the vertical Hessian is that of v1_1^2, but L is NaN at every sample
        path = write_config(tmp_path, nan_lagrangian_config())
        assert run(["analyze", "--config", path]) == EX_IRREGULAR
        rep = json.loads(capsys.readouterr().out)
        assert rep["regularity"]["is_kronecker"] is False
        assert rep["regularity"]["diagnostics"] == [
            f"sample {k}: L is not finite (nan)" for k in range(4)]
        assert "decomposition" not in rep

    @pytest.mark.parametrize("command", ["connection", "torsion", "curvature"])
    def test_point_commands_refuse_a_nan_lagrangian(self, tmp_path, capsys, command):
        path = write_config(tmp_path, nan_lagrangian_config())
        assert run([command, "--config", path, "--point", "t=0.1;x=0.5;v=0.3"]) \
            == EX_IRREGULAR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "Lagrangian is not block-regular; no canonical connection\n"

    def test_verify_fails_regularity_on_a_nan_lagrangian(self, tmp_path, capsys):
        # the gate fails and the checks behind it are skipped; every central
        # difference of L is still NaN
        path = write_config(tmp_path, nan_lagrangian_config())
        assert run(["verify", "--config", path]) == EX_VERIFY_FAIL
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not checks["kronecker_regularity"]["passed"]
        assert checks["kronecker_regularity"]["detail"].startswith(
            "sample 0: L is not finite (nan); ")
        assert not checks["downstream_invariants"]["passed"]
        assert "decomposition_roundtrip" not in checks
        assert checks["ad_fd_crosscheck"]["worst"] == "NaN"
        assert not checks["ad_fd_crosscheck"]["passed"]

    def test_connection_refuses_a_nan_spray(self, tmp_path, capsys):
        # L is finite on its samples, so it passes the gate, but at x1 = 0.5
        # every x-partial of L, and so S and G, is NaN
        path = write_config(tmp_path, nan_at_point_config())
        assert run(["connection", "--config", path, "--point", "t=0.1;x=0.5;v=0.3"]) \
            == EX_VERIFY_FAIL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: spray.S is not finite at the point\n"

    @pytest.mark.parametrize("command", ["torsion", "curvature"])
    def test_tables_refuse_a_nan_spray(self, tmp_path, capsys, command):
        # the point where connection refuses the spray: no tables either
        path = write_config(tmp_path, nan_at_point_config())
        assert run([command, "--config", path, "--point", "t=0.1;x=0.5;v=0.3"]) \
            == EX_VERIFY_FAIL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: spray.S is not finite at the point\n"

    @pytest.mark.parametrize("name", sorted(non_finite_lattice_configs()))
    def test_residual_refuses_a_non_finite_node(self, tmp_path, capsys, name):
        # a NaN potential gives NaN residuals, and an overflowing map
        # inf - inf differences; the first node in CSV order is named
        path = write_config(tmp_path, non_finite_lattice_configs()[name])
        assert run(["residual", "--config", path]) == EX_VERIFY_FAIL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: residual1 is not finite at node t1=-0.5, t2=-0.5\n"

    def test_unwritable_out_is_one_line(self, tmp_path, capsys):
        path = write_config(tmp_path, sphere_config())
        out = str(tmp_path / "missing" / "report.json")
        assert run(["analyze", "--config", path, "--out", out]) == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and err.count("\n") == 1
        assert out in err

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        # the rule of sampling.seed
        path = write_config(tmp_path, sphere_config())
        assert run(["analyze", "--config", path, "--seed", "-1"]) == EX_USAGE
        assert capsys.readouterr().err == "config error: --seed: must be >= 0\n"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["analyze", "--config", str(path)]) == EX_USAGE
        assert "config error" in capsys.readouterr().err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run(["analyze", "--config", str(path)]) == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not UTF-8: ") and err.count("\n") == 1

    def test_integer_too_long_to_convert(self, tmp_path, capsys):
        # a sampling.seed past Python's 4300-digit limit on int() of a string
        cfg = sphere_config()
        cfg["sampling"]["seed"] = "@seed@"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"@seed@"', "9" * 5001))
        assert run(["analyze", "--config", str(path)]) == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON: ") and err.count("\n") == 1
        assert "digits" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = sphere_config()
        cfg["surprise"] = 1
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path]) == EX_USAGE

    def test_bad_expression_diagnostic(self, tmp_path, capsys):
        cfg = sphere_config()
        cfg["lagrangian"]["g_entries"][0][0] = "1 + ("
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path]) == EX_USAGE
        assert "g_entries" in capsys.readouterr().err

    @pytest.mark.parametrize("expression, position", [
        ("v1_1^2" + "+x1" * 199, "1:301"),              # the sum's 101st level
        ("(" * 199 + "v1_1^2" + ")" * 199, "1:101"),  # inside the 100th '('
    ], ids=["sum_of_200_terms", "199_nested_parentheses"])
    def test_too_deep_expression_is_one_line(self, tmp_path, capsys, expression, position):
        path = write_config(tmp_path, {
            "dims": {"p": 1, "n": 1},
            "lagrangian": {"kind": "expression", "expression": expression},
            "temporal_metric": {"kind": "flat"},
        })
        assert run(["analyze", "--config", path]) == EX_USAGE
        assert capsys.readouterr().err == (f"config error: lagrangian.expression: {position}: "
                                           "expression nested more than 100 levels deep\n")

    def test_extremal_needs_p1(self, tmp_path, capsys):
        cfg = corpus_config("harmonic", 2, 2)
        cfg["solver"] = {"t_end": 1.0, "dt": 0.01,
                        "initial": {"t": 0.0, "x": [0, 0], "y": [1, 1]}}
        path = write_config(tmp_path, cfg)
        assert run(["extremal", "--config", path]) == EX_USAGE

    def test_extremal_needs_solver_block(self, tmp_path, capsys):
        cfg = sphere_config()
        del cfg["solver"]
        path = write_config(tmp_path, cfg)
        assert run(["extremal", "--config", path]) == EX_USAGE

    def test_extremal_abort_exits_1(self, tmp_path, capsys):
        # g = sqrt(1 - x1) vanishes at x1 = 1: the extremal stops before,
        # where the Euler-Lagrange residual stops vanishing
        cfg = {
            "dims": {"p": 1, "n": 1},
            "lagrangian": {"kind": "harmonic", "g_entries": [["sqrt(1 - x1)"]]},
            "temporal_metric": {"kind": "flat"},
            "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
            "solver": {"t_end": 2.0, "dt": 0.01,
                       "initial": {"t": 0.0, "x": [0.0], "y": [1.0]}},
        }
        path = write_config(tmp_path, cfg)
        assert run(["extremal", "--config", path]) == EX_VERIFY_FAIL
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "t,x1,y1"
        assert len(out.splitlines()) == 78  # header, t0 and 76 steps
        assert err == ("steps=76 max_el_residual=8.319e-02 aborted=(relative Euler-Lagrange "
                       "residual 1.417e-02 at t=0.76 exceeds 0.01 at step 77, t=0.77)\n")

    @pytest.mark.parametrize("dt", [0.75, 5.0])
    def test_extremal_needs_two_steps(self, tmp_path, capsys, dt):
        # round(1 / dt) < 2: one step across the whole span used to print
        # 2 rows, max_el_residual=nan and exit 0
        path = write_config(tmp_path, sphere_config(dt=dt))
        assert run(["extremal", "--config", path]) == EX_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error: solver.dt: ")

    def test_extremal_two_steps_run(self, tmp_path, capsys):
        path = write_config(tmp_path, sphere_config(dt=0.5))
        assert run(["extremal", "--config", path]) == EX_OK
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 4  # header, t0 and 2 steps
        assert err.startswith("steps=2 ")

    def test_extremal_stops_where_g_changes_signature(self, tmp_path, capsys):
        # g = x1 is positive at x0 = 0.3; the extremal runs into x1 = 0 near
        # t = 0.2, where RK4 would step across into g < 0 and go on; the
        # Euler-Lagrange residual stops it before
        cfg = {
            "dims": {"p": 1, "n": 1},
            "lagrangian": {"kind": "harmonic", "g_entries": [["x1"]]},
            "temporal_metric": {"kind": "flat"},
            "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
            "solver": {"t_end": 3.0, "dt": 0.01,
                       "initial": {"t": 0.0, "x": [0.3], "y": [-1.0]}},
        }
        path = write_config(tmp_path, cfg)
        assert run(["extremal", "--config", path]) == EX_VERIFY_FAIL
        out, err = capsys.readouterr()
        rows = out.splitlines()
        assert len(rows) == 17  # header, t0 and 15 steps
        assert all(float(row.split(",")[1]) > 0.0 for row in rows[1:])
        assert err == ("steps=15 max_el_residual=3.282e-02 aborted=(relative Euler-Lagrange "
                       "residual 1.057e-02 at t=0.15 exceeds 0.01 at step 16, t=0.16)\n")

    def test_extremal_stops_where_det_g_nears_zero(self, tmp_path, capsys):
        # g = x1^2 keeps its sign, but it vanishes at x1 = 0 near t = 0.15;
        # the run stops at the first sample whose relative Euler-Lagrange
        # residual exceeds EL_RESIDUAL_BOUND, not past it
        cfg = {
            "dims": {"p": 1, "n": 1},
            "lagrangian": {"kind": "harmonic", "g_entries": [["x1^2"]]},
            "temporal_metric": {"kind": "flat"},
            "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
            "solver": {"t_end": 3.0, "dt": 0.01,
                       "initial": {"t": 0.0, "x": [0.3], "y": [-1.0]}},
        }
        path = write_config(tmp_path, cfg)
        assert run(["extremal", "--config", path]) == EX_VERIFY_FAIL
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 12  # header, t0 and 10 steps
        assert err == ("steps=10 max_el_residual=1.684e-02 aborted=(relative Euler-Lagrange "
                       "residual 1.275e-02 at t=0.1 exceeds 0.01 at step 11, t=0.11)\n")

    def test_extremal_stops_at_the_first_non_finite_acceleration(self, tmp_path, capsys):
        # g = 1, but x'' = 2 x^3 blows up near t = 1: the Euler-Lagrange
        # residual stops the run before the acceleration overflows to inf,
        # which float arithmetic does not raise
        cfg = {
            "dims": {"p": 1, "n": 1},
            "lagrangian": {"kind": "expression", "expression": "v1_1^2 + x1^4"},
            "temporal_metric": {"kind": "flat"},
            "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
            "solver": {"t_end": 2.0, "dt": 0.01,
                       "initial": {"t": 0.0, "x": [1.0], "y": [1.0]}},
        }
        path = write_config(tmp_path, cfg)
        assert run(["extremal", "--config", path]) == EX_VERIFY_FAIL
        out, err = capsys.readouterr()
        rows = out.splitlines()
        assert len(rows) == 92  # header, t0 and 90 steps
        assert all(math.isfinite(float(e)) for row in rows[1:] for e in row.split(","))
        assert all(abs(float(row.split(",")[1])) <= 100.0 for row in rows[1:])
        assert err == ("steps=90 max_el_residual=5.035e+01 aborted=(relative Euler-Lagrange "
                       "residual 1.006e-02 at t=0.9 exceeds 0.01 at step 91, t=0.91)\n")

    @pytest.mark.parametrize("g", ["x1", "x1^2"])
    @pytest.mark.parametrize("dt", [0.1, 0.01, 0.001])
    def test_extremal_stops_before_det_g_vanishes_at_every_dt(self, tmp_path, capsys, g, dt):
        # the extremal from x0 = 0.3 reaches the zero of g = x1 or x1^2 near
        # t = 0.2; at each dt the residual gate stops it while x > 0
        cfg = {
            "dims": {"p": 1, "n": 1},
            "lagrangian": {"kind": "harmonic", "g_entries": [[g]]},
            "temporal_metric": {"kind": "flat"},
            "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
            "solver": {"t_end": 3.0, "dt": dt,
                       "initial": {"t": 0.0, "x": [0.3], "y": [-1.0]}},
        }
        path = write_config(tmp_path, cfg)
        assert run(["extremal", "--config", path]) == EX_VERIFY_FAIL
        out, err = capsys.readouterr()
        assert all(float(row.split(",")[1]) > 0.0 for row in out.splitlines()[1:])
        assert "aborted=(relative Euler-Lagrange residual " in err

    def test_extremal_of_a_scaled_flat_metric_runs_to_the_end(self, tmp_path, capsys):
        # g = e^(-x1) I is regular everywhere, whatever the size of |det g|
        path = write_config(tmp_path, scaled_flat_config())
        assert run(["extremal", "--config", path]) == EX_OK
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 152  # header, t0 and 150 steps
        assert err.startswith("steps=150 ") and "aborted" not in err

    def test_extremal_runs_through_a_zero_of_the_acceleration(self, tmp_path, capsys):
        # x'' = (t - 0.5)^2, which RK4 integrates exactly, vanishes at the
        # sample t = 0.5, and the bracket with it; the residual there is the
        # central difference's truncation error, and the gate weighs it
        # against the largest terms of the samples before
        cfg = {
            "dims": {"p": 1, "n": 1},
            "lagrangian": {"kind": "expression", "expression": "v1_1^2 + 2*(t1 - 0.5)^2*x1"},
            "temporal_metric": {"kind": "flat"},
            "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
            "solver": {"t_end": 1.0, "dt": 0.01,
                       "initial": {"t": 0.0, "x": [0.0], "y": [0.0]}},
        }
        path = write_config(tmp_path, cfg)
        assert run(["extremal", "--config", path]) == EX_OK
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 102  # header, t0 and 100 steps
        assert err == "steps=100 max_el_residual=6.667e-05\n"

    def test_extremal_degeneracy_names_the_step(self, tmp_path, capsys):
        # g = x1^2 vanishes at the initial state x1 = 0: the spray's own
        # factorization of g raises, and the reason still names step and t
        cfg = {
            "dims": {"p": 1, "n": 1},
            "lagrangian": {"kind": "harmonic", "g_entries": [["x1^2"]]},
            "temporal_metric": {"kind": "flat"},
            "sampling": {"box": [-1.0, 1.0], "count": 4, "seed": 0},
            "solver": {"t_end": 1.0, "dt": 0.01,
                       "initial": {"t": 0.0, "x": [0.0], "y": [-1.0]}},
        }
        path = write_config(tmp_path, cfg)
        assert run(["extremal", "--config", path]) == EX_VERIFY_FAIL
        out, err = capsys.readouterr()
        assert out == "t,x1,y1\n0,0,-1\n"
        assert err == ("steps=0 max_el_residual=nan aborted=(DegeneracyError: "
                       "degenerate metric (det=0.000e+00) at step 1, t=0)\n")

    @pytest.mark.parametrize("expression, box, x, position", [
        ("exp(x1^3)*v1_1^2", [-1.0, 1.0], "10", "1:1"),
        ("v1_1^2*log(x1)", [[-1.0, 1.0], [2.0, 3.0], [-1.0, 1.0]], "-1", "1:8"),
    ], ids=["overflow", "log_domain"])
    def test_evaluation_error_is_one_line(self, tmp_path, capsys, expression, box, x, position):
        cfg = {
            "dims": {"p": 1, "n": 1},
            "lagrangian": {"kind": "expression", "expression": expression},
            "temporal_metric": {"kind": "flat"},
            "sampling": {"box": box, "count": 4, "seed": 0},
        }
        path = write_config(tmp_path, cfg)
        code = run(["connection", "--config", path, "--point", f"t=0;x={x};v=1"])
        out, err = capsys.readouterr()
        assert code == EX_VERIFY_FAIL
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: {position}: ") and expression in err

    def test_connection_irregular_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, quartic_config(count=8))
        code = run(["connection", "--config", path,
                    "--point", "t=0,0;x=0,0;v=1,0,0,1"])
        assert code == EX_IRREGULAR

    def test_verify_pass_and_fail(self, tmp_path, capsys):
        good = write_config(tmp_path, sphere_config(), "good.json")
        assert run(["verify", "--config", good]) == EX_OK
        capsys.readouterr()
        bad = write_config(tmp_path, quartic_config(count=8), "bad.json")
        assert run(["verify", "--config", bad]) == EX_VERIFY_FAIL
        err = capsys.readouterr().err
        assert "kronecker_regularity" in err

    @pytest.mark.parametrize("edits, reason", [
        pytest.param({"solver.t_end": "NaN"}, "NaN is not a number", id="nan"),
        pytest.param({"solver.t_end": "Infinity"}, "Infinity is not a number", id="inf"),
        # json parses an overflowing literal as inf without calling parse_constant
        pytest.param({"solver.t_end": "1e999"}, "solver.t_end: must be finite",
                     id="overflow_t_end"),
        pytest.param({"solver.t_end": "1e300", "solver.dt": "1e-10"},
                     "solver.dt: gives a step count that is not finite", id="overflow_steps"),
        pytest.param({"tolerances.regularity": "1e999"}, "tolerances.regularity: must be finite",
                     id="overflow_tolerance"),
        pytest.param({"sampling.box": "[-1e999, 1]"}, "sampling.box[0]: must be finite",
                     id="overflow_flat_box"),
        pytest.param({"sampling.box": "[false, true]"}, "sampling.box[0]: expected a number",
                     id="bool_flat_box"),
    ])
    def test_non_finite_config_number_rejected(self, tmp_path, capsys, edits, reason):
        # each edit's JSON text is spliced into the file as written, so the
        # parser sees the literal
        cfg = sphere_config()
        for k, dotted in enumerate(edits):
            *parents, key = dotted.split(".")
            node = cfg
            for name in parents:
                node = node.setdefault(name, {})
            node[key] = f"@{k}@"
        text = json.dumps(cfg)
        for k, literal in enumerate(edits.values()):
            text = text.replace(f'"@{k}@"', literal)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run(["extremal", "--config", str(path)]) == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert reason in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_point_rejected(self, tmp_path, capsys, value):
        path = write_config(tmp_path, sphere_config())
        code = run(["connection", "--config", path,
                    "--point", f"t=0;x={value},0.2;v=0.4,0.7"])
        assert code == EX_USAGE
        assert "must be finite" in capsys.readouterr().err

    def test_bad_point_argument(self, tmp_path, capsys):
        path = write_config(tmp_path, sphere_config())
        assert run(["connection", "--config", path, "--point", "t=0;x=1"]) == EX_USAGE

    def test_repeated_point_group_rejected(self, tmp_path, capsys):
        # a second t= group must not silently replace the first
        path = write_config(tmp_path, sphere_config())
        code = run(["connection", "--config", path, "--point", "t=0;t=5;x=0.1,0.2;v=0.3,0.4"])
        assert code == EX_USAGE
        assert capsys.readouterr().err == "config error: --point group 't' is given twice\n"

    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["connection", "--config", "cfg.json"],
        ["frobnicate", "--config", "cfg.json"],
    ], ids=["missing_config", "missing_point", "unknown_command"])
    def test_argument_errors_exit_64(self, argv, capsys):
        # argparse's own exit code would be 2, the code of an irregular Lagrangian
        assert run(argv) == EX_USAGE
        assert "usage: jetlag" in capsys.readouterr().err

    def test_json_is_an_unknown_option(self, tmp_path, capsys):
        # reports are always JSON; --json is refused like any unknown option
        path = write_config(tmp_path, sphere_config())
        assert run(["analyze", "--config", path, "--json"]) == EX_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if "error" in line] == [
            "jetlag: error: unrecognized arguments: --json"]

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        assert run([flag]) == EX_OK
        assert "jetlag" in capsys.readouterr().out

    def test_asymmetric_g_text_warns_and_passes(self, tmp_path, capsys, recwarn):
        cfg = sphere_config()
        cfg["lagrangian"]["g_entries"] = [["1", "0.1000000001"],
                                          ["0.1", "sin(x1)^2 + 1"]]
        path = write_config(tmp_path, cfg)
        assert run(["verify", "--config", path]) == EX_OK
        assert any("asymmetric" in str(w.message) for w in recwarn.list)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        path = write_config(tmp_path, sphere_config())
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run(["verify", "--config", path, "--out", out1]) == EX_OK
        assert run(["verify", "--config", path, "--out", out2]) == EX_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_changes_hashless_fields_only(self, tmp_path):
        path = write_config(tmp_path, sphere_config())
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(["analyze", "--config", path, "--out", out1])
        run(["analyze", "--config", path, "--seed", "9", "--out", out2])
        rep1 = json.loads((tmp_path / "a.json").read_text())
        rep2 = json.loads((tmp_path / "b.json").read_text())
        assert rep1["config_hash"] == rep2["config_hash"]
        assert rep1["seed"] != rep2["seed"]

    def test_17_digit_floats(self, tmp_path):
        path = write_config(tmp_path, sphere_config())
        out = str(tmp_path / "a.json")
        run(["analyze", "--config", path, "--out", out])
        text = (tmp_path / "a.json").read_text()
        value = json.loads(text)["regularity"]["samples"][0]["x"][0]
        assert format(value, ".17g") in text


class TestCsv:
    def test_extremal_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, sphere_config(dt=0.01))
        assert run(["extremal", "--config", path]) == EX_OK
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "t,x1,x2,y1,y2"
        assert len(lines) == 102  # header + 101 states
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, math.pi / 2, 0.0, 0.0, 1.0]
        assert "max_el_residual" in captured.err

    def test_residual_csv(self, tmp_path, capsys):
        cfg = corpus_config("harmonic", 2, 1)
        cfg["lagrangian"]["g_entries"] = [["1"]]
        cfg["grid"] = {"shape": [7, 7], "box": [[0, 1], [0, 1]],
                       "map": ["t1 + 2*t2"]}
        path = write_config(tmp_path, cfg)
        assert run(["residual", "--config", path]) == EX_OK
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "t1,t2,x1,residual1"
        assert len(lines) == 1 + 25  # 5x5 interior
        worst = max(abs(float(line.split(",")[-1])) for line in lines[1:])
        assert worst <= 1e-12
        assert "max_norm" in captured.err

    def test_residual_needs_map(self, tmp_path, capsys):
        cfg = corpus_config("harmonic", 2, 1)
        cfg["grid"] = {"shape": [7, 7], "box": [[0, 1], [0, 1]]}
        path = write_config(tmp_path, cfg)
        assert run(["residual", "--config", path]) == EX_USAGE


class TestTableCommands:
    def test_torsion_and_curvature_reports(self, tmp_path, capsys):
        path = write_config(tmp_path, sphere_config())
        point = "t=0;x=0.9,0.2;v=0.4,0.7"
        assert run(["torsion", "--config", path, "--point", point]) == EX_OK
        tor = json.loads(capsys.readouterr().out)
        assert set(tor["cartan"]) == {"tt_v", "mt_m", "mt_v", "mm_m", "mm_v",
                                      "vt_v", "vm_m", "vm_v", "vv_v"}
        assert tor["cartan_zero_audit"]["passed"] is True
        assert run(["curvature", "--config", path, "--point", point]) == EX_OK
        cur = json.loads(capsys.readouterr().out)
        # frozen sphere entry in the mm_m family (defining index order)
        key = "0,1,1,0"
        assert cur["cartan"]["mm_m"]["entries"][key] == pytest.approx(
            math.sin(0.9) ** 2, abs=1e-9)
        assert cur["berwald"]["mm_m"]["entries"][key] == pytest.approx(
            math.sin(0.9) ** 2, abs=1e-9)

    def test_berwald_audit_skipped_for_time_dependent_g(self, tmp_path, capsys):
        cfg = corpus_config("non_autonomous", 2, 2)
        path = write_config(tmp_path, cfg)
        point = "t=0.1,0.2;x=0.3,0.4;v=0.5,0.1,-0.2,0.3"
        assert run(["torsion", "--config", path, "--point", point]) == EX_OK
        rep = json.loads(capsys.readouterr().out)
        assert "skipped" in rep["berwald_zero_audit"]
        assert rep["cartan_zero_audit"]["passed"] is True

    @pytest.mark.parametrize("command", ("torsion", "curvature"))
    @pytest.mark.parametrize("kind, p, n, point, audited", [
        pytest.param("autonomous", 3, 2, "t=0.1,0.2,0.3;x=0.3,0.4;v=0.5,0.1,-0.2,0.3,0.2,-0.1",
                     True, id="autonomous-p3-n2"),
        pytest.param("non_autonomous", 2, 3, "t=0.1,0.2;x=0.3,0.4,-0.2;v=0.5,0.1,-0.2,0.3,0.2,-0.1",
                     False, id="non_autonomous-p2-n3"),
    ])
    def test_one_table_of_each_kind_per_pack(self, tmp_path, capsys, monkeypatch,
                                             command, kind, p, n, point, audited):
        # the zero audit reads the tables the report prints; the torsion
        # command builds no curvature table for a pack it does not audit
        from jetlag import cli, curvature

        path = write_config(tmp_path, corpus_config(kind, p, n, count=4))
        built = {"torsion": [], "curvature": []}
        torsion_table, curvature_table = cli.torsion_table, cli.curvature_table
        kinds = {}

        def counted_torsion(pack, pt):
            built["torsion"].append(pack.kind)
            tor = torsion_table(pack, pt)
            kinds[id(tor)] = pack.kind
            return tor

        def counted_curvature(tor):
            built["curvature"].append(kinds[id(tor)])
            return curvature_table(tor)

        for module in (cli, curvature):
            monkeypatch.setattr(module, "torsion_table", counted_torsion)
            monkeypatch.setattr(module, "curvature_table", counted_curvature)
        assert run([command, "--config", path, "--point", point]) == EX_OK
        capsys.readouterr()
        assert built["torsion"] == ["cartan", "berwald"]
        berwald = ["berwald"] if command == "curvature" or audited else []
        assert built["curvature"] == ["cartan"] + berwald

    def test_connection_decomposes_once(self, tmp_path, capsys, monkeypatch):
        # p >= 2: the spray reuses the decomposition built at the instance's
        # points.  The reference run hands it the jet of a decomposition
        # built again at the default points; the report must not change.
        from jetlag import cli, regularity

        path = write_config(tmp_path, corpus_config("autonomous", 2, 2))
        argv = ["connection", "--config", path, "--point", "t=0.1,0.2;x=0.3,0.4;v=0.5,0.1,-0.2,0.3"]
        calls = []
        decompose = regularity.electrodynamics_decompose

        def counted(*args, **kwargs):
            calls.append(kwargs.get("base_points"))
            return decompose(*args, **kwargs)

        for module in (cli, regularity):
            monkeypatch.setattr(module, "electrodynamics_decompose", counted)
        assert run(argv) == EX_OK
        report = capsys.readouterr().out
        assert len(calls) == 1 and calls[0] is not None

        spray = cli.spray_entities
        monkeypatch.setattr(cli, "spray_entities", lambda L, h, point, jet: spray(
            L, h, point, regularity.electrodynamics_decompose(L, h).jet_at(point)))
        assert run(argv) == EX_OK
        assert capsys.readouterr().out == report
        assert len(calls) == 1 + 2

    def test_connection_report_blocks(self, tmp_path, capsys):
        cfg = corpus_config("autonomous", 2, 2)
        path = write_config(tmp_path, cfg)
        point = "t=0.1,0.2;x=0.3,0.4;v=0.5,0.1,-0.2,0.3"
        assert run(["connection", "--config", path, "--point", point]) == EX_OK
        rep = json.loads(capsys.readouterr().out)
        g_block = rep["cartan"]["G_block"]
        c_block = rep["cartan"]["C_block"]
        flat = [abs(v) for plane in g_block for row in plane for v in row]
        assert max(flat) <= 1e-10  # autonomous: G-block vanishes
        flat_c = [abs(v) for cube in c_block for plane in cube for row in plane for v in row]
        assert max(flat_c) <= 1e-12

    def test_spray_h_temporal_is_half_of_m(self, tmp_path, capsys):
        # H_temporal is built as 1/2 M; h depends on both times here
        path = write_config(tmp_path, corpus_config("non_autonomous", 2, 2))
        point = "t=0.1,0.2;x=0.3,0.4;v=0.5,0.1,-0.2,0.3"
        assert run(["connection", "--config", path, "--point", point]) == EX_OK
        rep = json.loads(capsys.readouterr().out)
        m = rep["nonlinear"]["M"]["entries"]
        h_temporal = rep["spray"]["H_temporal"]["entries"]
        assert set(h_temporal) == set(m)
        assert all(h_temporal[key] == 0.5 * m[key] for key in m)
        assert sum(1 for value in m.values() if value != 0.0) >= 4
