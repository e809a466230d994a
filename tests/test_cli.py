import argparse
import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from kerrcubic import cli
from kerrcubic import dynamics as dyn
from kerrcubic import experiments as ex
from kerrcubic import fock as fk
from kerrcubic import states as st


def run(args):
    return cli.dispatch(list(args))


def _forbidden(*args, **kwargs):
    raise AssertionError("a gate ran")


class TestDispatchBasics:
    def test_unknown_subcommand(self, capsys):
        assert run(["definitely-not-a-command"]) == 2

    def test_no_subcommand_prints_usage(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_error_json_on_stderr(self, tmp_path, capsys):
        code = run(["soliton-fom", "--out", str(tmp_path)])  # neither table nor CSV
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"

    def test_unsupported_configuration_exit_code(self, tmp_path, capsys):
        # trotter with loss is an unsupported combination
        code = run(["trotter", "--out", str(tmp_path), "--lambda-db", "6",
                    "--alpha", "3", "--fock", "64", "--chi-over-kappa", "1e-4",
                    "--values", "2", "--input", "vacuum"])
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "UnsupportedConfigurationError"

    def test_contract_violation_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def violate(cfg, psi):
            raise fk.ContractViolationError("state norm 1.1 deviates from 1 beyond 1e-10")

        monkeypatch.setattr(cli, "cubic_gate", violate)
        code = run(["gate", "--out", str(tmp_path), "--lambda-db", "6", "--alpha", "3",
                    "--fock", "32", "--input", "vacuum"])
        assert code == 3
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ContractViolationError"

    def test_zero_chi_over_kappa_is_configuration_error(self, tmp_path, capsys):
        code = run(["gate", "--out", str(tmp_path), "--lambda-db", "6", "--alpha", "3",
                    "--fock", "32", "--chi-over-kappa", "0", "--input", "vacuum"])
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert "chi_over_kappa" in doc["error"]["message"]


class TestFailFast:
    @pytest.mark.parametrize("argv", [
        ["state", "--input", "squeezed:inf", "--fock", "32"],
        ["gate", "--input", "squeezed:inf", "--lambda-db", "6", "--alpha", "3", "--fock", "32"],
        ["state", "--input", "gkp:z+:1e300", "--fock", "32"],
        ["state", "--input", "gkp:z+:1e-9", "--fock", "32"],
        # a sweep parses its input before any point runs, not once per row
        ["sweep-lambda", "--input", "bogus", "--values", "5,7.5", "--fock", "32"],
    ])
    def test_bad_state_parameters_are_configuration_errors(self, tmp_path, capsys, argv):
        assert run([*argv, "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ValueError"
        kind = "unrecognized" if "bogus" in argv else "bad"
        assert f"{kind} state selector" in doc["error"]["message"]
        assert not list(tmp_path.iterdir())

    def test_unread_flag_rejected(self, tmp_path, capsys):
        assert run(["soliton-fom", "--builtin-table", "--gamma", "5",
                    "--out", str(tmp_path)]) == 2
        assert "--gamma" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unread_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha = 3\nbracket = 8,60\n")
        assert run(["gate", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert ":2:" in doc["error"]["message"] and "'bracket'" in doc["error"]["message"]

    @pytest.mark.parametrize("fock", ["0", "-3"])
    def test_fock_below_two_rejected(self, tmp_path, capsys, fock):
        assert run(["state", "--fock", fock, "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert "fock must be an integer >= 2" in doc["error"]["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["sweep-noise", "--lambda-db-values", ","],
                                      ["trotter", "--values", ","],
                                      ["optimize-alpha", "--bracket", ","]])
    def test_empty_list_rejected_before_any_gate(self, tmp_path, capsys, monkeypatch, argv):
        for module, name in ((cli, "cubic_gate"), (ex, "cubic_gate")):
            monkeypatch.setattr(module, name, _forbidden)
        assert run([*argv, "--fock", "32", "--input", "vacuum", "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert "non-empty" in doc["error"]["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [["sweep-lambda", "--alpha-mode", "cube", "--values"],
                                      ["sweep-noise", "--lambda-db-values"],
                                      ["optimize-alpha", "--bracket"]])
    def test_nonfinite_list_entry_rejected_before_any_gate(self, tmp_path, capsys, monkeypatch,
                                                           argv, bad):
        for module, name in ((cli, "cubic_gate"), (ex, "cubic_gate")):
            monkeypatch.setattr(module, name, _forbidden)
        out = tmp_path / "out"
        assert run([*argv, f"5,{bad}", "--fock", "32", "--input", "vacuum",
                    "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert f"must be a non-empty list of comma-separated finite numbers, got '5,{bad}'" \
            in doc["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["7000", "-7000"])
    @pytest.mark.parametrize("argv", [["sweep-lambda", "--alpha-mode", "cube", "--values"],
                                      ["sweep-noise", "--lambda-db-values"]])
    def test_squeezing_without_a_gate_rejected_before_any_gate(self, tmp_path, capsys,
                                                               monkeypatch, argv, bad):
        # 10**(7000/20) overflows and 10**(-7000/20) is 0: a configuration error, exit 2
        for module, name in ((cli, "cubic_gate"), (ex, "cubic_gate"), (ex, "parse_state")):
            monkeypatch.setattr(module, name, _forbidden)
        out = tmp_path / "out"
        assert run([*argv, f"5,{bad}", "--fock", "32", "--input", "vacuum",
                    "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ValueError"
        assert f"lam_db entry {float(bad)} gives no valid gate" in doc["error"]["message"]
        assert not out.exists()

    def test_base_offset_on_swept_noise_channel_rejected(self, tmp_path, capsys, monkeypatch):
        # the rows set the swept channel to +-value, so a base offset there would
        # move E_int alone; an offset on another channel stays allowed
        monkeypatch.setattr(ex, "cubic_gate", _forbidden)
        assert run(["sweep-noise", "--noise", "ddelta-rel", "--values", "1e-6",
                    "--lambda-db-values", "8,10", "--fock", "64", "--input", "squeezed:0.5",
                    "--ddelta-rel=1e-5", "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert "--ddelta-rel" in doc["error"]["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["sweep-lambda", "--values", "5,6", "--chi-over-kappa", "1e-2", "--alpha-mode", "cube"],
        ["sweep-noise", "--noise", "ddelta-rel", "--values", "1e-6", "--lambda-db-values", "8"],
    ])
    def test_unsupported_trotter_combination_rejected_before_any_gate(
            self, tmp_path, capsys, monkeypatch, argv):
        # the base configuration decides it, so no row is run and recorded as failed
        monkeypatch.setattr(ex, "cubic_gate", _forbidden)
        out = tmp_path / "o"
        assert run([*argv, "--trotter", "2", "--fock", "32", "--input", "squeezed:0.5",
                    "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "UnsupportedConfigurationError"
        assert not out.exists()

    def test_two_table_sources_rejected_before_reading(self, tmp_path, capsys):
        # a file that is read would fail as an OSError (exit 3)
        out = tmp_path / "o"
        assert run(["soliton-fom", "--builtin-table", "--materials", str(tmp_path / "no.csv"),
                    "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert "not both" in doc["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_flag_below_one_rejected(self, tmp_path, capsys, monkeypatch, workers):
        def forbidden(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(cli, "noise_sweep", forbidden)
        assert run(["sweep-noise", "--workers", workers, "--fock", "32", "--input", "vacuum",
                    "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert "workers" in doc["error"]["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("workers", ["0", "-3", "1.5", "two"])
    def test_workers_config_value_rejected(self, tmp_path, capsys, monkeypatch, workers):
        def forbidden(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(cli, "run_sweep", forbidden)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"fock = 32\ninput = vacuum\nworkers = {workers}\n")
        out = tmp_path / "o"
        assert run(["sweep-lambda", "--config", str(cfgfile), "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert "workers" in doc["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep-lambda", "sweep-noise"])
    @pytest.mark.parametrize("coeff", ["-1", "nan"])
    def test_bad_alpha_coeff_rejected(self, tmp_path, capsys, monkeypatch, command, coeff):
        # nan fails the value rule; -1 is a number, and SweepSpec rejects its range
        error, message = {"-1": ("ValueError", "alpha_coeff must be finite and > 0"),
                          "nan": ("ConfigError", "alpha_coeff must be a finite number")}[coeff]

        monkeypatch.setattr(ex, "cubic_gate", _forbidden)
        assert run([command, "--alpha-mode", "cube", "--alpha-coeff", coeff, "--fock", "32",
                    "--input", "vacuum", "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == error
        assert message in doc["error"]["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("line", ["wigner_points = 0", "wigner_points = -4",
                                      "wigner_points = 2.5", "wigner_span = nan",
                                      "wigner_span = inf", "wigner_span = -2",
                                      "wigner_span = 0"])
    def test_wigner_grid_values_rejected(self, tmp_path, capsys, monkeypatch, line):
        def forbidden(*args, **kwargs):
            raise AssertionError("the state was generated")

        monkeypatch.setattr(cli, "generate_cubic_state", forbidden)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"fock = 64\nchi_over_kappa = 1e-2\n{line}\n")
        out = tmp_path / "o"
        assert run(["state-gen", "--config", str(cfgfile), "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert line.split(" = ")[0] in doc["error"]["message"]
        assert not out.exists()


class TestConfigFile:
    def test_unknown_key_reports_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha = 10\nnot_a_key = 3\n")
        code = run(["gate", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 2
        msg = json.loads(capsys.readouterr().err.strip())["error"]["message"]
        assert ":2:" in msg and "not_a_key" in msg

    def test_key_set_twice_names_both_lines(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("fock = 32\ninput = vacuum\nfock = 48\n")
        out = tmp_path / "o"
        assert run(["gate", "--config", str(cfgfile), "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == {"type": "ConfigError", "message":
                                f"{cfgfile}:3: key 'fock' is set again; line 1 set it first"}
        assert not out.exists()

    def test_value_may_hold_an_equals_sign(self, tmp_path):
        # the first '=' ends the key; `out`, read by every subcommand, is a path
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"out = {tmp_path / 'a=b'}\n")
        assert run(["soliton-fom", "--builtin-table", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "a=b" / "soliton_fom.csv").exists()

    def test_bad_line_shape(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha 10\n")
        assert run(["gate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2

    def test_comments_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# a comment\nlambda_db = 6\nalpha = 3\ngamma = 0.1\nfock = 48\n"
            "input = vacuum\n"
        )
        out = tmp_path / "o"
        assert run(["gate", "--config", str(cfgfile), "--out", str(out),
                    "--alpha", "4"]) == 0
        sidecar = json.loads((out / "gate_result.config.json").read_text())
        assert sidecar["resolved_config"]["gate_config"]["alpha"] == 4.0
        assert sidecar["schema_version"] == cli.SCHEMA_VERSION

    def test_switch_reads_true_or_false(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("input = vacuum\nfock = 16\nwigner = yes\n")
        assert run(["state", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        msg = json.loads(capsys.readouterr().err.strip())["error"]["message"]
        assert ":3:" in msg and "wigner" in msg
        cfgfile.write_text("input = vacuum\nfock = 16\nwigner = false\n")
        assert run(["state", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "state_amplitudes.csv").exists()
        assert not (tmp_path / "state_wigner.csv").exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KERRCUBIC_OUT", str(tmp_path / "envout"))
        assert run(["soliton-fom", "--builtin-table"]) == 0
        assert (tmp_path / "envout" / "soliton_fom.csv").exists()


class TestSolitonFom:
    def test_builtin_table_values(self, tmp_path):
        assert run(["soliton-fom", "--builtin-table", "--out", str(tmp_path)]) == 0
        header, rows = cli.read_csv(tmp_path / "soliton_fom.csv")
        assert header[-1] == "chi_over_kappa"
        vals = {r[0]: float(r[-1]) for r in rows}
        assert abs(vals["silicon-on-insulator"] - 3.456e-6) < 0.01e-6
        assert abs(vals["algaas-on-insulator"] - 2.254e-5) < 0.01e-5
        assert abs(vals["si3n4"] - 5.069e-6) < 0.01e-6

    def test_materials_csv_roundtrip(self, tmp_path):
        src = tmp_path / "mats.csv"
        cli.write_csv(src, ["name", "gamma_nl", "alpha_att_dB_per_m",
                            "wavelength_m", "t_fwhm_s"],
                      [("custom", 100.0, 10.0, 1.5e-6, 1e-13)])
        assert run(["soliton-fom", "--materials", str(src), "--out", str(tmp_path)]) == 0
        _, rows = cli.read_csv(tmp_path / "soliton_fom.csv")
        assert rows[0][0] == "custom"
        assert float(rows[0][-1]) > 0

    def test_materials_csv_bad_header(self, tmp_path):
        src = tmp_path / "mats.csv"
        src.write_text("a,b\n1,2\n")
        assert run(["soliton-fom", "--materials", str(src), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text, message", [
        ("", "got [] and rows of [] cells"),
        ("name,gamma_nl,alpha_att_dB_per_m,wavelength_m,t_fwhm_s\n",
         "one data row at least, each of 5 cells, got ['name', 'gamma_nl', "
         "'alpha_att_dB_per_m', 'wavelength_m', 't_fwhm_s'] and rows of [] cells"),
        ("name,gamma_nl,alpha_att_dB_per_m,wavelength_m,t_fwhm_s\ncustom,100,10\n",
         "rows of [3] cells"),
        ("name,gamma_nl,alpha_att_dB_per_m,wavelength_m,t_fwhm_s\ncustom,abc,10,1.5e-6,1e-13\n",
         "data row 1: gamma_nl must be finite and > 0, got 'abc'"),
        ("name,gamma_nl,alpha_att_dB_per_m,wavelength_m,t_fwhm_s\ncustom,inf,10,1.5e-6,1e-13\n",
         "data row 1: gamma_nl must be finite and > 0, got 'inf'"),
        ("name,gamma_nl,alpha_att_dB_per_m,wavelength_m,t_fwhm_s\n"
         "a,100,10,1.5e-6,1e-13\nb,100,-1,1.5e-6,1e-13\n",
         "data row 2: alpha_att_dB_per_m must be finite and > 0, got '-1'"),
    ])
    def test_materials_csv_empty_or_short_row(self, tmp_path, capsys, text, message):
        src = tmp_path / "mats.csv"
        src.write_text(text)
        out = tmp_path / "o"
        assert run(["soliton-fom", "--materials", str(src), "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert doc["error"]["message"].startswith(f"{src}: ")
        assert message in doc["error"]["message"]
        assert not (out / "soliton_fom.csv").exists()


class TestHeffExpand:
    def test_counterterm_table(self, tmp_path):
        db = 20.0 * math.log10(2.0)
        assert run(["heff-expand", "--lambda-db", str(db), "--alpha", "8",
                    "--out", str(tmp_path)]) == 0
        header, rows = cli.read_csv(tmp_path / "heff_expand.csv")
        assert header == ["monomial", "coefficient-real", "coefficient-imag"]
        table = {r[0]: complex(float(r[1]), float(r[2])) for r in rows}
        # counter-terms cancel the pure x and x^2 monomials identically
        assert "x^1 p^0" not in table
        assert "x^2 p^0" not in table
        assert abs(table["x^3 p^0"].real + 2.0**3 * 8.0 / math.sqrt(2.0)) < 1e-9

    def test_explicit_detuning_and_drive(self, tmp_path):
        db = 20.0 * math.log10(2.0)
        assert run(["heff-expand", "--lambda-db", str(db), "--alpha", "8",
                    "--delta", "0.3", "--beta", "0.1",
                    "--out", str(tmp_path)]) == 0
        _, rows = cli.read_csv(tmp_path / "heff_expand.csv")
        table = {r[0]: float(r[1]) for r in rows}
        # x^2 coefficient: (lam^2/2)(-3 chi a^2 + chi + delta)
        want = 0.5 * 4.0 * (-3 * 64.0 + 1.0 + 0.3)
        assert abs(table["x^2 p^0"] - want) < 1e-9


class TestStateAndGate:
    def test_state_amplitudes(self, tmp_path):
        assert run(["state", "--input", "fock:2", "--fock", "16",
                    "--out", str(tmp_path)]) == 0
        _, rows = cli.read_csv(tmp_path / "state_amplitudes.csv")
        amps = {int(r[0]): complex(float(r[1]), float(r[2])) for r in rows}
        assert abs(amps[2] - 1.0) < 1e-12
        assert len(rows) == 16

    def test_state_wigner_grid(self, tmp_path):
        assert run(["state", "--input", "vacuum", "--fock", "24", "--wigner",
                    "--out", str(tmp_path)]) == 0
        header, rows = cli.read_csv(tmp_path / "state_wigner.csv")
        assert header == ["x", "p", "w"]
        center = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert abs(float(center[0][2]) - 1.0 / math.pi) < 1e-8

    def test_gate_json(self, tmp_path):
        assert run(["gate", "--lambda-db", "6", "--alpha", "3", "--gamma", "0.05",
                    "--fock", "64", "--input", "vacuum", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "gate_result.json").read_text())
        assert 0.0 <= doc["error"] <= 1.0
        assert doc["tau"] > 0

    def test_optimize_alpha_json(self, tmp_path):
        assert run(["optimize-alpha", "--lambda-db", "8", "--gamma", "0.1",
                    "--fock", "96", "--input", "squeezed:0.5",
                    "--bracket", "8,60", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "optimize_alpha.json").read_text())
        assert 8.0 <= doc["alpha"] <= 60.0
        assert doc["kind"] == "unimodal" and doc["unimodal"] is True
        assert 7 < doc["evaluations"] <= 16

    def test_sweep_lambda_csv(self, tmp_path):
        assert run(["sweep-lambda", "--values", "8,10", "--gamma", "0.1",
                    "--fock", "64", "--input", "squeezed:0.5",
                    "--alpha-mode", "cube", "--out", str(tmp_path)]) == 0
        header, rows = cli.read_csv(tmp_path / "sweep_lambda.csv")
        assert len(rows) == 2
        assert float(rows[0][header.index("error")]) > float(rows[1][header.index("error")])

    def test_sweep_noise_csv(self, tmp_path):
        assert run(["sweep-noise", "--noise", "dtheta", "--values", "1e-4",
                    "--lambda-db-values", "10", "--gamma", "0.1", "--fock", "64",
                    "--input", "squeezed:0.5", "--out", str(tmp_path)]) == 0
        header, rows = cli.read_csv(tmp_path / "sweep_noise.csv")
        assert "excess" in header

    def test_unset_options_take_their_defaults(self, tmp_path):
        # sweep-noise reads every gate option; its defaults are the recipes' base
        assert run(["sweep-noise", "--input", "vacuum", "--out", str(tmp_path)]) == 0
        resolved = json.loads((tmp_path / "sweep_noise.config.json").read_text())[
            "resolved_config"]
        assert resolved["gate_config"] == {
            "lam": fk.lambda_from_db(10.0), "lam_db": 10.0, "alpha": 50.0, "gamma": 0.1,
            "kappa": 0.0, "n_fock": 128, "trotter_steps": 0,
            "noise": {"dtheta": 0.0, "ddelta_rel": 0.0, "dbeta_x_rel": 0.0}}
        header, rows = cli.read_csv(tmp_path / "sweep_noise.csv")
        assert [(r[header.index("param")], r[header.index("lam_db")], r[header.index("value")])
                for r in rows] == [("dtheta", "10", "0.0001")]

    def test_sweep_noise_drive_channel(self, tmp_path):
        # the flag spelling dbetax-rel names the dbeta_x_rel channel
        assert run(["sweep-noise", "--noise", "dbetax-rel", "--values", "1e-6",
                    "--lambda-db-values", "8", "--gamma", "0.1", "--fock", "48",
                    "--input", "squeezed:0.5", "--out", str(tmp_path)]) == 0
        header, rows = cli.read_csv(tmp_path / "sweep_noise.csv")
        assert len(rows) == 1
        assert rows[0][header.index("param")] == "dbeta_x_rel"
        assert rows[0][header.index("ok")] == "true"

    def test_trotter_csv(self, tmp_path):
        assert run(["trotter", "--lambda-db", "6", "--alpha", "3", "--gamma", "0.05",
                    "--fock", "96", "--values", "1,2", "--input", "vacuum",
                    "--out", str(tmp_path)]) == 0
        _, rows = cli.read_csv(tmp_path / "trotter.csv")
        assert len(rows) == 2
        # difference to the continuous scheme shrinks with more steps
        assert float(rows[1][2]) <= float(rows[0][2])

    def test_fractional_trotter_steps_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cubic_gate", _forbidden)
        assert run(["trotter", "--values", "1.5,2.7", "--fock", "32", "--input", "vacuum",
                    "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert "whole numbers" in doc["error"]["message"]

    def test_trotter_steps_below_one_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cubic_gate", _forbidden)
        assert run(["trotter", "--values", "4,0", "--fock", "32", "--input", "vacuum",
                    "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert ">= 1" in doc["error"]["message"]

    def test_optimum_error_is_the_gate_error_with_relative_offset(self, tmp_path):
        # every gate of the optimization scales the offset with its own alpha
        noise = ["--ddelta-rel", "1e-3", "--fock", "48", "--lambda-db", "5"]
        assert run(["optimize-alpha", *noise, "--out", str(tmp_path / "opt")]) == 0
        opt = json.loads((tmp_path / "opt" / "optimize_alpha.json").read_text())
        assert run(["gate", *noise, "--alpha", repr(opt["alpha"]),
                    "--out", str(tmp_path / "gate")]) == 0
        gate = json.loads((tmp_path / "gate" / "gate_result.json").read_text())
        assert gate["error"] == opt["error"]

    def test_trotterized_gate_refuses_detuning_offset(self, tmp_path, capsys):
        assert run(["gate", "--trotter", "2", "--ddelta-rel", "1e-6", "--fock", "48",
                    "--lambda-db", "5", "--alpha", "5", "--input", "squeezed:0.5",
                    "--out", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "UnsupportedConfigurationError"
        assert not (tmp_path / "gate_result.json").exists()


class TestInputRule:
    @pytest.mark.parametrize("argv", [
        ["state"],
        ["gate", "--lambda-db", "6", "--alpha", "3"],
        ["optimize-alpha", "--lambda-db", "6", "--bracket", "2,4"],
        ["sweep-lambda", "--values", "6", "--alpha-mode", "cube"],
        ["sweep-noise", "--values", "1e-4", "--lambda-db-values", "6"],
        ["trotter", "--lambda-db", "6", "--alpha", "3", "--values", "1"],
    ])
    def test_input_parsed_at_the_gate_gamma(self, tmp_path, monkeypatch, argv):
        # a command that runs a gate keeps only the grid peaks its gamma
        # represents; `state` runs none and keeps every peak
        gammas = []

        def spy(selector, n, gamma):
            gammas.append(gamma)
            return st.parse_state(selector, n, gamma)

        monkeypatch.setattr(cli, "parse_state", spy)
        monkeypatch.setattr(ex, "parse_state", spy)
        gate_flags = [] if argv[0] == "state" else ["--gamma", "0.07"]
        assert run([*argv, *gate_flags, "--fock", "32", "--input", "squeezed:0.5",
                    "--out", str(tmp_path)]) == 0
        assert gammas == [0.0 if argv[0] == "state" else 0.07]


class TestEmitDeterminism:
    def test_csv_roundtrip_bit_exact(self, tmp_path):
        rows = [(0.1, -1.2345678901234567e-8, 3), (2.0, math.pi, -7)]
        p = tmp_path / "t.csv"
        cli.write_csv(p, ["a", "b", "c"], rows)
        _, parsed = cli.read_csv(p)
        for row, orig in zip(parsed, rows):
            assert float(row[0]) == orig[0]
            assert float(row[1]) == orig[1]
            assert int(row[2]) == orig[2]

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["gate", "--lambda-db", "6", "--alpha", "3", "--gamma", "0.05",
                "--fock", "48", "--input", "squeezed:0.5", "--chi-over-kappa", "0.1"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "gate_result.json").read_bytes() == (b / "gate_result.json").read_bytes()

    def test_wigner_grid_writes_the_write_csv_bytes(self, tmp_path):
        xs, ps = np.linspace(-1.0, 1.0, 4), np.array([-0.0, 0.1, 2.5])
        w = np.outer(np.sin(xs), np.cos(ps)) * 1e-3
        w[0, 0], w[1, 1], w[2, 2], w[3, 0] = -0.0, math.nan, 1e-300, -math.inf
        cli.write_wigner_csv(tmp_path / "w.csv", xs, ps, w)
        cli.write_csv(tmp_path / "ref.csv", ["x", "p", "w"],
                      [(x, p, w[i, j]) for i, x in enumerate(xs) for j, p in enumerate(ps)])
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert b",-0,-0\n" in (tmp_path / "w.csv").read_bytes()

    def test_emit_json(self, tmp_path):
        cli.emit(tmp_path / "d.json", {"x": 1.5, "a": [None]})
        # keys sorted, two-space indent, one closing newline
        assert (tmp_path / "d.json").read_text() == '{\n  "a": [\n    null\n  ],\n  "x": 1.5\n}\n'

    def test_empty_table_is_header_only(self, tmp_path):
        p = tmp_path / "e.csv"
        cli.write_csv(p, ["a", "b"], [])
        assert p.read_text() == "a,b\n"

    def test_failed_row_keeps_its_columns(self, tmp_path, monkeypatch):
        # the step ladder's failure message holds commas
        gate = ex.cubic_gate

        def ladder_fails_above_5_db(cfg, psi):
            if cfg.lam_db > 5.5:
                raise dyn.IntegrationError("no step convergence up to 8192 steps from the "
                                           "floor 1 (last delta inf, tol 1.0e-07)")
            return gate(cfg, psi)

        monkeypatch.setattr(ex, "cubic_gate", ladder_fails_above_5_db)
        assert run(["sweep-lambda", "--values", "5,6", "--alpha-mode", "cube", "--fock", "32",
                    "--input", "vacuum", "--out", str(tmp_path)]) == 0
        header, rows = cli.read_csv(tmp_path / "sweep_lambda.csv")
        assert [len(r) for r in rows] == [len(header)] * 2 == [8, 8]
        failed = dict(zip(header, rows[1]))
        assert failed["ok"] == "false" and failed["message"].startswith("IntegrationError: no")
        assert "," in failed["message"]
        assert rows[0][header.index("ok")] == "true"


class TestReproduce:
    def test_table1(self, tmp_path):
        assert run(["reproduce", "table1", "--out", str(tmp_path)]) == 0
        _, rows = cli.read_csv(tmp_path / "table1.csv")
        assert len(rows) == 3
        assert (tmp_path / "table1.config.json").exists()

    @pytest.mark.parametrize("recipe", cli.RECIPES)
    def test_dry_run_writes_sidecar(self, tmp_path, recipe):
        assert run(["reproduce", recipe, "--dry-run", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / f"{recipe}.config.json").read_text())
        assert doc["resolved_config"]["recipe"] == recipe
        assert doc["command"] == f"reproduce {recipe}"
        assert doc["schema_version"] == cli.SCHEMA_VERSION

    def test_fig4_runs(self, tmp_path):
        assert run(["reproduce", "fig4", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "fig4.json").read_text())
        assert abs(doc["fidelity"] - 0.978) < 0.005
        assert doc["wigner_min"] < 0

    def test_unknown_recipe(self, tmp_path):
        assert run(["reproduce", "fig99", "--out", str(tmp_path)]) == 2


class TestSinglePath:
    """Every option comes from `cli._OPTIONS`, only `dispatch` reads `args`, and
    only `dispatch` writes files."""

    def test_parser_flags_equal_option_table(self):
        ap = cli.build_parser()
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(cli._COMMANDS)
        for name, parser in sub.choices.items():
            flags = {a.dest for a in parser._actions} - {"help", "config", "dry_run", "recipe"}
            want = {key for key, (rule, names) in cli._OPTIONS.items()
                    if key not in cli._FILE_ONLY and (names is None or name in names)}
            assert flags == want, name

    def test_handlers_never_read_args(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        handlers = {handler.__name__ for handler, _ in cli._COMMANDS.values()}
        collects = 0
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in handlers:
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                names |= {a.arg for a in node.args.args}
                assert "args" not in names, node.name
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "collect":
                collects += 1
        assert collects == 1

    def test_only_dispatch_writes(self):
        # handlers and entry builders name a writer in their entries but call
        # none; dispatch calls each entry's writer, and only it makes --out
        tree = ast.parse(Path(cli.__file__).read_text())
        writers = {"emit", "write_csv", "write_wigner_csv", "write_sidecar"}
        callers = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for call in ast.walk(fn):
                    if isinstance(call, ast.Call):
                        func = getattr(call.func, "attr", None) or getattr(call.func, "id", None)
                        if func in writers | {"mkdir"}:
                            callers.setdefault(func, set()).add(fn.name)
        # write_sidecar is emit of one document
        assert callers == {"emit": {"write_sidecar"}, "mkdir": {"dispatch"}}


class TestOneParsePath:
    """A flag and a config-file line reach the run through the same value rule."""

    @pytest.mark.parametrize("command, key, text", [
        ("gate", "alpha", "abc"),
        ("gate", "fock", "1e3"),
        ("gate", "trotter", "2.5"),
        ("sweep-lambda", "alpha_coeff", "nan"),
        ("gate", "chi_over_kappa", "0"),
        ("gate", "lambda_db", "inf"),
    ])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_bad_value_is_one_config_error(self, tmp_path, capsys, monkeypatch, command,
                                           key, text, source):
        monkeypatch.setattr(cli, "cubic_gate", _forbidden)
        monkeypatch.setattr(ex, "cubic_gate", _forbidden)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"input = vacuum\n{key} = {text}\n")
        argv = ([f"--{key.replace('_', '-')}", text, "--input", "vacuum"] if source == "flag"
                else ["--config", str(cfgfile)])
        out = tmp_path / "o"
        assert run([command, *argv, "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == "ConfigError"
        assert doc["error"]["message"].startswith(f"{cfgfile}:2: " if source == "file" else key)
        assert f"{key} must be" in doc["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, error, key", [
        # the one grid lattice: a selector with a fourth, convention field is refused
        (["state", "--input", "gkp:z+:0.5:standard-lattice"], "ValueError", "unrecognized"),
        (["sweep-lambda", "--alpha-mode", "bogus"], "ValueError", "alpha mode"),
        (["sweep-noise", "--alpha-mode", "optimize"], "ValueError", "alpha_mode"),
        (["sweep-noise", "--noise", "bogus"], "ConfigError", "noise"),
        (["sweep-lambda", "--values", "5,x"], "ConfigError", "values"),
    ])
    def test_bad_choice_or_list_is_json(self, tmp_path, capsys, monkeypatch, argv, error, key):
        monkeypatch.setattr(cli, "cubic_gate", _forbidden)
        monkeypatch.setattr(ex, "cubic_gate", _forbidden)
        out = tmp_path / "o"
        # the case's own flags come last, so that its --input wins
        assert run([argv[0], "--fock", "32", "--input", "vacuum", *argv[1:],
                    "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"]["type"] == error
        assert key in doc["error"]["message"]
        assert not out.exists()

    # removed: the fluctuation frame is the one loss treatment, chi = 1 the
    # time unit, and state-gen always applies the Gaussian correction; not
    # read: trotter sets its own step counts, sweep-lambda its squeezings and
    # optimize-alpha its displacements
    @pytest.mark.parametrize("command, flag, line, message", [
        ("gate", ["--loss-frame", "displaced"], "loss_frame = fluctuation",
         "unknown key 'loss_frame'"),
        ("gate", ["--chi", "1"], "chi = 1", "unknown key 'chi'"),
        ("state-gen", ["--no-correction"], "no_correction = true",
         "unknown key 'no_correction'"),
        ("trotter", ["--trotter", "3"], "trotter = 3", "trotter does not read key 'trotter'"),
        ("sweep-lambda", ["--lambda-db", "12"], "lambda_db = 12",
         "sweep-lambda does not read key 'lambda_db'"),
        ("optimize-alpha", ["--alpha", "5"], "alpha = 5",
         "optimize-alpha does not read key 'alpha'"),
    ], ids=["loss_frame", "chi", "no_correction", "trotter", "lambda_db", "alpha"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_removed_option_rejected(self, tmp_path, capsys, monkeypatch, command, flag, line,
                                     message, source):
        monkeypatch.setattr(cli, "cubic_gate", _forbidden)
        monkeypatch.setattr(ex, "cubic_gate", _forbidden)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        argv = flag if source == "flag" else ["--config", str(cfgfile)]
        out = tmp_path / "o"
        assert run([command, *argv, "--fock", "32", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if source == "flag":  # an argument-parser usage error
            assert f"unrecognized arguments: {flag[0]}" in err
        else:
            doc = json.loads(err.strip())
            assert doc["error"]["type"] == "ConfigError"
            assert doc["error"]["message"] == f"{cfgfile}:1: {message}"
        assert not out.exists()

    def test_negative_exponent_offset_from_flag_and_file(self, tmp_path):
        # a bare -1e-6 reads as a flag to the argument parser; the = form does not
        argv = ["--lambda-db", "5", "--alpha", "4.7", "--fock", "32", "--input",
                "squeezed:0.5", "--out", str(tmp_path)]
        names = ("gate_result.json", "gate_result.config.json")
        assert run(["gate", "--ddelta-rel=-1e-6", *argv]) == 0
        from_flag = [(tmp_path / name).read_bytes() for name in names]
        resolved = json.loads(from_flag[1])["resolved_config"]
        assert resolved["gate_config"]["noise"]["ddelta_rel"] == -1e-6
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("ddelta_rel = -1e-6\n")
        assert run(["gate", "--config", str(cfgfile), *argv]) == 0
        assert [(tmp_path / name).read_bytes() for name in names] == from_flag

    def test_chi_over_kappa_none_is_lossless(self, tmp_path):
        argv = ["--lambda-db", "6", "--alpha", "3", "--fock", "32", "--input", "vacuum",
                "--out", str(tmp_path)]
        assert run(["gate", "--chi-over-kappa", "none", *argv]) == 0
        sidecar = tmp_path / "gate_result.config.json"
        resolved = json.loads(sidecar.read_text())["resolved_config"]
        assert resolved["chi_over_kappa"] is None
        assert resolved["gate_config"]["kappa"] == 0.0
        from_flag = sidecar.read_bytes()
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("chi_over_kappa = none\n")
        assert run(["gate", "--config", str(cfgfile), *argv]) == 0
        assert sidecar.read_bytes() == from_flag

    def test_handlers_read_parsed_values(self):
        # no float(), int() or str() around a read of cfg: the value rule parsed it
        tree = ast.parse(Path(cli.__file__).read_text())
        readers = {handler.__name__ for handler, _ in cli._COMMANDS.values()} | {"_gate_config"}
        for fn in ast.walk(tree):
            if not (isinstance(fn, ast.FunctionDef) and fn.name in readers):
                continue
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id in ("float", "int", "str")):
                    continue
                reads = [n for n in ast.walk(call) if isinstance(n, (ast.Subscript, ast.Attribute))
                         and isinstance(n.value, ast.Name) and n.value.id == "cfg"]
                assert not reads, f"{fn.name}: {ast.unparse(call)}"


# one run per subcommand (but reproduce), each with a switch or its own option
_REPLAY = {
    "heff-expand": ["--lambda-db", "6", "--alpha", "8", "--delta", "0.25", "--beta", "1.0"],
    "state": ["--input", "vacuum", "--fock", "24", "--wigner"],
    "gate": ["--lambda-db", "6", "--alpha", "3", "--gamma", "0.05", "--fock", "32",
             "--input", "vacuum", "--wigner"],
    "sweep-lambda": ["--values", "8,10", "--gamma", "0.1", "--fock", "48",
                     "--input", "squeezed:0.5", "--alpha-mode", "cube", "--alpha-coeff", "1.5"],
    "optimize-alpha": ["--lambda-db", "8", "--gamma", "0.1", "--fock", "64",
                       "--input", "squeezed:0.5", "--bracket", "8,60"],
    "sweep-noise": ["--noise", "dbetax-rel", "--values", "1e-6", "--lambda-db-values", "8",
                    "--gamma", "0.1", "--fock", "48", "--input", "squeezed:0.5"],
    "state-gen": ["--delta", "0.4", "--fock", "32", "--lambda-db", "5", "--alpha", "3",
                  "--gamma", "0.05"],
    "trotter": ["--lambda-db", "6", "--alpha", "3", "--gamma", "0.05", "--fock", "48",
                "--values", "1,2", "--input", "vacuum"],
    "soliton-fom": ["--materials", "MATERIALS"],
}


def _replay_argv(tmp_path, command):
    """The `_REPLAY` flags of `command`, its materials CSV written under tmp_path."""
    mats = tmp_path / "mats.csv"
    cli.write_csv(mats, ["name", "gamma_nl", "alpha_att_dB_per_m", "wavelength_m", "t_fwhm_s"],
                  [("custom", 100.0, 10.0, 1.5e-6, 1e-13)])
    return [str(mats) if a == "MATERIALS" else a for a in _REPLAY[command]]


@pytest.mark.parametrize("command", sorted(_REPLAY))
def test_sidecar_replays_run(tmp_path, command):
    argv = _replay_argv(tmp_path, command)
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert run([command, *argv, "--out", str(first)]) == 0
    sidecar = next(first.glob("*.config.json"))
    doc = json.loads(sidecar.read_text())
    assert doc["command"] == command
    resolved = doc["resolved_config"]
    cfgfile = tmp_path / "replay.cfg"
    cfgfile.write_text("".join(f"{k} = {cli._fmt(v)}\n" for k, v in resolved.items()
                               if k not in ("out", "gate_config")))
    assert run([command, "--config", str(cfgfile), "--out", str(replay)]) == 0
    artifacts = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in replay.iterdir()) == artifacts
    for name in artifacts:
        if name != sidecar.name:
            assert (replay / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("command", sorted(_REPLAY))
def test_config_file_run_writes_the_flag_run_sidecar(tmp_path, command):
    argv = _replay_argv(tmp_path, command)
    out = tmp_path / "out"
    assert run([command, *argv, "--out", str(out)]) == 0
    sidecar = next(out.glob("*.config.json"))
    from_flags = sidecar.read_bytes()
    # the flags as config-file lines: a flag's text is the file's text
    given = vars(cli.build_parser().parse_args([command, *argv]))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in given.items()
                               if k in cli._OPTIONS and v is not None))
    sidecar.unlink()
    assert run([command, "--config", str(cfgfile), "--out", str(out)]) == 0
    assert sidecar.read_bytes() == from_flags


# runs beside `_REPLAY`'s: the other branch of state and gate, a dry run, and
# two recipes, shrunk in `_SMALL_RECIPES`
_LISTED = {
    "state-amplitudes": ["state", "--input", "fock:3", "--fock", "16"],
    "gate-lossy": ["gate", "--lambda-db", "5", "--alpha", "3", "--gamma", "0.05", "--fock", "32",
                   "--input", "squeezed:0.5", "--chi-over-kappa", "1e-2"],
    "reproduce-dry-run": ["reproduce", "fig4", "--dry-run"],
    "reproduce-table": ["reproduce", "fig6b"],
    "reproduce-state-gen": ["reproduce", "fig4"],
}

_SMALL_RECIPES = {
    "fig6b": {"kind": "noise", "options": {"noise": "dbetax-rel", "values": "1e-5",
                                           "lambda_db_values": "8", "fock": 32}},
    "fig4": {"kind": "state-gen", "options": {"lambda_db": 5.0, "alpha": 3.0, "gamma": 0.05,
                                              "fock": 32}},
}


@pytest.mark.parametrize("case", [*sorted(_REPLAY), *_LISTED])
def test_stdout_lists_the_files_written(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "_RECIPES", _SMALL_RECIPES)
    argv = [case, *_replay_argv(tmp_path, case)] if case in _REPLAY else _LISTED[case]
    out = tmp_path / "out" / "run"  # the run makes its parent too
    assert run([*argv, "--out", str(out)]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert sorted(listed) == sorted(str(p) for p in out.rglob("*") if p.is_file())
    assert len(set(listed)) == len(listed)
    assert listed[-1].endswith(".config.json")  # the sidecar comes last


@pytest.mark.parametrize("argv", [
    ["gate", "--lambda-db", "5", "--alpha", "3", "--gamma", "0.05", "--fock", "32",
     "--input", "squeezed:0.5", "--chi-over-kappa", "1e-2", "--wigner"],
    ["reproduce", "fig4"],
], ids=["gate", "reproduce-fig4"])
def test_failed_run_leaves_no_out_directory(tmp_path, capsys, monkeypatch, argv):
    def fails(cfg, psi):
        raise dyn.IntegrationError("no step convergence up to 8192 steps")

    monkeypatch.setattr(cli, "cubic_gate", fails)
    monkeypatch.setattr(ex, "cubic_gate", fails)
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"]["type"] == "IntegrationError"
    assert captured.out == ""
    assert not out.exists()
