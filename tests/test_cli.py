"""End-to-end CLI tests (in-process via main(argv)).

Covers exit codes, CSV schema stability, rerun determinism, and the
override flags.  Everything runs against throwaway config files; no test
touches the network or global state.
"""

from __future__ import annotations

import dataclasses

import pytest

from dcekit import allocator
from dcekit.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NONCONVERGED,
    EXIT_OK,
    SER_HEADER,
    SER_SCHEMA,
    SWEEP_HEADER,
    SWEEP_SCHEMA,
    main,
)

BASE_CONFIG = """\
# four transmit antennas, two-antenna receivers
nt = 4
nl = 2
nu = 2
scheme = reciprocal
gamma = 0.1
pt_db = 30
pl_db = 20
trials = 2000
seed = 3
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


class TestSolve:
    def test_success_output(self, config_path, capsys):
        assert main(["solve", "--config", config_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "scenario: prop1-branch2" in out
        assert "converged: True" in out
        assert "nmse_u_slack: 0" in out

    def test_infeasible_floor_exits_2(self, config_path, capsys):
        code = main(["solve", "--config", config_path, "--pave-db", "0", "--gamma", "0.03"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("scheme", ["reciprocal", "nonreciprocal"])
    def test_nan_gamma_exits_3(self, config_path, command, scheme, capsys):
        code = main([command, "--config", config_path, "--scheme", scheme, "--gamma", "nan"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "gamma" in err and "infeasible" not in err

    def test_zero_channel_prior_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "silent.cfg"
        cfg.write_text(BASE_CONFIG + "var_h = 0\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "var_h" in err and "infeasible" not in err

    def test_unknown_config_key_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASE_CONFIG + "bogus = 1\n")
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_value_exits_3(self, config_path, capsys):
        code = main(["solve", "--config", config_path, "--trials", "many"])
        assert code == EXIT_CONFIG

    def test_unknown_subcommand_exits_3(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert "usage: dcekit" in capsys.readouterr().out

    @pytest.mark.parametrize("rank", [0, 5])
    def test_pilot_rank_out_of_range_exits_3(self, tmp_path, rank, capsys):
        cfg = tmp_path / "rank.cfg"
        cfg.write_text(BASE_CONFIG + f"pilot_rank = {rank}\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"config error: config: pilot_rank: must lie in 1..4, got {rank}" in capsys.readouterr().err

    def test_infinite_pave_override_lifts_cap(self, tmp_path, capsys):
        capped = tmp_path / "capped.cfg"
        capped.write_text(BASE_CONFIG + "pave_db = 15\n")
        assert main(["solve", "--config", str(capped), "--pave-db", "inf"]) == EXIT_OK
        lifted = capsys.readouterr().out
        uncapped = tmp_path / "uncapped.cfg"
        uncapped.write_text(BASE_CONFIG)
        assert main(["solve", "--config", str(uncapped)]) == EXIT_OK
        assert lifted == capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_pave_beyond_float_range_lifts_cap(self, config_path, command, capsys):
        """4000 dB is past the float range: the cap is infinite, not an error."""
        args = ["--pave-db", "4000"] + (["--trials", "0"] if command == "sweep" else [])
        assert main([command, "--config", config_path, *args]) == EXIT_OK
        out = capsys.readouterr().out
        if command == "solve":
            assert "e_ave_max=inf" in out
        else:
            assert out.splitlines()[2].startswith("4000,") and out.rstrip().endswith(",ok")

    def test_ser_pave_beyond_float_range_exits_3(self, config_path, capsys):
        code = main(["ser", "--config", config_path, "--pave-db", "4000", "--trials", "300"])
        assert code == EXIT_CONFIG
        assert "config error: ser needs a finite average power" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["pt_db", "pl_db"])
    @pytest.mark.parametrize("command", ["solve", "sweep", "ser"])
    def test_node_power_beyond_float_range_exits_3(self, tmp_path, key, command, capsys):
        """An infinite per-node cap is a config problem, not a crash."""
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(BASE_CONFIG.replace(f"{key} = ", f"{key} = 4000  # was ") + "pave_db = 30\n")
        assert main([command, "--config", str(cfg), "--trials", "300"]) == EXIT_CONFIG
        field = "e_t_max" if key == "pt_db" else "e_l_max"
        assert f"{field}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:inf:1", "-inf:0:1", "0:10:nan", "nan:10:1", "10:0:1"])
    def test_bad_pave_grid_exits_3(self, config_path, grid, capsys):
        """A non-finite endpoint or step, or a range with no points, is a
        config error (an infinite STOP once looped forever)."""
        code = main(["sweep", "--config", config_path, f"--pave-db={grid}", "--trials", "0"])
        assert code == EXIT_CONFIG
        assert "config error: --pave-db" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("sweep", "--trials", "-5"), ("nmse", "--workers", "-2"), ("nmse", "--workers", "0"),
        ("nmse", "--seed", "-1"), ("ser", "--seed", "-1"),
    ])
    def test_negative_count_override_exits_3(self, config_path, command, flag, value, capsys):
        assert main([command, "--config", config_path, flag, value]) == EXIT_CONFIG
        assert f"config error: {flag} must be" in capsys.readouterr().err

    def test_scheme_override(self, config_path, capsys):
        assert main(["solve", "--config", config_path, "--scheme", "nonreciprocal"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "scheme: nonreciprocal" in out
        assert "scenario: interior" in out

    def test_nonconverged_exits_4(self, config_path, capsys, monkeypatch):
        real = allocator.solve_nonreciprocal

        def stubborn(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(allocator, "solve_nonreciprocal", stubborn)
        code = main(["solve", "--config", config_path, "--scheme", "nonreciprocal"])
        assert code == EXIT_NONCONVERGED


class TestSweep:
    ARGS = ["--gamma", "0.1,0.03", "--pave-db", "10:32:2", "--trials", "0"]

    def test_csv_grid(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", config_path, *self.ARGS, "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_SCHEMA
        assert lines[1] == SWEEP_HEADER
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 24  # 12 power points x 2 floors
        assert all(len(r) == len(SWEEP_HEADER.split(",")) for r in rows)
        # gamma = 0.03 is infeasible at the two lowest powers.
        bad = [r for r in rows if r[-1] == "infeasible"]
        assert [(r[0], r[1]) for r in bad] == [("10", "0.03"), ("12", "0.03")]
        # Infeasible rows still carry the lower bound, but no allocation.
        for r in bad:
            assert r[3] == "" and float(r[-3]) > 0
        # Feasible rows: closed-form NMSE never beats the genie bound.
        for r in rows:
            if r[-1] == "ok":
                assert float(r[8]) >= float(r[-3]) - 1e-12

    def test_rerun_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["sweep", "--config", config_path, *self.ARGS, "--out", str(path)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, config_path, capsys):
        code = main(["sweep", "--config", config_path, "--gamma", "0.1",
                     "--pave-db", "20", "--trials", "0"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == SWEEP_SCHEMA
        assert len(lines) == 3

    def test_mc_columns_populated(self, config_path, capsys):
        code = main(["sweep", "--config", config_path, "--gamma", "0.1",
                     "--pave-db", "20", "--trials", "200", "--seed", "1"])
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[2].split(",")
        mc_l, mc_l_se, mc_u, mc_u_se = (float(v) for v in row[10:14])
        assert mc_l > 0 and mc_u > 0 and mc_l_se > 0 and mc_u_se > 0
        # MC agrees with the closed form to a loose 5 sigma at 200 trials.
        assert abs(mc_l - float(row[8])) <= 5 * mc_l_se

    def test_plot_script_requires_out(self, config_path, capsys):
        code = main(["sweep", "--config", config_path, "--gamma", "0.1",
                     "--pave-db", "20", "--trials", "0", "--emit-plot-script"])
        assert code == EXIT_CONFIG

    def test_plot_script_emitted(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", config_path, "--gamma", "0.1",
                     "--pave-db", "10:30:10", "--trials", "0",
                     "--out", str(out), "--emit-plot-script"])
        assert code == EXIT_OK
        script = (tmp_path / "sweep.gp").read_text()
        assert "pngcairo" in script and "sweep.csv" in script


# Closed-form sweep rows, recorded before the grid loop was shared between
# sweep and ser (--gamma 0.1,0.03 --pave-db 10:30:10 --trials 0).
PINNED_SWEEP = {
    "reciprocal": """\
10,0.1,reciprocal,6.23305621136,,,51.9902494098,0.222086797358,0.0785440434207,0.1,,,,,0.0625,scenario3,ok
10,0.03,reciprocal,,,,,,,,,,,,0.0625,,infeasible
20,0.1,reciprocal,105.832595022,,,448.35066448,5.72709256222,0.0107011708774,0.1,,,,,0.00662251655629,scenario3,ok
20,0.03,reciprocal,57.2383180465,,,530.358831495,1.55035630733,0.00826277013291,0.03,,,,,0.00662251655629,scenario3,ok
30,0.1,reciprocal,200,,,3603.6,49.55,0.00219429548969,0.1,,,,,0.000999000999001,scenario1,ok
30,0.03,reciprocal,200,,,3883.88,14.515,0.00132416138822,0.03,,,,,0.000999000999001,scenario1,ok
""",
    "nonreciprocal": """\
10,0.1,nonreciprocal,21.0953192587,15.8583754211,11.5881208423,85.9123660301,0.693227305974,0.0629195580556,0.1,,,,,0.0277777777778,interior,ok
10,0.03,nonreciprocal,2.53819091816,2.25992732657,1.84138881779,133.239678149,0.0151018485156,0.0299022684638,0.03,,,,,0.0277777777778,interior,ok
20,0.1,nonreciprocal,256.11157158,182.201340288,129.246177993,752.796819125,9.95551137674,0.00879315921632,0.1,,,,,0.002849002849,interior,ok
20,0.03,nonreciprocal,165.562007392,118.163500585,83.9625413722,1005.22259213,3.38616981494,0.00533384373839,0.03,,,,,0.002849002849,interior,ok
30,0.1,nonreciprocal,1916.65410903,351.230394538,248.769605462,5478.61130187,75.5918236371,0.00202056850926,0.1,,,,,0.000499750124938,interior,ok
30,0.03,nonreciprocal,1170.06936194,351.230394538,248.769605462,6628.91271891,25.1272398927,0.000997836429162,0.03,,,,,0.000499750124938,interior,ok
""",
}


@pytest.mark.parametrize("scheme", sorted(PINNED_SWEEP))
def test_pinned_closed_form_sweep(config_path, scheme, capsys):
    code = main(["sweep", "--config", config_path, "--scheme", scheme, "--gamma", "0.1,0.03",
                 "--pave-db", "10:30:10", "--trials", "0"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [SWEEP_SCHEMA, SWEEP_HEADER]
    got = [line.split(",") for line in lines[2:]]
    want = [line.split(",") for line in PINNED_SWEEP[scheme].splitlines()]
    assert len(got) == len(want)
    for row, pin in zip(got, want):
        assert len(row) == len(pin)
        for cell, value in zip(row, pin):
            try:
                number = float(value)
            except ValueError:  # labels and empty cells
                assert cell == value
            else:
                assert float(cell) == pytest.approx(number, rel=1e-9)


class TestSer:
    def test_csv_shape(self, config_path, tmp_path):
        out = tmp_path / "ser.csv"
        code = main(["ser", "--config", config_path, "--pave-db", "18:26:4",
                     "--trials", "300", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == SER_SCHEMA
        assert lines[1] == SER_HEADER
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        assert all(len(r) == len(SER_HEADER.split(",")) for r in rows)
        for r in rows:
            assert r[-1] == "ok"
            assert 0.0 <= float(r[4]) <= 1.0
            # data_power = 10^(pave/10).
            assert float(r[3]) == pytest.approx(10 ** (float(r[0]) / 10), rel=1e-9)

    def test_requires_power_grid(self, config_path, capsys):
        assert main(["ser", "--config", config_path, "--trials", "300"]) == EXIT_CONFIG
        assert "pave" in capsys.readouterr().err.lower()


class TestNmseCommand:
    def test_reports_mc_and_closed(self, config_path, capsys):
        code = main(["nmse", "--config", config_path, "--trials", "500", "--seed", "4"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "nmse_l:" in out and "nmse_u:" in out
        assert out.count("closed=") == 2
        assert "trials: 500" in out


class TestRankCommand:
    def test_reduced_rank_regression(self, config_path, capsys):
        code = main(["rank", "--config", config_path, "--pave-db", "12", "--gamma", "0.03"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "best_rank: 3" in out
        assert "rank-k-vacuous" in out

    def test_infeasible_everywhere_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(BASE_CONFIG.replace("gamma = 0.1", "gamma = 0.99")
                       .replace("pt_db = 30", "pt_db = -60"))
        assert main(["rank", "--config", str(cfg)]) == EXIT_INFEASIBLE
