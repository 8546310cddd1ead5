"""End-to-end CLI tests (in-process via main(argv)).

Covers exit codes, CSV schema stability, rerun determinism, and the
override flags.  Everything runs against throwaway config files; no test
touches the network or global state.
"""

from __future__ import annotations

import dataclasses

import pytest

from dcekit import allocator, cli
from dcekit.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NONCONVERGED,
    EXIT_OK,
    SER_HEADER,
    SER_SCHEMA,
    SWEEP_HEADER,
    SWEEP_SCHEMA,
    _parse_pave_grid,
    build_parser,
    main,
)
from dcekit.model import ConfigError

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

    @pytest.mark.parametrize("grid", ["0:inf:1", "-inf:0:1", "0:10:nan", "nan:10:1", "10:0:1",
                                      "0:1:1e-12", "1e16:10000000000000008:1"])
    def test_bad_pave_grid_exits_3(self, config_path, grid, capsys):
        """A non-finite endpoint or step, a range with no points, with about
        10^12 points or with a STEP that cannot advance START is a config
        error (the last three once looped forever or nearly so)."""
        code = main(["sweep", "--config", config_path, f"--pave-db={grid}", "--trials", "0"])
        assert code == EXIT_CONFIG
        assert "config error: --pave-db" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    @pytest.mark.parametrize("command", ["solve", "nmse", "rank", "sweep", "ser"])
    def test_non_finite_single_pave_exits_3(self, config_path, command, value, capsys):
        """A single --pave-db of NaN or -inf is a flag error; only inf lifts the cap."""
        code = main([command, "--config", config_path, f"--pave-db={value}", "--trials", "300"])
        assert code == EXIT_CONFIG
        assert "config error: --pave-db must be a number of dB or inf" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("pt_db", "nan"), ("pl_db", "-inf"),
                                           ("pave_db", "nan"), ("pave_db", "-inf")])
    def test_non_finite_power_in_config_exits_3(self, tmp_path, key, value, capsys):
        """The error names the config key, not a budget field derived from it."""
        cfg = tmp_path / "bad.cfg"
        kept = [line for line in BASE_CONFIG.splitlines() if not line.startswith(f"{key} =")]
        cfg.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"config error: config key '{key}': must be finite" in capsys.readouterr().err

    def test_pave_grid_is_counted_before_it_is_built(self):
        assert _parse_pave_grid("10:32:2") == [float(v) for v in range(10, 33, 2)]
        assert _parse_pave_grid("0:1:0.1") == [i / 10 for i in range(11)]
        assert _parse_pave_grid("1e16:1e16:1") == [1e16]
        with pytest.raises(ConfigError, match="--pave-db STEP is too small"):
            _parse_pave_grid("1e16:10000000000000008:1")
        with pytest.raises(ConfigError, match="--pave-db range has more than"):
            _parse_pave_grid("0:1e308:1e-300")

    @pytest.mark.parametrize("command,flag,value", [
        ("sweep", "--trials", "-5"), ("nmse", "--workers", "-2"), ("nmse", "--workers", "0"),
        ("nmse", "--seed", "-1"), ("ser", "--seed", "-1"),
    ])
    def test_negative_count_override_exits_3(self, config_path, command, flag, value, capsys):
        assert main([command, "--config", config_path, flag, value]) == EXIT_CONFIG
        assert f"config error: {flag} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command,value", [
        ("solve", "-5e0"), ("nmse", "-5e0"), ("rank", "-5e0"),
        ("sweep", "-5:-1:2"), ("ser", "-5:-1:2"),
    ])
    def test_negative_pave_as_separate_token(self, config_path, command, value, capsys):
        joined = main([command, "--config", config_path, f"--pave-db={value}"])
        expected = capsys.readouterr()
        code = main([command, "--config", config_path, "--pave-db", value])
        assert (code, capsys.readouterr()) == (joined, expected)
        assert code != EXIT_CONFIG and "expected one argument" not in expected.err
        if command in ("sweep", "ser"):
            rows = expected.out.splitlines()[2:]
            assert [row.split(",")[0] for row in rows] == ["-5", "-3", "-1"]

    def test_scheme_override(self, config_path, capsys):
        assert main(["solve", "--config", config_path, "--scheme", "nonreciprocal"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "scheme: nonreciprocal" in out
        assert "scenario: interior" in out

    @pytest.mark.parametrize("command,value", [
        ("nmse", "50"), ("sweep", "50"), ("ser", "99"), ("sweep", "1"),
        ("nmse", "0"), ("ser", "0"), ("solve", "50"),
    ])
    def test_too_few_trials_exits_3_before_solving(
        self, config_path, command, value, capsys, monkeypatch
    ):
        """1-99 trials (and 0 where a Monte Carlo must run) fail on the flag,
        before any solve."""
        def refuse(*args, **kwargs):
            raise AssertionError("solved before checking --trials")

        monkeypatch.setattr(allocator, "solve", refuse)
        assert main([command, "--config", config_path, "--trials", value]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --trials must be >= 100")
        assert captured.out == ""

    def test_too_few_trials_in_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "few.cfg"
        cfg.write_text(BASE_CONFIG.replace("trials = 2000", "trials = 50"))
        assert main(["nmse", "--config", str(cfg)]) == EXIT_CONFIG
        assert "config key 'trials': must be >= 100" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["sweep", "ser"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--gamma", "", "--gamma got an empty list"),
        ("--gamma", " ", "--gamma got an empty list"),
        ("--gamma", "0.1,,0.2", "--gamma has an empty element"),
        ("--gamma", "0.1,", "--gamma has an empty element"),
        ("--pave-db", "", "--pave-db got an empty value"),
    ])
    def test_empty_grid_value_exits_3(
        self, config_path, command, flag, value, message, capsys, monkeypatch
    ):
        """An empty --gamma or --pave-db, or an empty --gamma element, is a
        usage error before any solve; it once fell back to the config's
        value or was dropped."""
        def refuse(*args, **kwargs):
            raise AssertionError(f"solved with {flag} {value!r}")

        monkeypatch.setattr(allocator, "solve", refuse)
        grid = {"--gamma": "0.1", "--pave-db": "20", flag: value}
        args = [arg for item in grid.items() for arg in item]
        assert main([command, "--config", config_path, *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {message}" in captured.err

    def test_plot_script_requires_out(self, config_path, capsys, monkeypatch):
        """The flag is checked before any point is solved or simulated."""
        def refuse(*args, **kwargs):
            raise AssertionError("solved before checking --emit-plot-script")

        monkeypatch.setattr(allocator, "solve", refuse)
        for command in ("sweep", "ser"):
            code = main([command, "--config", config_path, "--gamma", "0.1",
                         "--pave-db", "10:30:10", "--trials", "20000", "--emit-plot-script"])
            assert code == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--emit-plot-script requires --out" in captured.err

    def test_plot_script_emitted(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", config_path, "--gamma", "0.1",
                     "--pave-db", "10:30:10", "--trials", "0",
                     "--out", str(out), "--emit-plot-script"])
        assert code == EXIT_OK
        script = (tmp_path / "sweep.gp").read_text()
        assert "pngcairo" in script and "sweep.csv" in script


# Closed-form sweep rows, recorded before the grid loop was shared between
# sweep and ser (--gamma 0.1,0.03 --pave-db 10:30:10 --trials 0).  The
# non-reciprocal allocation cells were re-recorded when the var_a search took
# a finer zoom grid, when Brent's method replaced the zoom, and when Brent's
# stop moved to its rounding floor sqrt(eps): on a flat optimum the maximiser
# is fixed only to about sqrt(eps), and they moved by up to 1.9e-7, 7.5e-8
# and 1.6e-7 relative; the NMSE cells did not.
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
10,0.1,nonreciprocal,21.0953193301,15.858375472,11.5881208784,85.9123658875,0.693227303993,0.0629195580556,0.1,,,,,0.0277777777778,interior,ok
10,0.03,nonreciprocal,2.53819077792,2.25992721298,1.84138873263,133.239678478,0.0151018497868,0.0299022684638,0.03,,,,,0.0277777777778,interior,ok
20,0.1,nonreciprocal,256.111569692,182.201338952,129.246177049,752.796822876,9.95551142883,0.00879315921632,0.1,,,,,0.002849002849,interior,ok
20,0.03,nonreciprocal,165.562001496,118.163496415,83.9625384232,1005.22260476,3.38616986375,0.00533384373839,0.03,,,,,0.002849002849,interior,ok
30,0.1,nonreciprocal,1916.65389321,351.230394538,248.769605462,5478.61149611,75.5918263349,0.00202056850926,0.1,,,,,0.000499750124938,interior,ok
30,0.03,nonreciprocal,1170.06935969,351.230394538,248.769605462,6628.9127211,25.1272399011,0.000997836429162,0.03,,,,,0.000499750124938,interior,ok
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


class TestParserReuse:
    """``main`` builds its parser once per process; no call leaves state in it."""

    def test_scheme_override_does_not_stick(self, config_path, capsys):
        main(["solve", "--config", config_path])
        alone = capsys.readouterr().out
        assert main(["solve", "--config", config_path, "--scheme", "nonreciprocal"]) == EXIT_OK
        assert "scheme: nonreciprocal" in capsys.readouterr().out
        assert main(["solve", "--config", config_path]) == EXIT_OK
        assert capsys.readouterr().out == alone

    @pytest.mark.parametrize("first,code", [
        (["solve", "--workers", "x"], EXIT_CONFIG), (["solve", "--help"], EXIT_OK),
    ])
    def test_valid_call_after_exit(self, config_path, first, code, capsys):
        main(["solve", "--config", config_path])
        alone = capsys.readouterr().out
        assert main(first[:1] + ["--config", config_path] + first[1:]) == code
        capsys.readouterr()
        assert main(["solve", "--config", config_path]) == EXIT_OK
        assert capsys.readouterr().out == alone

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()
        assert build_parser() is not cli._parser()
