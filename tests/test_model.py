"""Unit tests for system/plan/budget types, validation, and config parsing."""

import dataclasses
import math

import pytest

from dcekit.model import (
    NONRECIPROCAL,
    RECIPROCAL,
    ConfigError,
    EnergyBudget,
    PowerAllocation,
    SystemConfig,
    allocation_violations,
    db_to_energy,
    draw_channels,
    load_config,
    nonreciprocal_plan,
    optimal_pilot_gram,
    parse_config,
    reciprocal_plan,
    training_lengths,
    training_spend,
    validate,
)
from dcekit.numerics import RngStream

CFG = SystemConfig(n_t=4, n_l=2, n_u=2)

GOOD_CONFIG = """
# comment line
nt = 4
nl = 2
nu = 2          # trailing comment
scheme = reciprocal
gamma = 0.1
"""


class TestPlans:
    def test_reciprocal_defaults(self):
        plan = reciprocal_plan(CFG)
        assert plan.scheme == RECIPROCAL
        assert (plan.tau_r, plan.tau_f) == (2, 4)
        assert plan.pilot_rank == 4

    def test_nonreciprocal_defaults(self):
        plan = nonreciprocal_plan(CFG)
        assert plan.scheme == NONRECIPROCAL
        assert (plan.tau_t0, plan.tau_l2, plan.tau_t3) == (4, 2, 4)

    def test_rank_deficient_profile(self):
        plan = reciprocal_plan(CFG, pilot_rank=2)
        assert optimal_pilot_gram(CFG.n_t, plan.pilot_rank) == (2.0, 2.0, 0.0, 0.0)

    @pytest.mark.parametrize("rank", [0, 5, -1])
    def test_out_of_range_rank_is_a_violation(self, rank):
        for plan in (reciprocal_plan(CFG, pilot_rank=rank), nonreciprocal_plan(CFG, pilot_rank=rank)):
            assert validate(CFG, plan)[0].startswith("pilot_rank: must lie in 1..4")

    def test_training_lengths(self):
        assert training_lengths(reciprocal_plan(CFG)) == (4, 2)
        assert training_lengths(nonreciprocal_plan(CFG)) == (8, 6)


class TestValidate:
    def test_clean(self):
        assert validate(CFG, reciprocal_plan(CFG)) == []

    def test_antenna_ordering(self):
        bad = SystemConfig(n_t=2, n_l=2, n_u=1)
        msgs = validate(bad, reciprocal_plan(CFG))
        assert any("n_t" in m for m in msgs)

    def test_nonpositive_noise(self):
        bad = SystemConfig(n_t=4, n_l=2, n_u=2, var_w=0.0)
        msgs = validate(bad, reciprocal_plan(CFG))
        assert any("var_w" in m for m in msgs)

    def test_budget_gamma_range(self):
        budget = EnergyBudget(e_t_max=100.0, e_l_max=10.0, gamma=2.0)
        msgs = validate(CFG, reciprocal_plan(CFG), budget)
        assert any("gamma" in m for m in msgs)

    def test_never_raises(self):
        bad = SystemConfig(n_t=0, n_l=0, n_u=0, var_w=-1.0)
        assert isinstance(validate(bad, reciprocal_plan(CFG)), list)

    @pytest.mark.parametrize(
        "field,value",
        [("var_w", math.nan), ("var_h", math.inf), ("var_g", -math.inf), ("var_wt", math.inf)],
    )
    def test_non_finite_variance(self, field, value):
        bad = SystemConfig(n_t=4, n_l=2, n_u=2, **{field: value})
        msgs = validate(bad, reciprocal_plan(CFG))
        assert len(msgs) == 1 and msgs[0].startswith(f"{field}:") and "finite" in msgs[0]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("e_t_max", math.nan), ("e_t_max", math.inf), ("e_l_max", math.nan),
            ("e_l_max", -math.inf), ("e_ave_max", math.nan), ("gamma", math.nan),
        ],
    )
    def test_non_finite_budget(self, field, value):
        budget = dataclasses.replace(EnergyBudget(100.0, 10.0, 0.1), **{field: value})
        msgs = validate(CFG, reciprocal_plan(CFG), budget)
        assert len(msgs) == 1 and msgs[0].startswith(f"{field}:")

    def test_infinite_total_cap_means_none(self):
        budget = EnergyBudget(100.0, 10.0, 0.1, e_ave_max=math.inf)
        assert validate(CFG, reciprocal_plan(CFG), budget) == []


class TestAllocationViolations:
    def test_well_formed(self):
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=1.0, e_f=2.0, var_a=0.5)
        assert allocation_violations(alloc, CFG, reciprocal_plan(CFG)) == []

    def test_missing_field(self):
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=1.0)
        msgs = allocation_violations(alloc, CFG, reciprocal_plan(CFG))
        assert any("e_f" in m for m in msgs)

    def test_negative_energy(self):
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=-1.0, e_f=2.0)
        msgs = allocation_violations(alloc, CFG, reciprocal_plan(CFG))
        assert any("e_r" in m for m in msgs)

    @pytest.mark.parametrize(
        "scheme,field,value",
        [
            (RECIPROCAL, "e_f", math.nan),
            (RECIPROCAL, "var_a", math.inf),
            (RECIPROCAL, "e_r", -math.inf),
            (NONRECIPROCAL, "e_l1", math.nan),
            (NONRECIPROCAL, "var_a", math.nan),
        ],
    )
    def test_non_finite_value(self, scheme, field, value):
        if scheme == RECIPROCAL:
            alloc = PowerAllocation(scheme=RECIPROCAL, e_r=1.0, e_f=2.0, var_a=0.5)
            plan = reciprocal_plan(CFG)
        else:
            alloc = PowerAllocation(
                scheme=NONRECIPROCAL, e_t0=1.0, e_l1=1.0, e_l2=1.0, e_t3=1.0, var_a=0.5
            )
            plan = nonreciprocal_plan(CFG)
        alloc = dataclasses.replace(alloc, **{field: value})
        msgs = allocation_violations(alloc, CFG, plan)
        assert len(msgs) == 1 and msgs[0].startswith(f"{field}:") and "finite" in msgs[0]

    def test_scheme_mismatch(self):
        alloc = PowerAllocation(scheme=NONRECIPROCAL, e_t0=1, e_l1=1, e_l2=1, e_t3=1)
        msgs = allocation_violations(alloc, CFG, reciprocal_plan(CFG))
        assert any("scheme" in m for m in msgs)

    def test_an_billed_against_transmitter(self):
        plan = reciprocal_plan(CFG)
        budget = EnergyBudget(e_t_max=100.0, e_l_max=50.0, gamma=0.1)
        # e_f alone fits; AN pushes the spend to 60 + 2*6*4 = 108 > 100
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=0.0, e_f=60.0, var_a=6.0)
        msgs = allocation_violations(alloc, CFG, plan, budget)
        assert any("e_t_max" in m for m in msgs)

    def test_nonreciprocal_an_billed_over_tau_t3(self):
        plan = nonreciprocal_plan(CFG, tau_t3=8)
        budget = EnergyBudget(e_t_max=100.0, e_l_max=50.0, gamma=0.1)
        # 20 + 40 + 2*3*8 = 108 > 100; over n_t = 4 uses it would be 84.
        alloc = PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=20.0, e_l1=10.0, e_l2=10.0, e_t3=40.0, var_a=3.0
        )
        assert training_spend(alloc, CFG, plan) == (108.0, 20.0)
        msgs = allocation_violations(alloc, CFG, plan, budget)
        assert any("e_t_max" in m for m in msgs)
        assert allocation_violations(alloc, CFG, nonreciprocal_plan(CFG), budget) == []

    def test_exact_cap_is_feasible(self):
        plan = reciprocal_plan(CFG)
        budget = EnergyBudget(e_t_max=120.0, e_l_max=200.0, gamma=0.1)
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=200.0, e_f=111.6, var_a=1.05)
        assert allocation_violations(alloc, CFG, plan, budget) == []

    def test_total_cap(self):
        plan = nonreciprocal_plan(CFG)
        budget = EnergyBudget(e_t_max=100.0, e_l_max=100.0, gamma=0.1, e_ave_max=50.0)
        alloc = PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=20.0, e_l1=20.0, e_l2=10.0, e_t3=20.0, var_a=0.0
        )
        msgs = allocation_violations(alloc, CFG, plan, budget)
        assert any("e_ave_max" in m for m in msgs)


class TestDbToEnergy:
    def test_oracles(self):
        assert db_to_energy(30.0, 4) == pytest.approx(4000.0)
        assert db_to_energy(20.0, 2) == pytest.approx(200.0)
        assert db_to_energy(0.0, 1) == pytest.approx(1.0)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            db_to_energy(10.0, 0)


class TestParseConfig:
    def test_good(self):
        settings = parse_config(GOOD_CONFIG)
        assert settings.config.n_t == 4
        assert settings.plan.scheme == RECIPROCAL
        assert settings.gamma == pytest.approx(0.1)
        # documented defaults
        assert settings.pt_db == pytest.approx(30.0)
        assert settings.pl_db == pytest.approx(20.0)
        assert settings.pave_db is None
        assert settings.trials == 10000
        assert settings.seed == 0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(GOOD_CONFIG + "\nwhatever = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(GOOD_CONFIG + "\nnt = 5\n")

    def test_missing_required(self):
        err = None
        try:
            parse_config("nt = 4\nnl = 2\nnu = 2\nscheme = reciprocal\n")
        except ConfigError as exc:
            err = exc
        assert err is not None and err.key == "gamma"

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="expected integer"):
            parse_config(GOOD_CONFIG.replace("nt = 4", "nt = four"))

    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config(GOOD_CONFIG.replace("reciprocal", "psychic"))

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(GOOD_CONFIG.replace("gamma = 0.1", "gamma = 1.5"))

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="'seed'") as info:
            parse_config(GOOD_CONFIG + "\nseed = -1\n")
        assert info.value.key == "seed"

    @pytest.mark.parametrize("trials", [0, 1, 50, 99])
    def test_too_few_trials(self, trials):
        """Every Monte Carlo run needs MIN_TRIALS; the config says so up front."""
        with pytest.raises(ConfigError, match="'trials': must be >= 100") as info:
            parse_config(GOOD_CONFIG + f"\ntrials = {trials}\n")
        assert info.value.key == "trials"
        assert parse_config(GOOD_CONFIG + "\ntrials = 100\n").trials == 100

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("nt 4\n")

    def test_tau_t0_must_match_nt(self):
        text = GOOD_CONFIG.replace("reciprocal", "nonreciprocal") + "\ntau_t0 = 3\n"
        with pytest.raises(ConfigError, match="tau_t0"):
            parse_config(text)

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    @pytest.mark.parametrize("key", [
        "nt", "nl", "nu", "scheme", "gamma",
        "var_h", "var_hu", "var_hd", "var_g", "var_wt", "var_w", "var_v",
        "tau_r", "tau_f", "tau_t0", "tau_l2", "tau_t3", "pilot_rank",
        "pt_db", "pl_db", "pave_db", "trials", "seed",
    ])
    def test_unparsable_value_names_its_key(self, scheme, key):
        """Every value is type-checked, the other scheme's stage lengths too."""
        lines = [line for line in GOOD_CONFIG.replace("reciprocal", scheme).splitlines()
                 if not line.startswith(f"{key} =")]
        with pytest.raises(ConfigError) as info:
            parse_config("\n".join(lines + [f"{key} = banana"]))
        assert info.value.key == key
        if key != "scheme":
            assert "expected" in str(info.value)

    @pytest.mark.parametrize("key,value", [
        ("pt_db", "nan"), ("pt_db", "inf"), ("pt_db", "-inf"),
        ("pl_db", "nan"), ("pl_db", "inf"), ("pl_db", "-inf"),
        ("pave_db", "nan"), ("pave_db", "-inf"),
    ])
    def test_non_finite_power_names_its_key(self, key, value):
        """A dB power that is no number fails at its key, not later at a budget field."""
        with pytest.raises(ConfigError, match=f"'{key}': must be finite") as info:
            parse_config(GOOD_CONFIG + f"\n{key} = {value}\n")
        assert info.value.key == key

    def test_infinite_pave_lifts_cap(self):
        settings = parse_config(GOOD_CONFIG + "\npave_db = inf\n")
        assert settings.pave_db == math.inf
        assert settings.budget().e_ave_max == math.inf

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_documented_defaults_change_nothing(self, scheme):
        """A file listing every optional key at its README default (``pave_db``
        has none) parses to the settings of the minimal file."""
        minimal = GOOD_CONFIG.replace("reciprocal", scheme)
        defaults = (
            "var_h = 1\nvar_hu = 1\nvar_hd = 1\nvar_g = 1\nvar_wt = 1\nvar_w = 1\nvar_v = 1\n"
            "tau_r = 2\ntau_f = 4\ntau_t0 = 4\ntau_l2 = 2\ntau_t3 = 4\npilot_rank = 4\n"
            "pt_db = 30\npl_db = 20\ntrials = 10000\nseed = 0\n"
        )
        assert parse_config(minimal + defaults) == parse_config(minimal)

    def test_budget_mapping(self):
        settings = parse_config(GOOD_CONFIG)
        budget = settings.budget()
        # pt_db=30 over tau_t=4, pl_db=20 over tau_l=2, no cap
        assert budget.e_t_max == pytest.approx(4000.0)
        assert budget.e_l_max == pytest.approx(200.0)
        assert math.isinf(budget.e_ave_max)
        capped = settings.budget(pave_db=10.0)
        assert capped.e_ave_max == pytest.approx(60.0)
        assert settings.budget(gamma=0.03).gamma == pytest.approx(0.03)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.conf")

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "ok.conf"
        path.write_text(GOOD_CONFIG)
        assert load_config(path).config.n_l == 2


class TestDrawChannels:
    def test_reciprocal_shapes(self):
        ch = draw_channels(CFG, RECIPROCAL, RngStream(0))
        assert ch.h.shape == (4, 2)
        assert ch.g.shape == (4, 2)
        assert ch.h_d is None

    def test_nonreciprocal_shapes(self):
        ch = draw_channels(CFG, NONRECIPROCAL, RngStream(0))
        assert ch.h_d.shape == (4, 2)
        assert ch.h_u.shape == (2, 4)
        assert ch.g.shape == (4, 2)
        assert ch.h is None

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            draw_channels(CFG, "carrier-pigeon", RngStream(0))
