"""Power-allocation solver tests.

The closed-form branches are checked against fully hand-derived allocations
(documented inline); the non-reciprocal solver is checked for feasibility,
budget exhaustion and against an independent grid scan.  Scenario values
below were derived by hand from the KKT structure before running the solver.
The reciprocal solver's total-cap outputs are pinned to those of the
scan-and-refine search it replaced, and it is checked against a from-scratch
numpy scan over the reverse energy on random configurations.
The non-reciprocal solver must match or beat the objectives the condensation
GP it replaced reached at recorded points, including budgets where that GP
stopped short of the optimum, and the objectives of the grid-and-zoom
search its Brent search replaced; it is checked against a from-scratch
numpy/scipy oracle over random budgets, and its contract on random
configurations.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from dcekit import allocator, analytics, model
from dcekit.allocator import (
    InfeasibleGamma,
    optimal_pilot_gram,
    optimize_rank,
    solve,
    solve_general,
    solve_nonreciprocal,
    solve_reciprocal,
)
from dcekit.model import (
    EnergyBudget,
    SystemConfig,
    allocation_violations,
    nonreciprocal_plan,
    reciprocal_plan,
)
from dcekit.simkit import mc_nmse

CFG = SystemConfig(n_t=4, n_l=2, n_u=2)
R_PLAN = reciprocal_plan(CFG)
N_PLAN = nonreciprocal_plan(CFG)
ONES = np.ones(4)


def _tx_spend_reciprocal(alloc) -> float:
    return alloc.e_f + R_PLAN.tau_f * (CFG.n_t - CFG.n_l) * alloc.var_a


class TestOptimalPilotGram:
    def test_profiles(self):
        assert optimal_pilot_gram(4, 4) == (1.0, 1.0, 1.0, 1.0)
        assert optimal_pilot_gram(4, 2) == (2.0, 2.0, 0.0, 0.0)
        assert optimal_pilot_gram(4, 1) == (4.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_rank_out_of_range(self, k):
        with pytest.raises(ValueError):
            optimal_pilot_gram(4, k)

    def test_one_definition(self):
        assert allocator.optimal_pilot_gram is model.optimal_pilot_gram


class TestSolveDispatch:
    @pytest.mark.parametrize("plan, solver", [(R_PLAN, "solve_reciprocal"),
                                              (N_PLAN, "solve_nonreciprocal")])
    def test_plan_scheme_picks_the_solver(self, plan, solver, monkeypatch):
        budget = EnergyBudget(120.0, 200.0, 0.1)
        assert solve(CFG, plan, budget) == getattr(allocator, solver)(CFG, plan, budget)
        # Looked up when called, so a replaced solver is the one used.
        monkeypatch.setattr(allocator, solver, lambda *args: "replaced")
        assert solve(CFG, plan, budget) == "replaced"


class TestReciprocalClosedForm:
    def test_worked_instance(self):
        # gamma = 0.1 -> gamma_tilde = 36; zeta = (120-36)/(4+36) = 2.1;
        # e_f = 120 - 4*2.1 = 111.6; var_a = 2.1/2 = 1.05; e_r = full LR cap.
        rep = solve_reciprocal(CFG, R_PLAN, EnergyBudget(120.0, 200.0, 0.1))
        a = rep.allocation
        assert a.e_r == pytest.approx(200.0)
        assert a.e_f == pytest.approx(111.6, rel=1e-12)
        assert a.var_a == pytest.approx(1.05, rel=1e-12)
        assert rep.scenario == "prop1-branch2"
        assert rep.constraint_slack == pytest.approx(0.0, abs=1e-12)
        assert rep.converged
        # The floor is met with equality.
        assert analytics.nmse_u(CFG, a.e_f, a.var_a, ONES) == pytest.approx(0.1, rel=1e-12)
        assert allocation_violations(a, CFG, R_PLAN, budget=EnergyBudget(120.0, 200.0, 0.1)) == []

    def test_branch1_skips_reverse_training(self):
        # var_g = 0.01: mu = 2*(100 - 1) = 198 > LR cap 100, so e_r = 0 and
        # gamma_tilde = (200-100)*4 = 400 joules go to the bare pilot.
        cfg = SystemConfig(n_t=4, n_l=2, n_u=2, var_g=0.01)
        rep = solve_reciprocal(cfg, reciprocal_plan(cfg), EnergyBudget(1000.0, 100.0, 0.005))
        a = rep.allocation
        assert (a.e_r, a.var_a) == (0.0, 0.0)
        assert a.e_f == pytest.approx(400.0, rel=1e-12)
        assert rep.scenario == "prop1-branch1"
        assert rep.constraint_slack == pytest.approx(0.0, abs=1e-12)

    def test_mu_boundary_uses_branch2(self):
        # var_v = 2: mu = 2; with the LR cap exactly 2 reverse training still pays.
        cfg = SystemConfig(n_t=4, n_l=2, n_u=2, var_v=2.0)
        rep = solve_reciprocal(cfg, reciprocal_plan(cfg), EnergyBudget(120.0, 2.0, 0.5))
        a = rep.allocation
        assert a.e_r == pytest.approx(2.0)
        # gamma_tilde = 8, zeta_den = 4 + 8*(1/2) = 8, zeta = 14.
        assert a.e_f == pytest.approx(64.0, rel=1e-12)
        assert a.var_a == pytest.approx(7.0, rel=1e-12)
        assert rep.scenario == "prop1-branch2"

    def test_gamma_at_prior_spends_everything_on_an(self):
        # gamma = var_g makes gamma_tilde = 0: no unguarded energy at all.
        rep = solve_reciprocal(CFG, R_PLAN, EnergyBudget(120.0, 200.0, 1.0))
        a = rep.allocation
        assert a.e_f == pytest.approx(0.0, abs=1e-12)
        assert a.var_a == pytest.approx(15.0, rel=1e-12)
        assert rep.constraint_slack == pytest.approx(0.0, abs=1e-12)

    def test_gamma_at_prior_reduced_rank(self):
        # gamma = var_g = 0.1 at rank 3 of 4 rounds gamma_tilde_3 to -5e-15;
        # the floor is the prior itself, so it is met, as at full rank.
        cfg = SystemConfig(n_t=4, n_l=1, n_u=2, var_g=0.1)
        plan = dataclasses.replace(reciprocal_plan(cfg), pilot_rank=3)
        budget = EnergyBudget(100.0, 100.0, 0.1)
        rep = solve_reciprocal(cfg, plan, budget)
        assert rep.allocation.e_f == 0.0
        assert allocation_violations(rep.allocation, cfg, plan, budget=budget) == []

    def test_infeasible_gamma_raises(self):
        # Feasible window at cap 120 is [1/31, 1]; 0.01 is below it.
        with pytest.raises(InfeasibleGamma, match="gamma"):
            solve_reciprocal(CFG, R_PLAN, EnergyBudget(120.0, 200.0, 0.01))

    def test_rank_two_active_floor(self):
        # K = 2, gamma = 0.6: per-trained-direction target
        # gamma_2 = (4*0.6 - 2)/2 = 0.2, gamma_tilde_2 = (5-1)*2 = 8;
        # zeta = (120-8)/(4+8) = 28/3; e_f = 248/3; var_a = 14/3.
        plan = dataclasses.replace(R_PLAN, pilot_rank=2)
        rep = solve_reciprocal(CFG, plan, EnergyBudget(120.0, 200.0, 0.6))
        a = rep.allocation
        assert a.e_r == pytest.approx(200.0)
        assert a.e_f == pytest.approx(248.0 / 3.0, rel=1e-12)
        assert a.var_a == pytest.approx(14.0 / 3.0, rel=1e-12)
        assert rep.constraint_slack == pytest.approx(0.0, abs=1e-12)
        got = analytics.nmse_u(CFG, a.e_f, a.var_a, optimal_pilot_gram(4, 2))
        assert got == pytest.approx(0.6, rel=1e-12)

    def test_rank_two_vacuous_floor(self):
        # gamma = 0.4 sits below the untrained-direction floor 2/4 = 0.5:
        # any rank-2 pilot satisfies it, so everything goes to the pilot.
        plan = dataclasses.replace(R_PLAN, pilot_rank=2)
        rep = solve_reciprocal(CFG, plan, EnergyBudget(120.0, 200.0, 0.4))
        a = rep.allocation
        assert rep.scenario == "rank-k-vacuous"
        assert (a.e_r, a.var_a) == (0.0, 0.0)
        assert a.e_f == pytest.approx(120.0)
        assert rep.constraint_slack >= 0.0

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("e_t,e_l", [(20.0, 10.0), (120.0, 200.0), (500.0, 50.0)])
    def test_solution_always_feasible(self, gamma, e_t, e_l):
        budget = EnergyBudget(e_t, e_l, gamma)
        try:
            rep = solve_reciprocal(CFG, R_PLAN, budget)
        except InfeasibleGamma:
            r = analytics.gamma_range(CFG, e_t)
            assert not r.lo <= gamma <= r.hi
            return
        a = rep.allocation
        assert allocation_violations(a, CFG, R_PLAN, budget=budget) == []
        assert rep.constraint_slack >= -1e-9
        recomputed = analytics.nmse_u(CFG, a.e_f, a.var_a, ONES) - gamma
        assert rep.constraint_slack == pytest.approx(recomputed, abs=1e-12)
        assert rep.objective == pytest.approx(
            analytics.nmse_l_reciprocal(CFG, a.e_r, a.e_f, a.var_a, ONES), rel=1e-12
        )

    def test_forward_resources_monotone_in_tx_cap(self):
        caps = [50.0, 80.0, 120.0, 200.0, 400.0]
        reps = [solve_reciprocal(CFG, R_PLAN, EnergyBudget(c, 200.0, 0.1)) for c in caps]
        e_f = [r.allocation.e_f for r in reps]
        var_a = [r.allocation.var_a for r in reps]
        assert np.all(np.diff(e_f) > 0)
        assert np.all(np.diff(var_a) > 0)
        objectives = [r.objective for r in reps]
        assert np.all(np.diff(objectives) < 0)


class TestAverageCapScenarios:
    BUDGET = dict(e_t_max=120.0, e_l_max=200.0, gamma=0.1)

    def test_loose_cap_delegates_to_closed_form(self):
        loose = solve_general(CFG, R_PLAN, EnergyBudget(**self.BUDGET, e_ave_max=400.0))
        tight = solve_reciprocal(CFG, R_PLAN, EnergyBudget(**self.BUDGET))
        assert loose.allocation == dataclasses.replace(
            tight.allocation, scheme=loose.allocation.scheme
        )
        assert loose.scenario == "scenario1"
        assert loose.message == "total cap slack; the per-node optimum holds (prop1-branch2)"

    def test_boundary_cap_matches_closed_form(self):
        # e_ave = e_t + e_l: the average cap is exactly saturated by prop-1.
        rep = solve_general(CFG, R_PLAN, EnergyBudget(**self.BUDGET, e_ave_max=320.0))
        a = rep.allocation
        assert a.e_r == pytest.approx(200.0)
        assert a.e_f == pytest.approx(111.6, rel=1e-9)
        assert a.var_a == pytest.approx(1.05, rel=1e-9)

    def test_scenario2_trades_reverse_energy(self):
        # Individual caps both fit inside e_ave = 250; with symmetric variances
        # the reverse pilot is the cheapest joule to give up: e_r = 250 - 120.
        rep = solve_general(CFG, R_PLAN, EnergyBudget(**self.BUDGET, e_ave_max=250.0))
        a = rep.allocation
        assert rep.scenario == "scenario2"
        assert a.e_r == pytest.approx(130.0, rel=1e-9)
        assert a.e_f == pytest.approx(111.6, rel=1e-9)
        assert a.var_a == pytest.approx(1.05, rel=1e-9)
        assert a.e_r + _tx_spend_reciprocal(a) == pytest.approx(250.0, rel=1e-9)

    def test_scenario3_exhausts_average_budget(self):
        rep = solve_general(CFG, R_PLAN, EnergyBudget(**self.BUDGET, e_ave_max=150.0))
        a = rep.allocation
        assert rep.scenario == "scenario3"
        assert a.e_r + _tx_spend_reciprocal(a) == pytest.approx(150.0, rel=1e-9)
        assert rep.constraint_slack == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("e_ave", [60.0, 150.0, 250.0])
    def test_matches_independent_grid_scan(self, e_ave):
        """Solver beats a dense scan over the reverse energy (independent oracle)."""
        budget = EnergyBudget(**self.BUDGET, e_ave_max=e_ave)
        rep = solve_general(CFG, R_PLAN, budget)
        gt = analytics.gamma_tilde(CFG, budget.gamma)
        zeta_den = R_PLAN.tau_f + gt * CFG.var_g / CFG.var_v
        lo = max(0.0, analytics.mu(CFG), e_ave - budget.e_t_max)
        hi = min(budget.e_l_max, e_ave - gt)
        best = np.inf
        for e_r in np.linspace(lo, hi, 4001):
            e_tx = min(budget.e_t_max, e_ave - e_r)
            zeta = (e_tx - gt) / zeta_den
            val = analytics.nmse_l_reciprocal(
                CFG, e_r, e_tx - R_PLAN.tau_f * zeta, zeta / (CFG.n_t - CFG.n_l), ONES
            )
            best = min(best, val)
        assert rep.objective <= best + 1e-10
        assert allocation_violations(rep.allocation, CFG, R_PLAN, budget=budget) == []

    def test_average_cap_below_gamma_tilde_is_infeasible(self):
        with pytest.raises(InfeasibleGamma):
            solve_general(CFG, R_PLAN, EnergyBudget(120.0, 200.0, 0.05, e_ave_max=70.0))

    def test_grid_maximum_tied_with_neighbour(self):
        """A reverse-energy interval 1e-5 wide around the optimum, narrow
        enough that a 2001-point scan's maximum tied its neighbour in
        floating point."""
        budget = EnergyBudget(
            7128.332691059308, 4874.05831918185, 0.9351373513639805,
            e_ave_max=12002.391000117168,
        )
        rep = solve_general(CFG, R_PLAN, budget)
        assert rep.scenario == "scenario2"
        assert allocation_violations(rep.allocation, CFG, R_PLAN, budget=budget) == []
        assert rep.constraint_slack >= -1e-9


# Total-cap budgets as the replaced scan-and-refine search solved them: (e_t,
# e_l, gamma, e_ave, scenario, its iteration count, e_r, e_f, var_a,
# objective).  The exact solver must reach each objective and land on the
# same allocation.
GENERAL_PINS = [
    (120.0, 200.0, 0.1, 60.0, "scenario3", 2045, 6.233056131777886,
     51.99024948139991, 0.22208679835277642, 0.07854404342074436),
    (120.0, 200.0, 0.1, 250.0, "scenario2", 2001, 130.0,
     111.60000000000001, 1.05, 0.035663786331500386),
    (8000.0, 600.0, 0.1, 1000.0, "scenario3", 2045, 178.9596961930609,
     742.5362734262453, 9.81300379758674, 0.0065127315437326265),
    (8000.0, 600.0, 0.1, 3000.0, "scenario3", 2043, 544.4765924339556,
     2213.5710668094403, 30.244042594575557, 0.0022022064575481118),
    (1000.0, 1000.0, 0.05, 300.0, "scenario3", 2048, 34.71173121707223,
     255.8238553437814, 1.1830516798932986, 0.01734507321182071),
    (1000.0, 1000.0, 0.3, 1200.0, "scenario2", 2045, 333.5380096602123,
     609.3233932378515, 32.14232463774204, 0.008998356542712018),
    (1000.0, 1000.0, 0.7, 1200.0, "scenario2", 2044, 445.84070047443004,
     227.44778985767098, 65.83893870848736, 0.02716948935610297),
]


@pytest.mark.parametrize("pin", GENERAL_PINS, ids=lambda p: f"{p[2]}-{p[3]}")
def test_pinned_general_outputs(pin):
    e_t, e_l, gamma, e_ave, scenario, _, e_r, e_f, var_a, objective = pin
    for solver in (solve_general, solve_reciprocal):
        rep = solver(CFG, R_PLAN, EnergyBudget(e_t, e_l, gamma, e_ave_max=e_ave))
        a = rep.allocation
        assert (rep.scenario, rep.iterations) == (scenario, 0)
        assert rep.objective <= objective * (1 + 1e-12)
        assert (a.e_r, a.e_f, a.var_a) == pytest.approx((e_r, e_f, var_a), rel=1e-7)


def _reciprocal_scan(cfg, plan, budget, points=4001) -> float:
    """Best LR NMSE over a dense reverse-energy scan, from the paper's
    formulas in numpy (no dcekit code), or inf when the floor is out of
    reach.  At each ``e_r`` the floor binds and, since LR's ratio is
    monotone in the AN, either no AN or the whole transmitter room goes to
    AN; both are scanned.  Every point is feasible, so the result bounds the
    optimum from above."""
    nt, nl, k, an = cfg.n_t, cfg.n_l, plan.pilot_rank, cfg.n_t - cfg.n_l
    e_t, e_l, e_ave = budget.e_t_max, budget.e_l_max, budget.e_ave_max

    def nmse_l(e_r, e_f, z):  # z = (n_t - n_l) var_a
        delta2 = 1.0 / (1.0 / cfg.var_h + e_r / (nl * cfg.var_wt))
        r_bar = z * delta2 + cfg.var_w
        return ((nt - k) * cfg.var_h + k / (1.0 / cfg.var_h + e_f / (k * r_bar))) / nt

    gamma_k = (nt * budget.gamma - (nt - k) * cfg.var_g) / k
    if gamma_k <= 0.0:
        return float(nmse_l(0.0, min(e_t, e_ave), 0.0))
    gt = max((1.0 / gamma_k - 1.0 / cfg.var_g) * k * cfg.var_v, 0.0)
    if gt > min(e_t, e_ave):
        return math.inf
    e_r = np.linspace(0.0, min(e_l, e_ave - gt), points)
    tx = np.minimum(e_t, e_ave - e_r)
    z = np.maximum(tx - gt, 0.0) / (plan.tau_f + gt * cfg.var_g / cfg.var_v)
    with_an = nmse_l(e_r, gt * (1.0 + z * cfg.var_g / cfg.var_v), z)
    return float(min(with_an.min(), nmse_l(0.0, gt, 0.0)))


def _wide_draw(rng, variances):
    """A random configuration, pilot rank and budget far outside the
    operating range: variances 10^-6..10^6, caps 10^-2..10^8 (a total cap on
    most draws)."""
    n_t = int(rng.integers(3, 7))
    n_l, k = int(rng.integers(1, n_t)), int(rng.integers(1, n_t + 1))
    var = {name: float(10.0 ** rng.uniform(-6, 6)) for name in variances}
    cfg = SystemConfig(n_t=n_t, n_l=n_l, n_u=2, **var)
    e_t, e_l, e_ave = 10.0 ** rng.uniform(-2, 8, size=3)
    budget = EnergyBudget(
        e_t, e_l, cfg.var_g * rng.uniform(0.01, 1.0),
        e_ave_max=e_ave if rng.random() < 0.75 else math.inf,
    )
    return cfg, k, budget


def _contract_draw(rng, scheme):
    """A random configuration, plan and budget of the contract fuzzes: n_t
    3-6, any n_l < n_t, every rank, ``tau_f`` (or ``tau_l2`` and ``tau_t3``)
    up to 3 above its minimum, variances 10^-1..10^1, caps 10^0..10^4 and a
    total cap up to 10^4.3 on most draws."""
    n_t = int(rng.integers(3, 7))
    n_l, k = int(rng.integers(1, n_t)), int(rng.integers(1, n_t + 1))
    names = ("var_h",) if scheme == "reciprocal" else ("var_hu", "var_hd")
    var = {name: float(10.0 ** rng.uniform(-1, 1))
           for name in names + ("var_g", "var_wt", "var_w", "var_v")}
    cfg = SystemConfig(n_t=n_t, n_l=n_l, n_u=2, **var)
    if scheme == "reciprocal":
        plan = dataclasses.replace(
            reciprocal_plan(cfg), tau_f=n_t + int(rng.integers(0, 4)), pilot_rank=k,
        )
    else:
        plan = nonreciprocal_plan(
            cfg, tau_l2=n_l + int(rng.integers(0, 4)),
            tau_t3=n_t + int(rng.integers(0, 4)), pilot_rank=k,
        )
    e_ave = 10.0 ** rng.uniform(0, 4.3) if rng.random() < 0.75 else math.inf
    budget = EnergyBudget(
        10.0 ** rng.uniform(0, 4), 10.0 ** rng.uniform(0, 4),
        cfg.var_g * rng.uniform(0.01, 1.0), e_ave_max=e_ave,
    )
    return cfg, plan, budget


def _assert_contract(rep, cfg, plan, budget):
    assert allocation_violations(rep.allocation, cfg, plan, budget=budget) == [], (cfg, plan, budget)
    assert rep.constraint_slack >= -1e-9, (cfg, plan, budget)
    assert math.isfinite(rep.objective), (cfg, plan, budget)
    assert rep.converged, (cfg, plan, budget)


class TestReciprocalContract:
    """Random configurations (n_t 3-6, any n_l < n_t, every rank, tau_f
    n_t..n_t+3, non-unit variances, a total cap on most draws): each solve
    raises InfeasibleGamma exactly when the scan finds the floor out of
    reach, or meets the contract and matches or beats the scan."""

    @pytest.mark.parametrize("seed", range(4))
    def test_feasible_and_never_beaten(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            cfg, plan, budget = _contract_draw(rng, "reciprocal")
            best = _reciprocal_scan(cfg, plan, budget)
            try:
                rep = solve_reciprocal(cfg, plan, budget)
            except InfeasibleGamma:
                assert best == math.inf, budget
                continue
            assert allocation_violations(rep.allocation, cfg, plan, budget=budget) == []
            assert rep.constraint_slack >= -1e-9
            assert math.isfinite(rep.objective)
            assert rep.objective <= best * (1 + 1e-12), (cfg, plan, budget)


    def test_wide_domain(self):
        rng = np.random.default_rng(10)
        for _ in range(1500):
            cfg, k, budget = _wide_draw(rng, ("var_h", "var_g", "var_wt", "var_w", "var_v"))
            plan = reciprocal_plan(cfg, pilot_rank=k)
            try:
                rep = solve_reciprocal(cfg, plan, budget)
            except InfeasibleGamma:
                continue
            _assert_contract(rep, cfg, plan, budget)


class TestNonreciprocalSolver:
    # Operating point: tx cap 8000 (30 dB over 8 uses), LR cap 600 (20 dB over 6).
    BUDGET = EnergyBudget(8000.0, 600.0, 0.1)

    def test_anchor_point(self):
        rep = solve_nonreciprocal(CFG, N_PLAN, self.BUDGET)
        assert rep.converged
        assert rep.scenario == "interior"
        # Independent 3-D grid scan puts the optimum at 0.0020206 +- 1%.
        assert 0.00200 <= rep.objective <= 0.00204
        assert rep.constraint_slack >= -1e-9
        assert abs(rep.constraint_slack) < 0.02 * self.BUDGET.gamma
        a = rep.allocation
        tx = a.e_t0 + a.e_t3 + N_PLAN.tau_t3 * (CFG.n_t - CFG.n_l) * a.var_a
        lr = a.e_l1 + a.e_l2
        assert tx == pytest.approx(self.BUDGET.e_t_max, rel=1e-3)
        assert lr == pytest.approx(self.BUDGET.e_l_max, rel=1e-3)
        assert allocation_violations(a, CFG, N_PLAN, budget=self.BUDGET) == []

    def test_objective_consistent_with_analytics(self):
        rep = solve_nonreciprocal(CFG, N_PLAN, self.BUDGET)
        recomputed = analytics.nmse_l_nonreciprocal_approx(CFG, rep.allocation, N_PLAN)
        assert rep.objective == pytest.approx(recomputed, rel=1e-10)

    def test_beats_an_free_corner(self):
        rep = solve_nonreciprocal(CFG, N_PLAN, self.BUDGET)
        corner = 1.0 / (
            1.0 / CFG.var_hd
            + min(self.BUDGET.e_t_max, analytics.gamma_tilde(CFG, 0.1))
            / (CFG.n_t * CFG.var_w)
        )
        assert rep.objective <= corner + 1e-12

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("e_t,e_l", [(800.0, 60.0), (8000.0, 600.0)])
    def test_always_feasible_when_gamma_admits(self, gamma, e_t, e_l):
        budget = EnergyBudget(e_t, e_l, gamma)
        try:
            rep = solve_nonreciprocal(CFG, N_PLAN, budget)
        except InfeasibleGamma:
            assert analytics.gamma_tilde(CFG, gamma) > e_t
            return
        assert rep.constraint_slack >= -1e-9
        assert allocation_violations(rep.allocation, CFG, N_PLAN, budget=budget) == []

    def test_average_cap_respected(self):
        budget = EnergyBudget(8000.0, 600.0, 0.1, e_ave_max=2000.0)
        rep = solve_nonreciprocal(CFG, N_PLAN, budget)
        a = rep.allocation
        total = (
            a.e_t0 + a.e_t3 + N_PLAN.tau_t3 * (CFG.n_t - CFG.n_l) * a.var_a + a.e_l1 + a.e_l2
        )
        assert total <= 2000.0 * (1 + 1e-9)
        assert rep.constraint_slack >= -1e-9

    def test_gamma_below_window_raises(self):
        # gamma_tilde(0.03) = 129.3 > 120.
        with pytest.raises(InfeasibleGamma):
            solve_nonreciprocal(CFG, N_PLAN, EnergyBudget(120.0, 200.0, 0.03))

    def test_gamma_at_prior_is_met(self):
        # gamma = var_g asks for no unguarded pilot energy, so both schemes
        # meet it; the non-reciprocal optimum sends nothing and LR keeps its
        # prior.
        configs = (CFG, SystemConfig(4, 1, 2, var_g=0.1), SystemConfig(5, 3, 1, var_hd=2.0))
        cases = itertools.product(
            configs, (math.inf, 150.0), (reciprocal_plan, nonreciprocal_plan), (None, 3)
        )
        for cfg, e_ave, make_plan, rank in cases:
            budget = EnergyBudget(120.0, 200.0, cfg.var_g, e_ave_max=e_ave)
            plan = make_plan(cfg, pilot_rank=rank)  # None: full rank
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = solve(cfg, plan, budget)
            assert rep.converged and not rep.message
            assert rep.constraint_slack == pytest.approx(0.0, abs=1e-12)
            assert allocation_violations(rep.allocation, cfg, plan, budget=budget) == []
            if plan.scheme == "nonreciprocal":
                assert rep.scenario == "an-free"
                assert rep.objective == pytest.approx(cfg.var_hd, rel=1e-12)

    def test_rank_two_vacuous_floor(self):
        plan = dataclasses.replace(N_PLAN, pilot_rank=2)
        rep = solve_nonreciprocal(CFG, plan, EnergyBudget(120.0, 200.0, 0.4))
        assert rep.scenario == "rank-k-vacuous"
        a = rep.allocation
        assert a.e_t3 == pytest.approx(120.0)
        assert a.var_a == 0.0

    def test_wrong_plan_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            solve_nonreciprocal(CFG, R_PLAN, self.BUDGET)
        with pytest.raises(ValueError, match="scheme"):
            solve_reciprocal(CFG, N_PLAN, self.BUDGET)


class TestOptimizeRank:
    def test_full_rank_wins_at_operating_point(self):
        best, rep = optimize_rank(CFG, N_PLAN, EnergyBudget(8000.0, 600.0, 0.1))
        assert best == 4
        assert rep.converged

    def test_reduced_rank_wins_when_floor_is_tight(self):
        # gamma = 0.03 is infeasible for a full-rank pilot at this cap, but a
        # rank-3 pilot leaves an untrained direction whose prior alone keeps
        # the floor satisfied.
        budget = EnergyBudget(63.39572769844453, 3.169786384922227, 0.03)
        best, rep = optimize_rank(CFG, reciprocal_plan(CFG), budget)
        assert best == 3
        assert rep.scenario == "rank-k-vacuous"

    def test_all_ranks_infeasible_raises(self):
        # gamma = 0.99 exceeds every untrained-direction floor (even rank 1
        # leaves only 3/4 of the prior), so each rank needs a positive
        # gamma_tilde_K -- which a microscopic transmit cap cannot fit.
        with pytest.raises(InfeasibleGamma):
            optimize_rank(CFG, R_PLAN, EnergyBudget(1e-6, 1e-6, 0.99))

    def test_reported_best_matches_rerun(self):
        budget = EnergyBudget(120.0, 200.0, 0.1)
        best, rep = optimize_rank(CFG, R_PLAN, budget)
        plan = dataclasses.replace(R_PLAN, pilot_rank=best)
        again = solve_reciprocal(CFG, plan, budget)
        assert again.objective == pytest.approx(rep.objective, rel=1e-12)


class TestReportIsJson:
    """A report holds plain Python values, so ``dataclasses.asdict`` of it
    goes through ``json`` on every solution path."""

    @pytest.mark.parametrize("solver,plan,budget,scenario", [
        (solve_reciprocal, R_PLAN, EnergyBudget(8000.0, 600.0, 0.1), "prop1-branch2"),
        (solve_reciprocal, dataclasses.replace(R_PLAN, pilot_rank=2),
         EnergyBudget(120.0, 200.0, 0.4), "rank-k-vacuous"),
        (solve_nonreciprocal, N_PLAN, EnergyBudget(8000.0, 600.0, 0.1), "interior"),
        (solve_nonreciprocal, N_PLAN, EnergyBudget(120.0, 200.0, 1.0), "an-free"),
        (solve_nonreciprocal, dataclasses.replace(N_PLAN, pilot_rank=2),
         EnergyBudget(120.0, 200.0, 0.4), "rank-k-vacuous"),
    ])
    def test_round_trip(self, solver, plan, budget, scenario):
        rep = solver(CFG, plan, budget)
        assert rep.scenario == scenario
        assert type(rep.converged) is bool
        fields = dataclasses.asdict(rep)
        assert json.loads(json.dumps(fields)) == fields


class TestSolverInputValidation:
    """Every solver rejects what ``validate`` rejects with a plain ValueError."""

    SOLVERS = [
        (solve_reciprocal, R_PLAN),
        (solve_general, R_PLAN),
        (solve_nonreciprocal, N_PLAN),
    ]

    @pytest.mark.parametrize("solver,plan", SOLVERS, ids=["reciprocal", "general", "nonreciprocal"])
    @pytest.mark.parametrize(
        "field,value",
        [
            ("gamma", math.nan), ("e_t_max", math.nan), ("e_t_max", math.inf),
            ("e_l_max", math.nan), ("e_ave_max", math.nan), ("gamma", 2.0),
        ],
    )
    def test_invalid_budget_raises_value_error(self, solver, plan, field, value):
        budget = dataclasses.replace(EnergyBudget(800.0, 600.0, 0.1, 1000.0), **{field: value})
        with pytest.raises(ValueError, match=field) as info:
            solver(CFG, plan, budget)
        assert not isinstance(info.value, InfeasibleGamma)

    @pytest.mark.parametrize("solver,plan", SOLVERS, ids=["reciprocal", "general", "nonreciprocal"])
    def test_invalid_config_raises_value_error(self, solver, plan):
        cfg = SystemConfig(n_t=4, n_l=2, n_u=2, var_w=math.nan)
        with pytest.raises(ValueError, match="var_w"):
            solver(cfg, plan, EnergyBudget(800.0, 600.0, 0.1, 1000.0))

    @pytest.mark.parametrize(
        "solver,plan,field",
        [(solve_reciprocal, R_PLAN, "var_h"), (solve_general, R_PLAN, "var_h"),
         (solve_nonreciprocal, N_PLAN, "var_hd"), (solve_nonreciprocal, N_PLAN, "var_hu")],
        ids=["reciprocal", "general", "nr-down", "nr-up"],
    )
    @pytest.mark.parametrize("e_ave", [math.inf, 1000.0])
    def test_zero_solved_prior_raises_value_error(self, solver, plan, field, e_ave):
        cfg = dataclasses.replace(CFG, **{field: 0.0})
        with pytest.raises(ValueError, match=field) as info:
            solver(cfg, plan, EnergyBudget(8000.0, 600.0, 0.1, e_ave_max=e_ave))
        assert not isinstance(info.value, InfeasibleGamma)

    @pytest.mark.parametrize("field", ["var_hd", "var_hu"])
    def test_zero_prior_of_other_scheme_is_ignored(self, field):
        cfg = dataclasses.replace(CFG, **{field: 0.0})
        budget = EnergyBudget(8000.0, 600.0, 0.1)
        assert solve_reciprocal(cfg, R_PLAN, budget) == solve_reciprocal(CFG, R_PLAN, budget)

    def test_every_violation_is_named(self):
        budget = EnergyBudget(math.nan, -1.0, math.nan)
        with pytest.raises(ValueError, match="e_t_max.*e_l_max.*gamma"):
            solve_nonreciprocal(CFG, N_PLAN, budget)


# Extreme variances: the share condition's terms differ by many orders of
# magnitude, and the optimum in var_a is flat.
CFG_WT = SystemConfig(4, 2, 2, var_wt=1e-12)
CFG_HU = SystemConfig(4, 2, 2, var_hu=1e6)
CFG_HD = SystemConfig(4, 2, 2, var_hd=1e-12)


# --- Pinned GP outputs -------------------------------------------------------
# Objectives the condensation GP reached (all converged), at the 13 feasible
# points of the non-reciprocal `sweep` grid (SystemConfig(4, 2, 2), pt_db =
# 30, pl_db = pave_db - 10, total cap pave_db) and at the EnergyBudget(8000,
# 600, 0.1) anchor.  The exact solver must reach them or better.  The GP's
# outer-iteration counts stay in the table as part of each pin's test id.
_L = {15.0: 18.973665961010276, 21.0: 75.53552470765004, 27.0: 300.71234017636334,
      33.0: 1197.1573889813271, 39.0: 4765.969408345688}
_A = {15.0: 442.7188724235731, 21.0: 1762.4955765118345, 27.0: 7016.621270781814,
      33.0: 27933.672409564304, 39.0: 111205.95286139939}
GP_PINS = [
    # (gamma, pave_db, GP iterations, objective)
    (0.002, 27.0, 5, 0.0006669184304717396),
    (0.002, 33.0, 5, 0.0005465799140776039),
    (0.002, 39.0, 5, 0.0005412643574315068),
    (0.1, 15.0, 9, 0.04009462596762611),
    (0.1, 21.0, 4, 0.012257472896809465),
    (0.1, 27.0, 3, 0.0032426010506101093),
    (0.1, 33.0, 3, 0.001492695896083202),
    (0.1, 39.0, 3, 0.0010934191095130683),
    (0.3, 15.0, 8, 0.11879290650643444),
    (0.3, 21.0, 3, 0.037729280152500745),
    (0.3, 27.0, 3, 0.010114982919198426),
    (0.3, 33.0, 3, 0.0037665262946922303),
    (0.3, 39.0, 3, 0.002224498539515048),
]


class TestPinnedGpOutputs:
    @pytest.mark.parametrize("gamma,pave,gp_iterations,objective", GP_PINS)
    def test_sweep_grid(self, gamma, pave, gp_iterations, objective):
        budget = EnergyBudget(8000.0, _L[pave], gamma, e_ave_max=_A[pave])
        rep = solve_nonreciprocal(CFG, N_PLAN, budget)
        assert rep.converged
        assert rep.objective <= objective * (1 + 1e-9)

    def test_anchor(self):
        rep = solve_nonreciprocal(CFG, N_PLAN, EnergyBudget(8000.0, 600.0, 0.1))
        assert rep.converged
        assert rep.objective <= 0.002020568509860915 * (1 + 1e-9)

    # Objectives of the search with a 52-step share bisection and 24-point
    # zoom rounds, at extreme variances: a var_a stop rule that held every
    # other pin lost 0.2-0.7% here.
    @pytest.mark.parametrize("cfg,budget,objective", [
        (CFG_WT, EnergyBudget(1000.0, 100.0, 0.1, e_ave_max=500.0), 0.0145609055332),
        (CFG_WT, EnergyBudget(1e5, 1e3, 0.002, e_ave_max=7000.0), 0.000615262952821),
        (CFG_HU, EnergyBudget(1000.0, 100.0, 0.1, e_ave_max=500.0), 0.01456864447),
        (CFG_HU, EnergyBudget(1e5, 1e3, 0.002, e_ave_max=7000.0), 0.000615315755287),
    ], ids=["var_wt-1e-12-low", "var_wt-1e-12-high", "var_hu-1e6-low", "var_hu-1e6-high"])
    def test_extreme_variances(self, cfg, budget, objective):
        rep = solve_nonreciprocal(cfg, nonreciprocal_plan(cfg), budget)
        assert rep.converged and rep.scenario == "interior"
        assert rep.objective <= objective * (1 + 1e-9)


# Objectives of the grid-and-zoom var_a search (a 64-point log grid, then
# 128-point zoom rounds to a bracket 1e-9 wide) that the scalar round and
# Brent's method replaced, at full precision: the 13 GP_PINS budgets, the
# anchor, the four extreme-variance budgets and the six non-reciprocal
# PINNED_SWEEP points of tests/test_cli.py.  The search must reach each to
# rounding.
ZOOM_PINS = [
    *[(CFG, EnergyBudget(8000.0, _L[p], g, e_ave_max=_A[p]), objective) for g, p, objective in [
        (0.002, 27.0, 0.0006669184274729326),
        (0.002, 33.0, 0.0005465799135946946),
        (0.002, 39.0, 0.0005412643569838479),
        (0.1, 15.0, 0.04009462557075778),
        (0.1, 21.0, 0.012257472892746894),
        (0.1, 27.0, 0.0032426010496225386),
        (0.1, 33.0, 0.0014926958956358934),
        (0.1, 39.0, 0.0010934191091853858),
        (0.3, 15.0, 0.11879290608520088),
        (0.3, 21.0, 0.03772928006842294),
        (0.3, 27.0, 0.010114982916191832),
        (0.3, 33.0, 0.0037665262935665527),
        (0.3, 39.0, 0.0022244985388492093),
    ]],
    (CFG, EnergyBudget(8000.0, 600.0, 0.1), 0.002020568509255001),
    (CFG_WT, EnergyBudget(1000.0, 100.0, 0.1, e_ave_max=500.0), 0.014560905533166543),
    (CFG_WT, EnergyBudget(1e5, 1e3, 0.002, e_ave_max=7000.0), 0.0006152629528211777),
    (CFG_HU, EnergyBudget(1000.0, 100.0, 0.1, e_ave_max=500.0), 0.014568644469966389),
    (CFG_HU, EnergyBudget(1e5, 1e3, 0.002, e_ave_max=7000.0), 0.00061531575528748),
    *[(CFG, EnergyBudget(8000.0, 600.0, g, e_ave_max=e_ave), objective) for g, e_ave, objective in [
        (0.1, 140.0, 0.06291955805555667),
        (0.03, 140.0, 0.029902268463781436),
        (0.1, 1400.0, 0.008793159216323114),
        (0.03, 1400.0, 0.005333843738387636),
        (0.1, 14000.0, 0.002020568509255001),
        (0.03, 14000.0, 0.0009978364291623218),
    ]],
]


@pytest.mark.parametrize("cfg,budget,objective", ZOOM_PINS)
def test_reaches_zoom_objective(cfg, budget, objective):
    rep = solve_nonreciprocal(cfg, nonreciprocal_plan(cfg), budget)
    assert rep.converged
    assert rep.objective <= objective * (1 + 1e-12)


class TestGpShortfalls:
    """Budgets where the condensation GP reported a worse point as converged.

    Each pin is the objective of a feasible allocation found by a reduced
    grid search (with ``var_a > 0``); the GP stopped at the AN-free corner or
    short of the optimum.
    """

    @pytest.mark.parametrize(
        "budget,pin",
        [
            # gamma = 0.03, P_ave = 14 dB in the acceptance grid's shape:
            # the GP returned the AN-free corner, 0.03000.
            (EnergyBudget(200.95, 15.07, 0.03), 0.025281),
            (EnergyBudget(41.7, 200.0, 0.163), 0.130911),
            # Total cap far below the per-node caps: the GP took 104
            # iterations to reach 0.816575678127 (2.4e-6 above the optimum).
            (EnergyBudget(712.8, 34521.0, 0.826, e_ave_max=12.19), 0.81657370),
        ],
        ids=["acceptance-grid", "low-energy", "tight-total-cap"],
    )
    def test_reaches_pin(self, budget, pin):
        rep = solve_nonreciprocal(CFG, N_PLAN, budget)
        assert rep.objective <= pin * (1 + 1e-6)
        assert rep.allocation.var_a > 0.0
        assert rep.converged and rep.scenario == "interior"
        assert allocation_violations(rep.allocation, CFG, N_PLAN, budget=budget) == []
        assert rep.constraint_slack >= -1e-9


# --- Reduced-space oracle ----------------------------------------------------
# Written from the paper's formulas with numpy and scipy only; it shares no
# code with dcekit.  It uses two facts of the reduction -- the UR floor binds
# and the LR energy left by the caps is spent -- but neither the closed-form
# LR split nor the TX/LR share condition: those are searched numerically.


def _oracle_nmse(cfg, plan, p):
    """(LR NMSE, UR NMSE) at stacked (e_t0, e_l1, e_l2, e_t3, var_a) rows,
    uniform rank-K forward pilot, tau_t0 = n_t."""
    e_t0, e_l1, e_l2, e_t3, var_a = (np.asarray(x, dtype=float) for x in p)
    nt, nl, k = cfg.n_t, cfg.n_l, plan.pilot_rank
    with np.errstate(divide="ignore", invalid="ignore"):
        q = cfg.var_hd * e_t0 + nt * cfg.var_w           # echoed stage-0 power
        alpha2 = e_l1 / (nl * q)                          # echo gain^2 at LR's cap
        rho0 = cfg.var_hd * e_t0 / q
        delta_u2 = 1.0 / (1.0 / cfg.var_hu + e_l2 / (nl * cfg.var_wt))
        beta = nl * delta_u2 + nt * cfg.var_wt / (alpha2 * q)
        lam = nt * cfg.var_hu**2 * e_l2 / (cfg.var_hu * e_l2 + nl * cfg.var_wt)
        powered = (e_t0 > 0) & (e_l1 > 0) & (e_l2 > 0)
        err = np.where(powered, cfg.var_hd * (1.0 - rho0 * lam / (beta + lam)), cfg.var_hd)
    an = nt - nl
    noise_l = an * var_a * err + cfg.var_w
    noise_u = an * var_a * cfg.var_g + cfg.var_v

    def nmse(prior, noise):
        return ((nt - k) * prior + k / (1.0 / prior + e_t3 / (k * noise))) / nt

    return nmse(cfg.var_hd, noise_l), nmse(cfg.var_g, noise_u)


def _oracle(cfg, plan, budget) -> float:
    """Best LR NMSE over (var_a, e_t0 share, LR split): a 41x21x21 grid, then
    Nelder-Mead from the two best grid points.  Every point is feasible by
    construction, so the result bounds the true optimum from above."""
    nt, nl, k = cfg.n_t, cfg.n_l, plan.pilot_rank
    an = nt - nl
    cap = min(budget.e_t_max, budget.e_ave_max)
    gamma_k = (nt * budget.gamma - (nt - k) * cfg.var_g) / k
    top = (1.0 / gamma_k - 1.0 / cfg.var_g) * k * cfg.var_v  # floor e_t3 at var_a = 0
    v_max = (cap - top) / (top * an * cfg.var_g / cfg.var_v + an * plan.tau_t3)

    def point(v, u0, u2):
        v = np.clip(v, 0.0, v_max)
        u0, u2 = np.clip(u0, 0.0, 1.0), np.clip(u2, 0.0, 1.0)
        e_t3 = top * (1.0 + an * cfg.var_g * v / cfg.var_v)
        tx = e_t3 + an * plan.tau_t3 * v
        e_t0 = u0 * np.maximum(cap - tx, 0.0)
        lr = np.minimum(budget.e_l_max, np.maximum(budget.e_ave_max - tx - e_t0, 0.0))
        return np.array([e_t0, u2 * lr, (1.0 - u2) * lr, e_t3, v])

    axes = (np.concatenate([[0.0], v_max * np.geomspace(1e-7, 1.0, 40)]),
            np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 21))
    v, u0, u2 = (m.ravel() for m in np.meshgrid(*axes, indexing="ij"))
    vals = _oracle_nmse(cfg, plan, point(v, u0, u2))[0]
    order = np.argsort(vals)
    best = float(vals[order[0]])

    def f(x):
        p = point(v_max * math.exp(x[0]), x[1], x[2])
        return float(_oracle_nmse(cfg, plan, p[:, None])[0][0])

    for i in order[:2]:
        x0 = [math.log(max(v[i], 1e-7 * v_max) / v_max), u0[i], u2[i]]
        res = optimize.minimize(
            f, x0, method="Nelder-Mead", options=dict(maxiter=600, xatol=1e-12, fatol=1e-16)
        )
        best = min(best, float(res.fun))
    return best


# A non-unit-variance system, so that no two variances can be confused.
CFG_SKEW = SystemConfig(
    4, 2, 2, var_hu=0.7, var_hd=1.3, var_g=0.8, var_wt=0.6, var_w=1.1, var_v=0.9
)


class TestReducedSpaceOracle:
    @pytest.mark.parametrize("total_cap", [False, True], ids=["per-node", "total-cap"])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_never_beaten(self, rank, total_cap):
        rng = np.random.default_rng(100 * rank + total_cap)
        for i in range(5):
            cfg = (CFG, CFG_SKEW)[i % 2]
            plan = nonreciprocal_plan(cfg, pilot_rank=rank, tau_t3=int(rng.choice([4, 8])))
            e_t, e_l = 10.0 ** rng.uniform(1.0, 4.5), 10.0 ** rng.uniform(0.5, 4.0)
            e_ave = 10.0 ** rng.uniform(1.0, 4.5) if total_cap else math.inf
            # gamma uniform over the window rank K can meet: above the floor
            # an unguarded pilot at the whole cap reaches, below var_g.
            cap = min(e_t, e_ave)
            gamma_k_min = 1.0 / (cap / (rank * cfg.var_v) + 1.0 / cfg.var_g)
            lo = ((4 - rank) * cfg.var_g + rank * gamma_k_min) / 4
            budget = EnergyBudget(e_t, e_l, rng.uniform(lo, cfg.var_g), e_ave_max=e_ave)
            rep = solve_nonreciprocal(cfg, plan, budget)
            a = rep.allocation
            mine = _oracle_nmse(cfg, plan, [[a.e_t0], [a.e_l1], [a.e_l2], [a.e_t3], [a.var_a]])
            assert float(mine[0][0]) == pytest.approx(rep.objective, rel=1e-12)
            assert allocation_violations(a, cfg, plan, budget=budget) == []
            assert rep.objective <= _oracle(cfg, plan, budget) * (1 + 1e-9), budget


class TestNonreciprocalContract:
    """Random configurations (n_t 3-6, any n_l < n_t, every rank, tau_l2 and
    tau_t3 up to 3 above their minimum, non-unit variances, a total cap on
    most draws): each solve raises InfeasibleGamma or meets the contract,
    and its objective is the oracle's LR NMSE at the returned point."""

    def test_feasible_or_infeasible_gamma(self):
        rng = np.random.default_rng(0)
        for _ in range(400):
            cfg, plan, budget = _contract_draw(rng, "nonreciprocal")
            try:
                rep = solve_nonreciprocal(cfg, plan, budget)
            except InfeasibleGamma:
                continue
            a = rep.allocation
            assert allocation_violations(a, cfg, plan, budget=budget) == [], (cfg, plan, budget)
            assert rep.constraint_slack >= -1e-9
            assert math.isfinite(rep.objective)
            mine = _oracle_nmse(cfg, plan, [[a.e_t0], [a.e_l1], [a.e_l2], [a.e_t3], [a.var_a]])
            assert float(mine[0][0]) == pytest.approx(rep.objective, rel=1e-12)


    def test_wide_domain(self):
        rng = np.random.default_rng(10)
        variances = ("var_hu", "var_hd", "var_g", "var_wt", "var_w", "var_v")
        for _ in range(1500):
            cfg, k, budget = _wide_draw(rng, variances)
            plan = nonreciprocal_plan(cfg, pilot_rank=k)
            try:
                rep = solve_nonreciprocal(cfg, plan, budget)
            except InfeasibleGamma:
                continue
            _assert_contract(rep, cfg, plan, budget)

    @pytest.mark.parametrize("cfg, budget", [
        # The echo coefficient c = b^2 overflows at b = 2e160.
        (SystemConfig(4, 2, 2, var_hu=1e-160), EnergyBudget(8000.0, 600.0, 0.1)),
        # The echo coefficients b = 2e-300 and c = b^2 vanish against LR's 1e-30.
        (SystemConfig(4, 2, 2, var_hu=1e150, var_wt=1e-150), EnergyBudget(8000.0, 1e-30, 0.1)),
    ], ids=["echo-overflow", "echo-split"])
    def test_degenerate_scale_is_a_value_error(self, cfg, budget):
        """Valid inputs that floating point cannot resolve raise the
        contract's plain ValueError, not a ZeroDivisionError."""
        plan = nonreciprocal_plan(cfg)
        assert model.validate(cfg, plan, budget) == []
        with pytest.raises(ValueError, match="degenerate scale") as info:
            solve_nonreciprocal(cfg, plan, budget)
        assert type(info.value) is ValueError


# --- Units ---------------------------------------------------------------------
# The problem depends on SNRs only, so it has two exact scale symmetries.
# Scaling the noise variances and every cap by c leaves the objective and
# scales the allocation by c; scaling every variance and gamma by c scales
# the objective by c and leaves the allocation.


def _in_units(cfg, budget, c, symmetry):
    """The problem in other units: symmetry 1 scales the noise variances and
    every cap by ``c``, symmetry 2 every variance and ``gamma``.  Returns
    the scaled ``(cfg, budget)`` and the factors that scale the allocation
    and the objective."""
    noises, channels = ("var_wt", "var_w", "var_v"), ("var_h", "var_hu", "var_hd", "var_g")
    if symmetry == 1:
        cfg = dataclasses.replace(cfg, **{n: getattr(cfg, n) * c for n in noises})
        budget = dataclasses.replace(
            budget, e_t_max=budget.e_t_max * c, e_l_max=budget.e_l_max * c,
            e_ave_max=budget.e_ave_max * c,
        )
        return cfg, budget, c, 1.0
    cfg = dataclasses.replace(cfg, **{n: getattr(cfg, n) * c for n in noises + channels})
    return cfg, dataclasses.replace(budget, gamma=budget.gamma * c), 1.0, c


_FIELDS = {"reciprocal": ("e_r", "e_f", "var_a"),
           "nonreciprocal": ("e_t0", "e_l1", "e_l2", "e_t3", "var_a")}


class TestUnitSymmetry:
    """Each solver, on the contract fuzz's draws in units scaled by ``c`` over
    10^+-150, under both symmetries: the same verdict on ``gamma``, the
    objective to ``OBJECTIVE_RTOL``, and the allocation to
    ``ALLOCATION_RTOL`` where the scenario is the same.  Where the
    non-reciprocal ``interior`` and ``an-free`` tie, rounding can pick
    either.  Measured over 30,000 scaled solves of such draws: objectives
    within 2.7e-13 relative, allocations within 5.4e-13 (reciprocal) and
    9.9e-7 (non-reciprocal, whose ``var_a`` Brent's method fixes only to
    about ``sqrt(eps)`` on a flat optimum)."""

    OBJECTIVE_RTOL = 1e-12
    ALLOCATION_RTOL = {"reciprocal": 1e-11, "nonreciprocal": 1e-5}

    @pytest.mark.parametrize("scheme", sorted(_FIELDS))
    def test_solvers(self, scheme):
        rng = np.random.default_rng(31)
        rtol, solved = self.ALLOCATION_RTOL[scheme], 0
        for _ in range(300):
            cfg, plan, budget = _contract_draw(rng, scheme)
            try:
                base = solve(cfg, plan, budget)
            except InfeasibleGamma:
                base = None
            for symmetry in (1, 2):
                for c in 10.0 ** rng.uniform(-150.0, 150.0, 3):
                    cfg_c, budget_c, unit, scale = _in_units(cfg, budget, float(c), symmetry)
                    case = (cfg, plan, budget, float(c), symmetry)
                    if base is None:
                        with pytest.raises(InfeasibleGamma):
                            solve(cfg_c, plan, budget_c)
                        continue
                    rep = solve(cfg_c, plan, budget_c)
                    solved += 1
                    assert rep.objective == pytest.approx(
                        base.objective * scale, rel=self.OBJECTIVE_RTOL), case
                    if rep.scenario != base.scenario:
                        assert {rep.scenario, base.scenario} == {"interior", "an-free"}, case
                        continue
                    # The caps are spent, so an ulp or so of the cap may be
                    # left over in e_t0 and LR's energies; e_t0 is the cap
                    # less the floor's spend, which moves with var_a.
                    cap = min(budget_c.e_t_max, budget_c.e_ave_max)
                    for name in _FIELDS[scheme]:
                        got, want = getattr(rep.allocation, name), getattr(base.allocation, name) * unit
                        residue = 4.0 * math.ulp(cap) + (rtol * cap if name == "e_t0" else 0.0)
                        assert abs(got - want) <= rtol * abs(want) + residue, (name, case)
        assert solved > 1000

    @pytest.mark.parametrize("symmetry", [1, 2])
    @pytest.mark.parametrize("c", [1e155, 1e200])
    def test_reciprocal_past_noise_products(self, c, symmetry):
        """Noise variances past 1e154, whose products overflow: the reverse
        threshold ``mu`` takes its ratios first, so the default problem keeps
        its scenario and objective (``mu`` was inf at 1e155, and the solve
        fell to prop1-branch1 with objective gamma)."""
        cfg, budget = SystemConfig(4, 2, 2), EnergyBudget(8000.0, 600.0, 0.1)
        plan = reciprocal_plan(cfg)
        base = solve_reciprocal(cfg, plan, budget)
        cfg_c, budget_c, _, scale = _in_units(cfg, budget, c, symmetry)
        rep = solve_reciprocal(cfg_c, plan, budget_c)
        assert rep.scenario == base.scenario == "prop1-branch2"
        assert rep.objective == pytest.approx(base.objective * scale, rel=self.OBJECTIVE_RTOL)

    @pytest.mark.parametrize("scheme", sorted(_FIELDS))
    def test_monte_carlo(self, scheme):
        """``mc_nmse`` at one seed, under symmetry 1: the Monte Carlo NMSEs
        and their closed forms are unchanged but for rounding (measured
        within 9.3e-15 relative)."""
        cfg = SystemConfig(4, 2, 2, var_h=0.7, var_hu=1.3, var_hd=0.6, var_g=0.8,
                           var_wt=1.7, var_w=0.9, var_v=1.2)
        plan = reciprocal_plan(cfg) if scheme == "reciprocal" else nonreciprocal_plan(cfg)
        budget = EnergyBudget(8000.0, 600.0, 0.1)
        alloc = solve(cfg, plan, budget).allocation
        base = mc_nmse(cfg, plan, alloc, trials=4096, seed=3)
        for c in 10.0 ** np.random.default_rng(32).uniform(-150.0, 150.0, 4):
            cfg_c, _, unit, _ = _in_units(cfg, budget, float(c), 1)
            alloc_c = dataclasses.replace(
                alloc, **{name: getattr(alloc, name) * unit for name in _FIELDS[scheme]})
            rep = mc_nmse(cfg_c, plan, alloc_c, trials=4096, seed=3)
            for name in ("nmse_l", "nmse_u", "nmse_l_closed", "nmse_u_closed"):
                assert getattr(rep, name) == pytest.approx(getattr(base, name), rel=1e-13), (name, c)


# --- TX/LR share search --------------------------------------------------------
# The share condition is tested at both ends of [lo, hi] before any point is
# searched, and the open points get a Newton root finished by bisection.  The
# reference below is the search that bisected every grid point for 52 steps.


def _floor_round(cfg, plan, budget, gt, var_a):
    """The solver's scalar ``var_a`` round mapped over the array ``var_a``:
    its six outputs as arrays."""
    round_ = allocator._floor_round(cfg, plan, budget, gt)
    return tuple(np.array(column) for column in zip(*(round_(float(v)) for v in var_a)))


def _var_a_max(cfg, plan, budget, gt):
    """The top of the solver's ``var_a`` grid, by the solver's formula: where
    the floor's spend line meets the transmitter's cap."""
    _, slope = allocator._floor_slopes(cfg, plan, gt)
    return (min(budget.e_t_max, budget.e_ave_max) - gt) / slope


def _full_grid(cfg, plan, budget):
    """The solver's 32-point ``var_a`` grid from 0 up to ``var_a_max``, every
    point's round, and the index ``max()`` picks over all of them (the first
    of ties): the point the solver's top-down scan must stop on."""
    gt = allocator._floor_energy(cfg, plan, budget)
    var_a_max = _var_a_max(cfg, plan, budget, gt)
    grid = [0.0] + [math.ldexp(var_a_max, k) for k in range(2 - allocator._GRID_POINTS, 1)]
    round_ = allocator._floor_round(cfg, plan, budget, gt)
    points = [round_(v) for v in grid]
    return grid, points, max(range(len(grid)), key=lambda k: points[k][0])


def _scanned(peak):
    """Grid rounds of a scan from ``var_a_max`` down that stops on ``peak``:
    down to the point below it, or every point where the peak is at 0."""
    return allocator._GRID_POINTS - peak + (peak > 0)


def _bisected_points(cfg, plan, budget, gt, var_a):
    """``(e_t3 / D_bar, e_t0, lo, hi, slope)`` at each ``var_a``, every share
    bisected for 52 steps on the derivative of ``log rho0 - log Q``;
    ``slope`` is the ratio's derivative in ``e_t0`` there (a one-sided
    difference inside ``[lo, hi]``, 0 where ``lo == hi``)."""
    e_t3, tx_spend = allocator._floor_spend(cfg, plan, gt, var_a)
    room = np.maximum(budget.e_ave_max - tx_spend, 0.0)
    hi0 = np.maximum(min(budget.e_t_max, budget.e_ave_max) - tx_spend, 0.0)
    lo0 = np.minimum(np.maximum(room - budget.e_l_max, 0.0), hi0)
    coefficients = analytics.echo_coefficients(cfg)
    a, b, c = coefficients

    def split(l):  # the LR split minimising Q at total l, and Q there
        e_l1 = l / (1.0 + np.sqrt((a * l + c) / (b * l + c)))
        return e_l1, l - e_l1, analytics.echo_quality(coefficients, e_l1, l - e_l1)

    def ratio(e_t0):
        e_l1, e_l2, _ = split(np.minimum(budget.e_l_max, room - e_t0))
        alloc = model.PowerAllocation(
            scheme="nonreciprocal", e_t0=e_t0, e_l1=e_l1, e_l2=e_l2, e_t3=e_t3, var_a=var_a
        )
        return e_t3 / analytics.nonreciprocal_effective_noise(cfg, alloc)

    lo, hi = lo0, hi0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            e_l1, e_l2, q = split(room - mid)
            dq = -(a + c / e_l1) / e_l2**2  # dQ/de_l2 at the best split
            dlog_rho0 = cfg.n_t * cfg.var_w / (mid * analytics.echo_power(cfg, mid))
            grow = dlog_rho0 + dq / q > 0.0
            lo, hi = np.where(grow, mid, lo), np.where(grow, hi, mid)
        e_t0 = 0.5 * (lo + hi)
        ref = ratio(e_t0)
        step = 1e-7 * (hi0 - lo0)
        near = np.where(e_t0 + step <= hi0, e_t0 + step, e_t0 - step)
        slope = np.where(lo0 < hi0, (ratio(near) - ref) / (near - e_t0), 0.0)
    return ref, e_t0, lo0, hi0, slope


class TestShareSearch:
    def _budgets(self, total_cap):
        if total_cap:  # the gamma = 0.002, P_ave = 27 dB GP pin: interior shares
            yield CFG, EnergyBudget(8000.0, _L[27.0], 0.002, e_ave_max=_A[27.0])
        # Extreme variances (see TestPinnedGpOutputs.test_extreme_variances).
        for cfg in (CFG_WT, CFG_HU, CFG_HD):
            yield cfg, EnergyBudget(1000.0, 100.0, 0.1, e_ave_max=500.0 if total_cap else math.inf)
            yield cfg, EnergyBudget(1e5, 1e3, 0.002, e_ave_max=7000.0 if total_cap else math.inf)
        rng = np.random.default_rng(7 + total_cap)
        for i in range(12):
            cfg = (CFG, CFG_SKEW)[i % 2]
            e_t, e_l = 10.0 ** rng.uniform(1.0, 4.5), 10.0 ** rng.uniform(0.5, 4.0)
            e_ave = rng.uniform(0.3, 1.0) * (e_t + e_l) if total_cap else math.inf
            yield cfg, EnergyBudget(e_t, e_l, rng.uniform(0.01, cfg.var_g), e_ave_max=e_ave)
        if total_cap:
            # LR's share small against the room: one ulp of e_t0 moves LR's
            # energy by about 1e-12 relative, and the ratio with it.
            for i in range(8):
                cfg = (CFG, CFG_SKEW)[i % 2]
                e_t, e_l = rng.uniform(3e4, 9e4), rng.uniform(2.0, 20.0)
                e_ave = rng.uniform(0.3, 1.0) * (e_t + e_l)
                yield cfg, EnergyBudget(e_t, e_l, rng.uniform(0.01, cfg.var_g), e_ave_max=e_ave)

    @pytest.mark.parametrize("total_cap", [False, True], ids=["per-node", "total-cap"])
    def test_matches_full_bisection(self, total_cap):
        kinds = set()
        for cfg, budget in self._budgets(total_cap):
            plan = nonreciprocal_plan(cfg)
            try:
                gt = allocator._floor_energy(cfg, plan, budget)
            except InfeasibleGamma:
                continue
            grid = _var_a_max(cfg, plan, budget, gt) * np.concatenate(
                [[0.0], np.geomspace(1e-9, 1.0, 63), np.linspace(0.0, 1.0, 24)]
            )
            ratio, e_t0, *_ = _floor_round(cfg, plan, budget, gt, grid)
            ref_ratio, ref_e_t0, lo, hi, slope = _bisected_points(cfg, plan, budget, gt, grid)
            # The bisection's resolution, or one float step where the
            # bracket stops shrinking before its 52 steps are done.
            tol = 2.0**-50 * (hi - lo) + np.spacing(hi)
            assert np.all(np.abs(e_t0 - ref_e_t0) <= tol), budget
            # Within that tolerance the ratio moves by up to |slope| tol; the
            # rest is rounding, held to 1e-13 relative.  Where the move is
            # smaller than that, the 1e-13 bound alone must hold.
            err, rounding = np.abs(ratio - ref_ratio), 1e-13 * np.abs(ref_ratio)
            moved = np.abs(slope) * tol
            assert np.all(err <= rounding + moved), budget
            assert np.all((err <= rounding) | (moved >= rounding)), budget
            kinds.update(np.where(
                lo == hi, "no-share",
                np.where(e_t0 == lo, "lo", np.where(e_t0 == hi, "hi", "open")),
            ))
        # Every branch of the end test is exercised.
        assert kinds == ({"lo", "hi", "open", "no-share"} if total_cap else {"no-share"})

    @staticmethod
    def _counted_solve(budget, monkeypatch):
        """The solve at ``budget``, and for each of its scalar rounds the
        share-condition evaluations (end tests, Newton steps and bisection
        steps alike) and the LR splits it made; then the splits made outside
        every round, and the grid points scanned."""
        _, _, peak = _full_grid(CFG, N_PLAN, budget)
        rounds, counts = [], {"conditions": 0, "splits": 0}
        floor_round = allocator._floor_round
        share_condition, echo_split = allocator._share_condition, allocator._echo_split

        def counted_floor_round(*args):
            round_ = floor_round(*args)

            def counted(var_a):
                before = dict(counts)
                point = round_(var_a)
                rounds.append(tuple(counts[k] - before[k] for k in ("conditions", "splits")))
                return point

            return counted

        def counter(key, function):
            return lambda *args: counts.update({key: counts[key] + 1}) or function(*args)

        monkeypatch.setattr(allocator, "_floor_round", counted_floor_round)
        monkeypatch.setattr(allocator, "_share_condition", counter("conditions", share_condition))
        monkeypatch.setattr(allocator, "_echo_split", counter("splits", echo_split))
        rep = solve_nonreciprocal(CFG, N_PLAN, budget)
        # One round per grid point scanned and one per Brent step.
        scanned = len(rounds) - rep.iterations
        assert scanned == _scanned(peak)
        return rep, rounds, counts["splits"] - sum(splits for _, splits in rounds), scanned

    @staticmethod
    def _assert_splits_reused(rounds):
        """Each share condition makes the split at its own point.  A round
        whose ``e_t0`` lands at an end (at most the two end tests) keeps the
        split of its end test there, and any other round makes at most one
        split of its own: after a root search, or where no share is open."""
        for conditions, splits in rounds:
            if 0 < conditions <= 2:
                assert splits == conditions
            else:
                assert conditions <= splits <= conditions + 1

    # Rounds per solve, grid points scanned included: 16-26 on every budget
    # below, each of which scans 3 grid points (its grid peaks at
    # var_a_max / 2).
    MOST_ROUNDS = 30

    # GP pins without a binding total cap (33-39 dB) and those whose shares
    # sit at LR's cap on every round (gamma = 0.3, 15-27 dB).
    @pytest.mark.parametrize(
        "gamma,pave", [(g, p) for g, p, _, _ in GP_PINS if p >= 33.0 or g == 0.3]
    )
    def test_share_work_per_round(self, gamma, pave, monkeypatch):
        """Share-condition evaluations per solve: none without a binding
        total cap, at most one end test per round where every share sits at
        LR's cap (measured: 15 in 16 rounds).  Without a binding total
        cap LR's split is made once, at its cap, outside every round."""
        budget = EnergyBudget(8000.0, _L[pave], gamma, e_ave_max=_A[pave])
        rep, rounds, solve_splits, scanned = self._counted_solve(budget, monkeypatch)
        assert rep.converged and len(rounds) <= self.MOST_ROUNDS and scanned == 3
        assert solve_splits == 1
        conditions = sum(c for c, _ in rounds)
        if budget.e_ave_max >= budget.e_t_max + budget.e_l_max:
            assert conditions == 0 and not any(splits for _, splits in rounds)
        else:
            assert conditions <= len(rounds)
        self._assert_splits_reused(rounds)

    # GP pins with interior shares on some rounds.  Measured share-condition
    # evaluations per solve: 133 in 16 rounds at gamma = 0.002 and 16-27 in
    # 17-18 rounds at gamma = 0.1.
    @pytest.mark.parametrize("gamma,pave,most", [
        (0.002, 27.0, 350), (0.1, 15.0, 90), (0.1, 21.0, 90), (0.1, 27.0, 90),
    ])
    def test_interior_share_work(self, gamma, pave, most, monkeypatch):
        budget = EnergyBudget(8000.0, _L[pave], gamma, e_ave_max=_A[pave])
        rep, rounds, solve_splits, scanned = self._counted_solve(budget, monkeypatch)
        assert rep.converged and len(rounds) <= self.MOST_ROUNDS and scanned == 3
        assert sum(c for c, _ in rounds) <= most and solve_splits == 1
        self._assert_splits_reused(rounds)


class TestVarASinglePeak:
    """The ``var_a`` search runs Brent's method around the best point of a
    grid, which finds the optimum only if ``e_t3 / D_bar`` along the floor
    has one peak in ``var_a``.  On random feasible budgets (four
    configurations, every rank, ``tau_t3`` of ``n_t`` or ``2 n_t``, half of
    them with a total cap) a dense scan never beats the solver, and the
    scanned ratio rises, then falls, changing direction at most once."""

    CONFIGS = (CFG, CFG_SKEW, SystemConfig(6, 2, 3), SystemConfig(5, 3, 2))

    def _budgets(self, count):
        rng = np.random.default_rng(22)
        found = 0
        while found < count:
            cfg = self.CONFIGS[found % len(self.CONFIGS)]
            rank = int(rng.integers(1, cfg.n_t + 1))
            plan = nonreciprocal_plan(cfg, pilot_rank=rank, tau_t3=int(rng.choice([1, 2])) * cfg.n_t)
            e_t, e_l = 10.0 ** rng.uniform(1.0, 4.5), 10.0 ** rng.uniform(0.5, 4.0)
            e_ave = 10.0 ** rng.uniform(1.0, 4.5) if found < count // 2 else math.inf
            # gamma uniform over the window rank K can meet (as in the oracle test).
            cap = min(e_t, e_ave)
            gamma_k_min = 1.0 / (cap / (rank * cfg.var_v) + 1.0 / cfg.var_g)
            lo = ((cfg.n_t - rank) * cfg.var_g + rank * gamma_k_min) / cfg.n_t
            budget = EnergyBudget(e_t, e_l, rng.uniform(lo, cfg.var_g), e_ave_max=e_ave)
            try:
                gt = allocator._floor_energy(cfg, plan, budget)
            except InfeasibleGamma:
                continue
            if gt is not None:  # None: no floor to search along
                found += 1
                yield cfg, plan, budget, gt

    def test_dense_scan(self):
        for cfg, plan, budget, gt in self._budgets(60):
            rep = solve_nonreciprocal(cfg, plan, budget)
            best = rep.allocation.e_t3 / analytics.nonreciprocal_effective_noise(cfg, rep.allocation)
            grid = _var_a_max(cfg, plan, budget, gt) * np.unique(np.concatenate(
                [[0.0], np.geomspace(1e-9, 1.0, 2000), np.linspace(0.0, 1.0, 2001)]
            ))
            ratio, *_ = _floor_round(cfg, plan, budget, gt, grid)
            # Rounding only: the solver's own point evaluates within 1e-12.
            assert np.max(ratio) <= best * (1.0 + 1e-12), (cfg, plan, budget)
            steps = np.diff(ratio)
            signs = np.sign(steps[np.abs(steps) > 1e-12 * np.max(np.abs(ratio))])
            assert np.all(np.diff(signs) <= 0), (cfg, plan, budget)  # up, then down


class TestGridScan:
    """The solver scans its ``var_a`` grid from ``var_a_max`` down and stops
    at the first fall.  Where the grid's ratios have one peak (which Brent's
    bracket needs too) that is the full grid's argmax, the first of ties, so
    Brent's method starts from the same bracket and point and the report is
    the full grid's, field for field."""

    @staticmethod
    def _solve(cfg, plan, budget, monkeypatch):
        """The solve, its rounds, and Brent's ``(lo, hi, x, point)`` (``None``
        where the grid's best point is 0 and Brent does not run)."""
        rounds, starts = [], []
        floor_round, brent_peak = allocator._floor_round, allocator._brent_peak

        def counted_floor_round(*args):
            round_ = floor_round(*args)
            return lambda var_a: rounds.append(var_a) or round_(var_a)

        def recorded_brent_peak(round_, *start):
            starts.append(start)
            return brent_peak(round_, *start)

        monkeypatch.setattr(allocator, "_floor_round", counted_floor_round)
        monkeypatch.setattr(allocator, "_brent_peak", recorded_brent_peak)
        rep = solve_nonreciprocal(cfg, plan, budget)
        monkeypatch.undo()
        assert len(starts) <= 1
        return rep, len(rounds), starts[0] if starts else None

    # A near-silent uplink (var_hu 1e-12): the grid's ratios rise to 4 +
    # 2.5e-9 and fall to 4 again, and the peak ties var_a_max / 4 with
    # var_a_max / 2.
    CFG_TIED = SystemConfig(4, 2, 2, var_hu=1e-12, var_wt=1e-6)

    def test_stops_on_full_argmax(self, monkeypatch):
        cases = [(cfg, nonreciprocal_plan(cfg), budget) for cfg, budget, _ in ZOOM_PINS]
        cases += [(cfg, plan, budget) for cfg, plan, budget, _ in TestVarASinglePeak()._budgets(300)]
        cases += [(self.CFG_TIED, nonreciprocal_plan(self.CFG_TIED), EnergyBudget(1e8, 100.0, 0.5))]
        peaks, ties = set(), 0
        for cfg, plan, budget in cases:
            grid, points, i = _full_grid(cfg, plan, budget)
            ties += i + 1 < len(grid) and points[i + 1][0] == points[i][0]
            rep, rounds, start = self._solve(cfg, plan, budget, monkeypatch)
            assert rounds == _scanned(i) + rep.iterations, (cfg, plan, budget)
            if i:
                bracket = (grid[i - 1], grid[min(i + 1, allocator._GRID_POINTS - 1)])
                assert start == (*bracket, grid[i], points[i]), (cfg, plan, budget)
            else:
                assert start is None and rep.iterations == 0, (cfg, plan, budget)
            peaks.add(i)
        # The scan's shortest path (a peak at var_a_max / 2: 3 points), its
        # longest (a peak at 0, the AN-free corner: all 32), a peak further
        # down the grid and a peak tied with the point above it all occur.
        assert {0, 30} <= peaks and min(peaks - {0}) <= 28 and ties

    def test_nan_ratio_takes_max(self, monkeypatch):
        """Overflow can make the ratio NaN, where ``<`` and ``max()``
        disagree: the scan then picks what ``max()`` over the whole grid
        picks.  Here the top three grid points overflow to NaN."""
        cfg = SystemConfig(
            3, 2, 2, var_hu=5.765007709598589e53, var_hd=6.648235453527686e112,
            var_g=4.577935584567719e123, var_wt=2.242180782703692e137,
            var_w=2.7703231427801414e-117, var_v=1.1899716483729441e22,
        )
        plan = nonreciprocal_plan(cfg, pilot_rank=3)
        budget = EnergyBudget(1.186340709888127e186, 4.4864503692971125e176, 2.5080767571415258e123)
        grid, points, i = _full_grid(cfg, plan, budget)
        assert [k for k, p in enumerate(points) if math.isnan(p[0])] == [29, 30, 31] and i == 28
        rep, rounds, start = self._solve(cfg, plan, budget, monkeypatch)
        assert start == (grid[27], grid[29], grid[28], points[28])
        assert rounds == allocator._GRID_POINTS + rep.iterations and rep.converged


class TestFloorRound:
    """The round evaluates the closed forms of the allocation it returns, to
    the bit: its ratio is ``e_t3 / D_bar`` with ``D_bar`` from
    :func:`dcekit.analytics.nonreciprocal_effective_noise`, and its spend is
    :func:`dcekit.model.training_spend`'s."""

    def test_ratio_is_exact(self):
        rng = np.random.default_rng(24)
        caps = set()
        for cfg, plan, budget, gt in TestVarASinglePeak()._budgets(40):
            caps.add(math.isfinite(budget.e_ave_max))
            grid = _var_a_max(cfg, plan, budget, gt) * np.append(
                0.0, np.sort(rng.uniform(0.0, 1.0, 127)))
            ratio, e_t0, e_l1, e_l2, e_t3, d_bar = _floor_round(cfg, plan, budget, gt, grid)
            alloc = model.PowerAllocation(
                scheme="nonreciprocal", e_t0=e_t0, e_l1=e_l1, e_l2=e_l2, e_t3=e_t3, var_a=grid
            )
            noise = analytics.nonreciprocal_effective_noise(cfg, alloc)
            assert np.array_equal(d_bar, noise), (cfg, plan, budget)
            assert np.array_equal(ratio, e_t3 / noise), (cfg, plan, budget)
        assert caps == {False, True}  # with and without a total cap

    def test_slopes_are_the_floor_line(self):
        """The floor's closed-form slopes are those of its spend line: at
        moderate scales they match :func:`_floor_spend`'s difference quotient
        over one unit of AN, and in units scaled by 10^+-150, where that
        quotient keeps few digits or none, the spend's stays positive."""
        rng = np.random.default_rng(26)
        checked = 0
        for scheme in sorted(_FIELDS):
            for _ in range(150):
                cfg, plan, budget = _contract_draw(rng, scheme)
                try:
                    gt = allocator._floor_energy(cfg, plan, budget)
                except InfeasibleGamma:
                    continue
                if gt is None:
                    continue
                (e0, s0), (e1, s1) = (allocator._floor_spend(cfg, plan, gt, v) for v in (0.0, 1.0))
                slopes = allocator._floor_slopes(cfg, plan, gt)
                assert slopes == pytest.approx((e1 - e0, s1 - s0), rel=1e-12), (cfg, plan, budget)
                for symmetry, c in itertools.product((1, 2), (1e-150, 1e150)):
                    cfg_c, budget_c, _, _ = _in_units(cfg, budget, c, symmetry)
                    gt_c = allocator._floor_energy(cfg_c, plan, budget_c)
                    _, slope = allocator._floor_slopes(cfg_c, plan, gt_c)
                    assert 0.0 < slope < math.inf, (cfg, plan, budget, c, symmetry)
                checked += 1
        assert checked > 100

    def test_spend_is_training_spend(self):
        """The floor's spend is the transmitter's bill, to the bit, for both
        schemes and AN dimensions that are no power of two."""
        rng = np.random.default_rng(25)
        for n_t, n_l in ((4, 3), (5, 2), (6, 1), (6, 2)):
            cfg = SystemConfig(n_t, n_l, 2, var_g=0.7, var_v=1.3)
            var_a = 10.0 ** rng.uniform(-6.0, 4.0, 64)
            gt = float(10.0 ** rng.uniform(-1.0, 4.0))
            for tau in (n_t, 7):
                plans = (reciprocal_plan(cfg, tau_f=tau), nonreciprocal_plan(cfg, tau_t3=tau))
                for plan in plans:
                    e_pilot, spend = allocator._floor_spend(cfg, plan, gt, var_a)
                    zero = 0.0 * var_a
                    if plan.scheme == "reciprocal":
                        fields = {"e_r": zero, "e_f": e_pilot}
                    else:
                        fields = {"e_t0": zero, "e_l1": zero, "e_l2": zero, "e_t3": e_pilot}
                    alloc = model.PowerAllocation(scheme=plan.scheme, var_a=var_a, **fields)
                    assert np.array_equal(spend, model.training_spend(alloc, cfg, plan)[0])

    def test_reports_are_closed_forms(self):
        """Each report's ``objective`` and ``nmse_u`` are
        :func:`dcekit.analytics.closed_forms` of its allocation, to the bit,
        for both solvers and every scenario."""
        scenarios = set()
        cases = [(cfg, plan, budget) for cfg, plan, budget, _ in TestVarASinglePeak()._budgets(20)]
        cases += [(CFG, N_PLAN, EnergyBudget(8000.0, _L[p], g, e_ave_max=_A[p]))
                  for g, p, _, _ in GP_PINS]
        cases += [(CFG, N_PLAN, EnergyBudget(120.0, 200.0, 1.0)),  # the floor at the prior
                  (CFG, nonreciprocal_plan(CFG, pilot_rank=2), EnergyBudget(120.0, 200.0, 0.4))]
        cases += [(CFG, R_PLAN, EnergyBudget(e_t, 100.0, 0.1, e_ave_max=e_ave))
                  for e_t, e_ave in ((2000.0, math.inf), (2000.0, 800.0), (100.0, 150.0))]
        # Eight or more pilot directions: numpy's mean changes how it sums.
        for cfg in (SystemConfig(8, 2, 2), SystemConfig(11, 3, 2, var_g=0.7, var_v=1.3)):
            for rank in (cfg.n_t - 1, cfg.n_t):
                for plan in (reciprocal_plan(cfg, pilot_rank=rank),
                             nonreciprocal_plan(cfg, pilot_rank=rank)):
                    cases += [(cfg, plan, EnergyBudget(8000.0, 600.0, 0.1, e_ave_max=e_ave))
                              for e_ave in (math.inf, 1400.0)]
        for cfg, plan, budget in cases:
            rep = solve(cfg, plan, budget)
            scenarios.add(rep.scenario)
            objective, nmse_u = analytics.closed_forms(cfg, plan, rep.allocation)
            assert (rep.objective, rep.nmse_u) == (objective, nmse_u), (cfg, plan, budget)
            assert rep.constraint_slack == nmse_u - budget.gamma
        assert {"interior", "an-free", "rank-k-vacuous"} <= scenarios
