"""Release acceptance gate: one test per shipping criterion.

Each test prints an ``ACCEPTANCE <n> ...: PASS/FAIL`` verdict (visible with
``-s`` or on failure) and keeps its tolerances inline next to the check.
Every reference value here is either exact arithmetic done in the comments,
an independent brute-force oracle built from raw numpy, or a Monte Carlo
run compared at 3 standard errors under a pinned seed.

Budget: the whole module runs in well under a minute on one core.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from scipy import optimize

from dcekit import allocator, analytics, protocol, simkit
from dcekit.cli import main as cli_main
from dcekit.model import (
    NONRECIPROCAL,
    RECIPROCAL,
    ChannelRealization,
    EnergyBudget,
    PowerAllocation,
    SystemConfig,
    db_to_energy,
    nonreciprocal_plan,
    reciprocal_plan,
)
from dcekit.numerics import RngStream, random_gaussian

CFG = SystemConfig(4, 2, 2)          # unit variances throughout
R_PLAN = reciprocal_plan(CFG)        # tau_r=2, tau_f=4
N_PLAN = nonreciprocal_plan(CFG)     # tau_t0=4, tau_l2=2, tau_t3=4
ONES = np.ones(CFG.n_t)


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def _budget_grid(scheme: str):
    """The shared sweep grid: gamma in {0.1, 0.03}, P_ave 10..32 dB step 2."""
    plan = R_PLAN if scheme == RECIPROCAL else N_PLAN
    if scheme == RECIPROCAL:
        tau_t = tau_l = plan.tau_r + plan.tau_f
    else:
        tau_t = plan.tau_t0 + plan.tau_t3
        tau_l = plan.tau_t0 + plan.tau_l2
    for gamma in (0.1, 0.03):
        for pave in range(10, 34, 2):
            e_t = db_to_energy(float(pave), tau_t)
            e_l = db_to_energy(pave - 10.0, tau_l)
            yield EnergyBudget(e_t, e_l, gamma)


@functools.lru_cache(maxsize=None)
def _sweep_records(scheme: str):
    """Solve the shared grid once; return closed-form audits per point."""
    plan = R_PLAN if scheme == RECIPROCAL else N_PLAN
    solve = (
        allocator.solve_reciprocal
        if scheme == RECIPROCAL
        else allocator.solve_nonreciprocal
    )
    records = []
    for budget in _budget_grid(scheme):
        try:
            rep = solve(CFG, plan, budget)
        except allocator.InfeasibleGamma:
            continue
        a = rep.allocation
        if scheme == RECIPROCAL:
            e_fwd = a.e_f
            nmse_l = analytics.nmse_l_reciprocal(CFG, a.e_r, a.e_f, a.var_a, ONES)
        else:
            e_fwd = a.e_t3
            nmse_l = analytics.nmse_l_nonreciprocal_approx(CFG, a, plan)
        nmse_u = analytics.nmse_u(CFG, e_fwd, a.var_a, ONES)
        records.append((budget, rep, nmse_l, nmse_u))
    return records


# ---------------------------------------------------------------------------
# 1. Reciprocal Monte Carlo agrees with the exact closed forms (3 SE).
# ---------------------------------------------------------------------------

class TestCriterion1:
    # Spread across the operating envelope: the worked optimum, forward-only
    # training, a weak near-symmetric point, and two mid-range mixtures.
    POINTS = (
        (200.0, 111.6, 1.05),
        (0.0, 4.0, 0.0),
        (2.0, 4.0, 1.0),
        (50.0, 400.0, 5.0),
        (10.0, 40.0, 0.5),
    )

    def test_c1_reciprocal_mc_matches_closed_forms(self):
        worst = 0.0
        for i, (e_r, e_f, var_a) in enumerate(self.POINTS):
            alloc = PowerAllocation(scheme=RECIPROCAL, e_r=e_r, e_f=e_f, var_a=var_a)
            rep = simkit.mc_nmse(CFG, R_PLAN, alloc, trials=100_000, seed=101 + i)
            z_l = (rep.nmse_l - rep.nmse_l_closed) / rep.nmse_l_se
            z_u = (rep.nmse_u - rep.nmse_u_closed) / rep.nmse_u_se
            worst = max(worst, abs(z_l), abs(z_u))
        _verdict(
            "1 reciprocal closed-form fidelity at 1e5 trials",
            worst <= 3.0,
            f"max |z| = {worst:.2f} over {len(self.POINTS)} allocations",
        )


# ---------------------------------------------------------------------------
# 2. Non-reciprocal LR approximation within 10% of Monte Carlo.
# ---------------------------------------------------------------------------

class TestCriterion2:
    PAVES_DB = (10, 14, 18, 22, 26)

    def test_c2_nonreciprocal_approximation_fidelity(self):
        worst_rel = 0.0
        worst_zu = 0.0
        for i, pave in enumerate(self.PAVES_DB):
            e_t = db_to_energy(float(pave), N_PLAN.tau_t0 + N_PLAN.tau_t3)
            e_l = db_to_energy(pave - 10.0, N_PLAN.tau_t0 + N_PLAN.tau_l2)
            rep = allocator.solve_nonreciprocal(CFG, N_PLAN, EnergyBudget(e_t, e_l, 0.1))
            assert rep.converged
            mc = simkit.mc_nmse(CFG, N_PLAN, rep.allocation, trials=100_000, seed=201 + i)
            worst_rel = max(worst_rel, abs(mc.nmse_l - mc.nmse_l_closed) / mc.nmse_l_closed)
            # UR's closed form is exact even here, so hold it to 3 SE too.
            worst_zu = max(worst_zu, abs(mc.nmse_u - mc.nmse_u_closed) / mc.nmse_u_se)
        _verdict(
            "2 nonreciprocal LR approximation at 1e5 trials",
            worst_rel <= 0.10 and worst_zu <= 3.0,
            f"max LR rel gap = {worst_rel:.2%}, max UR |z| = {worst_zu:.2f}",
        )


# ---------------------------------------------------------------------------
# 3. Leakage floor holds exactly at every feasible solver output.
# ---------------------------------------------------------------------------

class TestCriterion3:
    def test_c3_constraint_exactness(self):
        worst_slack = np.inf
        worst_eq = 0.0
        n_eq = n_pts = 0
        for scheme in (RECIPROCAL, NONRECIPROCAL):
            for budget, rep, _nmse_l, nmse_u in _sweep_records(scheme):
                n_pts += 1
                worst_slack = min(worst_slack, nmse_u - budget.gamma)
                if scheme == RECIPROCAL and rep.scenario == "prop1-branch2":
                    n_eq += 1
                    worst_eq = max(worst_eq, abs(nmse_u - budget.gamma) / budget.gamma)
        assert n_pts >= 40 and n_eq >= 10  # the grid actually exercises both
        _verdict(
            "3 leakage floor exact at solver outputs",
            worst_slack >= -1e-9 and worst_eq <= 1e-9,
            f"{n_pts} points, min slack = {worst_slack:.1e}, "
            f"worst active-floor mismatch = {worst_eq:.1e} rel",
        )


# ---------------------------------------------------------------------------
# 4. Solvers match independent brute-force oracles.
# ---------------------------------------------------------------------------

def _reciprocal_grid_best(e_t: float, e_l: float, gamma: float, n: int = 40) -> float:
    """Best objective on an n^3 feasibility-filtered grid (raw numpy oracle)."""
    e_r = np.linspace(0.0, e_l, n)[:, None, None]
    e_f = np.linspace(0.0, e_t, n)[None, :, None]
    var_a = np.linspace(0.0, e_t / (R_PLAN.tau_f * (CFG.n_t - CFG.n_l)), n)[None, None, :]
    feas = (e_f + R_PLAN.tau_f * (CFG.n_t - CFG.n_l) * var_a) <= e_t + 1e-12
    # unit variances: delta2 = 1/(1 + e_r/2); per-entry forward noise at LR
    # is 2*delta2*var_a + 1, at UR 2*var_a + 1; all four directions equal.
    delta2 = 1.0 / (1.0 + e_r / 2.0)
    nmse_l = 1.0 / (1.0 + (e_f / 4.0) / (2.0 * delta2 * var_a + 1.0))
    nmse_u = 1.0 / (1.0 + (e_f / 4.0) / (2.0 * var_a + 1.0))
    feas &= nmse_u >= gamma
    return float(np.where(feas, nmse_l, np.inf).min())


def _nonreciprocal_objective(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nmse_l, nmse_u) for stacked (e_t0, e_l1, e_l2, e_t3, var_a) columns.

    Unit variances, full-rank pilots; written from scratch so it shares no
    code with the solver or the analytics module.
    """
    e_t0, e_l1, e_l2, e_t3, var_a = (np.asarray(p[i], dtype=float) for i in range(5))
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha2 = e_l1 / (2.0 * e_t0 + 8.0)        # echo gain^2 under the e_l1 cap
        q = e_t0 + 4.0                            # per-entry echo power scale
        rho0 = e_t0 / q                           # round-trip SNR share
        delta_u2 = 1.0 / (1.0 + e_l2 / 2.0)       # uplink posterior residual
        beta = 2.0 * delta_u2 + 4.0 / (alpha2 * q)
        s2 = e_l2 / (e_l2 + 2.0)                  # uplink estimate gain^2
        shrink = 4.0 * s2 / (beta + 4.0 * s2)
        err = np.where((e_t0 > 0) & (e_l1 > 0), 1.0 - rho0 * shrink, 1.0)
    d_bar = 2.0 * var_a * err + 1.0               # LR forward disturbance
    nmse_l = 1.0 / (1.0 + (e_t3 / 4.0) / d_bar)
    nmse_u = 1.0 / (1.0 + (e_t3 / 4.0) / (2.0 * var_a + 1.0))
    return nmse_l, nmse_u


def _nonreciprocal_oracle(e_t_max: float, e_l_max: float, gamma: float) -> float:
    """12-per-axis log grid + penalized Nelder-Mead refinement from the top 5."""
    an_cost = N_PLAN.tau_t3 * (CFG.n_t - CFG.n_l)   # joules per unit var_a
    axes = [
        np.geomspace(e_t_max / 1000.0, e_t_max, 12),
        np.geomspace(e_l_max / 1000.0, e_l_max, 12),
        np.geomspace(e_l_max / 1000.0, e_l_max, 12),
        np.geomspace(e_t_max / 1000.0, e_t_max, 12),
        np.concatenate([[0.0], np.geomspace(0.05, e_t_max / (an_cost * 2.0), 11)]),
    ]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    nmse_l, nmse_u = _nonreciprocal_objective(mesh)
    feas = (
        (mesh[0] + mesh[3] + an_cost * mesh[4] <= e_t_max)
        & (mesh[1] + mesh[2] <= e_l_max)
        & (nmse_u >= gamma)
    )
    order = np.argsort(np.where(feas, nmse_l, np.inf))[:5]
    best = float(nmse_l[order[0]])

    def penalized(logx: np.ndarray) -> float:
        p = np.exp(logx)
        tx = p[0] + p[3] + an_cost * p[4]
        lr = p[1] + p[2]
        val_l, val_u = _nonreciprocal_objective(p[:, None])
        pen = (
            max(0.0, tx - e_t_max) ** 2 / e_t_max**2
            + max(0.0, lr - e_l_max) ** 2 / e_l_max**2
            + max(0.0, gamma - float(val_u[0])) ** 2 * 1e8
        )
        return float(val_l[0]) + 1e3 * pen

    rng = np.random.default_rng(4)
    for idx in order:
        x0 = np.log(np.maximum(mesh[:, idx], 1e-9))
        for restart in range(3):
            start = x0 if restart == 0 else x0 + rng.normal(0.0, 0.05, size=5)
            res = optimize.minimize(
                penalized, start, method="Nelder-Mead",
                options=dict(maxiter=4000, fatol=1e-16, xatol=1e-12),
            )
            p = np.exp(res.x)
            val_l, val_u = _nonreciprocal_objective(p[:, None])
            ok = (
                p[0] + p[3] + an_cost * p[4] <= e_t_max * (1 + 1e-6)
                and p[1] + p[2] <= e_l_max * (1 + 1e-6)
                and float(val_u[0]) >= gamma * (1 - 1e-6)
            )
            if ok:
                best = min(best, float(val_l[0]))
    return best


class TestCriterion4:
    def test_c4_solvers_match_independent_oracles(self):
        # (a) closed-form solver vs 40^3 grid on 50 random instances: the
        # solver must never lose to any feasible grid point.
        rng = np.random.default_rng(2026)
        grid_losses = 0
        for _ in range(50):
            e_t = float(np.exp(rng.uniform(np.log(20.0), np.log(4000.0))))
            e_l = float(np.exp(rng.uniform(np.log(5.0), np.log(500.0))))
            lo = analytics.gamma_range(CFG, e_t).lo
            gamma = float(rng.uniform(max(lo * 1.05, 0.05), 0.95))
            rep = allocator.solve_reciprocal(CFG, R_PLAN, EnergyBudget(e_t, e_l, gamma))
            if rep.objective > _reciprocal_grid_best(e_t, e_l, gamma) * (1 + 1e-9):
                grid_losses += 1
        ok_a = grid_losses == 0

        # (b) total-cap solver vs a 2000-point dense reverse-energy scan,
        # mutual 0.1%.
        worst_scan = 0.0
        for e_ave in (60.0, 150.0, 250.0):
            budget = EnergyBudget(120.0, 200.0, 0.1, e_ave_max=e_ave)
            rep = allocator.solve_general(CFG, R_PLAN, budget)
            gt = analytics.gamma_tilde(CFG, budget.gamma)
            zeta_den = R_PLAN.tau_f + gt * CFG.var_g / CFG.var_v
            lo = max(0.0, analytics.mu(CFG), e_ave - budget.e_t_max)
            hi = min(budget.e_l_max, e_ave - gt)
            best = np.inf
            for e_r in np.linspace(lo, hi, 2000):
                e_tx = min(budget.e_t_max, e_ave - e_r)
                zeta = (e_tx - gt) / zeta_den
                val = analytics.nmse_l_reciprocal(
                    CFG, e_r, e_tx - R_PLAN.tau_f * zeta,
                    zeta / (CFG.n_t - CFG.n_l), ONES,
                )
                best = min(best, val)
            assert rep.objective <= best + 1e-10
            worst_scan = max(worst_scan, abs(rep.objective - best) / best)
        ok_b = worst_scan <= 1e-3

        # (c) non-reciprocal solver vs the log-grid + refinement oracle at the
        # headline operating point (30 dB tx / 20 dB LR over their training
        # windows).
        budget = EnergyBudget(8000.0, 600.0, 0.1)
        rep = allocator.solve_nonreciprocal(CFG, N_PLAN, budget)
        # Dual-route tie: the from-scratch formulas must reproduce the
        # analytics value at the solver's own point before they may judge it.
        a = rep.allocation
        mine_l, mine_u = _nonreciprocal_objective(
            np.array([[a.e_t0], [a.e_l1], [a.e_l2], [a.e_t3], [a.var_a]])
        )
        assert float(mine_l[0]) == pytest.approx(rep.objective, rel=1e-12)
        assert float(mine_u[0]) == pytest.approx(
            analytics.nmse_u(CFG, a.e_t3, a.var_a, ONES), rel=1e-12
        )
        oracle = _nonreciprocal_oracle(budget.e_t_max, budget.e_l_max, budget.gamma)
        ratio = rep.objective / oracle
        ok_c = rep.converged and 1.0 / 1.01 <= ratio <= 1.01

        _verdict(
            "4 solver optimality vs oracles",
            ok_a and ok_b and ok_c,
            f"grid losses {grid_losses}/50, scan gap {worst_scan:.2e}, "
            f"non-reciprocal/oracle ratio {ratio:.5f}",
        )


# ---------------------------------------------------------------------------
# 5. Worked closed-form instance, checked by scalar arithmetic.
# ---------------------------------------------------------------------------

class TestCriterion5:
    def test_c5_worked_instance(self):
        # Unit variances, caps (120, 200), floor 0.1:
        #   gamma_tilde = (1/0.1 - 1) * 4 * 1 = 36
        #   zeta = (120 - 36) / (4 + 36*1/1) = 84/80 = 1.05 * 2
        #   var_a = 2.1/2 = 1.05,  e_f = 120 - 4*2.1 = 111.6,  e_r = cap = 200
        rep = allocator.solve_reciprocal(CFG, R_PLAN, EnergyBudget(120.0, 200.0, 0.1))
        a = rep.allocation
        exact = (
            a.e_r == pytest.approx(200.0, rel=1e-12)
            and a.e_f == pytest.approx(111.6, rel=1e-12)
            and a.var_a == pytest.approx(1.05, rel=1e-12)
        )
        # Floor is met with equality: 1/(1 + (111.6/4)/(2*1.05 + 1)) = 0.1.
        floor = 1.0 / (1.0 + (111.6 / 4.0) / (2.0 * 1.05 + 1.0))
        held = (
            floor == pytest.approx(0.1, rel=1e-12)
            and analytics.nmse_u(CFG, a.e_f, a.var_a, ONES)
            == pytest.approx(0.1, rel=1e-12)
        )
        _verdict(
            "5 worked allocation at caps (120, 200), floor 0.1",
            exact and held and rep.scenario == "prop1-branch2",
            f"(e_r, e_f, var_a) = ({a.e_r:g}, {a.e_f:g}, {a.var_a:g})",
        )


# ---------------------------------------------------------------------------
# 6. Discrimination: UR stays above 10% SER while LR's SER falls.
# ---------------------------------------------------------------------------

class TestCriterion6:
    PAVES_DB = (18, 22, 26, 30, 34)

    def test_c6_ser_discrimination_both_schemes(self):
        details = []
        ok = True
        for scheme in (RECIPROCAL, NONRECIPROCAL):
            plan = R_PLAN if scheme == RECIPROCAL else N_PLAN
            solve = (
                allocator.solve_reciprocal
                if scheme == RECIPROCAL
                else allocator.solve_nonreciprocal
            )
            if scheme == RECIPROCAL:
                tau_t = tau_l = plan.tau_r + plan.tau_f
            else:
                tau_t = plan.tau_t0 + plan.tau_t3
                tau_l = plan.tau_t0 + plan.tau_l2
            ser_l, ci_l, ser_u = [], [], []
            for i, pave in enumerate(self.PAVES_DB):
                e_t = db_to_energy(float(pave), tau_t)
                e_l = db_to_energy(pave - 10.0, tau_l)
                rep = solve(CFG, plan, EnergyBudget(e_t, e_l, 0.1))
                ser = simkit.mc_ser(
                    CFG, plan, rep.allocation,
                    data_power=db_to_energy(float(pave), 1.0),
                    trials=100_000, seed=301 + i,
                )
                ser_l.append(ser.ser_l)
                ci_l.append(ser.ser_l_ci)
                ser_u.append(ser.ser_u)
            jammed = min(ser_u) > 0.1
            # adjacent points may only rise by their combined binomial noise
            falling = all(
                ser_l[i + 1] <= ser_l[i] + ci_l[i] + ci_l[i + 1]
                for i in range(len(ser_l) - 1)
            )
            ok = ok and jammed and falling
            details.append(
                f"{scheme}: min SER_U {min(ser_u):.3f}, "
                f"SER_L {ser_l[0]:.3f}->{ser_l[-1]:.5f}"
            )
        _verdict("6 SER discrimination on the P_ave grid", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. No achieved LR NMSE ever beats the genie lower bound.
# ---------------------------------------------------------------------------

class TestCriterion7:
    def test_c7_lower_bound_dominance(self):
        worst_margin = np.inf
        n_pts = 0
        for scheme in (RECIPROCAL, NONRECIPROCAL):
            for budget, _rep, nmse_l, _nmse_u in _sweep_records(scheme):
                bound = analytics.nmse_lower_bound(
                    CFG, budget.e_t_max, budget.e_ave_max, scheme
                )
                worst_margin = min(worst_margin, nmse_l - bound)
                n_pts += 1
        assert n_pts >= 40
        _verdict(
            "7 genie lower bound never beaten",
            worst_margin >= -1e-12,
            f"min (NMSE_L - bound) = {worst_margin:.2e} over {n_pts} points",
        )


# ---------------------------------------------------------------------------
# 8. Structural invariants: null space, orthogonality, Gram, determinism.
# ---------------------------------------------------------------------------

def _ortho_zscores(scheme: str, seed: int, rounds: int = 300) -> float:
    """Max |z| of the estimate/error cross moments over LR and UR."""
    plan = R_PLAN if scheme == RECIPROCAL else N_PLAN
    runner = (
        protocol.run_reciprocal if scheme == RECIPROCAL else protocol.run_nonreciprocal
    )
    if scheme == RECIPROCAL:
        alloc = PowerAllocation(scheme=scheme, e_r=2.0, e_f=4.0, var_a=1.0)
    else:
        alloc = PowerAllocation(
            scheme=scheme, e_t0=4.0, e_l1=4.0, e_l2=2.0, e_t3=8.0, var_a=1.0
        )
    rng = RngStream(seed)
    cross = []
    for _ in range(rounds):
        if scheme == RECIPROCAL:
            ch = ChannelRealization(
                h=random_gaussian(4, 2, 1.0, rng), g=random_gaussian(4, 2, 1.0, rng)
            )
            truths = {"lr": ch.h, "ur": ch.g}
        else:
            ch = ChannelRealization(
                h_d=random_gaussian(4, 2, 1.0, rng),
                h_u=random_gaussian(2, 4, 1.0, rng),
                g=random_gaussian(4, 2, 1.0, rng),
            )
            truths = {"lr": ch.h_d, "ur": ch.g}
        t = runner(CFG, plan, alloc, ch, rng)
        for key, truth in truths.items():
            est = t.estimates[key].estimate
            cross.append(np.vdot(est, truth - est))
    cross = np.asarray(cross)
    worst = 0.0
    for part in (cross.real, cross.imag):
        worst = max(worst, abs(part.mean()) / (part.std(ddof=1) / np.sqrt(part.size)))
    return worst


class TestCriterion8:
    def test_c8_structural_invariants(self, tmp_path):
        # (a) the broadcast AN must sit in the estimated channel's left null
        # space to numerical precision, round after round.
        worst_resid = 0.0
        rng = RngStream(811)
        r_alloc = PowerAllocation(scheme=RECIPROCAL, e_r=2.0, e_f=4.0, var_a=1.0)
        n_alloc = PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=4.0, e_l1=4.0, e_l2=2.0, e_t3=8.0, var_a=1.0
        )
        for _ in range(100):
            ch = ChannelRealization(
                h=random_gaussian(4, 2, 1.0, rng), g=random_gaussian(4, 2, 1.0, rng)
            )
            t = protocol.run_reciprocal(CFG, R_PLAN, r_alloc, ch, rng)
            resid = np.abs(t.null_basis.conj().T @ t.estimates["tx"].estimate).max()
            worst_resid = max(worst_resid, resid)
            ch = ChannelRealization(
                h_d=random_gaussian(4, 2, 1.0, rng),
                h_u=random_gaussian(2, 4, 1.0, rng),
                g=random_gaussian(4, 2, 1.0, rng),
            )
            t = protocol.run_nonreciprocal(CFG, N_PLAN, n_alloc, ch, rng)
            resid = np.abs(t.null_basis.conj().T @ t.estimates["tx"].estimate).max()
            worst_resid = max(worst_resid, resid)
        ok_null = worst_resid < 1e-10

        # (b) orthogonality principle: estimate/error cross moments vanish.
        worst_z = max(_ortho_zscores(RECIPROCAL, 801), _ortho_zscores(NONRECIPROCAL, 802))
        ok_ortho = worst_z <= 3.0

        # (c) the code matrix satisfies X X^H = ||s||^2 I to machine precision.
        gen = np.random.default_rng(9)
        worst_gram = 0.0
        for _ in range(500):
            s = gen.normal(size=3) + 1j * gen.normal(size=3)
            x = simkit.ostbc_encode(*s)
            gram = x @ x.conj().T - np.vdot(s, s).real * np.eye(4)
            worst_gram = max(worst_gram, np.abs(gram).max())
        ok_gram = worst_gram < 1e-12

        # (d) byte-identical CSV under a fixed seed, any worker count.
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(
            "nt = 4\nnl = 2\nnu = 2\nscheme = reciprocal\ngamma = 0.1\n"
            "pt_db = 30\npl_db = 20\ntrials = 12288\nseed = 7\n"
        )
        outs = []
        for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
            out = tmp_path / name
            code = cli_main([
                "sweep", "--config", str(cfg_path), "--gamma", "0.1",
                "--pave-db", "14:18:2", "--workers", workers, "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        ok_det = outs[0] == outs[1] == outs[2] and len(outs[0]) > 0

        _verdict(
            "8 structural invariants",
            ok_null and ok_ortho and ok_gram and ok_det,
            f"null resid {worst_resid:.1e}, ortho |z| {worst_z:.2f}, "
            f"Gram {worst_gram:.1e}, deterministic CSV {ok_det}",
        )
