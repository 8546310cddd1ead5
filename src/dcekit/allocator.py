r"""Training-energy allocators: closed forms, 1-D searches, exact reduced spaces.

Three solvers, one contract: minimize LR's training NMSE subject to a floor
``gamma`` on UR's NMSE plus energy caps, returning a :class:`SolveReport`
whose allocation is feasible to ``1e-9`` and whose ``constraint_slack``
(``NMSE_U - gamma``) is never below ``-1e-9``.  Each first runs
:func:`dcekit.model.validate` on its inputs and raises a plain ``ValueError``
naming every violated field (a NaN ``gamma`` or cap, say);
:class:`InfeasibleGamma` is kept for valid inputs whose floor the budget
cannot meet.  Energy is billed by :func:`dcekit.model.training_spend`.

* :func:`solve_reciprocal` -- per-node caps only.  The problem collapses to a
  two-branch closed form: below the threshold :func:`dcekit.analytics.mu` of
  affordable reverse energy, artificial noise cannot pay for itself and the
  answer is an unguarded pilot at the leakage cap; otherwise both the
  transmitter budget and the leakage constraint are active and the split is
  explicit.

* :func:`solve_general` -- adds a total (both-node) energy cap.  Depending on
  how the total cap compares to the per-node caps (scenarios 1-3), the
  problem either delegates to the per-node solver or reduces to a 1-D search
  over the reverse energy; the search runs a 2001-point uniform scan followed
  by golden-section refinement around the best point.  The refinement is the
  in-house :func:`_golden`, a step-for-step port of scipy's three-point
  bracket golden search (equal results and iteration counts), so the package
  needs nothing beyond numpy at run time.

* :func:`solve_nonreciprocal` -- five energies ``(e_t0, e_l1, e_l2, e_t3,
  var_a)``, solved exactly in a reduced space.  LR's NMSE decreases in
  ``e_t3 / D_bar``, ``D_bar = (n_t-n_l) var_a err + var_w``, and the
  downlink error ``err`` (:func:`dcekit.analytics.downlink_error_floor`)
  strictly decreases in ``e_t0``, ``e_l1`` and ``e_l2``.  So at any optimum
  with ``var_a > 0`` (lowering ``var_a`` would otherwise gain):

  - the UR floor binds, ``e_t3 = gt_K (1 + (n_t-n_l) var_g var_a / var_v)``;
  - every joule the caps leave goes to ``e_t0`` and to LR.

  ``validate()`` pins ``tau_t0 = n_t``, so ``alpha^2 q = e_l1 / n_l`` and
  ``err = var_hd (1 - rho0(e_t0) / Q)`` with ``rho0 = var_hd e_t0 / q`` and
  ``Q = 1 + a/e_l2 + b/e_l1 + c/(e_l1 e_l2)``, ``a = n_l^2 var_wt / (n_t
  var_hu)``, ``b = n_l var_wt / var_hu``, ``c = b^2``.  For a fixed
  ``var_a`` what remains is concave (``log rho0`` is concave, ``log Q``
  jointly convex): the LR split minimising ``Q`` at a given LR total is the
  root of one quadratic, and when the total cap binds the TX/LR share is
  the root of a decreasing first-order condition, found by bisection.  The
  outer search over ``var_a`` evaluates whole grids of candidates at once (a
  log grid, then uniform zoom rounds around the best point) and ends by
  comparing with the AN-free corner ``var_a = 0``.  A pilot of rank ``K``
  enters only through ``gt_K`` and the pilot profile.

Rank-deficient forward pilots are handled in closed form: with ``K`` active
pilot directions the UR floor binds only inside the pilot subspace, which
rescales the threshold to ``gamma_K = (n_t*gamma - (n_t-K)*var_g) / K``; if
``gamma_K <= 0`` the floor is vacuous and no artificial noise is needed at
all.  :func:`optimize_rank` sweeps ``K`` and keeps the best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytics
from .model import (
    NONRECIPROCAL,
    RECIPROCAL,
    EnergyBudget,
    PowerAllocation,
    SystemConfig,
    TrainingPlan,
    training_spend,
    validate,
)

__all__ = [
    "InfeasibleGamma",
    "SolveReport",
    "optimal_pilot_gram",
    "optimize_rank",
    "solve_general",
    "solve_nonreciprocal",
    "solve_reciprocal",
]

class InfeasibleGamma(ValueError):
    """The leakage floor lies outside the range the budgets can realize."""


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the allocation plus bookkeeping for audits.

    ``constraint_slack`` is ``NMSE_U - gamma`` at the solution; ``scenario``
    names the solution path taken; ``iterations`` counts search steps (0 for
    closed forms).  ``converged`` is false only when the non-reciprocal
    ``var_a`` bracket did not shrink to its tolerance within the round cap;
    the best point found is still returned, with ``message`` explaining.
    """

    allocation: PowerAllocation
    objective: float
    constraint_slack: float
    scenario: str
    iterations: int
    converged: bool = True
    message: str = ""


def optimal_pilot_gram(n_t: int, k: int) -> tuple[float, ...]:
    """Best rank-``k`` pilot Gram eigenvalue profile: ``k`` entries ``n_t/k``.

    Among all profiles with ``k`` nonzero eigenvalues summing to ``n_t``, the
    uniform one minimizes the per-direction NMSE sum (strict convexity of
    ``x -> 1/(a + b x)`` plus a symmetry argument), so nothing else is worth
    searching.
    """
    if not 1 <= k <= n_t:
        raise ValueError(f"rank must lie in 1..{n_t}, got {k}")
    return tuple([n_t / k] * k + [0.0] * (n_t - k))


def _rank_reduced_gamma(config: SystemConfig, gamma: float, k: int) -> float:
    """Leakage floor referred to the ``k``-dimensional pilot subspace.

    Outside the pilot subspace UR learns nothing (NMSE stays at the prior
    ``var_g`` there), so the overall floor ``gamma`` translates to
    ``(n_t*gamma - (n_t-k)*var_g)/k`` inside it.  Nonpositive means the floor
    is met for free.
    """
    return (config.n_t * gamma - (config.n_t - k) * config.var_g) / k


def _gamma_tilde_k(config: SystemConfig, gamma_k: float, k: int) -> float:
    """Transformed in-subspace floor: the max unguarded pilot energy."""
    return (1.0 / gamma_k - 1.0 / config.var_g) * k * config.var_v


def _reciprocal_report(
    config: SystemConfig,
    plan: TrainingPlan,
    budget: EnergyBudget,
    e_r: float,
    e_f: float,
    var_a: float,
    scenario: str,
    iterations: int = 0,
    message: str = "",
) -> SolveReport:
    alloc = PowerAllocation(scheme=RECIPROCAL, e_r=e_r, e_f=e_f, var_a=var_a)
    d = plan.pilot_eigs
    objective = analytics.nmse_l_reciprocal(config, e_r, e_f, var_a, d)
    slack = analytics.nmse_u(config, e_f, var_a, d) - budget.gamma
    return SolveReport(
        allocation=alloc,
        objective=objective,
        constraint_slack=slack,
        scenario=scenario,
        iterations=iterations,
        message=message,
    )


def _prop1(config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget) -> SolveReport:
    """Two-branch closed form for the per-node-caps reciprocal problem."""
    k = plan.pilot_rank
    gamma_k = _rank_reduced_gamma(config, budget.gamma, k)
    if gamma_k <= 0.0:
        # The floor is met by rank deficiency alone: no AN, all energy forward.
        return _reciprocal_report(
            config, plan, budget, 0.0, budget.e_t_max, 0.0, "rank-k-vacuous"
        )
    gt = _gamma_tilde_k(config, gamma_k, k)
    if not 0.0 <= gt <= budget.e_t_max:
        rng = analytics.gamma_range(config, budget.e_t_max, budget.gamma)
        raise InfeasibleGamma(
            f"gamma={budget.gamma} outside feasible range "
            f"[{rng.lo:.6g}, {rng.hi:.6g}] for rank {k}"
        )
    if analytics.mu(config) > budget.e_l_max:
        # Reverse training can't be made accurate enough for AN to pay off.
        return _reciprocal_report(config, plan, budget, 0.0, gt, 0.0, "prop1-branch1")
    tau_f = plan.tau_f
    zeta = (budget.e_t_max - gt) / (tau_f + gt * config.var_g / config.var_v)
    var_a = zeta / (config.n_t - config.n_l)
    e_f = budget.e_t_max - zeta * tau_f
    return _reciprocal_report(
        config, plan, budget, budget.e_l_max, e_f, var_a, "prop1-branch2"
    )


def _check_inputs(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget, scheme: str
) -> None:
    """Raise ``ValueError`` for a ``scheme`` mismatch or for any input
    :func:`dcekit.model.validate` rejects, naming every violated field."""
    if plan.scheme != scheme:
        raise ValueError(f"plan scheme must be {scheme!r}, got {plan.scheme!r}")
    problems = validate(config, plan, budget)
    if problems:
        raise ValueError(f"invalid solver input: {'; '.join(problems)}")


def solve_reciprocal(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> SolveReport:
    """Optimal reciprocal allocation (closed form).

    With only per-node caps this is the two-branch closed form; a finite
    total cap in the budget routes through :func:`solve_general` so the
    caller never has to pick.
    """
    _check_inputs(config, plan, budget, RECIPROCAL)
    if math.isfinite(budget.e_ave_max):
        return _general(config, plan, budget)
    return _prop1(config, plan, budget)


def _scenario_f(
    config: SystemConfig, gt: float, e_ave: float, tau_f: int
) -> tuple:
    """The 1-D objective of the total-cap problem and its companions.

    With the total cap and the leakage floor both active, every variable is a
    function of the reverse energy alone::

        zeta(e_r) = (e_ave - gt - e_r) / (tau_f + gt * var_g / var_v)
        e_f(e_r)  = gt * (var_g * zeta / var_v + 1)

    and maximizing the pilot-to-effective-noise ratio reduces to maximizing

        f(e_r) = (n_l var_wt + var_h e_r) e_f(e_r) /
                 (n_l var_wt + var_h e_r + n_l var_h (var_wt/var_w) zeta(e_r))
    """
    zeta_den = tau_f + gt * config.var_g / config.var_v

    def zeta(e_r):
        return (e_ave - gt - e_r) / zeta_den

    def e_f(e_r):
        return gt * (config.var_g * zeta(e_r) / config.var_v + 1.0)

    def f(e_r):
        base = config.n_l * config.var_wt + config.var_h * e_r
        drag = config.n_l * config.var_h * (config.var_wt / config.var_w) * zeta(e_r)
        return base * e_f(e_r) / (base + drag)

    return f, zeta, e_f


# scipy's golden-ratio conjugate, with scipy's rounding of 2/(1+sqrt(5)).
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R


def _golden(func, xa: float, xb: float, xc: float) -> tuple[float, int]:
    """Golden-section minimum of ``func`` on the bracket ``xa < xb < xc``.

    Returns ``(x, nit)``.  The arithmetic is that of scipy's
    ``minimize_scalar(func, bracket=(xa, xb, xc), method="golden",
    options={"xtol": 1e-12})``: the same first interior point, the same
    updates, the stop test ``|x3 - x0| <= 1e-12 * (|x1| + |x2|)``, scipy's
    default cap of 5000 iterations and the same iteration count, so results
    match it bit for bit.  Unlike scipy it does not insist on ``func(xb)``
    lying strictly below both ends: a grid maximum that ties its neighbour
    still gets searched, and any point of a tied bracket is as good as ``xb``.
    """
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GOLDEN_C * (xc - xb)
    else:
        x1, x2 = xb - _GOLDEN_C * (xb - xa), xb
    f1, f2 = func(x1), func(x2)
    nit = 0
    while nit < 5000 and not abs(x3 - x0) <= 1e-12 * (abs(x1) + abs(x2)):
        if f2 < f1:
            x0, x1, x2 = x1, x2, _GOLDEN_R * x2 + _GOLDEN_C * x3
            f1, f2 = f2, func(x2)
        else:
            x3, x2, x1 = x2, x1, _GOLDEN_R * x1 + _GOLDEN_C * x0
            f2, f1 = f1, func(x1)
        nit += 1
    return (x1 if f1 < f2 else x2), nit


def solve_general(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> SolveReport:
    """Optimal reciprocal allocation under per-node caps plus a total cap.

    Scenario 1 (total cap slack): delegate to the per-node closed form.
    Scenarios 2 and 3 (total cap binding): both the total cap and the leakage
    floor are active at the optimum, leaving a 1-D concave-ish search over
    the reverse energy, done by a 2001-point scan plus golden-section
    refinement.  Scenario 3 only differs in which per-node caps are redundant
    (the interval arithmetic absorbs that automatically).
    """
    _check_inputs(config, plan, budget, RECIPROCAL)
    return _general(config, plan, budget)


def _general(config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget) -> SolveReport:
    e_t, e_l, e_ave = budget.e_t_max, budget.e_l_max, budget.e_ave_max

    if e_ave > e_l + e_t:
        inner = _prop1(config, plan, budget)
        return replace(
            inner,
            scenario="scenario1",
            message=f"total cap slack; delegated to per-node solver ({inner.scenario})",
        )

    scenario = "scenario2" if max(e_l, e_t) <= e_ave else "scenario3"
    k = plan.pilot_rank
    gamma_k = _rank_reduced_gamma(config, budget.gamma, k)
    if gamma_k <= 0.0:
        return _reciprocal_report(
            config, plan, budget, 0.0, min(e_t, e_ave), 0.0, "rank-k-vacuous"
        )
    gt = _gamma_tilde_k(config, gamma_k, k)
    if not 0.0 <= gt <= min(e_t, e_ave):
        raise InfeasibleGamma(
            f"gamma={budget.gamma} needs unguarded pilot energy {gt:.6g} "
            f"but only {min(e_t, e_ave):.6g} is available"
        )

    if analytics.mu(config) > min(e_l, e_ave - gt):
        return _reciprocal_report(config, plan, budget, 0.0, gt, 0.0, scenario)

    lo = max(0.0, analytics.mu(config), e_ave - e_t)
    hi = min(e_l, e_ave - gt)
    if lo > hi:
        raise InfeasibleGamma(
            f"empty reverse-energy interval [{lo:.6g}, {hi:.6g}] for gamma={budget.gamma}"
        )

    f, zeta, e_f_of = _scenario_f(config, gt, e_ave, plan.tau_f)
    iterations = 0
    if hi - lo <= 1e-12 * max(1.0, abs(hi)):
        e_r_star = hi
    else:
        grid = np.linspace(lo, hi, 2001)
        vals = f(grid)
        best = int(np.argmax(vals))
        iterations = 2001
        e_r_star = float(grid[best])
        if 0 < best < 2000:
            x, nit = _golden(
                lambda x: -f(x), float(grid[best - 1]), e_r_star, float(grid[best + 1])
            )
            cand = float(np.clip(x, lo, hi))
            if f(cand) >= f(e_r_star):
                e_r_star = cand
            iterations += nit

    z = zeta(e_r_star)
    var_a = z / (config.n_t - config.n_l)
    e_f = e_f_of(e_r_star)
    return _reciprocal_report(
        config, plan, budget, e_r_star, e_f, var_a, scenario, iterations=iterations
    )


# ---------------------------------------------------------------------------
# Non-reciprocal solver: exact search over (var_a, TX/LR share).
# ---------------------------------------------------------------------------

_GRID_POINTS = 64  # first var_a round: 0 and a log grid over var_a_max * [1e-9, 1]
_ZOOM_POINTS = 24  # every later round: a uniform grid over the bracket
_ZOOM_RTOL = 1e-9  # done once the bracket is this narrow relative to its best
_ZOOM_ROUNDS = 60  # round cap; only a bracket that will not shrink reaches it
_SHARE_STEPS = 52  # bisection steps on the TX/LR share condition


def _echo_quality(config: SystemConfig, l):
    """The LR split of total energy ``l`` that minimises ``Q``, elementwise.

    ``e_l1`` is the root in ``(0, l)`` of ``(a-b) e_l1^2 + 2 (c + b l) e_l1 -
    (b l^2 + c l)``, i.e. ``l / (1 + sqrt((a l + c) / (b l + c)))``.  Returns
    ``(e_l1, e_l2, Q, dQ/dl)``, with ``dQ/dl = dQ/de_l2`` at the split
    (envelope theorem).
    """
    a = config.n_l**2 * config.var_wt / (config.n_t * config.var_hu)
    b = config.n_l * config.var_wt / config.var_hu
    c = b * b
    e_l1 = l / (1.0 + np.sqrt((a * l + c) / (b * l + c)))
    e_l2 = l - e_l1
    q = 1.0 + a / e_l2 + b / e_l1 + c / (e_l1 * e_l2)
    return e_l1, e_l2, q, -(a + c / e_l1) / e_l2**2


def _floor_spend(config: SystemConfig, plan: TrainingPlan, gt: float, var_a):
    """Guarded-pilot energy on the UR floor at AN variance ``var_a``,
    ``gt (1 + (n_t-n_l) var_g var_a / var_v)``, and the transmitter energy
    that pilot and its AN spend."""
    e_t3 = gt * (1.0 + (config.n_t - config.n_l) * config.var_g * var_a / config.var_v)
    zero = 0.0 * var_a
    alloc = PowerAllocation(
        scheme=NONRECIPROCAL, e_t0=zero, e_l1=zero, e_l2=zero, e_t3=e_t3, var_a=var_a
    )
    return e_t3, training_spend(alloc, config, plan)[0]


def _reduced_points(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget, gt: float, var_a
):
    """Best allocation at each AN variance in the array ``var_a``: ``e_t3``
    on the floor, the rest of the caps to ``e_t0`` and LR.  A binding total
    cap is shared by bisection on the derivative of ``log rho0(e_t0) - log
    Q(l)`` along ``e_t0 + l = room``, which decreases.  Returns ``e_t3 /
    D_bar`` and the energies ``(e_t0, e_l1, e_l2, e_t3)``."""
    e_t3, tx_spend = _floor_spend(config, plan, gt, var_a)
    room = np.maximum(budget.e_ave_max - tx_spend, 0.0)  # inf without a total cap
    hi = np.maximum(min(budget.e_t_max, budget.e_ave_max) - tx_spend, 0.0)
    lo = np.minimum(np.maximum(room - budget.e_l_max, 0.0), hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(lo < hi):
            for _ in range(_SHARE_STEPS):
                mid = 0.5 * (lo + hi)
                _, _, q, dq = _echo_quality(config, room - mid)
                dlog_rho0 = config.n_t * config.var_w / (mid * analytics.echo_power(config, mid))
                grow = dlog_rho0 + dq / q > 0.0
                lo, hi = np.where(grow, mid, lo), np.where(grow, hi, mid)
        e_t0 = 0.5 * (lo + hi)
        e_l1, e_l2, q, _ = _echo_quality(config, np.minimum(budget.e_l_max, room - e_t0))
        rho0 = config.var_hd * e_t0 / analytics.echo_power(config, e_t0)
        err = config.var_hd * (1.0 - rho0 / q)
    d_bar = (config.n_t - config.n_l) * var_a * err + config.var_w
    return e_t3 / d_bar, (e_t0, e_l1, e_l2, e_t3)


def solve_nonreciprocal(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> SolveReport:
    """Optimal non-reciprocal allocation by an exact reduced-space search.

    For each AN variance the rest of the allocation is exact (see the module
    docstring).  ``var_a`` itself is searched by a 64-point grid over its
    feasible range (0 and a log grid), then by rounds of 24-point uniform
    grids over the bracket around each round's best point, every round
    evaluated at once.  The best
    point (scenario ``"interior"``) is compared with the AN-free corner
    (``"an-free"``).  ``iterations`` counts the rounds.
    """
    _check_inputs(config, plan, budget, NONRECIPROCAL)
    k = plan.pilot_rank
    d = plan.pilot_eigs
    e_cap = min(budget.e_t_max, budget.e_ave_max)

    def report(alloc, scenario, **search):
        objective = analytics.nmse_l_nonreciprocal_approx(config, alloc, plan)
        slack = analytics.nmse_u(config, alloc.e_t3, alloc.var_a, d) - budget.gamma
        return SolveReport(
            allocation=alloc, objective=objective, constraint_slack=slack,
            scenario=scenario, **search,
        )

    def an_free(e_t3):
        return PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=0.0, e_l1=0.0, e_l2=0.0, e_t3=e_t3, var_a=0.0
        )

    gamma_k = _rank_reduced_gamma(config, budget.gamma, k)
    if gamma_k <= 0.0:
        return report(an_free(e_cap), "rank-k-vacuous", iterations=0)

    gt = _gamma_tilde_k(config, gamma_k, k)
    if gt <= 0.0:
        raise InfeasibleGamma(
            f"gamma={budget.gamma} is not strictly below the UR prior var_g={config.var_g}"
        )
    if gt > e_cap:
        raise InfeasibleGamma(
            f"gamma={budget.gamma} needs unguarded pilot energy {gt:.6g} "
            f"but only {e_cap:.6g} is available"
        )

    # The transmitter's spend along the floor is affine in var_a; at
    # var_a_max nothing is left for e_t0.
    _, (spend0, spend1) = _floor_spend(config, plan, gt, np.array([0.0, 1.0]))
    var_a_max = (e_cap - spend0) / (spend1 - spend0)
    grid = var_a_max * np.append(0.0, np.geomspace(1e-9, 1.0, _GRID_POINTS - 1))
    for rounds in range(1, _ZOOM_ROUNDS + 1):
        ratio, energies = _reduced_points(config, plan, budget, gt, grid)
        i = int(np.argmax(ratio))
        var_a = float(grid[i])
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        converged = hi - lo <= _ZOOM_RTOL * var_a or var_a == 0.0  # zero: the corner wins
        if converged:
            break
        grid = np.linspace(lo, hi, _ZOOM_POINTS)
    message = "" if converged else f"var_a bracket still {hi - lo:.3g} wide after {rounds} rounds"
    search = {"iterations": rounds, "converged": converged, "message": message}

    e_t0, e_l1, e_l2, e_t3 = (float(x[i]) for x in energies)
    interior = report(
        PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=e_t0, e_l1=e_l1, e_l2=e_l2, e_t3=e_t3, var_a=var_a
        ),
        "interior", **search,
    )
    corner = report(an_free(gt), "an-free", **search)
    return corner if corner.objective <= interior.objective else interior


def optimize_rank(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> tuple[int, SolveReport]:
    """Best forward-pilot rank and its allocation.

    Sweeps ``K = 1..n_t`` with the uniform rank-``K`` Gram profile, solving
    each with the scheme-appropriate solver; infeasible ranks are skipped.
    Ties go to the smaller rank (shorter effective pilot).
    """
    best: tuple[int, SolveReport] | None = None
    for k in range(1, config.n_t + 1):
        plan_k = replace(
            plan, pilot_rank=k, pilot_eigs=optimal_pilot_gram(config.n_t, k)
        )
        try:
            if plan.scheme == RECIPROCAL:
                rep = solve_reciprocal(config, plan_k, budget)
            else:
                rep = solve_nonreciprocal(config, plan_k, budget)
        except InfeasibleGamma:
            continue
        if best is None or rep.objective < best[1].objective * (1.0 - 1e-12):
            best = (k, rep)
    if best is None:
        raise InfeasibleGamma(
            f"gamma={budget.gamma} infeasible at every pilot rank 1..{config.n_t}"
        )
    return best
