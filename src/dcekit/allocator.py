r"""Training-energy allocators: closed forms, 1-D line search, condensation GP.

Three solvers, one contract: minimize LR's training NMSE subject to a floor
``gamma`` on UR's NMSE plus energy caps, returning a :class:`SolveReport`
whose allocation is feasible to ``1e-9`` and whose ``constraint_slack``
(``NMSE_U - gamma``) is never below ``-1e-9``.  Each first runs
:func:`dcekit.model.validate` on its inputs and raises a plain ``ValueError``
naming every violated field (a NaN ``gamma`` or cap, say);
:class:`InfeasibleGamma` is kept for valid inputs whose floor the budget
cannot meet.

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

* :func:`solve_nonreciprocal` -- five coupled variables and a non-convex
  posynomial-ratio objective.  Solved by iterative monomial condensation:
  at each iterate the objective denominator and the leakage-cap posynomial
  are replaced by their weighted-AM-GM monomial minorants (tight at the
  iterate), and each resulting convex subproblem is solved in log variables
  by a log-barrier path (t = 1, x10 per stage) with damped projected-Newton
  steps.  Condensation under-approximates the leakage cap, so every iterate
  stays truly feasible and the true objective descends monotonically across
  accepted steps.  The posynomials of a subproblem are stacked into one
  exponent matrix, so each Newton step and each line-search probe evaluates
  the objective numerator and every constraint in one stacked log-sum-exp
  (one matmul plus segment reductions), not one call per posynomial.

Rank-deficient forward pilots are handled in closed form: with ``K`` active
pilot directions the UR floor binds only inside the pilot subspace, which
rescales the threshold to ``gamma_K = (n_t*gamma - (n_t-K)*var_g) / K``; if
``gamma_K <= 0`` the floor is vacuous and no artificial noise is needed at
all.  :func:`optimize_rank` sweeps ``K`` and keeps the best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import analytics
from .model import (
    NONRECIPROCAL,
    RECIPROCAL,
    EnergyBudget,
    PowerAllocation,
    SystemConfig,
    TrainingPlan,
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

# Index order of the non-reciprocal GP variables.
_T0, _L1, _L2, _T3, _SA = range(5)

_SLACK_TOL = 1e-9


class InfeasibleGamma(ValueError):
    """The leakage floor lies outside the range the budgets can realize."""


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the allocation plus bookkeeping for audits.

    ``constraint_slack`` is ``NMSE_U - gamma`` at the solution; ``scenario``
    names the solution path taken; ``converged`` is false only when the GP
    hit its iteration cap (the best feasible iterate is still returned, with
    ``message`` explaining); ``objective_trace`` records the GP objective per
    accepted outer iteration (empty for closed-form paths).
    """

    allocation: PowerAllocation
    objective: float
    constraint_slack: float
    scenario: str
    iterations: int
    converged: bool = True
    message: str = ""
    objective_trace: tuple[float, ...] = field(default=(), repr=False)


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
# Non-reciprocal solver: condensation GP over (e_t0, e_l1, e_l2, e_t3, var_a).
# ---------------------------------------------------------------------------


def _mono(c: float, e0=0, e1=0, e2=0, e3=0, ea=0) -> list:
    return [(c, np.array([e0, e1, e2, e3, ea], dtype=float))]


def _pmul(p: list, q: list) -> list:
    return [(cp * cq, ep + eq) for cp, ep in p for cq, eq in q]


def _pscale(p: list, s: float) -> list:
    return [(c * s, e) for c, e in p]


class _Stack(NamedTuple):
    """Posynomials frozen for log-space evaluation: all terms in one list,
    one block of consecutive terms per posynomial."""

    b: np.ndarray       # log-coefficient of every term
    e: np.ndarray       # (terms, 5) exponent matrix
    starts: np.ndarray  # first term of each block
    seg: np.ndarray     # block of each term


def _stack(posys: list) -> _Stack:
    sizes = [len(p) for p in posys]
    terms = [term for p in posys for term in p]
    return _Stack(
        b=np.log(np.array([c for c, _ in terms])),
        e=np.stack([e for _, e in terms]),
        starts=np.cumsum([0] + sizes[:-1]),
        seg=np.repeat(np.arange(len(sizes)), sizes),
    )


def _lse(stack: _Stack, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log-sum-exp of every block at log-point z, and each term's weight
    within its block (the block softmax)."""
    t = stack.b + stack.e @ z
    m = np.maximum.reduceat(t, stack.starts)
    w = np.exp(t - m[stack.seg])
    s = np.add.reduceat(w, stack.starts)
    return m + np.log(s), w / s[stack.seg]


def _lse_grads(stack: _Stack, p: np.ndarray) -> np.ndarray:
    """Gradient of every block's log-sum-exp, one row per block."""
    return np.add.reduceat(stack.e * p[:, None], stack.starts, axis=0)


def _condense(stack: _Stack, z0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-AM-GM monomial minorant of each block, tight at ``z0``.

    Returns ``(b0, a)`` such that ``b0[k] + a[k].z <= log posy_k(z)`` for all
    z with equality at ``z0``.
    """
    val, p = _lse(stack, z0)
    grads = _lse_grads(stack, p)
    return val - grads @ z0, grads


def _nonreciprocal_posys(config: SystemConfig, plan: TrainingPlan):
    """Static posynomials of the non-reciprocal objective in the 5 variables.

    Objective = effective-noise / pilot-energy = num / den with::

        num = zeta * hd * (n_t * w * A + Q1 * B) + w * Q1 * (A + B)
        den = Q1 * (A + B) * e_t3

    where ``Q1 = hd*e_t0 + n_t*w`` (echo-path energy), ``A`` the echo-signal
    monomial, ``B`` the echo-noise posynomial, and ``zeta = (n_t-n_l)*var_a``.
    Minimizing num/den minimizes the LR NMSE for any pilot rank because the
    per-direction NMSE is monotone in e_t3 / effective-noise.
    """
    nt, nl = config.n_t, config.n_l
    hd, hu = config.var_hd, config.var_hu
    w, wt = config.var_w, config.var_wt

    q1 = _mono(hd, e0=1) + _mono(nt * w)
    q2 = _mono(hu, e2=1) + _mono(nl * wt)
    a_sig = _mono(nt * hu**2, e1=1, e2=1)
    b_noise = _mono(nl**2 * hu * wt, e1=1) + _pscale(_pmul(_mono(nt * nl * wt), q2), 1.0)
    zeta = _mono(nt - nl, ea=1)

    a_plus_b = a_sig + b_noise
    leak = _pmul(_mono(nt * w), a_sig) + _pmul(q1, b_noise)
    num = _pmul(_pmul(zeta, _mono(hd)), leak) + _pmul(_mono(w), _pmul(q1, a_plus_b))
    den = _pmul(_pmul(q1, a_plus_b), _mono(1.0, e3=1))
    return num, den


def _gp_warm_start(
    config: SystemConfig, budget: EnergyBudget, gt: float
) -> np.ndarray:
    """Strictly feasible start: split caps, leakage floor just-active."""
    nt, nl = config.n_t, config.n_l
    an = nt - nl
    g, v = config.var_g, config.var_v
    margin = 0.98
    e_l1 = e_l2 = margin * budget.e_l_max / 2.0

    # Equal pilot split e_t0 = e_t3 = s with the floor active at e_t3 = s:
    # 2 s + n_t * an * sa2(s) = margin * e_t_max,  sa2(s) from NMSE_U == gamma.
    cap_t = margin * budget.e_t_max
    s = (cap_t + nt * v / g) / (2.0 + nt * v / (gt * g))
    sa2 = (s * v / gt - v) / (an * g)
    if sa2 <= 0.0:
        sa2 = 1e-9 * budget.e_t_max / (an * nt)
        s = (cap_t - nt * an * sa2) / 2.0
    sa2 *= 1.001  # strictly inside the leakage cap
    x = np.array([s, e_l1, e_l2, s, sa2])

    if math.isfinite(budget.e_ave_max):
        total = 2.0 * s + nt * an * sa2 + e_l1 + e_l2
        scale = min(1.0, margin * budget.e_ave_max / total)
        x = x * scale  # uniform downscale preserves the leakage constraint
    return np.maximum(x, 1e-30)


def _barrier_point(stack: _Stack, lin: tuple, z: np.ndarray) -> tuple:
    """Every block's log-sum-exp, the term weights, and all constraint
    residuals (posynomial blocks after the first, then the linear rows
    ``a z + c``) at ``z``, from one stacked evaluation."""
    vals, p = _lse(stack, z)
    a_lin, c_lin = lin
    return vals, p, np.concatenate((vals[1:], a_lin @ z + c_lin))


def _barrier_phi(point: tuple, a_den: np.ndarray, z: np.ndarray, t: float) -> float:
    """Barrier objective ``t f0 - sum log(-r)``; ``inf`` outside the feasible set."""
    vals, _, r = point
    if r.max() >= 0.0:
        return math.inf
    return t * (vals[0] - float(a_den @ z)) - float(np.log(-r).sum())


def _barrier_derivatives(
    stack: _Stack, lin: tuple, a_den: np.ndarray, point: tuple, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the barrier objective at an evaluated point.

    With block gradients ``g_k = E_kᵀ p_k``, each log-sum-exp contributes
    ``E_kᵀ diag(p_k) E_k - g_k g_kᵀ`` to its Hessian, so the whole barrier
    Hessian is ``Eᵀ diag(p * coef[seg]) E + Gᵀ diag(gcoef) G`` with the
    linear constraint rows stacked under the block gradients in ``G``.
    """
    _, p, r = point
    a_lin = lin[0]
    n_pos = len(stack.starts) - 1
    r_pos, r_lin = r[:n_pos], r[n_pos:]
    grads = np.concatenate((_lse_grads(stack, p), a_lin))
    # A posynomial constraint's -log(-r) has Hessian H/(-r) + g gᵀ/r², with
    # H = Eᵀ diag(p) E - g gᵀ: weight -1/r on its E-part and 1/r² + 1/r on
    # g gᵀ.  The objective block's are t and -t, a linear row's g gᵀ 1/r².
    coef = np.concatenate(([t], -1.0 / r_pos))
    gcoef = np.concatenate(([-t], 1.0 / r_pos**2 + 1.0 / r_pos, 1.0 / r_lin**2))
    grad = np.concatenate((coef, -1.0 / r_lin)) @ grads - t * a_den
    hess = (stack.e.T * (p * coef[stack.seg])) @ stack.e + (grads.T * gcoef) @ grads
    return grad, hess


def _barrier_newton(
    stack: _Stack, a_den: np.ndarray, lin: tuple, z0: np.ndarray, z_lo, z_hi
) -> np.ndarray:
    """Minimize LSE(block 0) - a_den.z subject to every other block's LSE <= 0
    and the linear rows ``lin = (A, c)``: ``A z + c <= 0``.

    Log-barrier path (t = 1, x10 per stage, stop past 1e10) with damped
    Newton steps, each projected onto the log box [z_lo, z_hi].  ``z0``
    must be strictly feasible.  Each step and each line-search probe is one
    stacked evaluation of all posynomials (:func:`_barrier_point`); the
    accepted probe's evaluation and barrier value carry over to the next
    step, so every visited point is evaluated once.
    """
    z = z0.copy()
    point = _barrier_point(stack, lin, z)
    ridge = 1e-12 * np.eye(5)
    t = 1.0
    for _ in range(12):  # barrier path: t *= 10 each stage
        base = _barrier_phi(point, a_den, z, t)
        for _ in range(60):
            grad, hess = _barrier_derivatives(stack, lin, a_den, point, t)
            try:
                step = np.linalg.solve(hess + ridge, -grad)
            except np.linalg.LinAlgError:
                step = -grad
            decrement = float(-grad @ step)
            if decrement < 1e-12:
                break
            alpha = 1.0
            for _ in range(50):
                cand = np.minimum(np.maximum(z + alpha * step, z_lo), z_hi)
                cand_point = _barrier_point(stack, lin, cand)
                cand_phi = _barrier_phi(cand_point, a_den, cand, t)
                if cand_phi < base - 1e-12 * alpha * decrement:
                    z, point, base = cand, cand_point, cand_phi
                    break
                alpha *= 0.5
            else:
                break
        t *= 10.0
        if t > 1e10:
            break
    return z


def solve_nonreciprocal(
    config: SystemConfig,
    plan: TrainingPlan,
    budget: EnergyBudget,
    options: dict | None = None,
) -> SolveReport:
    """Optimal non-reciprocal allocation by iterative monomial condensation.

    Each outer iteration condenses the objective denominator and the
    leakage-cap posynomial to monomials (tight at the iterate) and solves the
    resulting convex log-space subproblem with a barrier/Newton method.  The
    condensed leakage cap under-approximates the true one, so every iterate
    is truly feasible and the objective descends monotonically.  Stops on
    relative objective change below ``tol`` (default ``1e-6``) or after
    ``max_iters`` (default 200) outer iterations, in which case the best
    feasible iterate is returned with ``converged=False``.
    """
    _check_inputs(config, plan, budget, NONRECIPROCAL)
    opts = {"max_iters": 200, "tol": 1e-6}
    if options:
        opts.update(options)

    nt, nl = config.n_t, config.n_l
    an = nt - nl
    g, v, w = config.var_g, config.var_v, config.var_w
    k = plan.pilot_rank
    d = plan.pilot_eigs
    e_cap = min(budget.e_t_max, budget.e_ave_max)

    def report(alloc, scenario, iterations=0, converged=True, message="", trace=()):
        objective = analytics.nmse_l_nonreciprocal_approx(config, alloc, plan)
        slack = analytics.nmse_u(config, alloc.e_t3, alloc.var_a, d) - budget.gamma
        return SolveReport(
            allocation=alloc, objective=objective, constraint_slack=slack,
            scenario=scenario, iterations=iterations, converged=converged,
            message=message, objective_trace=trace,
        )

    gamma_k = _rank_reduced_gamma(config, budget.gamma, k)
    if gamma_k <= 0.0:
        alloc = PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=0.0, e_l1=0.0, e_l2=0.0, e_t3=e_cap, var_a=0.0
        )
        return report(alloc, "rank-k-vacuous")

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

    # AN-free corner: all usable transmit energy on the guarded pilot, capped
    # by the leakage floor.  Cheap, always feasible, and the honest fallback
    # whenever artificial noise cannot pay for itself.
    corner = PowerAllocation(
        scheme=NONRECIPROCAL, e_t0=0.0, e_l1=0.0, e_l2=0.0,
        e_t3=min(gt, e_cap), var_a=0.0,
    )
    corner_obj = analytics.nmse_l_nonreciprocal_approx(config, corner, plan)

    num, den = _nonreciprocal_posys(config, plan)
    # Condensed each outer iteration: the objective denominator and the
    # leakage-cap posynomial.
    condensed = _stack([den, _mono(v) + _mono(an * g, ea=1)])

    # The barrier subproblem: numerator first, then the energy caps.
    tx_terms = _mono(1.0, e0=1) + _mono(1.0, e3=1) + _mono(nt * an, ea=1)
    lr_terms = _mono(1.0, e1=1) + _mono(1.0, e2=1)
    blocks = [
        num,
        _pscale(tx_terms, 1.0 / budget.e_t_max),
        _pscale(lr_terms, 1.0 / budget.e_l_max),
    ]
    if math.isfinite(budget.e_ave_max):
        blocks.append(_pscale(tx_terms + lr_terms, 1.0 / budget.e_ave_max))
    subproblem = _stack(blocks)

    caps = np.array([
        budget.e_t_max, budget.e_l_max, budget.e_l_max, budget.e_t_max,
        budget.e_t_max / (an * nt),
    ])
    caps = np.minimum(caps, budget.e_ave_max)
    z_lo = np.log(caps * 1e-14)
    z_hi = np.log(caps)

    def alloc_of(x: np.ndarray) -> PowerAllocation:
        return PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=float(x[_T0]), e_l1=float(x[_L1]),
            e_l2=float(x[_L2]), e_t3=float(x[_T3]), var_a=float(x[_SA]),
        )

    x = _gp_warm_start(config, budget, gt)
    current = analytics.nmse_l_nonreciprocal_approx(config, alloc_of(x), plan)
    trace = [current]
    converged = False
    iterations = 0
    e3_axis = np.eye(5)[_T3]

    for iterations in range(1, opts["max_iters"] + 1):
        z0 = np.log(x)
        (_, r_b0), (a_den, a_r) = _condense(condensed, z0)
        lin = ((e3_axis - a_r)[None, :], np.array([math.log(v / gt) - r_b0]))
        z_new = _barrier_newton(subproblem, a_den, lin, z0, z_lo, z_hi)
        x_new = np.exp(z_new)
        new = analytics.nmse_l_nonreciprocal_approx(config, alloc_of(x_new), plan)
        if not math.isfinite(new) or new > current:
            break  # condensation step failed to improve; current point stands
        drop = (current - new) / max(current, 1e-300)
        x, current = x_new, new
        trace.append(current)
        if drop < opts["tol"]:
            converged = True
            break

    best = alloc_of(x)
    message = ""
    if not converged:
        message = (
            f"stopped after {iterations} condensation iterations without meeting "
            f"tol={opts['tol']}; returning best feasible iterate"
        )
    if corner_obj < current:
        best, current = corner, corner_obj
        converged = True
        message = "AN-free corner beat the interior iterate"
    return report(
        best, "gp", iterations=iterations, converged=converged,
        message=message, trace=tuple(trace),
    )


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
