r"""Training-energy allocators: reduced-space solutions, exact for their closed forms.

Two solvers, one contract: minimize LR's closed-form training NMSE (exact
for the reciprocal scheme, the Jensen surrogate for the non-reciprocal one,
whose optimum is not that of LR's true NMSE) subject to a floor
``gamma`` on UR's NMSE plus energy caps, returning a :class:`SolveReport`
whose allocation is feasible to ``1e-9`` and whose ``constraint_slack``
(``NMSE_U - gamma``) is never below ``-1e-9``.  Each first runs
:func:`dcekit.model.validate` on its inputs and raises a plain ``ValueError``
naming every violated field (a NaN ``gamma`` or cap, say);
:class:`InfeasibleGamma` is kept for valid inputs whose floor the budget
cannot meet.  Energy is billed by :func:`dcekit.model.training_spend`, and
the reported NMSEs come from :func:`dcekit.analytics.closed_forms`.
:func:`solve` runs the solver of the plan's scheme.

Both reduce the problem the same way: the guarded forward pilot sits on the
UR floor, ``gt_K r_u / var_v`` with UR's disturbance ``r_u``
(:func:`dcekit.analytics.ur_disturbance`), and the caps are spent.  The
transmitter's spend on that pilot and its AN is then affine in ``var_a``.

* :func:`solve_reciprocal` -- ``(e_r, e_f, var_a)``, with or without a total
  cap (:func:`solve_general` is the same solver).  LR's NMSE decreases in
  ``e_f / r_bar``, ``r_bar = (n_t-n_l) var_a delta^2 + var_w``, and the
  reverse-estimate error ``delta^2`` decreases in ``e_r``.  Along the floor
  at a fixed ``e_r`` that ratio is monotone in ``var_a``: it grows iff
  ``delta^2 < var_g var_w / var_v``, i.e. iff ``e_r`` exceeds
  :func:`dcekit.analytics.mu`.  So when no ``e_r`` above ``mu`` is
  affordable the answer is an unguarded pilot ``e_f = gt_K`` without AN.
  Otherwise the transmitter spends ``min(e_t_max, e_ave_max - e_r)`` and
  only ``e_r`` is free, in ``[lo, hi]``: ``hi = min(e_l_max, e_ave_max -
  gt_K)`` and ``lo = max(0, mu, e_ave_max - e_t_max)`` (below ``e_ave_max
  - e_t_max`` the transmitter cap binds and more ``e_r`` only helps).  On
  ``[lo, hi]`` the total cap binds, so ``var_a``, ``e_f`` and the reverse
  precision ``p = 1/delta^2`` are affine in ``e_r``, and ``e_f / r_bar =
  N / L`` with ``N = e_f p`` a concave quadratic and ``L = (n_t-n_l) var_a
  + var_w p`` affine and positive.  Such a ratio is quasi-concave (each
  superlevel set ``{N - t L >= 0}`` is an interval), so its maximum is at
  ``lo``, at ``hi`` or at the stationary point, a root of the quadratic
  ``N' L - N L'``; the solver compares them.  Without a binding total cap
  ``lo = hi = e_l_max``: the paper's Proposition-1 closed form.

* :func:`solve_nonreciprocal` -- five energies ``(e_t0, e_l1, e_l2, e_t3,
  var_a)``, solved exactly for the Jensen surrogate in a reduced space.  Its
  LR NMSE decreases in ``e_t3 / D_bar``, ``D_bar = (n_t-n_l) var_a err +
  var_w``, and the downlink error ``err`` (:func:`dcekit.analytics.downlink_error_floor`)
  strictly decreases in ``e_t0``, ``e_l1`` and ``e_l2``.  So at any optimum
  with ``var_a > 0`` (lowering ``var_a`` would otherwise gain) the floor
  binds and every joule the caps leave goes to ``e_t0`` and to LR.

  That ``err = var_hd (1 - rho0(e_t0) / Q(e_l1, e_l2))`` and ``Q`` are
  defined in :func:`dcekit.analytics.downlink_error_floor`, and the search
  takes ``D_bar`` from :func:`dcekit.analytics.nonreciprocal_effective_noise`
  and ``Q`` from :func:`dcekit.analytics.echo_quality`.  For a fixed
  ``var_a`` what remains is concave (``log rho0`` is concave, ``log Q``
  jointly convex): the LR split minimising ``Q`` at a given LR total is the
  root of one quadratic, and when the total cap binds the TX/LR share is
  the root of a decreasing first-order condition.  That condition is tested
  at both ends of the share's interval first: where it already has the
  sign of an end, the share sits at that cap (which is what most
  cap-bound points do).  The points left open get a safeguarded Newton
  iteration, finished by a short bisection on a bracket checked around its
  result.  The outer search over ``var_a`` evaluates whole grids of
  candidates at once (a log grid, then 128-point uniform zoom rounds around
  the best point, about six rounds in all) and ends by comparing with the
  AN-free corner ``var_a = 0``.  A pilot of rank ``K``
  enters only through ``gt_K`` and the pilot profile.

Rank-deficient forward pilots are handled in closed form, once for both
schemes: with ``K`` active pilot directions the UR floor binds only inside
the pilot subspace, which rescales the threshold to ``gamma_K =
(n_t*gamma - (n_t-K)*var_g) / K`` and the unguarded pilot energy to ``gt_K
= gamma_tilde(gamma_K) K / n_t`` (:func:`dcekit.analytics.gamma_tilde`); if
``gamma_K <= 0`` the floor is vacuous and no artificial noise is needed at
all, and if ``gt_K`` exceeds ``min(e_t_max, e_ave_max)`` the floor is out of
reach.  :func:`optimize_rank` sweeps ``K`` and keeps the best.
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
    optimal_pilot_gram,
    training_spend,
    validate,
)

__all__ = [
    "InfeasibleGamma",
    "SolveReport",
    "optimal_pilot_gram",
    "optimize_rank",
    "solve",
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
    names the solution path taken; ``iterations`` counts the non-reciprocal
    solver's ``var_a`` search rounds (0 for the reciprocal solver, which has
    no search).  ``converged`` is false only when the non-reciprocal
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


def _floor_energy(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> float | None:
    """Unguarded pilot energy ``gt_K`` that meets the UR floor at the plan's
    pilot rank (see the module docstring), or ``None`` if the floor is
    vacuous.  Raises :class:`InfeasibleGamma` when ``gt_K`` exceeds
    ``min(e_t_max, e_ave_max)``."""
    k = plan.pilot_rank
    gamma_k = (config.n_t * budget.gamma - (config.n_t - k) * config.var_g) / k
    if gamma_k <= 0.0:
        return None
    # gamma <= var_g, so gt_K < 0 only by rounding.
    gt = max(analytics.gamma_tilde(config, gamma_k) * k / config.n_t, 0.0)
    e_cap = min(budget.e_t_max, budget.e_ave_max)
    if gt > e_cap:
        raise InfeasibleGamma(
            f"gamma={budget.gamma} needs unguarded pilot energy {gt:.6g} "
            f"but only {e_cap:.6g} is available at rank {k}"
        )
    return gt


def _floor_spend(config: SystemConfig, plan: TrainingPlan, gt: float, var_a):
    """Guarded-pilot energy on the UR floor at AN variance ``var_a``, ``gt r_u
    / var_v``, and the transmitter energy that pilot and its AN spend; both
    are affine in ``var_a``."""
    e_pilot = gt * analytics.ur_disturbance(config, var_a) / config.var_v
    zero = 0.0 * var_a
    if plan.scheme == RECIPROCAL:
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=zero, e_f=e_pilot, var_a=var_a)
    else:
        alloc = PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=zero, e_l1=zero, e_l2=zero, e_t3=e_pilot, var_a=var_a
        )
    return e_pilot, training_spend(alloc, config, plan)[0]


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


def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of ``a x^2 + b x + c`` (``a`` may be 0), free of cancellation."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return tuple(r / s for r, s in ((q, a), (c, q)) if s != 0.0)


def solve_reciprocal(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> SolveReport:
    """Optimal reciprocal allocation, exact, with or without a total cap.

    The UR floor binds and the caps are spent, so only the reverse energy
    ``e_r`` is free; the optimum is an end of its interval or the one
    stationary point of LR's pilot-to-noise ratio there (see the module
    docstring).  Scenarios: ``"rank-k-vacuous"``; without a binding total
    cap ``"prop1-branch1"`` (no reverse training, no AN) or
    ``"prop1-branch2"``, reported as ``"scenario1"`` when a total cap is
    given but slack; with a binding one ``"scenario2"`` (each per-node cap
    fits inside it) or ``"scenario3"``.  ``iterations`` is 0.
    """
    _check_inputs(config, plan, budget, RECIPROCAL)
    e_t, e_l, e_ave = budget.e_t_max, budget.e_l_max, budget.e_ave_max
    binds = e_ave <= e_t + e_l
    scenario = ("scenario2" if max(e_t, e_l) <= e_ave else "scenario3") if binds else None

    def report(e_r, e_f, var_a, label):
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=e_r, e_f=e_f, var_a=var_a)
        objective, nmse_u = analytics.closed_forms(config, plan, alloc)
        return SolveReport(alloc, objective, nmse_u - budget.gamma, label, iterations=0)

    gt = _floor_energy(config, plan, budget)
    if gt is None:
        rep = report(0.0, min(e_t, e_ave), 0.0, "rank-k-vacuous")
    elif analytics.mu(config) > min(e_l, e_ave - gt):
        # Reverse training can't be made accurate enough for AN to pay off.
        rep = report(0.0, gt, 0.0, scenario or "prop1-branch1")
    else:
        (e0, s0), (e1, s1) = (_floor_spend(config, plan, gt, v) for v in (0.0, 1.0))

        def at(e_r):
            var_a = max((min(e_t, e_ave - e_r) - s0) / (s1 - s0), 0.0)
            e_f, _ = _floor_spend(config, plan, gt, var_a)
            return report(e_r, e_f, var_a, scenario or "prop1-branch2")

        hi = min(e_l, e_ave - gt)
        lo = min(max(0.0, analytics.mu(config), e_ave - e_t), hi)
        reps = [at(lo)]
        if lo < hi:
            # With t = e_r - lo the total cap binds on [0, hi - lo]: var_a,
            # e_f and the reverse precision p = 1/delta^2 are affine in t, and
            # LR's ratio e_f / r_bar is N / L with N = e_f p (concave) and
            # L = (n_t-n_l) var_a + var_w p.  Its stationary points are the
            # roots of N' L - N L'.
            a = reps[0].allocation
            da = -1.0 / (s1 - s0)
            df = (e1 - e0) * da
            p = 1.0 / analytics.reverse_error_var(config, config.var_h, lo)
            dp = 1.0 / (config.n_l * config.var_wt)
            n2, n1, n0 = df * dp, df * p + a.e_f * dp, a.e_f * p
            m = config.n_t - config.n_l
            l1, l0 = m * da + config.var_w * dp, m * a.var_a + config.var_w * p
            roots = _quadratic_roots(n2 * l1, 2.0 * n2 * l0, n1 * l0 - n0 * l1)
            reps += [at(hi)] + [at(lo + t) for t in roots if 0.0 < t < hi - lo]
        rep = min(reps, key=lambda r: r.objective)

    if not binds and math.isfinite(e_ave):
        rep = replace(
            rep,
            scenario="scenario1",
            message=f"total cap slack; the per-node optimum holds ({rep.scenario})",
        )
    return rep


def solve_general(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> SolveReport:
    """Optimal reciprocal allocation under a total cap: :func:`solve_reciprocal`,
    which takes the total cap from ``budget`` itself."""
    return solve_reciprocal(config, plan, budget)


# ---------------------------------------------------------------------------
# Non-reciprocal solver: exact search over (var_a, TX/LR share).
# ---------------------------------------------------------------------------

_GRID_POINTS = 64  # first var_a round: 0 and a log grid over var_a_max * [1e-9, 1]
_ZOOM_POINTS = 128  # every later round: a uniform grid over the bracket
_ZOOM_RTOL = 1e-9  # done once the bracket is this narrow relative to its best
_ZOOM_ROUNDS = 60  # round cap; only a bracket that will not shrink reaches it
_SHARE_STEPS = 52  # cap on Newton steps, and on bisection steps (a full bisection)


def _echo_quality(coefficients, l):
    """The LR split of total energy ``l`` that minimises
    :func:`dcekit.analytics.echo_quality`, elementwise, for the coefficients
    ``(a, b, c)`` of :func:`dcekit.analytics.echo_coefficients`.

    ``e_l1`` is the root in ``(0, l)`` of ``(a-b) e_l1^2 + 2 (c + b l) e_l1 -
    (b l^2 + c l)``, i.e. ``l / (1 + sqrt((a l + c) / (b l + c)))``.  Returns
    ``(e_l1, e_l2, Q, dQ/dl)``, with ``dQ/dl = dQ/de_l2`` at the split
    (envelope theorem).
    """
    a, b, c = coefficients
    e_l1 = l / (1.0 + np.sqrt((a * l + c) / (b * l + c)))
    e_l2 = l - e_l1
    q = analytics.echo_quality(coefficients, e_l1, e_l2)
    return e_l1, e_l2, q, -(a + c / e_l1) / e_l2**2


def _share_condition(config: SystemConfig, coefficients, room, e_t0):
    """Derivative of ``log rho0(e_t0) - log Q(room - e_t0)`` in ``e_t0``,
    elementwise, with ``Q`` at its best LR split; it decreases in ``e_t0``."""
    _, _, q, dq = _echo_quality(coefficients, room - e_t0)
    return config.n_t * config.var_w / (e_t0 * analytics.echo_power(config, e_t0)) + dq / q


def _share_root(config: SystemConfig, coefficients, room, lo, hi):
    """Root of the share condition in each bracket ``[lo, hi]`` that the end
    test left open, elementwise, to the resolution of a 52-step bisection,
    ``2^-52 (hi - lo)``.

    A safeguarded Newton iteration finds it: the condition times ``e_t0 (room
    - e_t0)`` (positive, so the same sign) is nearly linear where the
    condition has a pole at either end, and its derivative is a complex step
    through :func:`_share_condition`.  Each iterate shrinks a bracket by its
    sign, and a step leaving it bisects instead.  Newton stalls at the
    condition's rounding noise, so the root is then bracketed by the
    condition's sign a little beyond the last step on both sides and bisected
    down to the resolution; where that check fails the whole ``[lo, hi]`` is
    bisected."""
    width = hi - lo
    a, b = lo, hi
    x = 0.5 * (a + b)
    for _ in range(_SHARE_STEPS):
        h = 2.0**-60 * x
        z = x + 1j * h
        g = z * (room - z) * _share_condition(config, coefficients, room, z)
        grow = g.real > 0.0
        a, b = np.where(grow, x, a), np.where(grow, b, x)
        step = g.real / g.imag * h
        new = x - step
        # A converged iterate is an end of its bracket, hence the <=.
        x = np.where((a <= new) & (new <= b), new, 0.5 * (a + b))
        # Near the root a step is rounding noise, measured up to about 40 ulps
        # of e_t0 (the iterate itself within a few): 64 ulps ends the search,
        # and the check below brackets 16 ulps beyond the last step.
        if np.all(np.abs(step) <= 64.0 * np.spacing(x)):
            break
    d = np.abs(step) + 16.0 * np.spacing(x)
    xl, xh = np.maximum(x - d, lo), np.minimum(x + d, hi)
    ends = _share_condition(
        config, coefficients, np.concatenate([room, room]), np.concatenate([xl, xh])
    )
    a = np.where(ends[: x.size] > 0.0, xl, lo)
    b = np.where(ends[x.size :] <= 0.0, xh, hi)
    for _ in range(_SHARE_STEPS):
        mid = 0.5 * (a + b)
        open_ = (b - a > 2.0**-52 * width) & (a < mid) & (mid < b)
        if not open_.any():
            break
        grow = _share_condition(config, coefficients, room, mid) > 0.0
        a, b = np.where(open_ & grow, mid, a), np.where(open_ & ~grow, mid, b)
    return 0.5 * (a + b)


def _reduced_points(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget, gt: float, var_a
):
    """Best allocation at each AN variance in the array ``var_a``: ``e_t3``
    on the floor, the rest of the caps to ``e_t0`` and LR.  Where a total cap
    binds, ``e_t0`` lies in ``[lo, hi]`` (LR's cap below, the transmitter's
    above) and the share condition (:func:`_share_condition`) settles it: the
    condition is tested at both ends first, and ``e_t0`` is ``lo`` where it
    is already ``<= 0`` there and ``hi`` where it is still ``> 0`` there;
    only the points left open get a root search (:func:`_share_root`).
    Returns ``e_t3 / D_bar`` and the array-valued allocation."""
    e_t3, tx_spend = _floor_spend(config, plan, gt, var_a)
    room = np.maximum(budget.e_ave_max - tx_spend, 0.0)  # inf without a total cap
    hi = np.maximum(min(budget.e_t_max, budget.e_ave_max) - tx_spend, 0.0)
    lo = np.minimum(np.maximum(room - budget.e_l_max, 0.0), hi)
    coefficients = analytics.echo_coefficients(config)
    with np.errstate(divide="ignore", invalid="ignore"):
        e_t0 = lo
        if np.any(lo < hi):
            ends = _share_condition(
                config, coefficients, np.concatenate([room, room]), np.concatenate([lo, hi])
            )
            at_lo = ends[: lo.size] <= 0.0
            at_hi = (ends[lo.size :] > 0.0) & ~at_lo
            e_t0 = np.where(at_hi, hi, lo)
            # NaN at an end (a zero energy there) leaves the point open too.
            idx = np.flatnonzero((lo < hi) & ~at_lo & ~at_hi)
            if idx.size:
                e_t0[idx] = _share_root(config, coefficients, room[idx], lo[idx], hi[idx])
        e_l1, e_l2, _, _ = _echo_quality(coefficients, np.minimum(budget.e_l_max, room - e_t0))
    alloc = PowerAllocation(
        scheme=NONRECIPROCAL, e_t0=e_t0, e_l1=e_l1, e_l2=e_l2, e_t3=e_t3, var_a=var_a
    )
    return e_t3 / analytics.nonreciprocal_effective_noise(config, alloc), alloc


def solve_nonreciprocal(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> SolveReport:
    """Non-reciprocal allocation by a reduced-space search, exact for the
    Jensen surrogate :func:`dcekit.analytics.nmse_l_nonreciprocal_approx`.
    That surrogate overstates the error of echo-heavy splits, so LR's true
    NMSE is lower at a larger echo share ``e_l1`` (by 2-27% at the points
    README's "Non-reciprocal allocation" table measures).

    For each AN variance the rest of the allocation is exact (see the module
    docstring).  ``var_a`` itself is searched by a 64-point grid over its
    feasible range (0 and a log grid), then by rounds of 128-point uniform
    grids over the bracket around each round's best point, every round
    evaluated at once.  The best
    point (scenario ``"interior"``) is compared with the AN-free corner
    (``"an-free"``).  ``iterations`` counts the rounds.
    """
    _check_inputs(config, plan, budget, NONRECIPROCAL)
    e_cap = min(budget.e_t_max, budget.e_ave_max)

    def report(alloc, scenario, **search):
        objective, nmse_u = analytics.closed_forms(config, plan, alloc)
        return SolveReport(alloc, objective, nmse_u - budget.gamma, scenario, **search)

    def an_free(e_t3):
        return PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=0.0, e_l1=0.0, e_l2=0.0, e_t3=e_t3, var_a=0.0
        )

    gt = _floor_energy(config, plan, budget)
    if gt is None:
        return report(an_free(e_cap), "rank-k-vacuous", iterations=0)

    # The transmitter's spend along the floor is affine in var_a; at
    # var_a_max nothing is left for e_t0.
    _, (spend0, spend1) = _floor_spend(config, plan, gt, np.array([0.0, 1.0]))
    var_a_max = (e_cap - spend0) / (spend1 - spend0)
    grid = var_a_max * np.append(0.0, np.geomspace(1e-9, 1.0, _GRID_POINTS - 1))
    for rounds in range(1, _ZOOM_ROUNDS + 1):
        ratio, points = _reduced_points(config, plan, budget, gt, grid)
        i = int(np.argmax(ratio))
        var_a = float(grid[i])
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        converged = bool(hi - lo <= _ZOOM_RTOL * var_a) or var_a == 0.0  # zero: the corner wins
        if converged:
            break
        grid = np.linspace(lo, hi, _ZOOM_POINTS)
    message = "" if converged else f"var_a bracket still {hi - lo:.3g} wide after {rounds} rounds"
    search = {"iterations": rounds, "converged": converged, "message": message}

    best = {f: float(getattr(points, f)[i]) for f in ("e_t0", "e_l1", "e_l2", "e_t3", "var_a")}
    interior = report(replace(points, **best), "interior", **search)
    corner = report(an_free(gt), "an-free", **search)
    return corner if corner.objective <= interior.objective else interior


def solve(config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget) -> SolveReport:
    """Optimal allocation for the plan's scheme: :func:`solve_reciprocal` or
    :func:`solve_nonreciprocal`, looked up when called."""
    if plan.scheme == RECIPROCAL:
        return solve_reciprocal(config, plan, budget)
    return solve_nonreciprocal(config, plan, budget)


def optimize_rank(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> tuple[int, SolveReport]:
    """Best forward-pilot rank and its allocation.

    Sweeps ``K = 1..n_t`` with the uniform rank-``K`` Gram profile, solving
    each with :func:`solve`; infeasible ranks are skipped.
    Ties go to the smaller rank (shorter effective pilot).
    """
    best: tuple[int, SolveReport] | None = None
    for k in range(1, config.n_t + 1):
        try:
            rep = solve(config, replace(plan, pilot_rank=k), budget)
        except InfeasibleGamma:
            continue
        if best is None or rep.objective < best[1].objective * (1.0 - 1e-12):
            best = (k, rep)
    if best is None:
        raise InfeasibleGamma(
            f"gamma={budget.gamma} infeasible at every pilot rank 1..{config.n_t}"
        )
    return best
