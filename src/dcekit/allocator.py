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
cannot meet.  The non-reciprocal solver also raises a plain ``ValueError``
naming the degenerate scale for valid inputs that floating point cannot
resolve: where the echo coefficients times LR's energy overflow (``var_wt /
var_hu`` past 1e154, say) or underflow to zero (1e-300, LR cap 1e-30).
Neither solver depends on units: 30,000 solves with the noise variances and
caps (or every variance and ``gamma``) scaled by ``c`` over 10^+-150 kept
the objective (times ``c``) to 2.7e-13 relative.  The slack floor is
absolute, so it cannot hold once ``gamma`` reaches ``2^23`` (one ulp of
``nmse_u`` is ``1.9e-9``); only there did 12,000 draws across 10^+-150 read
a slack below ``-1e-9``, by at most 1.96 ulps.  Energy is billed by
:func:`dcekit.model.training_spend`, the reported NMSEs are
:func:`dcekit.analytics.closed_forms`' to the bit, and :func:`solve` runs
the solver of the plan's scheme.

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
  takes ``Q``, ``err`` and ``D_bar`` from the formulas
  :func:`dcekit.analytics.nonreciprocal_effective_noise` is built from
  (:func:`dcekit.analytics.echo_quality`,
  :func:`dcekit.analytics.downlink_error`,
  :func:`dcekit.analytics.leak_noise`), in the same order.  For a fixed
  ``var_a`` what remains is concave (``log rho0`` is concave, ``log Q``
  jointly convex): the LR split minimising ``Q`` at a given LR total is the
  root of one quadratic, and when the total cap binds the TX/LR share is
  the root of a decreasing first-order condition.  That condition is tested
  at both ends of the share's interval first: where it already has the
  sign of an end, the share sits at that cap (which is what most
  cap-bound points do).  A share left open gets a safeguarded Newton
  iteration, finished by a short bisection on a bracket checked around its
  result.  The outer search over ``var_a`` scans a grid of 0 and the 31
  points ``var_a_max 2^-k`` from ``var_a_max`` down, stopping at the first
  point whose ratio falls below the best so far; Brent's method then
  searches that best point's bracket down to ``sqrt(eps)`` of its best
  point, and the result is compared with the AN-free corner ``var_a = 0``.
  Scan and bracket rest on one assumption, that ``e_t3 / D_bar`` has one
  peak in ``var_a`` along the floor, which ``TestVarASinglePeak`` scans for
  but nothing proves.  Under it the scan stops on the full grid's argmax
  (the first of ties), so it returns what all 32 points would.  The
  report's ``converged`` certifies Brent's bracket only, not that
  assumption: at variances near 10^+-150 rounding makes the ratio jump
  between neighbouring grid points, and 3 of 12,872 such solves returned
  objectives 20-329% worse than the full grid's while reporting
  ``converged: True``.  At
  perfbench's ``gp_sweep`` points the grid peaks at ``var_a_max / 2``: 3
  grid rounds and 13-23 Brent steps, 16-26 rounds a solve; a peak at 0
  still takes all 32 grid rounds.  A pilot of rank ``K`` enters only through
  ``gt_K`` and the pilot profile.  A round (:func:`_floor_round`) is
  arithmetic on Python floats and makes LR's split at most once: at
  ``SystemConfig(4, 2, 2)`` on a 2-vCPU Xeon VM, 0.9 us without an open
  TX/LR share, 1.8 us with the end test and 23 us with a root search.  The
  report's closed forms run on Python floats too
  (:func:`dcekit.analytics.forward_nmse`).

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

import cmath
import math
from dataclasses import dataclass, replace

from . import analytics
from .model import (
    NONRECIPROCAL,
    RECIPROCAL,
    EnergyBudget,
    PowerAllocation,
    SystemConfig,
    TrainingPlan,
    an_spend,
    optimal_pilot_gram,
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
    solver's Brent steps over ``var_a``; 0 for the reciprocal solver, which
    has no search.  Measured: 13-23 at the feasible points of perfbench's
    ``gp_sweep``; over 6,000 random draws of each domain, at most 28 on the
    contract fuzz's (variances 10^-1..10^1, caps up to 10^4), 39 on the wide
    domain (variances 10^-6..10^6, caps 10^-2..10^8) and 50 with variances
    and caps across 10^-150..10^150.  ``converged`` is false
    only when Brent's ``var_a`` bracket did not shrink to ``sqrt(eps)`` of
    its best point within the cap of 100 steps; the best point found is
    still returned, with ``message`` explaining.  It certifies that bracket
    only, not that the ``var_a`` ratio had the one peak the search assumes
    (see the module docstring for where it does not).
    ``objective`` and ``nmse_u`` are :func:`dcekit.analytics.closed_forms`
    at the allocation, independent of units but for rounding.
    """

    allocation: PowerAllocation
    objective: float
    constraint_slack: float
    scenario: str
    iterations: int
    nmse_u: float
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
    """Guarded-pilot energy on the UR floor at AN variance ``var_a``, ``gt /
    var_v r_u`` (``gt r_u`` can leave the normal range), and the transmitter
    energy that pilot and its AN spend: lines of :func:`_floor_slopes`.
    Elementwise: the spend is :func:`dcekit.model.training_spend`'s
    transmitter bill, the pilot and :func:`dcekit.model.an_spend`."""
    e_pilot = gt / config.var_v * analytics.ur_disturbance(config, var_a)
    return e_pilot, e_pilot + an_spend(config, plan, plan.scheme, var_a)


def _floor_slopes(config: SystemConfig, plan: TrainingPlan, gt: float) -> tuple[float, float]:
    """Slopes in ``var_a`` of :func:`_floor_spend`'s pilot and spend, both ``gt``
    at ``var_a = 0``; the spend's is at least ``(n_t - n_l) tau > 0``."""
    de = gt / config.var_v * (config.n_t - config.n_l) * config.var_g
    return de, de + an_spend(config, plan, plan.scheme, 1.0)


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
        return SolveReport(
            alloc, objective, nmse_u - budget.gamma, label, iterations=0, nmse_u=nmse_u
        )

    gt = _floor_energy(config, plan, budget)
    if gt is None:
        rep = report(0.0, min(e_t, e_ave), 0.0, "rank-k-vacuous")
    elif analytics.mu(config) > min(e_l, e_ave - gt):
        # Reverse training can't be made accurate enough for AN to pay off.
        rep = report(0.0, gt, 0.0, scenario or "prop1-branch1")
    else:
        de, ds = _floor_slopes(config, plan, gt)

        def at(e_r):
            var_a = max((min(e_t, e_ave - e_r) - gt) / ds, 0.0)
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
            da = -1.0 / ds
            df = de * da
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

_GRID_POINTS = 32  # the grid: 0 and var_a_max * 2^-k, k = 0..30, scanned from var_a_max down
_SEARCH_RTOL = 2.0**-26  # sqrt(eps): done once Brent's bracket is this narrow relative to its best
_SEARCH_STEPS = 100  # cap on Brent's steps; SolveReport states the most each domain took (50)
_SHARE_STEPS = 52  # cap on Newton steps, and on bisection steps (a full bisection)


def _echo_split(coefficients, l, sqrt=math.sqrt):
    """The LR split of total energy ``l`` minimising :func:`dcekit.analytics.echo_quality`
    (coefficients ``(a, b, c)``; :func:`cmath.sqrt` for a complex ``l``): ``e_l1`` is
    the root in ``(0, l)`` of ``(a-b) e_l1^2 + 2 (c + b l) e_l1 - (b l^2 + c l)``,
    ``l / (1 + sqrt((a l + c) / (b l + c)))``.  Returns ``(e_l1, e_l2, Q)``; a
    zero energy (or product) makes ``Q`` infinite, as array arithmetic would.
    A ``b l + c`` that underflows to zero or overflows raises ``ValueError``."""
    a, b, c = coefficients
    den = b * l + c
    if not den or den == math.inf:
        raise ValueError(
            f"degenerate scale: the echo coefficients b = {b:.3g}, c = {c:.3g} "
            f"give b l + c = {den:.3g} at LR energy {l:.3g} in floating point"
        )
    e_l1 = l / (1.0 + sqrt((a * l + c) / den))
    e_l2 = l - e_l1
    q = analytics.echo_quality(coefficients, e_l1, e_l2) if e_l1 * e_l2 else math.inf
    return e_l1, e_l2, q


def _share_condition(config: SystemConfig, coefficients, room, e_t0, sqrt=math.sqrt):
    """Derivative of ``log rho0(e_t0) - log Q(room - e_t0)`` in ``e_t0``, with
    ``Q`` at its best LR split; it decreases in ``e_t0``.  ``dQ/dl`` there is
    ``dQ/de_l2`` (envelope theorem).  Returns it with that split, ``(e_l1,
    e_l2, Q)`` at LR total ``room - e_t0``.  As in array arithmetic, a zero
    LR energy makes it NaN (``dQ / Q`` is ``inf / inf``), else a zero
    ``e_t0`` makes it ``inf``."""
    a, _, c = coefficients
    split = e_l1, e_l2, q = _echo_split(coefficients, room - e_t0, sqrt)
    if q == math.inf:
        return math.nan, split
    if not e_t0:
        return math.inf, split
    dq = -(a + c / e_l1) / (e_l2 * e_l2)
    return config.n_t * config.var_w / (e_t0 * analytics.echo_power(config, e_t0)) + dq / q, split


def _share_root(config: SystemConfig, coefficients, room, lo, hi):
    """Root of the share condition in a bracket ``[lo, hi]`` the end test left
    open, to a 52-step bisection's resolution ``2^-52 (hi - lo)``.  Newton
    steps run on the condition times ``e_t0 (room - e_t0)`` (same sign, nearly
    linear where the condition has a pole at an end) with a complex-step
    derivative; each shrinks the bracket by its sign, and one leaving it
    bisects.  Once they stall at rounding noise, the root is bracketed by the
    condition's sign a little beyond the last step on both sides (else by
    ``[lo, hi]``) and bisected down to the resolution."""
    a, b, width = lo, hi, hi - lo
    x = 0.5 * (a + b)
    for _ in range(_SHARE_STEPS):
        z = complex(x, 2.0**-60 * x)
        g = z * (room - z) * _share_condition(config, coefficients, room, z, cmath.sqrt)[0]
        a, b = (x, b) if g.real > 0.0 else (a, x)
        step = g.real / g.imag * z.imag if g.imag else math.inf  # no slope: bisect
        new = x - step
        # A converged iterate is an end of its bracket, hence the <=.
        x = new if a <= new <= b else 0.5 * (a + b)
        # Near the root a step is rounding noise, up to about 40 ulps of e_t0:
        # 64 ulps ends the search; the check below brackets 16 ulps beyond.
        if abs(step) <= 64.0 * math.ulp(x):
            break
    d = abs(step) + 16.0 * math.ulp(x)
    xl, xh = max(x - d, lo), min(x + d, hi)
    a = xl if _share_condition(config, coefficients, room, xl)[0] > 0.0 else lo
    b = xh if _share_condition(config, coefficients, room, xh)[0] <= 0.0 else hi
    for _ in range(_SHARE_STEPS):
        mid = 0.5 * (a + b)
        if not (b - a > 2.0**-52 * width and a < mid < b):
            break
        grow = _share_condition(config, coefficients, room, mid)[0] > 0.0
        a, b = (mid, b) if grow else (a, mid)
    return 0.5 * (a + b)


def _floor_round(config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget, gt: float):
    """The ``var_a`` round of one solve, on ``gt``, the caps (as Python
    floats) and the echo coefficients bound once.  It maps an AN variance to
    ``(e_t3 / D_bar, e_t0, e_l1, e_l2, e_t3, D_bar)``, the best allocation
    there: ``e_t3`` on the floor, the rest of the caps to ``e_t0`` and LR.
    Under a binding total cap ``e_t0`` is ``lo`` (LR's cap) where the share
    condition is already ``<= 0`` there, else ``hi`` (the transmitter's)
    where it is still ``> 0`` there, else (a NaN end included) its root.
    LR's split at its cap ``e_l_max`` is computed once per solve, and an end
    test's split is kept where ``e_t0`` lands at that end, so only a round
    whose LR total is neither computes its own.  ``D_bar`` is
    :func:`dcekit.analytics.nonreciprocal_effective_noise`'s, from the same
    formulas in the same order."""
    e_l_max, e_ave_max = float(budget.e_l_max), float(budget.e_ave_max)
    e_cap, gt = min(float(budget.e_t_max), e_ave_max), float(gt)
    coefficients = analytics.echo_coefficients(config)
    capped = _echo_split(coefficients, e_l_max)

    def round_(var_a):
        e_t3, tx_spend = _floor_spend(config, plan, gt, var_a)
        # room = max(e_ave_max - tx_spend, 0), hi = max(e_cap - tx_spend, 0)
        # and lo = min(max(room - e_l_max, 0), hi), as comparisons: the
        # builtins' calls took about a third of a round.
        room, hi = e_ave_max - tx_spend, e_cap - tx_spend  # room: inf without a total cap
        room, hi = (0.0 if room < 0.0 else room), (0.0 if hi < 0.0 else hi)
        lo = room - e_l_max
        lo = 0.0 if lo < 0.0 else lo
        lo = hi if hi < lo else lo
        e_t0, split = lo, None
        if lo < hi:
            condition, split = _share_condition(config, coefficients, room, lo)
            if not condition <= 0.0:
                condition, split = _share_condition(config, coefficients, room, hi)
                e_t0 = hi
                if not condition > 0.0:
                    e_t0, split = _share_root(config, coefficients, room, lo, hi), None
        if not room - e_t0 < e_l_max:  # LR's total is min(e_l_max, room - e_t0)
            split = capped
        elif split is None:
            split = _echo_split(coefficients, room - e_t0)
        e_l1, e_l2, q = split
        d_bar = analytics.leak_noise(config, var_a, analytics.downlink_error(config, e_t0, q))
        return e_t3 / d_bar, e_t0, e_l1, e_l2, e_t3, d_bar

    return round_


def _brent_peak(round_, lo, hi, x, point):
    """Brent's bounded search (*Algorithms for Minimization without
    Derivatives*, 1973, ch. 5) for the peak of the round's ratio in ``[lo,
    hi]``, from ``x`` and its round ``point``, down to a bracket ``sqrt(eps)``
    of its best point wide (``_SEARCH_RTOL``).  That is Brent's rounding
    floor: within it a smooth peak is flat to rounding, so a narrower
    bracket would move the optimum by rounding alone.  Returns ``(var_a,
    point, search)``, ``search`` the report's ``iterations``, ``converged``
    and ``message``."""
    v = w = x
    fv = fw = fx = point[0]
    d = e = 0.0
    for steps in range(_SEARCH_STEPS + 1):
        m = 0.5 * (lo + hi)
        tol = 0.25 * _SEARCH_RTOL * x  # the bracket is at most 4 tol wide when done
        done = abs(x - m) <= 2.0 * tol - 0.5 * (hi - lo)
        if done or steps == _SEARCH_STEPS:
            message = "" if done else f"var_a bracket still {hi - lo:.3g} wide after {steps} steps"
            return x, point, {"iterations": steps, "converged": done, "message": message}
        p = q = 0.0
        if abs(e) > tol:  # the parabola through x, w and v peaks at x + p / q
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
        if abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
            e, d = d, p / q
            if min(x + d - lo, hi - x - d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (lo if x >= m else hi) - x
            d = 0.3819660112501051 * e  # golden section: (3 - sqrt(5)) / 2
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        trial = round_(u)
        fu = trial[0]
        if fu >= fx:
            lo, hi = (lo, x) if u < x else (x, hi)
            v, fv, w, fw, x, fx, point = w, fw, x, fx, u, fu, trial
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu


def solve_nonreciprocal(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> SolveReport:
    """Non-reciprocal allocation by a reduced-space search, exact for the
    Jensen surrogate :func:`dcekit.analytics.nmse_l_nonreciprocal_approx`.
    That surrogate overstates the error of echo-heavy splits, so LR's true
    NMSE is lower at a larger echo share ``e_l1`` (by 2-27% at the points
    README's "Non-reciprocal allocation" table measures).

    For each AN variance the rest of the allocation is exact (see the module
    docstring).  ``var_a`` itself is searched on a 32-point grid over its
    feasible range, scanned from ``var_a_max`` down to the first point whose
    ratio falls below the best so far: with one peak along the floor, which
    Brent's bracket needs as well, that best point is the full grid's
    argmax, the first of ties.  Brent's method (:func:`_brent_peak`) then
    searches around it (scenario ``"interior"``), and the result is compared
    with the AN-free corner (``"an-free"``).  ``iterations`` counts Brent's
    steps; the rounds are those plus the grid points scanned, 3 where the
    grid peaks at ``var_a_max / 2`` and all 32 where it peaks at 0.
    """
    _check_inputs(config, plan, budget, NONRECIPROCAL)
    e_cap = min(budget.e_t_max, budget.e_ave_max)
    d = optimal_pilot_gram(config.n_t, plan.pilot_rank)

    def report(alloc, d_bar, scenario, **search):
        # analytics.closed_forms, with LR's effective noise d_bar given.
        objective = analytics.forward_nmse(config, config.var_hd, alloc.e_t3, d_bar, d)
        nmse_u = analytics.nmse_u(config, alloc.e_t3, alloc.var_a, d)
        return SolveReport(
            alloc, objective, nmse_u - budget.gamma, scenario, nmse_u=nmse_u, **search
        )

    def an_free(e_t3, scenario, **search):
        alloc = PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=0.0, e_l1=0.0, e_l2=0.0, e_t3=e_t3, var_a=0.0
        )
        return report(alloc, config.var_w, scenario, **search)  # no AN: thermal noise alone

    gt = _floor_energy(config, plan, budget)
    if gt is None:
        return an_free(e_cap, "rank-k-vacuous", iterations=0)

    var_a_max = (e_cap - gt) / _floor_slopes(config, plan, gt)[1]  # the spend meets the cap
    round_ = _floor_round(config, plan, budget, gt)
    grid = [0.0] + [math.ldexp(var_a_max, k) for k in range(2 - _GRID_POINTS, 1)]
    # Scan from var_a_max down, ties going to the lower index, and stop at
    # the first fall: with one peak, that is max()'s pick over the whole
    # grid.  A NaN ratio (overflow at extreme inputs) makes < and max()
    # disagree, so there the whole grid goes through max().
    points = [None] * _GRID_POINTS
    i = _GRID_POINTS - 1
    for k in range(i, -1, -1):
        points[k] = round_(grid[k])
        if points[k][0] < points[i][0]:
            break
        if points[k][0] >= points[i][0]:
            i = k
        else:
            points = [p or round_(v) for p, v in zip(points, grid)]
            i = max(range(_GRID_POINTS), key=lambda j: points[j][0])
            break
    var_a, point = grid[i], points[i]
    search = {"iterations": 0}
    if i:  # at zero the corner wins
        lo, hi = grid[i - 1], grid[min(i + 1, _GRID_POINTS - 1)]
        var_a, point, search = _brent_peak(round_, lo, hi, var_a, point)

    _, e_t0, e_l1, e_l2, e_t3, d_bar = map(float, point)
    best = PowerAllocation(
        scheme=NONRECIPROCAL, e_t0=e_t0, e_l1=e_l1, e_l2=e_l2, e_t3=e_t3, var_a=float(var_a)
    )
    interior = report(best, d_bar, "interior", **search)
    corner = an_free(gt, "an-free", **search)
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
