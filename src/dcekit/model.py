"""System model: dimensions and variances, training plans, budgets, channel draws.

The two supported training schemes are named by how the transmitter learns the
legitimate receiver's channel:

* ``"reciprocal"``   -- LR sends a reverse pilot, the transmitter estimates the
  (shared) channel directly, then trains forward with embedded artificial noise.
* ``"nonreciprocal"``-- uplink and downlink are independent; the transmitter
  learns the downlink through a pilot / amplify-and-echo / uplink-pilot round
  trip before the guarded forward stage.

All energy bookkeeping is in linear units; ``db_to_energy`` converts the
per-channel-use dB powers used in config files.

Two tables hold the schema: ``_STAGES`` gives each scheme's stage lengths
and their floors, which are also their defaults, and ``_KEYS`` gives each
config-file key its type and default.  :func:`parse_config` type-checks every
value in a file and leaves all other checks on the settings to :func:`validate`.
:func:`channel_table` gives each scheme's channels with their shapes and
variances, in draw order: every channel draw and shape check reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .numerics import RngStream, random_gaussian

__all__ = [
    "RECIPROCAL",
    "NONRECIPROCAL",
    "AllocationError",
    "ChannelRealization",
    "ConfigError",
    "EnergyBudget",
    "MIN_TRIALS",
    "PowerAllocation",
    "RunSettings",
    "SystemConfig",
    "TrainingPlan",
    "allocation_violations",
    "an_spend",
    "channel_table",
    "db_to_energy",
    "draw_channels",
    "load_config",
    "nonreciprocal_plan",
    "optimal_pilot_gram",
    "parse_config",
    "reciprocal_plan",
    "training_lengths",
    "training_spend",
    "validate",
]

RECIPROCAL = "reciprocal"
NONRECIPROCAL = "nonreciprocal"
_SCHEMES = (RECIPROCAL, NONRECIPROCAL)

#: Fewest trials a Monte Carlo run takes, from a config file, a flag or a call.
MIN_TRIALS = 100


class ConfigError(ValueError):
    """Bad config file: unknown key, missing key, or unparsable value."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class AllocationError(ValueError):
    """Power allocation is malformed or infeasible for the requested run."""


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts and second-order statistics of channels and noises."""

    n_t: int  # transmit antennas
    n_l: int  # legitimate-receiver antennas (n_t > n_l >= 1)
    n_u: int  # unauthorized-receiver antennas

    var_h: float = 1.0   # reciprocal LR channel variance (per entry)
    var_hu: float = 1.0  # non-reciprocal uplink variance
    var_hd: float = 1.0  # non-reciprocal downlink variance
    var_g: float = 1.0   # UR channel variance

    var_wt: float = 1.0  # noise variance at the transmitter
    var_w: float = 1.0   # noise variance at LR
    var_v: float = 1.0   # noise variance at UR


_NOISES = ("var_wt", "var_w", "var_v")
_VARIANCES = ("var_h", "var_hu", "var_hd", "var_g") + _NOISES  # in field order


@dataclass(frozen=True)
class TrainingPlan:
    """Pilot lengths and the rank of the forward pilot.

    The (unscaled) forward pilot Gram ``C^H C`` has the uniform profile
    :func:`optimal_pilot_gram` ``(n_t, pilot_rank)``: ``pilot_rank`` entries
    ``n_t / pilot_rank`` and the rest zero.  Use :func:`reciprocal_plan` /
    :func:`nonreciprocal_plan` to get the minimal plan with sensible defaults.
    """

    scheme: str
    pilot_rank: int

    # reciprocal lengths
    tau_r: int | None = None  # reverse pilot (>= n_l)
    tau_f: int | None = None  # forward pilot (>= n_t)

    # non-reciprocal lengths
    tau_t0: int | None = None  # initial downlink pilot (== n_t, square unitary)
    tau_l2: int | None = None  # uplink pilot (>= n_l)
    tau_t3: int | None = None  # guarded forward pilot (>= n_t)


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


# Each scheme's stage lengths, each with its floor (a ``SystemConfig`` field),
# which is also its default.  ``tau_t0`` must equal its floor: the initial
# downlink pilot is a square unitary.
_STAGES = {
    RECIPROCAL: (("tau_r", "n_l"), ("tau_f", "n_t")),
    NONRECIPROCAL: (("tau_t0", "n_t"), ("tau_l2", "n_l"), ("tau_t3", "n_t")),
}


def _plan(config: SystemConfig, scheme: str, pilot_rank: int | None, lengths: dict) -> TrainingPlan:
    """A ``scheme`` plan with the stage lengths in ``lengths``, each one
    missing or ``None`` at its floor, and a full-rank forward pilot unless
    ``pilot_rank`` is given.  Other entries of ``lengths`` are ignored."""
    stages = {}
    for name, floor in _STAGES[scheme]:
        val = lengths.get(name)
        stages[name] = getattr(config, floor) if val is None else val
    return TrainingPlan(scheme, config.n_t if pilot_rank is None else pilot_rank, **stages)


def reciprocal_plan(
    config: SystemConfig,
    tau_r: int | None = None,
    tau_f: int | None = None,
    pilot_rank: int | None = None,
) -> TrainingPlan:
    """Minimal-length reciprocal plan (full-rank forward pilot by default)."""
    return _plan(config, RECIPROCAL, pilot_rank, {"tau_r": tau_r, "tau_f": tau_f})


def nonreciprocal_plan(
    config: SystemConfig,
    tau_l2: int | None = None,
    tau_t3: int | None = None,
    pilot_rank: int | None = None,
) -> TrainingPlan:
    """Minimal-length non-reciprocal plan (``tau_t0`` is pinned to ``n_t``)."""
    return _plan(config, NONRECIPROCAL, pilot_rank, {"tau_l2": tau_l2, "tau_t3": tau_t3})


def training_lengths(plan: TrainingPlan) -> tuple[int, int]:
    """(transmitter-side, LR-side) channel uses consumed by the plan.

    The echo stage of the non-reciprocal scheme occupies both ends, so it
    counts toward the LR total as well.
    """
    if plan.scheme == RECIPROCAL:
        return int(plan.tau_f), int(plan.tau_r)
    return int(plan.tau_t0) + int(plan.tau_t3), int(plan.tau_t0) + int(plan.tau_l2)


@dataclass(frozen=True)
class EnergyBudget:
    """Per-node energy caps, an optional total cap, and the leakage target."""

    e_t_max: float            # transmitter training energy cap
    e_l_max: float            # LR training energy cap
    gamma: float              # NMSE floor imposed on the unauthorized receiver
    e_ave_max: float = math.inf  # total (both-node) cap; inf disables it


@dataclass(frozen=True)
class PowerAllocation:
    """Energy split for one training round.  Unused fields stay ``None``."""

    scheme: str
    var_a: float = 0.0        # artificial-noise variance per AN dimension

    # reciprocal
    e_r: float | None = None  # reverse pilot energy
    e_f: float | None = None  # forward pilot energy

    # non-reciprocal
    e_t0: float | None = None  # initial downlink pilot energy
    e_l1: float | None = None  # echo (amplify-and-forward) energy
    e_l2: float | None = None  # uplink pilot energy
    e_t3: float | None = None  # guarded forward pilot energy


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of every channel the active scheme uses; their shapes and
    variances are :func:`channel_table`'s."""

    g: np.ndarray
    h: np.ndarray | None = None
    h_d: np.ndarray | None = None
    h_u: np.ndarray | None = None


def _config_violations(config: SystemConfig) -> list[str]:
    out = []
    if config.n_l < 1:
        out.append(f"n_l: must be >= 1, got {config.n_l}")
    if config.n_t <= config.n_l:
        out.append(f"n_t: must exceed n_l, got n_t={config.n_t}, n_l={config.n_l}")
    if config.n_u < 1:
        out.append(f"n_u: must be >= 1, got {config.n_u}")
    for name in _VARIANCES:
        val = getattr(config, name)
        if not math.isfinite(val):
            out.append(f"{name}: variance must be finite, got {val}")
        elif name in _NOISES and val <= 0:
            out.append(f"{name}: noise variance must be > 0, got {val}")
        elif val < 0:
            out.append(f"{name}: channel variance must be >= 0, got {val}")
    return out


def _plan_violations(config: SystemConfig, plan: TrainingPlan) -> list[str]:
    out = []
    if plan.scheme not in _SCHEMES:
        out.append(f"scheme: must be one of {_SCHEMES}, got {plan.scheme!r}")
        return out
    for name, floor in _STAGES[plan.scheme]:
        val, least = getattr(plan, name), getattr(config, floor)
        if name == "tau_t0":
            if val != least:
                out.append(f"{name}: must equal {floor}={least} (square unitary pilot), got {val}")
        elif val is None or val < least:
            out.append(f"{name}: must be >= {floor}={least}, got {val}")
    if not 1 <= plan.pilot_rank <= config.n_t:
        out.append(f"pilot_rank: must lie in 1..{config.n_t}, got {plan.pilot_rank}")
    return out


# The channel priors each scheme's solver estimates.  A zero prior is a valid
# model for a round (nothing to learn, zero error), but no allocation problem:
# the solvers' closed forms divide by it.
_SOLVED_PRIORS = {RECIPROCAL: ("var_h",), NONRECIPROCAL: ("var_hd", "var_hu")}


def _budget_violations(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget
) -> list[str]:
    out = []
    for name in _SOLVED_PRIORS[plan.scheme]:
        if getattr(config, name) == 0:
            out.append(f"{name}: channel variance must be > 0 to solve for an allocation, got 0.0")
    for name in ("e_t_max", "e_l_max"):
        val = getattr(budget, name)
        if not (math.isfinite(val) and val > 0):
            out.append(f"{name}: must be finite and > 0, got {val}")
    if not budget.e_ave_max > 0:  # inf (no total cap) passes, NaN does not
        out.append(f"e_ave_max: must be > 0 (or omitted), got {budget.e_ave_max}")
    if not 0 < budget.gamma <= config.var_g:
        out.append(f"gamma: must lie in (0, var_g={config.var_g}], got {budget.gamma}")
    return out


def validate(
    config: SystemConfig, plan: TrainingPlan, budget: EnergyBudget | None = None
) -> list[str]:
    """Total validation: returns all violated invariants (empty list == ok).

    Never raises; each diagnostic starts with the offending field name, and
    the first entry is the first violation found in declaration order.  A
    budget (the solvers pass one) adds what a solve needs on top: valid caps
    and floor, and a nonzero prior for every channel the scheme estimates.
    """
    out = _config_violations(config)
    if not out:
        out += _plan_violations(config, plan)
    if budget is not None and not out:
        out += _budget_violations(config, plan, budget)
    return out


def training_spend(
    alloc: PowerAllocation, config: SystemConfig, plan: TrainingPlan
) -> tuple:
    """(transmitter, LR) training energy an allocation spends in one round.

    The artificial noise is drawn on every use of the guarded forward pilot
    and billed by :func:`an_spend`.  Plain arithmetic on the fields, so
    array-valued fields give array-valued spends.
    """
    if alloc.scheme == RECIPROCAL:
        return alloc.e_f + an_spend(config, plan, alloc.scheme, alloc.var_a), alloc.e_r
    tx = alloc.e_t0 + alloc.e_t3 + an_spend(config, plan, alloc.scheme, alloc.var_a)
    return tx, alloc.e_l1 + alloc.e_l2


def an_spend(config: SystemConfig, plan: TrainingPlan, scheme: str, var_a):
    """Transmitter energy the AN of variance ``var_a`` costs in one round of
    ``scheme``: ``(n_t - n_l) * var_a`` per use of the guarded forward pilot,
    over ``tau_f`` (reciprocal) or ``tau_t3`` (non-reciprocal) uses.
    Elementwise in plain arithmetic."""
    uses = plan.tau_f if scheme == RECIPROCAL else plan.tau_t3
    return (config.n_t - config.n_l) * var_a * uses


def allocation_violations(
    alloc: PowerAllocation,
    config: SystemConfig,
    plan: TrainingPlan,
    budget: EnergyBudget | None = None,
) -> list[str]:
    """Feasibility diagnostics for an allocation (empty list == feasible).

    Without a budget only well-formedness is checked (matching scheme, no
    missing fields, nonnegative energies).  With a budget the per-node caps on
    :func:`training_spend` and the optional total cap are enforced too.
    """
    out = []
    if alloc.scheme != plan.scheme:
        out.append(f"scheme: allocation is {alloc.scheme!r} but plan is {plan.scheme!r}")
        return out
    names = ("e_r", "e_f") if alloc.scheme == RECIPROCAL else ("e_t0", "e_l1", "e_l2", "e_t3")
    for name in names + ("var_a",):
        val = getattr(alloc, name)
        if val is None:
            out.append(f"{name}: required for scheme {alloc.scheme!r}")
        elif not math.isfinite(val):
            out.append(f"{name}: must be finite, got {val}")
        elif val < 0:
            out.append(f"{name}: must be >= 0, got {val}")
    if out or budget is None:
        return out

    tx_spend, lr_spend = training_spend(alloc, config, plan)
    tol = 1e-9
    if tx_spend > budget.e_t_max * (1 + tol) + tol:
        out.append(f"e_t_max: transmitter spend {tx_spend} exceeds cap {budget.e_t_max}")
    if lr_spend > budget.e_l_max * (1 + tol) + tol:
        out.append(f"e_l_max: LR spend {lr_spend} exceeds cap {budget.e_l_max}")
    if math.isfinite(budget.e_ave_max):
        total = tx_spend + lr_spend
        if total > budget.e_ave_max * (1 + tol) + tol:
            out.append(f"e_ave_max: total spend {total} exceeds cap {budget.e_ave_max}")
    return out


def channel_table(config: SystemConfig, scheme: str) -> tuple[tuple[str, tuple[int, int], float], ...]:
    """Each channel ``scheme`` uses, in draw order: its :class:`ChannelRealization`
    field, its shape and its per-entry variance.  ``ValueError`` for an unknown scheme."""
    down, g = (config.n_t, config.n_l), ("g", (config.n_t, config.n_u), config.var_g)
    if scheme == RECIPROCAL:
        return ("h", down, config.var_h), g
    if scheme == NONRECIPROCAL:
        return ("h_d", down, config.var_hd), ("h_u", down[::-1], config.var_hu), g
    raise ValueError(f"unknown scheme {scheme!r}")


def draw_channels(
    config: SystemConfig, scheme: str, rng: RngStream
) -> ChannelRealization:
    """Draw one realization of the channels used by ``scheme``, in
    :func:`channel_table` order."""
    table = channel_table(config, scheme)
    return ChannelRealization(**{name: random_gaussian(*shape, var, rng) for name, shape, var in table})


def db_to_energy(p_db: float, tau: int) -> float:
    """Energy of a ``tau``-use stage transmitted at ``p_db`` dB average power;
    ``inf`` past the float range (above about 3083 dB), which the budget
    checks then judge like any infinite cap."""
    if tau < 1:
        raise ValueError(f"stage length must be >= 1, got {tau}")
    try:
        return 10.0 ** (p_db / 10.0) * tau
    except OverflowError:
        return math.inf


# --------------------------------------------------------------------------
# Config files: flat "key = value" lines, '#' comments, a fixed key set.
# --------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key every file must set

# Every config key: the type its value is parsed as, and its default.  A
# stage length or ``pilot_rank`` left unset gets the plan's default.
_KEYS = {
    "nt": (int, _REQUIRED), "nl": (int, _REQUIRED), "nu": (int, _REQUIRED),
    "scheme": (str, _REQUIRED),
    **{name: (float, 1.0) for name in _VARIANCES},
    **{name: (int, None) for stages in _STAGES.values() for name, _ in stages},
    "pilot_rank": (int, None),
    "gamma": (float, _REQUIRED),
    "pt_db": (float, 30.0), "pl_db": (float, 20.0), "pave_db": (float, None),
    "trials": (int, 10000), "seed": (int, 0),
}
_DEFAULTS = {key: default for key, (_, default) in _KEYS.items()}  # copied by each parse


@dataclass(frozen=True)
class RunSettings:
    """Everything a CLI run needs: model, plan, powers, and MC bookkeeping."""

    config: SystemConfig
    plan: TrainingPlan
    gamma: float
    pt_db: float
    pl_db: float
    pave_db: float | None
    trials: int
    seed: int

    def budget(self, pave_db: float | None = None, gamma: float | None = None) -> EnergyBudget:
        """Budget implied by the dB powers; ``pave_db``/``gamma`` may be overridden."""
        tau_t, tau_l = training_lengths(self.plan)
        pave = self.pave_db if pave_db is None else pave_db
        e_ave = math.inf if pave is None else db_to_energy(pave, tau_t + tau_l)
        return EnergyBudget(
            e_t_max=db_to_energy(self.pt_db, tau_t),
            e_l_max=db_to_energy(self.pl_db, tau_l),
            gamma=self.gamma if gamma is None else gamma,
            e_ave_max=e_ave,
        )


# The fields of RunSettings that config keys set as they are, in field order.
_SETTINGS = tuple(field.name for field in fields(RunSettings) if field.name in _KEYS)


def parse_config(text: str) -> RunSettings:
    """Parse config text.  Unknown or missing keys raise :class:`ConfigError`,
    and so does every value that does not parse as its key's type, whether or
    not the file's scheme uses it.  Settings that parse are then checked by
    :func:`validate`, ``gamma``, ``trials`` and ``seed`` by range, and the dB
    powers for finiteness (``pave_db = inf`` lifts the total cap)."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, equals, value = stripped.partition("=")
        if not equals:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown config key: {key!r}", key=key)
        if key in raw:
            raise ConfigError(f"duplicate config key: {key!r}", key=key)
        raw[key] = value

    values = {**_DEFAULTS, **raw}
    for key, value in values.items():
        if value is _REQUIRED:
            raise ConfigError(f"missing config key: {key!r}", key=key)
    for key, value in raw.items():
        kind = _KEYS[key][0]
        try:
            values[key] = kind(value)
        except ValueError as exc:
            expected = "integer" if kind is int else "number"
            raise ConfigError(f"config key {key!r}: expected {expected}, got {value!r}", key=key) from exc

    scheme = values["scheme"]
    if scheme not in _SCHEMES:
        raise ConfigError(f"config key 'scheme': must be one of {_SCHEMES}, got {scheme!r}", key="scheme")

    config = SystemConfig(
        values["nt"], values["nl"], values["nu"], *[values[name] for name in _VARIANCES]
    )
    plan = _plan(config, scheme, values["pilot_rank"], values)
    bad = validate(config, plan)
    if bad:
        raise ConfigError(f"config: {bad[0]}", key=bad[0].split(":", 1)[0])

    gamma = values["gamma"]
    if not 0 < gamma <= config.var_g:
        raise ConfigError(f"config key 'gamma': must lie in (0, var_g={config.var_g}], got {gamma}", key="gamma")
    for key, least in (("trials", MIN_TRIALS), ("seed", 0)):
        if values[key] < least:
            raise ConfigError(f"config key {key!r}: must be >= {least}, got {values[key]}", key=key)
    # A dB power is a number; only pave_db may be inf, which lifts the total cap.
    for key in ("pt_db", "pl_db", "pave_db"):
        val, lifts = values[key], key == "pave_db"
        if not (val is None or math.isfinite(val) or (lifts and val == math.inf)):
            allowed = "finite or inf" if lifts else "finite"
            raise ConfigError(f"config key {key!r}: must be {allowed}, got {val}", key=key)

    return RunSettings(config, plan, *[values[name] for name in _SETTINGS])


def load_config(path: str | Path) -> RunSettings:
    """Read and parse a config file (see :func:`parse_config`)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
