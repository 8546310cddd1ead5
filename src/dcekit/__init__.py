"""Discriminatory two-way channel training: estimators, allocators, simulation.

A transmitter trains a legitimate multi-antenna receiver while keeping an
unauthorized receiver's channel estimate above a chosen error floor, by
superimposing artificial noise on the forward pilot in the null space of the
transmitter's own channel estimate.  The package covers both reciprocal
(shared-channel) and non-reciprocal (echo-assisted) training, exact and
approximate error analysis, optimal training-energy allocation, and
Monte-Carlo validation down to coded-data symbol error rates.

Modules
-------
numerics   RNG streams; batched Gaussian draws, Haar semi-unitaries, null complements
model      system/plan/budget/allocation types, validation, config files
estimator  batched LMMSE combiner, echo-based downlink estimator
analytics  every scalar error formula, closed-form NMSE, UR floor window, bounds
protocol   batched round engine (run_rounds), batch-of-one transcripts with errors
allocator  energy-allocation solvers (closed forms, reduced-space search)
simkit     Monte-Carlo NMSE / symbol-error-rate harness
cli        ``dcekit`` command-line tool
"""

from .allocator import (
    InfeasibleGamma,
    SolveReport,
    optimal_pilot_gram,
    optimize_rank,
    solve_general,
    solve_nonreciprocal,
    solve_reciprocal,
)
from .analytics import (
    FeasibleGammaRange,
    gamma_range,
    gamma_tilde,
    mu,
    nmse_l_nonreciprocal_approx,
    nmse_l_reciprocal,
    nmse_lower_bound,
    nmse_u,
)
from .model import (
    NONRECIPROCAL,
    RECIPROCAL,
    AllocationError,
    ChannelRealization,
    ConfigError,
    EnergyBudget,
    PowerAllocation,
    RunSettings,
    SystemConfig,
    TrainingPlan,
    draw_channels,
    load_config,
    nonreciprocal_plan,
    parse_config,
    reciprocal_plan,
)
from .numerics import RngStream, random_gaussian
from .protocol import EstimateWithError, TrainingTranscript, run_nonreciprocal, run_reciprocal
from .simkit import NmseReport, SerReport, mc_nmse, mc_ser, ostbc_detect, ostbc_encode

__version__ = "0.1.0"

__all__ = [
    "AllocationError",
    "ChannelRealization",
    "ConfigError",
    "EnergyBudget",
    "EstimateWithError",
    "FeasibleGammaRange",
    "InfeasibleGamma",
    "NONRECIPROCAL",
    "NmseReport",
    "PowerAllocation",
    "RECIPROCAL",
    "RngStream",
    "RunSettings",
    "SerReport",
    "SolveReport",
    "SystemConfig",
    "TrainingPlan",
    "TrainingTranscript",
    "draw_channels",
    "gamma_range",
    "gamma_tilde",
    "load_config",
    "mc_nmse",
    "mc_ser",
    "mu",
    "nmse_l_nonreciprocal_approx",
    "nmse_l_reciprocal",
    "nmse_lower_bound",
    "nmse_u",
    "nonreciprocal_plan",
    "optimal_pilot_gram",
    "optimize_rank",
    "ostbc_detect",
    "ostbc_encode",
    "parse_config",
    "random_gaussian",
    "reciprocal_plan",
    "run_nonreciprocal",
    "run_reciprocal",
    "solve_general",
    "solve_nonreciprocal",
    "solve_reciprocal",
    "__version__",
]
