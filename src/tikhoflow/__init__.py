"""Numerical laboratory for inertial gradient flows with Hessian-driven damping
and vanishing Tikhonov regularization.

The second-order system

    x'' + (alpha/t) x' + beta * hess g(x) x' + grad g(x) + eps(t) x = 0

is integrated through a Hessian-free first-order lift, its energy functionals
are evaluated along trajectories, the analytic hypotheses on the schedule
t -> eps(t) are certified or refuted, and the observed decay rates and the
approach to the minimum-norm minimizer are measured.
"""
from .problems import (
    ObjectiveSpec,
    builtin,
    min_norm_solution,
)
from .schedules import (
    HypothesisReport,
    IntegralClassification,
    TikhonovSchedule,
    Verdict,
    check_condition_a,
    check_condition_b,
    check_strong_convergence_hypotheses,
    classify_integrals,
    crossing_time_on_grid,
    logarithmic_schedule,
    power_schedule,
    t2eps_threshold,
    tabulated_schedule,
    zero_schedule,
)
from .dynamics import (
    DynamicsConfig,
    IntegrationError,
    Trajectory,
    integrate,
    integrate_direct,
    sample_times,
    vector_field,
)
from .diagnostics import (
    DriftCheckResult,
    EnergyParams,
    MonotonicityResult,
    RateReport,
    SolverError,
    TailSeries,
    averaged_t_eps,
    default_energy_index,
    eb_drift_bound_check,
    energy_Eb_series,
    energy_Ebp,
    energy_W_series,
    ergodic_deviation,
    monotonicity_check,
    rate_report,
    strong_convergence_energy_params,
    tikhonov_point,
)
from .config import ConfigError, ExperimentConfig, load_config, resolve

__version__ = "0.1.0"
