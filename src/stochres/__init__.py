"""Estimation of a subthreshold constant signal through a threshold detector
with deliberately added diffusion noise, including the noise level that
maximizes Fisher information (stochastic resonance) and MAP hypothesis
testing with closed-form error probabilities.
"""
from .errors import (
    BadBracket,
    ConfigError,
    DegenerateObservation,
    NonConvergence,
    NonFinite,
    NotErgodic,
    NumericBlowup,
    OutOfRange,
    QuadratureFailure,
    StochresError,
)
from .estimators import (
    ChannelConfig,
    VarianceReport,
    edf_variance,
    energy_limit,
    energy_limit_closed_form,
    energy_limit_derivative,
    energy_limit_derivative_closed_form,
    energy_limit_derivative_quadrature,
    energy_limit_quadrature,
    energy_scheme_variance,
    energy_statistic_variance,
    estimate_theta_energy,
    estimate_theta_time,
    time_fraction_limit,
    time_scheme_variance,
    time_scheme_variance_ou_reference,
)
from .laws import (
    DiffusionSpec,
    ErgodicityReport,
    InvariantLaw,
    build_invariant_law,
    check_ergodicity,
    ou_law,
)
from .maptest import (
    Decision,
    DecisionRule,
    ErrorReport,
    GaussianMoments,
    TestProblem,
    build_rule,
    decide,
    error_report,
    find_perr_minimum,
    moments,
    p_err,
    p_err_surface,
)
from .numerics import (
    Bracket,
    erf,
    find_root,
    integrate_line,
    maximize_scalar,
    normal_cdf,
)
from .resonance import CurvePoint, ResonanceResult, find_resonance, resonance_curve
from .simulate import (
    ObservationSummary,
    SimConfig,
    Trajectory,
    observe,
    observe_paths,
    perturb,
    simulate_path,
    simulate_paths,
)
from .validate import error_rate_study, validation_studies, variance_validation_study

__version__ = "0.1.0"
