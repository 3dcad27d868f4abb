"""Wind turbine under a ramp-rate limitation policy with battery storage:
semi-Markov battery phases, pinned Brownian-bridge charge paths, Monte Carlo
penalty estimation.
"""

from .bridge import (
    SIGMA_FLOOR,
    ErrorPath,
    bb_transition,
    clip_error,
    compute_initial_power,
    decompose,
    extract_peak,
    sample_latent_bridge,
    triangle,
)
from .errors import (
    EstimationError,
    InputError,
    InsufficientDataError,
    SimulationError,
    WindBridgeError,
)
from .estimation import (
    EmpiricalCopulaSampler,
    SigmaModel,
    SupportSpec,
    attainable_param_support,
    fit_joint_density,
    fit_sigma_regression,
    mle_sigma,
    predict_sigma,
)
from .pipeline import (
    RunConfig,
    SyntheticWindSpec,
    build_model_doc,
    charge_model_from_doc,
    config_hash,
    load_charge_model,
    load_config,
    run_pipeline,
    run_stage,
)
from .power import (
    DEFAULT_TURBINE,
    PowerSeries,
    RampPolicy,
    TurbineSpec,
    apply_ramp_limit,
    generate_synthetic_wind,
    wind_to_power,
)
from .segmentation import (
    SegmentTable,
    SemiMarkovKernel,
    estimate_kernel,
    extract_segments,
)
from .simulate import (
    DEFAULT_BATTERY,
    DEFAULT_FEES,
    BatterySpec,
    ChargeModel,
    MomentTable,
    PenaltyBlock,
    PenaltySpec,
    battery_recursion,
    discounted_penalty,
    mc_moments,
    simulate_penalty_path,
    simulate_penalty_paths,
)
from .validation import ComparisonReport, compare_segments, rel_l2_error

__version__ = "0.1.0"
