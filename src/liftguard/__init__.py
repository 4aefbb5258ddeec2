"""liftguard: vulnerability analysis, stealthy-attack synthesis, and
dual-rate defenses for sampled-data control loops.

The package analyzes a continuous plant under zero-order-hold control for
vulnerability to unbounded stealthy actuator and sensor attacks,
synthesizes the attacks when they exist, constructs the dual-rate lifted
loop that provably removes the actuator-side vulnerability, and
demonstrates both outcomes by closed-loop simulation with a threshold
detection monitor.
"""

__version__ = "0.1.0"

from .errors import (
    CapabilityError,
    ConfigurationError,
    DimensionError,
    LiftguardError,
    ModelError,
    NumericError,
)
from .linalg import RankResult, dare_gain, eig, expm, rank_svd, spectral_radius
from .model import (
    ContinuousPlant,
    DiscretePlant,
    MinimalityReport,
    PathologyReport,
    StateSpace,
    check_minimal,
    check_pathological,
    discretize,
    load_plant,
    observability_stack,
    plant_to_dict,
)
from .zeros import (
    PoleRecord,
    VulnerabilityVerdict,
    ZeroRecord,
    ZeroReport,
    classify_vulnerability,
    poles,
    transmission_zeros,
    zero_values,
)
from .factor import (
    CoprimeFactors,
    coprime_factorize,
    eval_lambda,
    observer_controller,
)
from .lift import (
    AssumptionReport,
    LiftedSystem,
    block_difference_matrix,
    build_lifted,
    check_assumptions,
    choose_m,
    shift_consistency_check,
)
from .attack import (
    AttackPlan,
    geometric_sequence,
    plan_from_dict,
    plan_to_dict,
    synth_actuator_attack,
    synth_coordinated_attack,
    synth_sensor_attack,
)
from .sim import (
    LoopConfig,
    SimTrace,
    Verdict,
    monitor_eval,
    run_dual_rate,
    run_single_rate,
    standard_loop,
    trace_metadata,
    trace_to_csv,
)
