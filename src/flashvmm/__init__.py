"""Behavioral simulator for analog floating-gate vector-by-matrix multipliers.

Subpackages:

- ``cell``: compact model of one cell (readout, pulses, noise, retention)
- ``array``: array topology, bias schemes, pulses with disturb accounting
- ``tuning``: closed-loop write-verify tuning to target currents
- ``vmm``: gate-coupled multiplication and differential drift compensation
- ``experiments``: deterministic CSV-producing experiment campaigns
- ``cli``: command-line harness (``python -m flashvmm``)
"""

from .array import ArrayState, DisturbLog
from .cell import (
    READOUT_BIAS,
    BiasCondition,
    CellState,
    PulseKind,
    PulseSpec,
    apply_pulse,
    drain_current,
    fresh_cell,
    readout_noisy,
    retention_hold,
    standard_current,
    vth_for_standard_current,
)
from .config import (
    DEFAULT_CONFIG,
    CalibrationError,
    ModelConfig,
    NoiseParams,
    calibrate,
    config_hash,
    load_config,
    save_config,
)
from .tuning import TuneResult, TuneTarget, tune_array, tune_cell
from .vmm import (
    DifferentialWeightPlan,
    PlanInfeasibleError,
    WeightMatrix,
    differential_multiply,
    input_gate_voltage,
    multiply,
    optimize_bias_weight,
    plan_differential,
    weight_of,
)

__version__ = "0.1.0"
