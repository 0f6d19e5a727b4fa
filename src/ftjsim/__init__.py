"""Compact-model simulator for a self-rectifying ferroelectric memristor.

The package splits into six layers:

* conduction: static two-channel I-V model, calibration to figures of merit
* device: polarization state, pulse updates, DC hysteresis, retention
* extraction: channel fits, mechanism discrimination, level statistics
* crossbar: passive-array network solve, read/write schemes, sneak margins
* inference: differential weight mapping and analog matrix products
* cli / config: reproducible command-line studies driven by INI files
"""

from .conduction import (
    CalibrationError,
    CalibrationTargets,
    ConductionParams,
    Readout,
    TunnelBarrier,
    calibrate,
    current_ohmic,
    current_pf,
    current_total,
    current_total_g,
    current_tunneling,
    default_params,
    differential_conductance,
    differential_conductance_g,
    on_off,
    self_selection_ratio,
    state_multiplier,
)
from .config import (
    ConfigError,
    ModelBundle,
    SimConfig,
    build_model,
    emit_config,
    load_config,
    parse_config,
)
from .crossbar import (
    BiasScheme,
    Crossbar,
    NetworkSolution,
    SneakReport,
    WriteReport,
    build_crossbar,
    mvm_read,
    sneak_margin,
    solve_network,
    write_v_half,
)
from .device import (
    DeviceState,
    PulseScheme,
    PulseSpec,
    Trace,
    UpdateModel,
    UpdateShape,
    WindowReport,
    apply_pulse,
    dc_write_loop,
    default_update_model,
    endurance_register,
    memory_window,
    preset_scheme,
    read_state,
    retention_evolve,
    run_scheme,
    sample_d2d_offsets,
    sample_device,
    write_energy,
)
from .extraction import (
    OHMIC_WINDOW,
    PF_WINDOW,
    LevelReport,
    OhmicExtraction,
    PfExtraction,
    RegressionResult,
    Sweep,
    TunnelingVerdict,
    UpdateFit,
    cdf_levels,
    discriminate_tunneling,
    extract_ohmic,
    extract_pf,
    fit_linear,
    fit_update_a,
)
from .inference import (
    MvmErrorStats,
    ProgramReport,
    WeightMapping,
    map_weights,
    mvm_charge,
    mvm_error_mc,
    normalized_conductance,
    program_write_verify,
    state_conductance,
    weight_for_conductance,
)

__version__ = "0.1.0"
