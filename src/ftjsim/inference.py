"""Analog matrix-vector multiply on crossbar pairs.

Weights map onto a differential pair of arrays (positive and negative
planes) through a uniform grid in normalized conductance. Inputs are
applied by charge integration: the engine accumulates one-hot reads at a
fixed read bias weighted by the input entries, so the read nonlinearity
never mixes into the result and the ideal product is recovered exactly up
to weight quantization. A scalar decoder gain, calibrated once per
programmed pair with an all-ones vector, converts integrated charge back
to weight units. The charge MVM is one call of crossbar's array read
kernel, whose docstring says how it keeps the one-hot reads' bits.

Programming either writes the target state directly ("ideal") or runs a
write-verify loop ("write_verify") that trims each device with
alternating potentiation and depression pulses until its measured
conductance lands within tolerance of the target. Because verification
reads the actual current, the loop absorbs device-to-device spread up to
the rail limits. Programming and reads run at the array's own t_kelvin.
_program is the one write-verify entry, on _check_program's inputs:
before any draw it checks every offset's float range in one
state_multiplier call, then trims every cell in one device._trim call.

mvm_error_mc validates once, at entry, and builds no Crossbar and no
WeightMapping: it takes map_weights' levels from _quantize and each
bias's conductance window from _window, the two helpers map_weights is
made of. Each trial holds its differential pair as one stacked (2,
n_rows, n_cols) state, the positive plane first, and takes each step
once for both planes: device's d2d draw on the trial's two sibling
seeds, one _program call, one read of crossbar's kernel, and one
_line_sums call for the decoder calibration (all-ones) and the input
charge.

The conductance helpers take their multipliers from one broadcast
conduction.state_multiplier call, and every MVM read bias passes
crossbar's read-regime check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conduction import (ConductionParams, T_REF, V_ONOFF, V_READ,
                         _array_current, check_temperature, current_total,
                         default_params, state_multiplier)
from .crossbar import Crossbar, _check_mvm_bias, _line_sums
from .device import (DeviceState, UpdateModel, _check_cells, _check_sigma_d2d,
                     _d2d_offsets, _trim, default_update_model)

__all__ = [
    "WeightMapping",
    "map_weights",
    "normalized_conductance",
    "weight_for_conductance",
    "state_conductance",
    "ProgramReport",
    "program_write_verify",
    "mvm_charge",
    "MvmErrorStats",
    "mvm_error_mc",
]

VERIFY_TOL_FRACTION = 0.25   # verify tolerance as a fraction of level spacing


def normalized_conductance(p: ConductionParams, w, d2d_log10=0.0):
    """Device conductance on a 0..1 scale: 0 at the pristine HRS, 1 at the
    full LRS. Bias-independent because the state multiplier is common to
    both channels. w and d2d_log10 broadcast; a float for scalar input."""
    return (state_multiplier(p, w, d2d_log10) - 1.0) / (p.g_lrs - 1.0)


def weight_for_conductance(p: ConductionParams, u):
    """Inverse of normalized_conductance at zero variation offset."""
    u = np.asarray(u)
    if not np.all((u >= 0) & (u <= 1)):
        raise ValueError("normalized conductance must lie in [0, 1]")
    return np.log1p(u * (p.g_lrs - 1.0)) / math.log(p.g_lrs)


def state_conductance(p: ConductionParams, w, v_read: float = V_ONOFF,
                      t: float = T_REF, d2d_log10=0.0):
    """Chordal conductance I/V (siemens) of state w at the read bias.

    The state enters the model as a common multiplier on both channels,
    so this is the pristine-state chordal conductance scaled by that
    multiplier. w and d2d_log10 broadcast; a float for scalar input.
    """
    return _pristine_g(p, v_read, t) * state_multiplier(p, w, d2d_log10)


def _pristine_g(p: ConductionParams, v_read: float, t: float) -> float:
    """Chordal conductance of the pristine state (w = 0, no offset), the
    base every state's conductance scales."""
    return current_total(v_read, t, p, DeviceState(w=0.0)) / v_read


def _level_spacing(n_levels: int) -> float:
    """Grid pitch in normalized conductance (= weight units)."""
    return 1.0 / (n_levels - 1)


@dataclass(frozen=True)
class WeightMapping:
    """Differential quantized mapping of a signed weight matrix.

    w_pos/w_neg are polarization targets for the two planes, u_pos/u_neg
    the same targets on the normalized-conductance grid, and g_pos/g_neg
    their chordal conductances (siemens) at v_read. decoded() gives the
    quantized weights the pair represents.
    """

    n_levels: int
    v_read: float
    g_min: float
    g_max: float
    w_pos: np.ndarray
    w_neg: np.ndarray
    u_pos: np.ndarray
    u_neg: np.ndarray
    g_pos: np.ndarray
    g_neg: np.ndarray

    def __post_init__(self):
        if self.n_levels < 2:
            raise ValueError("n_levels must be >= 2")
        if not self.g_min < self.g_max:
            raise ValueError("g_min must be below g_max")
        for g in (self.g_pos, self.g_neg):
            if np.any(g < self.g_min - 1e-18) or np.any(g > self.g_max + 1e-18):
                raise ValueError("conductance targets outside [g_min, g_max]")

    @property
    def level_spacing(self) -> float:
        """Grid pitch in normalized conductance (= weight units)."""
        return _level_spacing(self.n_levels)

    def decoded(self) -> np.ndarray:
        return self.u_pos - self.u_neg


def _quantize(wmat, n_levels: int):
    """map_weights' checks and levels: (the weights as a float array,
    u_pos, u_neg)."""
    w = np.asarray(wmat, dtype=float)
    if w.ndim != 2:
        raise ValueError("weight matrix must be 2-D")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix contains non-finite values")
    if np.any(np.abs(w) > 1.0):
        raise ValueError("weights must lie in [-1, 1]")
    if n_levels < 2:
        raise ValueError("n_levels must be >= 2")
    steps = n_levels - 1
    u_pos = np.round(np.clip(w, 0.0, 1.0) * steps) / steps
    u_neg = np.round(np.clip(-w, 0.0, 1.0) * steps) / steps
    return w, u_pos, u_neg


def _window(p: ConductionParams, v_read: float, t: float
            ) -> tuple[float, float]:
    """(g_min, g_max): state_conductance at w = 0 and 1 as floats, from
    one pristine read. Raises ValueError unless g_min < g_max."""
    base = _pristine_g(p, v_read, t)
    g_min = float(base * state_multiplier(p, 0.0))
    g_max = float(base * state_multiplier(p, 1.0))
    if not g_min < g_max:
        raise ValueError("g_min must be below g_max")
    return g_min, g_max


def map_weights(wmat, n_levels: int, p: ConductionParams,
                v_read: float = V_ONOFF, t: float = T_REF) -> WeightMapping:
    """Quantize a signed weight matrix onto the differential grid.

    Weights must lie in [-1, 1]. Positive entries land on the positive
    plane, negative entries on the negative plane; the other plane stays
    at the HRS. Levels are uniform in normalized conductance, so the
    decoded weight error is at most half a level spacing per entry and
    w = 0 maps to an equal pair.
    """
    _, u_pos, u_neg = _quantize(wmat, n_levels)
    g_min, g_max = _window(p, v_read, t)
    return WeightMapping(
        n_levels=n_levels, v_read=v_read, g_min=g_min, g_max=g_max,
        w_pos=weight_for_conductance(p, u_pos),
        w_neg=weight_for_conductance(p, u_neg),
        u_pos=u_pos, u_neg=u_neg,
        g_pos=g_min + u_pos * (g_max - g_min),
        g_neg=g_min + u_neg * (g_max - g_min))


@dataclass(frozen=True)
class ProgramReport:
    """Write-verify outcome over one array: per-cell pulse counts and
    final conductance residuals (siemens) at the verify bias."""

    pulse_counts: np.ndarray
    residual_g: np.ndarray
    pulses_total: int
    max_residual_g: float
    n_failed: int


def program_write_verify(xbar: Crossbar, g_targets, m: UpdateModel,
                         tol_g: float, rng: np.random.Generator,
                         v_read: float = V_READ, max_pulses: int | None = None
                         ) -> tuple[Crossbar, ProgramReport]:
    """Program every cell to a target conductance with verification reads.

    g_targets are chordal conductances (siemens) at the verify bias
    v_read. Each cell, in row-major order, gets alternating potentiation
    and depression pulses until its measured conductance lands within
    tol_g of the target. The two polarities ride different-curvature
    update curves, so their alternation forms a fine lattice of reachable
    states. Verification measures the actual device current, so each
    cell's variation offset is compensated where its state range allows; a
    target beyond a cell's own rails shows up in the per-cell residuals
    rather than raising. A cell stops early when a pulse would leave it
    where it was: pinned at a rail, or a write amplitude below its onset;
    such a pulse is not counted. max_pulses defaults to three times
    the model's full-switching pulse count.

    The targets must be finite, max_pulses a non-negative integer and
    every offset inside float range; all are checked before any draw.
    The loop is device's write-verify trim: states, pulse counts,
    residuals and draws are those of applying and reading pulse by pulse.
    """
    g_targets, max_pulses = _check_program((xbar.n_rows, xbar.n_cols),
                                           g_targets, m, tol_g, v_read,
                                           max_pulses)
    w, report = _program(m, rng, xbar.params, xbar.t_kelvin, v_read, tol_g,
                         max_pulses, xbar.w, xbar.d2d_log10, g_targets)
    return replace(xbar, w=w), report


def _check_program(shape: tuple, g_targets, m: UpdateModel, tol_g: float,
                   v_read: float, max_pulses: int | None
                   ) -> tuple[np.ndarray, int]:
    """program_write_verify's input checks for an array of that shape:
    (the targets as a float array, max_pulses as an int, its default
    filled in)."""
    g_targets = np.asarray(g_targets, dtype=float)
    if g_targets.shape != shape:
        raise ValueError("target shape does not match the array")
    if not np.all(np.isfinite(g_targets)):
        raise ValueError("conductance targets must be finite")
    if not tol_g > 0:
        raise ValueError("tol_g must be positive")
    if v_read == 0:
        raise ValueError("verify bias must be nonzero")
    if max_pulses is None:
        return g_targets, 3 * m.n_full
    if (isinstance(max_pulses, bool)
            or not isinstance(max_pulses, (int, np.integer)) or max_pulses < 0):
        raise ValueError("max_pulses must be a non-negative integer, got "
                         f"{max_pulses!r}")
    return g_targets, int(max_pulses)


def _program(m: UpdateModel, rng: np.random.Generator | None,
             p: ConductionParams, t: float, v_read: float, tol_g: float,
             max_pulses: int, w: np.ndarray, d2d_log10: np.ndarray,
             g_targets: np.ndarray) -> tuple[np.ndarray, ProgramReport]:
    """program_write_verify's body on _check_program's outputs and finite
    cell arrays of the targets' shape: offsets checked, then one _trim
    call in row-major order, as (w, report)."""
    state_multiplier(p, 0.0, d2d_log10)
    shape = g_targets.shape
    cells = zip(w.ravel().tolist(), d2d_log10.ravel().tolist(),
                g_targets.ravel().tolist())
    trimmed = _trim(m, rng, p, t, v_read, tol_g, max_pulses, cells)
    w, counts, resid = (np.reshape(column, shape)
                        for column in zip(*trimmed))
    report = ProgramReport(pulse_counts=counts, residual_g=resid,
                           pulses_total=int(counts.sum()),
                           max_residual_g=float(resid.max()),
                           n_failed=int(np.sum(resid > tol_g)))
    return w, report


def mvm_charge(xbar: Crossbar, x, v_read: float = V_ONOFF) -> np.ndarray:
    """Charge-integration matrix-vector product.

    Integrates x[r]-weighted one-hot reads at the fixed read bias, so
    each device contributes x[r] * I(v_read) and the sum is exactly linear
    in x regardless of the device nonlinearity. The device currents are
    one kernel call on the whole array, and each column's charge is summed
    over rows left to right, as one-hot reads accumulated in row order
    would give. v_read obeys mvm_read's read-regime limit.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (xbar.n_rows,):
        raise ValueError(f"x must have shape ({xbar.n_rows},), got {x.shape}")
    _check_mvm_bias(v_read)
    currents = _array_current(xbar.params, xbar.t_kelvin, xbar.w,
                              xbar.d2d_log10, v_read)
    return _line_sums(x[:, None] * currents, axis=0)


def _decoder_gain(q_ones: np.ndarray, y_ones: np.ndarray) -> float:
    denom = float(np.dot(q_ones, q_ones))
    if denom == 0.0:
        return 0.0
    return float(np.dot(y_ones, q_ones)) / denom


@dataclass(frozen=True)
class MvmErrorStats:
    """Relative-error distribution of the analog product, with each
    trial's write-verify pulse count and failed-cell count summed over
    both planes (zeros under ideal programming)."""

    median: float
    ci_low: float
    ci_high: float
    rel_errors: np.ndarray
    pulses: np.ndarray
    failed_cells: np.ndarray


def mvm_error_mc(wmat, x_inputs=None, n_levels: int = 11,
                 sigma_d2d: float = 0.0, c2c_rel: float | None = None,
                 n_trials: int = 20, seed=0,
                 programming: str = "write_verify",
                 decoder: str = "calibrated",
                 p: ConductionParams | None = None,
                 m: UpdateModel | None = None, v_read: float = V_ONOFF,
                 v_verify: float = V_READ, t: float = T_REF) -> MvmErrorStats:
    """Monte Carlo relative error of the full analog pipeline.

    Each trial builds a fresh differential pair at t with independent
    variation draws, programs the mapped weights ("write_verify" trims
    against measured conductance; "ideal" writes the exact state), then
    scores one input vector by the relative RMS error of the decoded
    product against the float product. x_inputs fixes the input vector;
    None draws a fresh uniform [0, 1] vector per trial. c2c_rel overrides
    the update model's pulse noise during programming.

    The decoder gain is least-squares calibrated per pair from an
    all-ones read ("calibrated"); "exact" uses the analytic gain
    1 / (v_read * (g_max - g_min)), which isolates quantization and
    variation effects from calibration error.

    n_trials must be a positive integer. It, sigma_d2d, t and v_read
    (which obeys mvm_charge's limits) are checked before any draw. Each
    trial holds its pair as one stacked (2, n_rows, n_cols) state (see
    the module docstring); its offsets must be finite and inside float
    range. Every value is bit-identical to two build_crossbar, two
    program_write_verify and four mvm_charge calls.
    With one trial, median, ci_low and ci_high are its error.
    """
    if programming not in ("write_verify", "ideal"):
        raise ValueError(f"unknown programming mode {programming!r}")
    if decoder not in ("calibrated", "exact"):
        raise ValueError(f"unknown decoder mode {decoder!r}")
    if (isinstance(n_trials, bool)
            or not isinstance(n_trials, (int, np.integer)) or n_trials < 1):
        raise ValueError(f"n_trials must be a positive integer, got "
                         f"{n_trials!r}")
    _check_sigma_d2d(sigma_d2d)
    check_temperature(t)
    _check_mvm_bias(v_read)
    p = p if p is not None else default_params()
    m = m if m is not None else default_update_model()
    if c2c_rel is not None:
        m = replace(m, c2c_rel=float(c2c_rel))
    w, u_pos, u_neg = _quantize(wmat, n_levels)
    g_min, g_max = _window(p, v_read, t)
    n_rows, n_cols = w.shape
    shape = (2, n_rows, n_cols)
    if x_inputs is not None:
        x_inputs = np.asarray(x_inputs, dtype=float)
        if x_inputs.shape != (n_rows,):
            raise ValueError(f"x_inputs must have shape ({n_rows},)")
        if not np.all(np.isfinite(x_inputs)):
            raise ValueError("x_inputs contains non-finite values")

    # Write-verify targets live at the verify bias, not the read bias.
    u = np.stack([u_pos, u_neg])
    gv_min, gv_max = _window(p, v_verify, t)
    gv = gv_min + u * (gv_max - gv_min)
    tol_g = VERIFY_TOL_FRACTION * _level_spacing(n_levels) * (gv_max - gv_min)
    if programming == "write_verify":
        gv, max_pulses = _check_program(shape, gv, m, tol_g, v_verify, None)
        w_0 = np.zeros(shape)  # the pristine cells
    else:
        w_ideal = weight_for_conductance(p, u)
    ones = np.ones(n_rows)
    y_ones = ones @ w
    alpha_exact = 1.0 / (v_read * (g_max - g_min))

    errors = np.zeros(n_trials)
    pulses = np.zeros(n_trials, dtype=int)
    failed = np.zeros(n_trials, dtype=int)
    root = np.random.SeedSequence(seed)
    for trial, child in enumerate(root.spawn(n_trials)):
        s_pos, s_neg, s_prog = child.spawn(3)
        d2d = _d2d_offsets(sigma_d2d, (s_pos, s_neg),
                           n_rows * n_cols).reshape(shape)
        # a Crossbar's offset checks on both planes, before any pulse
        _check_cells(0.0, d2d)
        if programming == "ideal":
            w_planes = w_ideal
        else:
            # both planes in one _program call: one noise stream per trial
            w_planes, report = _program(
                m, np.random.default_rng(s_prog), p, t, v_verify, tol_g,
                max_pulses, w_0, d2d, gv)
            pulses[trial] = report.pulses_total
            failed[trial] = report.n_failed
        currents = _array_current(p, t, w_planes, d2d, v_read)
        # the input's child, spawn key (..., 3), only when it is drawn
        x = (x_inputs if x_inputs is not None
             else np.random.default_rng(child.spawn(1)[0]).uniform(
                 0.0, 1.0, n_rows))
        # charges as (input, plane, column), all-ones input first
        q = _line_sums(np.stack([ones, x])[:, None, :, None] * currents,
                       axis=2)
        q_ones, q_x = q[:, 0] - q[:, 1]
        alpha = (alpha_exact if decoder == "exact"
                 else _decoder_gain(q_ones, y_ones))
        y_true = x @ w
        y_hat = alpha * q_x
        denom = float(np.linalg.norm(y_true))
        if denom == 0.0:
            raise ValueError("test vector produced a zero product; "
                             "relative error is undefined")
        errors[trial] = float(np.linalg.norm(y_hat - y_true)) / denom
    if n_trials == 1:
        median = lo = hi = float(errors[0])
    else:
        median = float(np.median(errors))
        lo, hi = (float(e) for e in np.percentile(errors, [2.5, 97.5]))
    return MvmErrorStats(median=median, ci_low=lo, ci_high=hi,
                         rel_errors=errors, pulses=pulses, failed_cells=failed)
