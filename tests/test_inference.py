"""Differential weight mapping, write-verify programming, analog MVM."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ftjsim import device, inference
from ftjsim.conduction import (current_total, default_params,
                               state_multiplier)
from ftjsim.crossbar import Crossbar, build_crossbar, mvm_read
from ftjsim.device import (SCHEME_KINDS, DeviceState, PulseSpec,
                           apply_pulse, default_update_model)
from ftjsim.inference import (
    VERIFY_TOL_FRACTION,
    WeightMapping,
    map_weights,
    mvm_charge,
    mvm_error_mc,
    normalized_conductance,
    program_write_verify,
    state_conductance,
    weight_for_conductance,
)
import oracle
from oracle import (V_VERIFY, benchmark_planes, hexes,
                    multiplier, program, programming_bits, pulse_law)

V_READ_MVM = 0.1


@pytest.fixture(scope="module")
def p():
    return default_params()


@pytest.fixture(scope="module")
def m():
    return default_update_model()


def test_normalized_conductance_round_trip(p):
    u = np.linspace(0, 1, 17)
    w = weight_for_conductance(p, u)
    np.testing.assert_allclose(normalized_conductance(p, w), u, atol=1e-12)
    assert normalized_conductance(p, 0.0) == 0.0
    assert normalized_conductance(p, 1.0) == 1.0


@pytest.mark.parametrize("u", [-0.1, 1.1, math.nan, [0.5, math.nan]])
def test_weight_for_conductance_rejects_outside_unit_range(p, u):
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        weight_for_conductance(p, u)


def test_conductance_helpers_array_equals_scalar_bit_for_bit(p):
    """Array inputs of normalized_conductance and state_conductance equal
    the per-element multiplier g_lrs ** w * 10.0 ** (-d) in Python floats,
    bit for bit, and a scalar input gives a float."""
    rng = np.random.default_rng(13)
    w = np.concatenate([[0.0, 1.0, 5e-324], rng.uniform(0.0, 1.0, 1021)])
    d = rng.normal(0.0, 0.3, 1024)
    w_grid, d_grid = w.reshape(32, 32), d.reshape(32, 32)
    base = current_total(V_READ_MVM, 300.0, p, DeviceState(w=0.0)) / V_READ_MVM
    g = [multiplier(p, wi, di) for wi, di in zip(w.tolist(), d.tolist())]
    u_ref = [((gi - 1.0) / (p.g_lrs - 1.0)).hex() for gi in g]
    c_ref = [(base * gi).hex() for gi in g]
    u = normalized_conductance(p, w_grid, d_grid)
    c = state_conductance(p, w_grid, v_read=V_READ_MVM, d2d_log10=d_grid)
    assert u.shape == c.shape == (32, 32)
    assert [x.hex() for x in u.ravel().tolist()] == u_ref
    assert [x.hex() for x in c.ravel().tolist()] == c_ref
    for k in (0, 1, 2, 517):
        u_k = normalized_conductance(p, float(w[k]), float(d[k]))
        c_k = state_conductance(p, float(w[k]), v_read=V_READ_MVM,
                                d2d_log10=float(d[k]))
        assert type(u_k) is float and u_k.hex() == u_ref[k]
        assert type(c_k) is float and c_k.hex() == c_ref[k]


def test_conductance_helpers_name_an_offset_past_float_range(p):
    d = np.array([0.1, -400.0])
    for fn in (normalized_conductance, state_conductance):
        with pytest.raises(OverflowError, match=r"d2d_log10 = -400\.0 is "
                           r"outside float range"):
            fn(p, np.array([0.5, 0.5]), d2d_log10=d)


def test_state_conductance_ratio_is_on_off(p):
    g_on = state_conductance(p, 1.0, v_read=V_READ_MVM)
    g_off = state_conductance(p, 0.0, v_read=V_READ_MVM)
    assert g_on / g_off == pytest.approx(p.g_lrs, rel=1e-12)
    # d2d offset scales conductance down by the same decade factor
    assert state_conductance(p, 1.0, v_read=V_READ_MVM, d2d_log10=1.0) \
        == pytest.approx(g_on / 10.0, rel=1e-12)


def test_map_weights_extremes(p):
    wm = map_weights(np.array([[1.0, -1.0, 0.0]]), 11, p)
    g_max, g_min = wm.g_max, wm.g_min
    assert wm.g_pos[0, 0] == pytest.approx(g_max, rel=1e-15)
    assert wm.g_neg[0, 0] == pytest.approx(g_min, rel=1e-15)
    assert wm.g_pos[0, 1] == pytest.approx(g_min, rel=1e-15)
    assert wm.g_neg[0, 1] == pytest.approx(g_max, rel=1e-15)
    assert wm.g_pos[0, 2] == wm.g_neg[0, 2]  # zero weight: balanced pair


def test_map_weights_decode_error_bound(p):
    """Quantized decode error never exceeds half the level spacing."""
    rng = np.random.default_rng(1)
    w = rng.uniform(-1, 1, (8, 8))
    wm = map_weights(w, 11, p)
    err = np.abs(wm.decoded() - w)
    assert err.max() <= 0.5 / (11 - 1) + 1e-12
    # finer grids decode tighter
    wm101 = map_weights(w, 101, p)
    assert np.abs(wm101.decoded() - w).max() <= 0.5 / 100 + 1e-12


def test_map_weights_validation(p):
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        map_weights(np.array([[1.2]]), 11, p)
    with pytest.raises(ValueError):
        map_weights(np.array([[np.nan]]), 11, p)
    with pytest.raises(ValueError):
        map_weights(np.array([0.5, 0.5]), 11, p)  # 1-D
    with pytest.raises(ValueError):
        map_weights(np.array([[0.5]]), 1, p)


def test_weight_mapping_invariants(p):
    wm = map_weights(np.zeros((2, 2)), 5, p)
    assert wm.n_levels == 5
    assert wm.level_spacing == pytest.approx(0.25)
    assert wm.g_min < wm.g_max
    assert np.all(wm.g_pos >= wm.g_min - 1e-18)
    assert np.all(wm.g_pos <= wm.g_max + 1e-18)
    with pytest.raises(ValueError):
        WeightMapping(n_levels=4, v_read=0.1, g_min=2e-9, g_max=1e-9,
                      w_pos=np.zeros((1, 1)), w_neg=np.zeros((1, 1)),
                      u_pos=np.zeros((1, 1)), u_neg=np.zeros((1, 1)),
                      g_pos=np.full((1, 1), 1.5e-9),
                      g_neg=np.full((1, 1), 1.5e-9))


# signed weights at rounding ties and signed zeros: w * 10 is 0.5 and 1.5
# at 11 levels, and w = +-0.5 is a tie at 2
_TIES = np.array([[0.05, -0.05, 0.15, -0.15], [-0.0, 0.0, 0.5, -1.0]])


@pytest.mark.parametrize("n_levels, u_pos, u_neg", [
    (11, [[0.0, 0.0, 0.2, 0.0], [-0.0, 0.0, 0.5, 0.0]],
     [[0.0, 0.0, 0.0, 0.2], [0.0, -0.0, 0.0, 1.0]]),
    (2, [[0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, 0.0]],
     [[0.0, 0.0, 0.0, 0.0], [0.0, -0.0, 0.0, 1.0]])])
@pytest.mark.parametrize("v_read, t", [(0.1, 300.0), (-0.25, 330.0),
                                       (0.3, 250.0)])
def test_map_weights_and_the_shared_helpers_agree_bit_for_bit(
        p, n_levels, u_pos, u_neg, v_read, t):
    """mvm_error_mc takes map_weights' levels from _quantize and its
    conductance window from _window. The levels round half to even and
    keep a zero's sign, and the window is state_conductance at w = 0 and
    1, as floats."""
    mapping = map_weights(_TIES, n_levels, p, v_read=v_read, t=t)
    w, q_pos, q_neg = inference._quantize(_TIES, n_levels)
    g_min, g_max = inference._window(p, v_read, t)
    assert hexes(w) == hexes(_TIES)
    assert hexes(q_pos) == hexes(mapping.u_pos) == hexes(np.array(u_pos))
    assert hexes(q_neg) == hexes(mapping.u_neg) == hexes(np.array(u_neg))
    assert type(g_min) is type(g_max) is float
    assert [g_min.hex(), g_max.hex()] == [mapping.g_min.hex(),
                                          mapping.g_max.hex()] == [
        float(state_conductance(p, x, v_read, t)).hex() for x in (0.0, 1.0)]


@pytest.mark.parametrize("wmat, n_levels", [
    ([[1.2]], 11), ([[math.nan]], 11), ([0.5, 0.5], 11), ([[0.5]], 1),
    ([[0.5]], 3.5), ([[0.5]], True)],
    ids=["outside", "nan", "1-D", "one-level", "fractional", "bool"])
def test_mvm_error_mc_checks_the_weights_as_map_weights_does(p, wmat,
                                                             n_levels):
    with pytest.raises(ValueError) as mapped:
        map_weights(wmat, n_levels, p)
    with pytest.raises(ValueError) as trial:
        mvm_error_mc(wmat, n_levels=n_levels, n_trials=1)
    assert str(trial.value) == str(mapped.value)


@pytest.mark.parametrize("call", [
    lambda p: map_weights([[0.5]], 11, p, v_read=0.0),
    lambda p: state_conductance(p, 0.5, v_read=0.0),
    lambda p: mvm_error_mc([[0.5]], n_trials=1, v_read=0.0),
    lambda p: mvm_error_mc([[0.5]], n_trials=1, v_verify=0.0)],
    ids=["map_weights", "state_conductance", "mvm_v_read", "mvm_v_verify"])
def test_a_zero_read_bias_raises_a_value_error_naming_it(p, call):
    with pytest.raises(ValueError, match="read bias must be nonzero, got 0.0"):
        call(p)


@pytest.mark.parametrize("programming", ["write_verify", "ideal"])
def test_mvm_error_mc_checks_the_window_as_map_weights_does(p, programming):
    """g_lrs = 1 leaves no conductance window: map_weights and every
    programming mode of mvm_error_mc raise the same ValueError."""
    flat = replace(p, g_lrs=1.0)
    with pytest.raises(ValueError, match="g_min must be below g_max") as mapped:
        map_weights([[0.5]], 11, flat)
    with pytest.raises(ValueError) as trial:
        mvm_error_mc([[0.5]], n_trials=1, p=flat, programming=programming)
    assert str(trial.value) == str(mapped.value)


# --- write-verify programming ------------------------------------------------

def test_program_already_on_target_is_free(p, m):
    xbar = build_crossbar(2, 2, p).with_weights(0.5 * np.ones((2, 2)))
    g_now = np.array([[state_conductance(p, xbar.state(i, j).w,
                                         v_read=V_VERIFY)
                       for j in range(2)] for i in range(2)])
    m0 = replace(m, c2c_rel=0.0)
    _, report = program_write_verify(xbar, g_now, m0, tol_g=1e-12,
                                     rng=np.random.default_rng(0))
    assert report.pulses_total == 0
    assert report.n_failed == 0


def test_program_mid_range_noiseless(p, m):
    """A clean mid-range retarget lands within one full switching train."""
    m0 = replace(m, c2c_rel=0.0)
    xbar = build_crossbar(1, 1, p).with_weights(np.array([[0.0]]))
    g_lo = state_conductance(p, 0.0, v_read=V_VERIFY)
    g_hi = state_conductance(p, 1.0, v_read=V_VERIFY)
    target = np.array([[g_lo + 0.5 * (g_hi - g_lo)]])
    tol = 0.02 * (g_hi - g_lo)
    after, report = program_write_verify(xbar, target, m0, tol_g=tol,
                                         rng=np.random.default_rng(0))
    assert report.n_failed == 0
    assert int(report.pulse_counts[0, 0]) <= m0.n_full
    assert abs(report.residual_g[0, 0]) <= tol


def test_program_never_leaves_conductance_range(p, m):
    rng = np.random.default_rng(8)
    xbar = build_crossbar(4, 4, p, sigma_d2d=0.0, seed=8)
    g_lo = state_conductance(p, 0.0, v_read=V_VERIFY)
    g_hi = state_conductance(p, 1.0, v_read=V_VERIFY)
    targets = g_lo + rng.uniform(0, 1, (4, 4)) * (g_hi - g_lo)
    tol = VERIFY_TOL_FRACTION * 0.1 * (g_hi - g_lo)
    after, report = program_write_verify(xbar, targets, m, tol_g=tol, rng=rng)
    for i in range(4):
        for j in range(4):
            g = state_conductance(p, after.state(i, j).w, v_read=V_VERIFY)
            assert g_lo - 1e-18 <= g <= g_hi + 1e-18


def test_program_noisy_convergence_rate(p, m):
    """At 10% pulse noise, at least 95% of cells settle within 3 full
    trains (the default pulse budget)."""
    rng = np.random.default_rng(123)
    xbar = build_crossbar(10, 10, p, sigma_d2d=0.0, seed=3)
    g_lo = state_conductance(p, 0.0, v_read=V_VERIFY)
    g_hi = state_conductance(p, 1.0, v_read=V_VERIFY)
    targets = g_lo + rng.uniform(0.05, 0.95, (10, 10)) * (g_hi - g_lo)
    tol = VERIFY_TOL_FRACTION * 0.1 * (g_hi - g_lo)
    _, report = program_write_verify(xbar, targets, m, tol_g=tol, rng=rng)
    n_ok = 100 - report.n_failed
    assert n_ok >= 95
    assert report.pulse_counts.max() <= 3 * m.n_full


def test_program_validation(p, m):
    xbar = build_crossbar(2, 2, p)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        program_write_verify(xbar, np.ones((3, 2)), m, tol_g=1e-12, rng=rng)
    with pytest.raises(ValueError):
        program_write_verify(xbar, np.ones((2, 2)), m, tol_g=-1.0, rng=rng)


# --- analog matrix-vector product --------------------------------------------

def test_mvm_charge_is_linear(p):
    xbar = build_crossbar(4, 3, p, sigma_d2d=0.1, seed=2)
    x1 = np.array([0.2, 0.0, 0.7, 0.1])
    x2 = np.array([0.5, 0.3, 0.0, 0.9])
    y1 = mvm_charge(xbar, x1)
    y2 = mvm_charge(xbar, x2)
    y12 = mvm_charge(xbar, x1 + x2)
    np.testing.assert_allclose(y12, y1 + y2, rtol=1e-12)
    np.testing.assert_allclose(mvm_charge(xbar, 3.0 * x1), 3.0 * y1, rtol=1e-12)


_COEFFS = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 0.5),
       st.floats(200.0, 450.0),
       st.one_of(st.just(0.0), st.floats(0.01, 0.3), st.floats(-0.3, -0.01)),
       _COEFFS, _COEFFS, st.integers(0, 2**32 - 1))
def test_mvm_charge_is_linear_property(nr, nc, sigma, t, v_read, a, b, seed):
    """mvm_charge(a*x1 + b*x2) = a*mvm_charge(x1) + b*mvm_charge(x2) for
    random shapes, variation, temperature and read bias. Inputs and
    coefficients are non-negative, so no column sum cancels, and read
    biases and coefficients stay clear of subnormal charges, so rtol
    holds."""
    rng = np.random.default_rng(seed)
    xbar = build_crossbar(nr, nc, default_params(), sigma_d2d=sigma,
                          seed=seed, t_kelvin=t
                          ).with_weights(rng.uniform(0, 1, (nr, nc)))
    x1, x2 = rng.uniform(0.0, 1.0, (2, nr))
    np.testing.assert_allclose(
        mvm_charge(xbar, a * x1 + b * x2, v_read),
        a * mvm_charge(xbar, x1, v_read) + b * mvm_charge(xbar, x2, v_read),
        rtol=1e-12, atol=0.0)


def test_mvm_charge_zero_input(p):
    xbar = build_crossbar(2, 2, p)
    np.testing.assert_array_equal(mvm_charge(xbar, np.zeros(2)), np.zeros(2))


def test_common_d2d_factor_cancels_in_calibrated_decode(p):
    """A common log-offset on every device multiplies all charges by one
    factor, which the calibrated decoder gain absorbs exactly."""
    w = np.array([[0.6, -0.4], [0.1, 0.8]])
    wm = map_weights(w, 11, p)

    def decoded_product(d2d):
        rows, cols = w.shape

        def array(w_cells):
            return Crossbar(w=w_cells, d2d_log10=np.full((rows, cols), d2d),
                            params=p)

        pos, neg = array(wm.w_pos), array(wm.w_neg)
        x = np.array([0.3, 0.9])
        q = mvm_charge(pos, x) - mvm_charge(neg, x)
        ones = np.ones(rows)
        q_ones = mvm_charge(pos, ones) - mvm_charge(neg, ones)
        y_ones = ones @ w
        alpha = float(q_ones @ y_ones) / float(q_ones @ q_ones)
        return alpha * q

    np.testing.assert_allclose(decoded_product(0.25), decoded_product(0.0),
                               rtol=1e-9)


def test_mvm_error_mc_ideal_noiseless_is_quantization_only(p, m):
    w = np.array([[0.5, -0.25], [0.75, 0.0]])
    x = np.array([0.4, 0.6])
    stats = mvm_error_mc(w, x_inputs=x, n_levels=11,
                         sigma_d2d=0.0, n_trials=3, seed=0,
                         programming="ideal", decoder="exact")
    # all trials identical without randomness in the pipeline
    assert stats.rel_errors.std() < 1e-14
    # the exact-decoder pipeline reproduces the quantized float product
    wq = map_weights(w, 11, p).decoded()
    y, yq = x @ w, x @ wq
    expect = np.linalg.norm(yq - y) / np.linalg.norm(y)
    assert stats.median == pytest.approx(expect, abs=1e-12)


def test_mvm_error_mc_grows_with_variation(p):
    w = np.array([[0.5, -0.25], [0.75, 0.0]])
    meds = [mvm_error_mc(w, n_levels=11, sigma_d2d=s, n_trials=12, seed=11,
                         programming="ideal").median
            for s in (0.0, 0.1)]
    assert meds[1] > meds[0]


def test_mvm_error_mc_validation():
    w = np.array([[0.5]])
    with pytest.raises(ValueError):
        mvm_error_mc(w, programming="psychic")
    with pytest.raises(ValueError):
        mvm_error_mc(w, decoder="none")
    with pytest.raises(ValueError):
        mvm_error_mc(w, n_trials=0)


def test_mvm_error_mc_reproducible(p):
    w = np.array([[0.5, -0.5]])
    a = mvm_error_mc(w, n_levels=5, sigma_d2d=0.05, n_trials=4, seed=42,
                     programming="ideal")
    b = mvm_error_mc(w, n_levels=5, sigma_d2d=0.05, n_trials=4, seed=42,
                     programming="ideal")
    np.testing.assert_array_equal(a.rel_errors, b.rel_errors)


# --- Bit-identity guard: float-level paths against the per-pulse reference ---
#
# The references are oracle.py's per-pulse law and per-cell write-verify
# and one mvm_read per one-hot row. The new paths must reproduce them bit
# for bit, generator draws included: both planes of an mvm_error_mc trial
# program from one generator.

def _reference_mvm_charge(xbar, x, v_read=V_READ_MVM):
    x = np.asarray(x, dtype=float)
    if x.shape != (xbar.n_rows,):
        raise ValueError("x shape")
    q = np.zeros(xbar.n_cols)
    for r in range(xbar.n_rows):
        one_hot = np.zeros(xbar.n_rows)
        one_hot[r] = v_read
        q += x[r] * mvm_read(xbar, one_hot)
    return q


_GUARD = settings(max_examples=150, deadline=None, derandomize=True,
                  database=None)


@st.composite
def _program_cases(draw):
    """A random array with device variation and cells at either rail,
    targets inside and beyond the conductance range, and a random update
    model, verify bias, temperature and pulse cap. An onset past a write
    amplitude (v_on_pot = -2.0 or v_on_dep = 3.0) puts that polarity's
    pulses below their onset, so every early exit of the trim is drawn: a
    pulse below its onset and a pulse that leaves a cell at its rail."""
    nr = draw(st.integers(1, 10))
    nc = draw(st.integers(1, 10))
    sigma = draw(st.floats(0.0, 0.5))
    seed = draw(st.integers(0, 2**32 - 1))
    c2c = draw(st.sampled_from([0.0, 0.1, 0.3]))
    n_full = draw(st.sampled_from([10, 25, 50]))
    v_on_pot = draw(st.sampled_from([-0.6, -0.6, -2.0]))
    v_on_dep = draw(st.sampled_from([0.8, 0.8, 3.0]))
    max_pulses = draw(st.one_of(st.none(), st.integers(0, 12)))
    v_read = draw(st.sampled_from([0.3, 0.3, 0.1, -0.25]))
    t = draw(st.sampled_from([300.0, 300.0, 250.0, 340.0]))
    rng = np.random.default_rng(seed)
    p = default_params()
    m = replace(default_update_model(n_full=n_full, c2c_rel=c2c),
                v_on_pot=v_on_pot, v_on_dep=v_on_dep)
    xbar = build_crossbar(nr, nc, p, sigma_d2d=sigma, seed=seed, t_kelvin=t)
    xbar = xbar.with_weights([[float(rng.choice([0.0, 1.0, rng.uniform()],
                                                p=[0.15, 0.15, 0.7]))
                               for c in range(nc)] for r in range(nr)])
    g_lo = state_conductance(p, 0.0, v_read=v_read, t=t)
    g_hi = state_conductance(p, 1.0, v_read=v_read, t=t)
    targets = g_lo + rng.uniform(-0.2, 1.2, (nr, nc)) * (g_hi - g_lo)
    tol = float(rng.uniform(0.005, 0.1)) * (g_hi - g_lo)
    return xbar, targets, m, tol, v_read, max_pulses, seed


def _traced_program(case):
    """oracle.program on a case, with each cell's pulses as (direction,
    moved) pairs, -1 for potentiation and +1 for depression, and its
    report. A read that follows no moving pulse starts the next cell."""
    xbar, targets, m, tol, v_read, max_pulses, seed = case
    cells, after_move = [], [False]
    law, kernel = oracle.pulse_law, oracle.current_total

    def pulse(s, spec, m, rng=None, kind="amplitude_ramp"):
        after = law(s, spec, m, rng=rng, kind=kind)
        cells[-1].append((-1 if spec.v_write < 0 else 1, after.w != s.w))
        after_move[0] = after.w != s.w
        return after

    def read(*args):
        if not after_move[0]:
            cells.append([])
        after_move[0] = False
        return kernel(*args)

    with mock.patch.object(oracle, "pulse_law", pulse), \
            mock.patch.object(oracle, "current_total", read):
        _, report = program(xbar, targets, m, tol,
                            np.random.default_rng(seed + 1), v_read=v_read,
                            max_pulses=max_pulses)
    return cells, report


def _trim_case(w, targets, tol, c2c=0.0, max_pulses=None, seed=0):
    """A hand-built case of the property below: one row of pristine-offset
    cells at states w, their targets and tol in siemens at V_VERIFY."""
    return (build_crossbar(1, len(w), _P).with_weights([w]),
            np.array([targets], dtype=float), default_update_model(c2c_rel=c2c),
            tol, V_VERIFY, max_pulses, seed)


def _edge_case(w, k):
    """A noiseless cell that reads exactly tol_g from its target after k
    pulses: g_k, the oracle's reading after k pulses from w toward the far
    rail, is tol_g, and the target is 2 g_k below it (potentiation) or 0
    above it (depression). Both differences are exact, so the trim stops
    there."""
    far = [[2 * _G_HI if w == 0.0 else 0.0]]
    xbar, _ = program(build_crossbar(1, 1, _P).with_weights([[w]]), far,
                      default_update_model(c2c_rel=0.0), 1e-30, None,
                      max_pulses=k)
    g_k = current_total(V_VERIFY, 300.0, _P, xbar.state(0, 0)) / V_VERIFY
    return _trim_case([w], [2 * g_k if w == 0.0 else 0.0], g_k)


_P = default_params()
_G_LO, _G_HI = (float(state_conductance(_P, w, v_read=V_VERIFY))
                for w in (0.0, 1.0))
_SPAN = _G_HI - _G_LO
# the trim's hand-built cases: a noiseless cell that reverses
# direction again and again; the pulse cap landing mid-run, in a
# potentiation run and in a depression run; a cell that ends pinned at its
# rail after a drawn pulse that is not counted, between cells that reverse,
# on one noise stream; and a reading exactly tol_g from the target, in
# each direction
_TRIM_CASES = {
    "reversals": _trim_case([0.0], [_G_LO + 0.5 * _SPAN], 1e-3 * _SPAN),
    "cap_mid_run": _trim_case([0.0, 1.0], [_G_LO + 0.9 * _SPAN,
                                           _G_LO + 0.1 * _SPAN],
                              1e-3 * _SPAN, c2c=0.1, max_pulses=5),
    "pinned": _trim_case([0.45, 0.6, 0.5],
                         [_G_LO + 0.3 * _SPAN, 1.5 * _G_HI,
                          _G_LO + 0.55 * _SPAN], 2e-3 * _SPAN, c2c=0.1),
    "edge_pot": _edge_case(0.0, 3),
    "edge_dep": _edge_case(1.0, 3),
}


def test_trim_cases_take_their_paths():
    """Each hand-built case drives the trim down the path it is named for,
    in the per-pulse reference."""
    cells, _ = _traced_program(_TRIM_CASES["reversals"])
    [pulses] = cells
    turns = sum(a[0] != b[0] for a, b in zip(pulses, pulses[1:]))
    assert turns >= 2

    cells, report = _traced_program(_TRIM_CASES["cap_mid_run"])
    assert [[d for d, _ in pulses] for pulses in cells] == [[-1] * 5, [1] * 5]
    assert report.pulse_counts.tolist() == [[5, 5]] and report.n_failed == 2

    cells, report = _traced_program(_TRIM_CASES["pinned"])
    first, pinned, last = cells
    assert any(a[0] != b[0] for a, b in zip(first, first[1:]))
    assert pinned[-1] == (-1, False) and all(moved for _, moved in pinned[:-1])
    assert report.pulse_counts[0, 1] == len(pinned) - 1 and last

    for name, direction in (("edge_pot", -1), ("edge_dep", 1)):
        cells, report = _traced_program(_TRIM_CASES[name])
        assert cells == [[(direction, True)] * 3]
        assert report.residual_g[0, 0] == _TRIM_CASES[name][3]  # tol_g


@_GUARD
@given(_program_cases())
@example(_TRIM_CASES["reversals"])
@example(_TRIM_CASES["cap_mid_run"])
@example(_TRIM_CASES["pinned"])
@example(_TRIM_CASES["edge_pot"])
@example(_TRIM_CASES["edge_dep"])
def test_program_write_verify_bit_identical_to_per_pulse_reference(case):
    xbar, targets, m, tol, v_read, max_pulses, seed = case
    rng_new = np.random.default_rng(seed + 1)
    rng_ref = np.random.default_rng(seed + 1)
    new = program_write_verify(xbar, targets, m, tol, rng_new,
                               v_read=v_read, max_pulses=max_pulses)
    ref = program(xbar, targets, m, tol, rng_ref, v_read=v_read,
                  max_pulses=max_pulses)
    assert programming_bits(new, rng_new) == programming_bits(ref, rng_ref)


@pytest.mark.parametrize("seed", range(10))
def test_program_write_verify_equals_reference_on_benchmark_planes(p, m, seed):
    """Twenty benchmark-shaped planes (ten trials of two) trim to the
    per-pulse reference's bits, the shared generator included."""
    planes, tol, s_prog = benchmark_planes(seed, p)
    rng_new, rng_ref = np.random.default_rng(s_prog), np.random.default_rng(s_prog)
    for xbar, targets in planes:
        new = program_write_verify(xbar, targets, m, tol, rng_new)
        ref = program(xbar, targets, m, tol, rng_ref)
        assert programming_bits(new, rng_new) == programming_bits(ref, rng_ref)
        assert new[1].pulses_total > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_program_rejects_non_finite_targets_before_any_draw(p, m, bad):
    """A non-finite target raises at entry: no cell is trimmed and the
    generator is not drawn, though the first cell is far from its target."""
    xbar = build_crossbar(2, 2, p)
    g_hi = state_conductance(p, 1.0, v_read=V_VERIFY)
    targets = np.array([[g_hi, g_hi], [g_hi, bad]])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="targets must be finite"):
        program_write_verify(xbar, targets, m, 1e-12, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("d2d", [[[-400.0]], [[0.0, -400.0]]],
                         ids=["lone-cell", "second-cell"])
def test_program_names_an_offset_past_float_range(p, m, d2d):
    """An offset past float range anywhere in the array raises
    state_multiplier's named OverflowError before any draw, though the
    noisy trim of a cell before it would draw."""
    shape = np.shape(d2d)
    xbar = Crossbar(w=np.full(shape, 0.5), d2d_log10=d2d, params=p)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(OverflowError) as kernel:
        state_multiplier(p, 0.5, -400.0)
    with pytest.raises(OverflowError) as trim:
        program_write_verify(xbar, np.ones(shape), replace(m, c2c_rel=0.1),
                             1e-9, rng)
    assert str(trim.value) == str(kernel.value)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("bad", [-1, 2.0, 3.5, True, "3"])
def test_program_rejects_a_bad_pulse_cap_before_any_draw(p, m, bad):
    xbar = build_crossbar(1, 2, p)
    g_hi = state_conductance(p, 1.0, v_read=V_VERIFY)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="max_pulses must be a non-negative "
                       "integer"):
        program_write_verify(xbar, np.full((1, 2), g_hi), m, 1e-12, rng,
                             max_pulses=bad)
    assert rng.bit_generator.state == before


def test_program_takes_a_numpy_integer_pulse_cap(p, m):
    xbar = build_crossbar(1, 2, p)
    g_hi = state_conductance(p, 1.0, v_read=V_VERIFY)
    results = [program_write_verify(xbar, np.full((1, 2), g_hi), m, 1e-12,
                                    np.random.default_rng(0), max_pulses=cap)
               for cap in (3, np.int64(3))]
    (x_int, r_int), (x_np, r_np) = results
    assert x_int == x_np
    assert r_int.pulse_counts.tolist() == r_np.pulse_counts.tolist() == [[3, 3]]


@_GUARD
@given(st.floats(0.0, 1.0), st.floats(-3.5, 3.5),
       st.sampled_from(SCHEME_KINDS), st.sampled_from([0.0, 0.1, 0.5]),
       st.integers(0, 2**32 - 1))
def test_apply_pulse_bit_identical_to_reference(w, v, kind, c2c, seed):
    s = DeviceState(w=w, d2d_log10=0.1)
    m = default_update_model(c2c_rel=c2c)
    pulse = PulseSpec(v, 50e-6)
    rng_new, rng_ref = (np.random.default_rng(seed) for _ in range(2))
    assert apply_pulse(s, pulse, m, rng_new, kind) \
        == pulse_law(s, pulse, m, rng_ref, kind)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_program_noise_without_generator_raises_at_first_pulse(p, m):
    xbar = build_crossbar(1, 2, p)
    g_lo = state_conductance(p, 0.0, v_read=V_VERIFY)
    g_hi = state_conductance(p, 1.0, v_read=V_VERIFY)
    tol = 0.01 * (g_hi - g_lo)
    # on target already: no pulse is needed, so no generator is either
    _, report = program_write_verify(xbar, np.full((1, 2), g_lo), m, tol,
                                     rng=None)
    assert report.pulses_total == 0
    with pytest.raises(ValueError, match="explicit generator"):
        program_write_verify(xbar, np.full((1, 2), g_hi), m, tol, rng=None)


def test_program_rejects_bad_verify_read(p, m):
    xbar = build_crossbar(1, 1, p)
    rng = np.random.default_rng(0)
    for kwargs in ({"v_read": 0.0}, {"v_read": math.nan}):
        with pytest.raises(ValueError):
            program_write_verify(xbar, np.ones((1, 1)), m, 1e-9, rng, **kwargs)


@_GUARD
@given(st.integers(1, 10), st.integers(1, 10), st.floats(0.0, 0.5),
       st.integers(0, 2**32 - 1), st.floats(-0.3, 0.3),
       st.sampled_from([300.0, 250.0, 340.0]))
def test_mvm_charge_bit_identical_to_one_hot_reference(nr, nc, sigma, seed,
                                                       v_read, t):
    rng = np.random.default_rng(seed)
    xbar = build_crossbar(nr, nc, default_params(), sigma_d2d=sigma,
                          seed=seed, t_kelvin=t
                          ).with_weights(rng.uniform(0, 1, (nr, nc)))
    x = rng.uniform(-1.0, 1.0, nr)
    x[::3] = 0.0
    assert np.array_equal(mvm_charge(xbar, x, v_read),
                          _reference_mvm_charge(xbar, x, v_read))


def test_mvm_charge_keeps_the_read_checks(p):
    xbar = build_crossbar(2, 3, p)
    x = np.ones(2)
    cases = [((np.ones(3),), "shape"), ((x, 0.31), "read inputs"),
             ((x, math.nan), "non-finite")]
    for args, fragment in cases:
        with pytest.raises(ValueError, match=fragment):
            mvm_charge(xbar, *args)
        with pytest.raises(ValueError, match=fragment):
            _reference_mvm_charge(xbar, *args)


def test_mvm_error_mc_reports_programming(p):
    """Per-trial pulse and failed-cell counts are the two planes' reports,
    and ideal programming reports zeros."""
    w = np.array([[0.5, -0.25, 1.0], [0.75, 0.0, -1.0]])
    x = np.array([0.4, 0.6])
    sigma, seed, n_trials = 0.3, 5, 3
    stats = mvm_error_mc(w, x_inputs=x, sigma_d2d=sigma, n_trials=n_trials,
                         seed=seed)
    mapping = map_weights(w, 11, p)
    gv_min = float(state_conductance(p, 0.0, V_VERIFY))
    gv_max = float(state_conductance(p, 1.0, V_VERIFY))
    tol = VERIFY_TOL_FRACTION * mapping.level_spacing * (gv_max - gv_min)
    m = default_update_model()
    for trial, child in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        s_pos, s_neg, s_prog, _ = child.spawn(4)
        rng = np.random.default_rng(s_prog)
        pulses = failed = 0
        for s_plane, u in ((s_pos, mapping.u_pos), (s_neg, mapping.u_neg)):
            xbar = build_crossbar(2, 3, p, sigma, s_plane)
            _, report = program_write_verify(
                xbar, gv_min + u * (gv_max - gv_min), m, tol, rng)
            pulses += report.pulses_total
            failed += report.n_failed
        assert stats.pulses[trial] == pulses
        assert stats.failed_cells[trial] == failed
    assert stats.pulses.dtype.kind == stats.failed_cells.dtype.kind == "i"
    assert stats.failed_cells.sum() > 0  # sigma 0.3 pushes targets past rails
    ideal = mvm_error_mc(w, x_inputs=x, sigma_d2d=sigma, n_trials=n_trials,
                         seed=seed, programming="ideal")
    assert np.array_equal(ideal.pulses, np.zeros(n_trials, dtype=int))
    assert np.array_equal(ideal.failed_cells, np.zeros(n_trials, dtype=int))


def _reference_mvm_error_mc(w, x_inputs, sigma_d2d, n_trials, seed,
                            programming, decoder, p, m, v_read, v_verify, t):
    """mvm_error_mc on the public per-plane API: per trial two
    build_crossbar calls, two program_write_verify calls on one generator,
    and mvm_charge reads, two per plane with the calibrated decoder and one
    with the exact one; then np.median and np.percentile. Returns
    (rel_errors, pulses, failed_cells, median, ci_low, ci_high)."""
    mapping = map_weights(w, 11, p, v_read=v_read, t=t)
    gv_min = float(state_conductance(p, 0.0, v_verify, t))
    gv_max = float(state_conductance(p, 1.0, v_verify, t))
    tol = VERIFY_TOL_FRACTION * mapping.level_spacing * (gv_max - gv_min)
    n_rows, n_cols = w.shape
    errors, pulses, failed = [], [], []
    for child in np.random.SeedSequence(seed).spawn(n_trials):
        s_pos, s_neg, s_prog, s_x = child.spawn(4)
        pos = build_crossbar(n_rows, n_cols, p, sigma_d2d, s_pos, t_kelvin=t)
        neg = build_crossbar(n_rows, n_cols, p, sigma_d2d, s_neg, t_kelvin=t)
        if programming == "ideal":
            pos, neg = pos.with_weights(mapping.w_pos), neg.with_weights(mapping.w_neg)
            pulses.append(0)
            failed.append(0)
        else:
            rng = np.random.default_rng(s_prog)
            pos, rep_pos = program_write_verify(
                pos, gv_min + mapping.u_pos * (gv_max - gv_min), m, tol, rng,
                v_read=v_verify)
            neg, rep_neg = program_write_verify(
                neg, gv_min + mapping.u_neg * (gv_max - gv_min), m, tol, rng,
                v_read=v_verify)
            pulses.append(rep_pos.pulses_total + rep_neg.pulses_total)
            failed.append(rep_pos.n_failed + rep_neg.n_failed)
        if decoder == "exact":
            alpha = 1.0 / (v_read * (mapping.g_max - mapping.g_min))
        else:
            ones = np.ones(n_rows)
            q_ones = mvm_charge(pos, ones, v_read) - mvm_charge(neg, ones, v_read)
            denom = float(np.dot(q_ones, q_ones))
            alpha = 0.0 if denom == 0.0 else float(np.dot(ones @ w, q_ones)) / denom
        x = (x_inputs if x_inputs is not None
             else np.random.default_rng(s_x).uniform(0.0, 1.0, n_rows))
        y_true = x @ w
        q = mvm_charge(pos, x, v_read) - mvm_charge(neg, x, v_read)
        errors.append(float(np.linalg.norm(alpha * q - y_true))
                      / float(np.linalg.norm(y_true)))
    lo, hi = np.percentile(errors, [2.5, 97.5])
    return (errors, pulses, failed, float(np.median(errors)), float(lo),
            float(hi))


def _assert_equals_reference(stats, expect):
    """Every field of an MvmErrorStats against the reference's, floats by
    float.hex."""
    errors, pulses, failed, median, lo, hi = expect
    assert hexes(stats.rel_errors) == [e.hex() for e in errors]
    assert stats.pulses.tolist() == pulses
    assert stats.failed_cells.tolist() == failed
    assert [stats.median.hex(), stats.ci_low.hex(), stats.ci_high.hex()] == [
        median.hex(), lo.hex(), hi.hex()]


@pytest.mark.parametrize("decoder", ["calibrated", "exact"])
@pytest.mark.parametrize("programming", ["write_verify", "ideal"])
@pytest.mark.parametrize("seed, v_read, t, fixed_x", [
    (0, 0.1, 300.0, False), (7, -0.25, 330.0, True), (2**40 + 3, 0.3, 280.0, False)])
def test_mvm_error_mc_equals_reference_on_mvm_charge(p, m, decoder, programming,
                                                     seed, v_read, t, fixed_x):
    """One stacked pass per trial (offsets, trim, read and charges) gives
    the bits of the per-plane builds, programs and mvm_charge reads it
    replaces, in every field."""
    w = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 4))
    x = np.array([0.2, 0.9, 0.5]) if fixed_x else None
    stats = mvm_error_mc(w, x_inputs=x, sigma_d2d=0.1, n_trials=3, seed=seed,
                         programming=programming, decoder=decoder, p=p, m=m,
                         v_read=v_read, t=t)
    _assert_equals_reference(stats, _reference_mvm_error_mc(
        w, x, 0.1, 3, seed, programming, decoder, p, m, v_read, V_VERIFY, t))


@pytest.mark.parametrize("decoder", ["calibrated", "exact"])
@pytest.mark.parametrize("programming", ["write_verify", "ideal"])
@pytest.mark.parametrize("seed, shape, sigma, n_trials, fixed_x", [
    (3, (3, 4), 0.1, 1, False), (11, (8, 8), 0.1, 1, True),
    (5, (5, 5), 0.1, 3, False), (9, (3, 4), 0.0, 3, True)],
    ids=["one_trial", "benchmark_8x8", "5x5", "sigma_0"])
def test_mvm_error_mc_equals_reference_across_shapes(
        p, m, decoder, programming, seed, shape, sigma, n_trials, fixed_x):
    """The reference comparison with one trial (no percentile pass), on a
    benchmark-shaped 8x8 pair, without variation, and on both sides of the
    mirror's vector cut-over: a 3x4 pair draws 24 offsets in one pass, a
    5x5 pair 50."""
    assert 2 * 3 * 4 < device._VECTOR_MIN_N <= 2 * 5 * 5
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, shape)
    x = rng.uniform(0.0, 1.0, shape[0]) if fixed_x else None
    stats = mvm_error_mc(w, x_inputs=x, sigma_d2d=sigma, n_trials=n_trials,
                         seed=seed, programming=programming, decoder=decoder,
                         p=p, m=m)
    _assert_equals_reference(stats, _reference_mvm_error_mc(
        w, x, sigma, n_trials, seed, programming, decoder, p, m, V_READ_MVM,
        V_VERIFY, 300.0))


def test_mvm_error_mc_trial_is_one_mirror_pass_and_no_crossbar():
    """Each trial draws both planes' offsets in one mirror pass (one
    _d2d_offsets call, one seed-word pass over both seeds) and builds no
    Crossbar."""
    offsets, parents, passes = [], [], []
    real_offsets, real_child_words = device._d2d_offsets, device._child_words

    def count(calls, fn):
        return lambda *args: calls.append(args) or fn(*args)

    def child_words(seeds):
        parents.append(seeds)
        return count(passes, real_child_words(seeds))
    w = np.random.default_rng(1).uniform(-1.0, 1.0, (8, 8))
    with mock.patch("ftjsim.inference._d2d_offsets",
                    count(offsets, real_offsets)), \
            mock.patch("ftjsim.device._child_words", child_words), \
            mock.patch.object(Crossbar, "__post_init__",
                              side_effect=AssertionError("Crossbar built")):
        for programming in ("write_verify", "ideal"):
            mvm_error_mc(w, sigma_d2d=0.1, n_trials=3, seed=4,
                         programming=programming)
    assert len(offsets) == len(parents) == len(passes) == 6
    assert [len(args[1]) for args in offsets] == [2] * 6  # (s_pos, s_neg)
    assert [len(seeds) for seeds in parents] == [2] * 6
    assert passes == [(0, 64)] * 6


@pytest.mark.parametrize("programming", ["write_verify", "ideal"])
@pytest.mark.parametrize("sigma, error, fragment", [
    (1e3, OverflowError, r"d2d_log10 = -\d.* is outside float range"),
    (1e308, ValueError, "d2d_log10 must be finite")])
def test_mvm_error_mc_keeps_the_offset_checks(p, m, programming, sigma, error,
                                              fragment):
    """An offset past float range raises the OverflowError that names it,
    and a non-finite one the Crossbar's ValueError, with the per-plane
    reference's message."""
    w = np.random.default_rng(2).uniform(-1.0, 1.0, (3, 4))
    with pytest.raises(error, match=fragment) as got:
        mvm_error_mc(w, sigma_d2d=sigma, n_trials=2, seed=2,
                     programming=programming, p=p, m=m)
    with pytest.raises(error) as expect:
        _reference_mvm_error_mc(w, None, sigma, 2, 2, programming,
                                "calibrated", p, m, V_READ_MVM, V_VERIFY,
                                300.0)
    assert str(got.value) == str(expect.value)


def test_mvm_error_mc_takes_numpy_integer_trials():
    w = np.array([[0.5, -0.25], [0.75, 0.0]])
    a = mvm_error_mc(w, sigma_d2d=0.1, n_trials=np.int64(2), seed=3)
    b = mvm_error_mc(w, sigma_d2d=0.1, n_trials=2, seed=3)
    assert hexes(a.rel_errors) == hexes(b.rel_errors)


# mvm_error_mc(w, sigma_d2d=0.1, n_trials=3, seed=seed) with write-verify
# programming and the calibrated decoder, w = default_rng(seed).uniform(-1,
# 1, (8, 8)): per-trial relative errors by float.hex, pulses and failed
# cells, as the per-pulse trim gave them. Any bit drift in programming
# moves these.
_PINNED_MVM_MC = {
    0: (["0x1.0e0d94891bcd5p-3", "0x1.bcc7bac82d41ap-4", "0x1.2c6a183077dfep-4"],
        [1193, 1296, 1178], [13, 17, 13]),
    1: (["0x1.1a3a28ac44377p-4", "0x1.35e3c3480cacdp-4", "0x1.4e9c39f82d2c0p-4"],
        [1039, 1150, 1126], [14, 21, 19]),
    2: (["0x1.9d35781af2249p-4", "0x1.c29ea22b61335p-4", "0x1.a0b17e20dfc29p-4"],
        [978, 1050, 1068], [16, 18, 13]),
}


@pytest.mark.parametrize("seed", sorted(_PINNED_MVM_MC))
def test_mvm_error_mc_write_verify_pinned(seed):
    w = np.random.default_rng(seed).uniform(-1.0, 1.0, (8, 8))
    stats = mvm_error_mc(w, sigma_d2d=0.1, n_trials=3, seed=seed,
                         programming="write_verify", decoder="calibrated")
    assert (hexes(stats.rel_errors), stats.pulses.tolist(),
            stats.failed_cells.tolist()) == _PINNED_MVM_MC[seed]


@pytest.mark.parametrize("kwargs, fragment", [
    pytest.param({"v_read": 0.31}, "read inputs", id="0.31-read inputs"),
    pytest.param({"v_read": -0.5}, "read inputs", id="-0.5-read inputs"),
    pytest.param({"v_read": math.nan}, "non-finite", id="nan-non-finite"),
    pytest.param({"n_trials": 2.5}, "n_trials", id="n_trials-float"),
    pytest.param({"n_trials": True}, "n_trials", id="n_trials-bool"),
    pytest.param({"n_trials": np.float64(2.0)}, "n_trials",
                 id="n_trials-numpy-float"),
    pytest.param({"n_trials": 0}, "n_trials", id="n_trials-zero"),
    pytest.param({"sigma_d2d": -0.1}, "sigma_d2d", id="sigma-negative"),
    pytest.param({"sigma_d2d": math.nan}, "sigma_d2d", id="sigma-nan"),
    pytest.param({"sigma_d2d": math.inf}, "sigma_d2d", id="sigma-inf")])
def test_mvm_error_mc_checks_the_read_before_any_draw(kwargs, fragment):
    """A bad read bias, trial count or sigma_d2d raises before any offset
    is drawn, any pulse is applied or any seed sequence or generator is
    made."""
    def forbidden(*args, **kwargs):
        raise AssertionError("called before the inputs were checked")
    with mock.patch("ftjsim.inference._d2d_offsets", forbidden), \
            mock.patch("ftjsim.inference._trim", forbidden), \
            mock.patch("numpy.random.default_rng", forbidden), \
            mock.patch("numpy.random.SeedSequence", forbidden):
        with pytest.raises(ValueError, match=fragment):
            mvm_error_mc(np.array([[0.5, -0.5]]), **kwargs)
