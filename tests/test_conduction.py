"""Static conduction model: channel formulas, symmetry, calibration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ftjsim import conduction
from ftjsim.conduction import (
    _figures_of_merit,
    _selection_of_eps,
    CalibrationError,
    CalibrationTargets,
    ConductionParams,
    T_REF,
    TunnelBarrier,
    V_CROSSOVER,
    V_ONOFF,
    V_READ,
    V_SELECT,
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
from ftjsim.device import DeviceState
from oracle import hexes, multiplier

LRS = DeviceState(w=1.0)
HRS = DeviceState(w=0.0)

# Calibrated parameters for the default targets (100 MOhm, 10, 42),
# frozen as a regression anchor. The defining equations themselves are
# asserted separately below.
EPS_R_DEFAULT = 7.3721130372013555
C_PF_DEFAULT = 2.2005317125589748e-11
C_OHM_DEFAULT = 1.678404660633971e-12


def test_odd_symmetry():
    p = default_params()
    v = np.array([0.01, 0.1, 0.3, 0.5, 1.6])
    for s in (LRS, HRS):
        np.testing.assert_allclose(current_total(-v, T_REF, p, s),
                                   -current_total(v, T_REF, p, s), rtol=1e-15)
    v_tun = np.array([0.01, 0.1, 0.3, 0.5])  # sub-barrier regime only
    np.testing.assert_allclose(current_tunneling(-v_tun, p),
                               -current_tunneling(v_tun, p), rtol=1e-15)
    with pytest.raises(ValueError):
        current_tunneling(1.6, p)


@st.composite
def _valid_params(draw):
    """ConductionParams across the ranges the constructor accepts, kept
    where the trap-emission exponent stays inside float range."""
    return ConductionParams(
        d_fe=draw(st.floats(1e-9, 2e-8)),
        area=draw(st.floats(1e-14, 1e-6)),
        phi_pf=draw(st.floats(0.01, 2.9)),
        eps_r=draw(st.floats(1.0, 100.0)),
        ea_ohm=draw(st.floats(0.0, 1.0)),
        c_pf=draw(st.one_of(st.just(0.0), st.floats(1e-15, 1e3))),
        c_ohm=draw(st.floats(1e-15, 1e3)),
        g_lrs=draw(st.floats(1.0, 100.0)),
    )


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
_BIASES = st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8).map(np.array)


@_PROPERTY
@given(_valid_params(), _BIASES, st.floats(200.0, 450.0), st.floats(1e-3, 1e3))
def test_odd_symmetry_over_params(p, v, t, g):
    """I(-v) = -I(v) exactly, on arrays and on scalars."""
    np.testing.assert_array_equal(current_total_g(-v, t, p, g),
                                  -current_total_g(v, t, p, g))
    for x in v.tolist():
        assert current_total_g(-x, t, p, g) == -current_total_g(x, t, p, g)


@_PROPERTY
@given(_valid_params(), _BIASES, st.floats(200.0, 450.0), st.floats(1e-3, 1e3))
def test_differential_conductance_positive_and_even_over_params(p, v, t, g):
    v = np.concatenate([v, -v])
    dg = differential_conductance_g(v, t, p, g)
    assert np.all(np.isfinite(dg)) and np.all(dg > 0.0)
    np.testing.assert_array_equal(dg, differential_conductance_g(-v, t, p, g))


def test_zero_bias_zero_current():
    p = default_params()
    assert current_total(0.0, T_REF, p, LRS) == 0.0
    assert current_tunneling(0.0, p) == 0.0


def test_on_off_equals_g_lrs_everywhere():
    """The state multiplier is common to both channels, so the ON/OFF
    ratio must equal g_lrs independent of bias and temperature."""
    p = default_params()
    for t in (280.0, 300.0, 350.0, 400.0):
        for v in (0.05, 0.1, 0.3):
            ratio = (current_total(v, t, p, LRS)
                     / current_total(v, t, p, HRS))
            assert ratio == pytest.approx(p.g_lrs, rel=1e-12)
    assert on_off(p) == pytest.approx(10.0, rel=1e-12)


def test_state_multiplier():
    p = default_params()
    assert state_multiplier(p, 0.0) == 1.0
    assert state_multiplier(p, 1.0) == pytest.approx(p.g_lrs, rel=1e-15)
    # positive d2d offset raises resistance, i.e. lowers the multiplier
    assert state_multiplier(p, 1.0, d2d_log10=0.2) < state_multiplier(p, 1.0)
    assert state_multiplier(p, 0.5, 0.1) == pytest.approx(
        p.g_lrs ** 0.5 * 10.0 ** -0.1, rel=1e-15)


# --- Exactness guard: the broadcasting multiplier against float ** ---------

# (w shape, d2d_log10 shape) pairs that broadcast, scalars included
_BROADCAST_SHAPES = (((), ()), ((5,), ()), ((), (4,)), ((3, 1), (4,)),
                     ((2, 3), (2, 3)), ((4, 1), (1, 3)))
_W = st.one_of(st.sampled_from((0.0, 1.0, 5e-324)), st.floats(0.0, 1.0))
# finite shifts only; offsets near -308 overflow the product to inf
_D2D = st.one_of(st.sampled_from((0.0, -0.0, -308.2, -308.0, -307.5, 308.0)),
                 st.floats(-308.2, 308.0))


@st.composite
def _multiplier_cases(draw):
    w_shape, d_shape = draw(st.sampled_from(_BROADCAST_SHAPES))

    def grid(shape, elements):
        n = math.prod(shape)
        values = draw(st.lists(elements, min_size=n, max_size=n))
        return np.array(values).reshape(shape)

    g_lrs = draw(st.one_of(st.sampled_from((1.0, 10.0, 1e6)),
                           st.floats(1.0, 1e6)))
    return ConductionParams(g_lrs=g_lrs), grid(w_shape, _W), grid(d_shape, _D2D)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_multiplier_cases())
def test_state_multiplier_equals_float_arithmetic_bit_for_bit(case):
    """The broadcasting form equals g_lrs ** w * 10.0 ** (-d) in Python
    floats element by element, and scalar input gives a float."""
    p, w, d = case
    got = state_multiplier(p, w, d)
    ws, ds = np.broadcast_arrays(w, d)
    assert np.shape(got) == ws.shape
    pairs = list(zip(ws.ravel().tolist(), ds.ravel().tolist()))
    ref = hexes([multiplier(p, wi, di) for wi, di in pairs])
    assert hexes(np.ravel(got)) == ref
    scalar = [state_multiplier(p, wi, di) for wi, di in pairs]
    assert all(type(x) is float for x in scalar)
    assert hexes(scalar) == ref


def test_state_multiplier_names_the_first_offset_past_float_range():
    """An offset whose shift overflows raises float **'s overflow as a
    named OverflowError, the first such offset in flattened order,
    whatever errstate or warning filter the caller set."""
    p = default_params()
    d = np.array([[0.1, -400.0], [-500.0, 0.2]])
    message = ("d2d_log10 = -400.0 is outside float range: the state "
               "multiplier 10**(-d2d_log10) overflows")
    with pytest.raises(OverflowError):
        multiplier(p, 0.5, -400.0)
    cases = ((0.5, -400.0), (0.5, d), ([[0.0], [1.0]], d.ravel()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for errstate in ({}, {"over": "raise"}, {"all": "raise"}):
            for w, offsets in cases:
                with np.errstate(**errstate), \
                        pytest.raises(OverflowError) as err:
                    state_multiplier(p, w, offsets)
                assert str(err.value) == message
    # a finite shift whose product overflows gives inf, as float ** does
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert state_multiplier(p, [0.0, 1.0], -308.0).tolist() == [
            multiplier(p, 0.0, -308.0), math.inf]


def test_state_multiplier_array_overflow_is_named_under_warnings_as_errors():
    """Regression: array input once took numpy's np.power path, which
    returned inf with an overflow RuntimeWarning instead of raising."""
    p = default_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"d2d_log10 = -400\.0 is "
                           r"outside float range"):
            state_multiplier(p, np.array([0.5, 0.5]), np.array([0.1, -400.0]))


def test_list_and_tuple_inputs_equal_ndarray_inputs():
    """Lists and tuples are arrays to every public kernel: the result
    equals the ndarray input's by float.hex; scalars still give floats."""
    p = default_params()
    v = [0.05, -0.2, 0.3, 0.45]
    g = [1.0, 2.5, 10.0, 0.5]
    va, ga = np.array(v), np.array(g)

    def same(got, ref):
        assert isinstance(got, np.ndarray)
        assert hexes(np.ravel(got)) == hexes(np.ravel(ref))

    for seq in (list, tuple):
        for fn in (current_ohmic, current_pf, current_total_g,
                   differential_conductance_g):
            same(fn(seq(v), T_REF, p), fn(va, T_REF, p))
            same(fn(0.1, T_REF, p, seq(g)), fn(0.1, T_REF, p, ga))
            same(fn(seq(v), T_REF, p, seq(g)), fn(va, T_REF, p, ga))
        same(current_tunneling(seq(v), p), current_tunneling(va, p))
        same(current_total(seq(v), T_REF, p, LRS), current_total(va, T_REF, p, LRS))
        same(state_multiplier(p, seq([0.0, 0.5, 1.0]), seq([0.1, -0.2, 0.0])),
             state_multiplier(p, np.array([0.0, 0.5, 1.0]),
                              np.array([0.1, -0.2, 0.0])))
    for fn in (current_ohmic, current_pf, current_total_g,
               differential_conductance_g):
        assert type(fn(0.1, T_REF, p, 2.0)) is float
    assert type(current_tunneling(0.1, p)) is float
    assert type(state_multiplier(p, 0.5, 0.1)) is float


def test_current_monotone_in_bias():
    p = default_params()
    v = np.linspace(0.01, 2.0, 400)
    i = current_total(v, T_REF, p, LRS)
    assert np.all(np.diff(i) > 0)


def test_differential_conductance_matches_finite_difference():
    p = default_params()
    h = 1e-7
    for v in (0.05, 0.3, 0.8):
        num = (current_total(v + h, T_REF, p, LRS)
               - current_total(v - h, T_REF, p, LRS)) / (2 * h)
        assert differential_conductance(v, T_REF, p, LRS) == pytest.approx(
            num, rel=1e-6)


def test_array_and_scalar_inputs():
    p = default_params()
    v = np.array([0.1, 0.2, 0.3])
    out = current_total(v, T_REF, p, LRS)
    assert isinstance(out, np.ndarray) and out.shape == v.shape
    assert isinstance(current_total(0.3, T_REF, p, LRS), float)
    assert out[2] == current_total(0.3, T_REF, p, LRS)
    # g-level kernels broadcast bias against a multiplier grid and agree
    # bit for bit with the per-state scalar calls
    states = [DeviceState(w=w, d2d_log10=d) for w, d in
              [(0.0, 0.1), (0.37, -0.05), (1.0, 0.2)]]
    g = np.array([[state_multiplier(p, s.w, s.d2d_log10) for s in states]])
    vcol = np.array([[-0.3], [0.0], [0.45]])
    for grid_fn, scalar_fn in [(current_total_g, current_total),
                               (differential_conductance_g,
                                differential_conductance)]:
        grid = grid_fn(vcol, T_REF, p, g)
        assert grid.shape == (3, 3)
        assert np.array_equal(grid, [[scalar_fn(vr, T_REF, p, s) for s in states]
                                     for vr in vcol[:, 0]])
        assert isinstance(grid_fn(0.3, T_REF, p, g), np.ndarray)


def test_input_validation():
    p = default_params()
    with pytest.raises(ValueError):
        current_total(float("nan"), T_REF, p, LRS)
    with pytest.raises(ValueError):
        current_total(0.3, -5.0, p, LRS)
    with pytest.raises(ValueError):
        current_total(0.3, 0.0, p, LRS)


def test_params_validation():
    with pytest.raises(ValueError):
        ConductionParams(d_fe=0.0)
    with pytest.raises(ValueError):
        ConductionParams(phi_pf=5.0)
    with pytest.raises(ValueError):
        ConductionParams(eps_r=0.5)
    with pytest.raises(ValueError):
        ConductionParams(g_lrs=0.9)
    with pytest.raises(ValueError):
        TunnelBarrier(m_eff=0.0)


# --- calibration -------------------------------------------------------------

def test_default_calibration_hits_all_targets():
    p = default_params()
    r_on = V_READ / current_total(V_READ, T_REF, p, LRS)
    assert r_on == pytest.approx(1e8, rel=1e-9)
    assert on_off(p) == pytest.approx(10.0, rel=1e-9)
    assert self_selection_ratio(0.5, T_REF, p, LRS) == pytest.approx(
        42.0, rel=1e-9)
    # channels balanced at the crossover bias (the third constraint)
    assert current_pf(V_CROSSOVER, T_REF, p) == pytest.approx(
        current_ohmic(V_CROSSOVER, T_REF, p), rel=1e-9)


def test_default_calibration_frozen_values():
    p = default_params()
    assert p.eps_r == pytest.approx(EPS_R_DEFAULT, rel=1e-10)
    assert p.c_pf == pytest.approx(C_PF_DEFAULT, rel=1e-10)
    assert p.c_ohm == pytest.approx(C_OHM_DEFAULT, rel=1e-10)
    assert p.g_lrs == 10.0


@pytest.mark.parametrize("selection", [2.5, 10.0, 42.0, 150.0])
@pytest.mark.parametrize("t", [250.0, 300.0, 360.0])
def test_brentq_port_takes_scipy_steps(selection, t):
    """calibrate's root finder is a port of SciPy's brentq: on calibrate's
    own equation it must evaluate the same points and return the same
    bits, so calibrated parameters do not depend on which one ran."""
    from scipy.optimize import brentq

    from ftjsim.conduction import _brentq, _selection_of_eps

    def recording(points):
        def f(eps):
            points.append(eps)
            return _selection_of_eps(eps, t) - selection
        return f

    ours, theirs = [], []
    root = _brentq(recording(ours), 1.0, 1e4, xtol=1e-12, rtol=8.9e-16)
    assert root == brentq(recording(theirs), 1.0, 1e4, xtol=1e-12, rtol=8.9e-16)
    assert ours == theirs


def test_calibrate_selection_forty():
    p = calibrate(CalibrationTargets(r_on_ohms=1e8, on_off=10.0, selection=40.0))
    assert self_selection_ratio(0.5, T_REF, p, LRS) == pytest.approx(40.0, rel=0.01)
    assert V_READ / current_total(V_READ, T_REF, p, LRS) == pytest.approx(1e8, rel=0.01)
    assert on_off(p) == pytest.approx(10.0, rel=0.01)


def test_figures_of_merit_meet_the_calibration_targets():
    """The one figures helper gives (r_on at 0.3 V, on/off at 0.1 V,
    selection at 0.5 V) of the LRS, and calibrate matches them."""
    p = calibrate(CalibrationTargets(r_on_ohms=1e8, on_off=10.0, selection=40.0))
    figures = _figures_of_merit(p, T_REF)
    assert figures == (V_READ / current_total(V_READ, T_REF, p, LRS), on_off(p),
                       self_selection_ratio(0.5, T_REF, p, LRS))
    assert figures == pytest.approx((1e8, 10.0, 40.0), rel=0.01)


def _five_call_figures(p, t):
    """The figures of merit through five scalar current_total calls."""
    return (V_READ / current_total(V_READ, t, p, LRS),
            current_total(V_ONOFF, t, p, LRS) / current_total(V_ONOFF, t, p, HRS),
            current_total(V_SELECT, t, p, LRS)
            / current_total(0.5 * V_SELECT, t, p, LRS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(r_on=st.floats(1e3, 1e12), ratio=st.floats(1.0, 1e3),
       reach=st.floats(0.0, 1.0), t=st.floats(100.0, 600.0),
       area=st.floats(1e-14, 1e-6))
@example(r_on=1e8, ratio=10.0, reach=1.0, t=T_REF, area=1.44e-8)
@example(r_on=1e8, ratio=1.0, reach=0.0, t=T_REF, area=1.44e-8)
def test_figures_of_merit_equal_the_five_scalar_calls(r_on, ratio, reach, t,
                                                      area):
    """The one-call figures have the bits of the five scalar current_total
    calls they replace, for parameters calibrate returns at drawn targets
    and temperatures. reach places the selection target inside what
    eps_r in [1, 1e4] reaches at t; 0 is the pure-Ohmic limit of 2."""
    low, high = _selection_of_eps(1e4, t), _selection_of_eps(1.0, t)
    selection = min(low + reach * (high - low), high) if reach else 2.0
    targets = CalibrationTargets(r_on_ohms=r_on, on_off=ratio,
                                 selection=selection)
    p = calibrate(targets, ConductionParams(area=area), t=t)
    got = _figures_of_merit(p, t)
    assert hexes(got) == hexes(_five_call_figures(p, t))


def test_figures_of_merit_is_one_kernel_call(monkeypatch):
    """One state_multiplier and one current_total_g call give all five
    currents."""
    p = default_params()
    want = _five_call_figures(p, T_REF)
    calls = {"state_multiplier": 0, "current_total_g": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(conduction, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(conduction, name, counted)
    assert _figures_of_merit(p, T_REF) == want
    assert calls == {"state_multiplier": 1, "current_total_g": 1}


def test_thin_film_figures_overflow_and_calibrate_names_it(monkeypatch):
    """At d_fe = 0.001 nm the parameters calibrate post-checks take the
    trap-emission current past float range: the one-call figures raise
    FloatingPointError under over="raise", as the scalar calls do, so
    calibrate still raises its named CalibrationError."""
    skeleton = ConductionParams(d_fe=0.001 * 1e-9)
    checked = []

    def recording(p, t):
        checked.append((p, t))
        return _figures_of_merit(p, t)

    monkeypatch.setattr(conduction, "_figures_of_merit", recording)
    with pytest.raises(CalibrationError,
                       match="trap-emission current overflows"):
        calibrate(CalibrationTargets(), skeleton)
    (p, t), = checked
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _figures_of_merit(p, t)
        with pytest.raises(FloatingPointError):
            _five_call_figures(p, t)


def test_calibrate_pure_ohmic_limit():
    """selection == 2 is the linear-channel limit: calibration must drop
    the trap-emission channel entirely."""
    p = calibrate(CalibrationTargets(r_on_ohms=1e8, on_off=1.0, selection=2.0))
    assert p.c_pf == 0.0
    assert p.g_lrs == 1.0
    assert self_selection_ratio(0.5, T_REF, p, LRS) == pytest.approx(2.0, rel=1e-12)
    assert V_READ / current_total(V_READ, T_REF, p, LRS) == pytest.approx(1e8, rel=1e-9)


def test_calibrate_infeasible_selection():
    with pytest.raises(CalibrationError) as err:
        calibrate(CalibrationTargets(selection=1e6))
    assert len(err.value.residuals) == 3


@pytest.mark.parametrize("t, ea_ohm, fragment", [
    (0.001, 0.15, "t_kelvin = 0.001 K"),
    (7.0, 0.15, "t_kelvin = 7.0 K"),
    (1e300, 0.15, "t_kelvin = 1e+300 K"),
    (300.0, 50.0, "ea_ohm = 50.0 eV"),
    (300.0, 1000.0, "ea_ohm = 1000.0 eV"),
    (13.0, 1.0, "ea_ohm = 1.0 eV"),
    # a subnormal Ohmic shape: the channel split overflows instead
    (300.0, 19.2, "ea_ohm = 19.2 eV and phi_pf = 0.15 eV"),
])
def test_calibrate_reports_shapes_past_float_range(t, ea_ohm, fragment):
    skeleton = ConductionParams(ea_ohm=ea_ohm)
    with pytest.raises(CalibrationError, match="outside float range") as err:
        calibrate(skeleton=skeleton, t=t)
    assert fragment in str(err.value)
    assert all(math.isnan(r) for r in err.value.residuals)


@pytest.mark.parametrize("selection", [2.0001, 2.05, 2.09])
def test_calibrate_rejects_selection_below_the_bracket_end(selection):
    """Targets above 2 but below the ratio at eps_r = 1e4 (about 2.093 at
    300 K) have no root in the permittivity bracket: a CalibrationError
    with the residuals of the eps_r = 1e4 attempt, not the root search's
    bare ValueError."""
    with pytest.raises(CalibrationError,
                       match=r"^selection target unreachable for eps_r <= 1e4 "
                             r"\(relative residuals ") as err:
        calibrate(CalibrationTargets(selection=selection))
    r_on, ratio, sel = err.value.residuals
    assert abs(r_on) < 1e-12 and abs(ratio) < 1e-12
    assert sel == pytest.approx(2.092885460450529 / selection - 1.0, rel=1e-6)


def test_calibrate_rejects_sub_ohmic_selection():
    with pytest.raises(CalibrationError):
        calibrate(CalibrationTargets(selection=1.5))


def test_calibrate_rejects_bad_targets():
    with pytest.raises(CalibrationError):
        calibrate(CalibrationTargets(r_on_ohms=-1.0))
    with pytest.raises(CalibrationError):
        calibrate(CalibrationTargets(on_off=0.5))


def test_selection_ratio_grows_with_bias():
    p = default_params()
    vals = [self_selection_ratio(v, T_REF, p, LRS) for v in (0.2, 0.4, 0.5, 0.8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        self_selection_ratio(0.0, T_REF, p, LRS)


def test_heating_raises_current_at_low_bias():
    """Both channels are thermally activated, so the read current at
    0.1 V must rise with temperature (lower resistance when hot)."""
    p = default_params()
    i300 = current_total(0.1, 300.0, p, LRS)
    i350 = current_total(0.1, 350.0, p, LRS)
    assert i350 > i300


@pytest.mark.xfail(strict=True, reason=(
    "at the default calibration the field-lowering exponent overwhelms the "
    "trap barrier above ~0.28 V, so heating lowers the 0.3 V current; the "
    "selection target forces this (see the decisions ledger)"))
def test_heating_raises_current_at_read_bias_default():
    p = default_params()
    assert current_total(0.3, 350.0, p, LRS) > current_total(0.3, 300.0, p, LRS)


def test_heating_raises_current_at_read_bias_high_eps():
    # with weak field lowering (large eps_r) the barrier term dominates
    # at 0.3 V and the thermal direction holds there too
    p = ConductionParams(eps_r=50.0, c_pf=1e-11, c_ohm=1e-12)
    assert current_total(0.3, 350.0, p, LRS) > current_total(0.3, 300.0, p, LRS)


def test_tunneling_current_is_temperature_free():
    p = default_params()
    v = np.linspace(0.02, 0.4, 20)
    i = current_tunneling(v, p)
    assert np.all(i > 0)
    # no temperature argument exists; the formula must also be finite and
    # monotone over the fitting range
    assert np.all(np.diff(i) > 0)


def test_distinct_params_do_not_share_state():
    # the coefficient cache is keyed by the frozen parameter record; a
    # second parameter set must not inherit the first one's coefficients
    p1 = default_params()
    p2 = ConductionParams(eps_r=12.0, c_pf=1e-11, c_ohm=1e-12)
    assert current_total(0.3, T_REF, p1, LRS) != current_total(0.3, T_REF, p2, LRS)
