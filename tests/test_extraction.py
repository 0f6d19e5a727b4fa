"""Channel extraction, mechanism discrimination, update fits, level counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftjsim.conduction import (current_ohmic, current_pf, current_total,
                               current_tunneling, default_params)
from ftjsim.device import DeviceState
from ftjsim.extraction import (
    OHMIC_WINDOW,
    PF_WINDOW,
    Sweep,
    UpdateFit,
    cdf_levels,
    discriminate_tunneling,
    extract_ohmic,
    extract_pf,
    fit_linear,
    fit_update_a,
)

TEMPS = (300.0, 320.0, 340.0, 360.0)

# Composite-window estimates on the default calibration, frozen. Channel
# overlap biases both barriers out of their injected range; the windows
# are only ~2 field-lowering e-foldings apart, so no window choice fixes
# it (ledgered). The pure-channel round trips below are exact.
PHI_HAT_COMPOSITE = 0.49054214241525457
EA_HAT_COMPOSITE = 0.09284078550033335


def _pf_sweeps(p, n=10, window=PF_WINDOW):
    v = np.linspace(*window, n)
    return [Sweep(v, current_pf(v, t, p), t) for t in TEMPS]


def _ohm_sweeps(p, n=10, window=OHMIC_WINDOW):
    v = np.linspace(*window, n)
    return [Sweep(v, current_ohmic(v, t, p), t) for t in TEMPS]


def _composite_sweeps(p, window, n=10):
    v = np.linspace(*window, n)
    lrs = DeviceState(w=1.0)
    return [Sweep(v, current_total(v, t, p, lrs), t) for t in TEMPS]


# --- straight-line fitting ---------------------------------------------------

def test_fit_linear_exact():
    x = np.linspace(0, 5, 12)
    fit = fit_linear(x, 3.0 * x - 1.25)
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(-1.25, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.n == 12


def test_fit_linear_noisy_slope():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, 1000)
    y = 3.0 * x + 0.5 + rng.normal(0, 0.1, x.size)
    fit = fit_linear(x, y)
    assert fit.slope == pytest.approx(3.0, abs=0.02)
    assert fit.stderr_slope > 0
    # the reported standard error should match the observed miss in scale
    assert abs(fit.slope - 3.0) < 4 * fit.stderr_slope


def test_fit_linear_validation():
    with pytest.raises(ValueError):
        fit_linear([1.0], [2.0])
    with pytest.raises(ValueError):
        fit_linear([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])  # zero x-variance


def test_sweep_validation():
    with pytest.raises(ValueError):
        Sweep(np.array([0.3, 0.2, 0.1]), np.ones(3), 300.0)  # decreasing
    with pytest.raises(ValueError):
        Sweep(np.array([0.1, 0.2]), np.ones(2), 300.0)  # too short
    with pytest.raises(ValueError):
        Sweep(np.array([0.1, 0.2, 0.3]), np.array([1.0, -1.0, 1.0]), 300.0)
    with pytest.raises(ValueError):
        Sweep(np.array([0.1, 0.2, 0.3]), np.ones(3), -10.0)


# --- trap-emission extraction ------------------------------------------------

def test_pf_round_trip_is_exact():
    p = default_params()
    out = extract_pf(_pf_sweeps(p), d_fe=p.d_fe)
    assert out.phi_pf_ev == pytest.approx(p.phi_pf, rel=1e-10)
    assert out.eps_r == pytest.approx(p.eps_r, rel=1e-10)
    for fit in out.per_temperature:
        assert fit.r2 == pytest.approx(1.0, abs=1e-10)


def test_pf_round_trip_other_parameters():
    from dataclasses import replace
    p = replace(default_params(), phi_pf=0.12, eps_r=20.0)
    out = extract_pf(_pf_sweeps(p), d_fe=p.d_fe)
    assert out.phi_pf_ev == pytest.approx(0.12, rel=1e-9)
    assert out.eps_r == pytest.approx(20.0, rel=1e-9)


def test_pf_sparse_window_matches_dense():
    # the fit is exact on clean data, so point density cannot matter
    p = default_params()
    a = extract_pf(_pf_sweeps(p, n=4), d_fe=p.d_fe)
    b = extract_pf(_pf_sweeps(p, n=10), d_fe=p.d_fe)
    assert a.phi_pf_ev == pytest.approx(b.phi_pf_ev, abs=1e-9)
    assert a.eps_r == pytest.approx(b.eps_r, rel=1e-9)


def test_pf_window_shrink_stability():
    """Shrinking the fit window by 20% moves the barrier by well under
    2% when the data really is single-channel."""
    p = default_params()
    lo, hi = PF_WINDOW
    shrunk = (lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
    v = np.linspace(lo, hi, 30)
    sweeps = [Sweep(v, current_pf(v, t, p), t) for t in TEMPS]
    full = extract_pf(sweeps, d_fe=p.d_fe)
    part = extract_pf(sweeps, window=shrunk, d_fe=p.d_fe)
    assert abs(part.phi_pf_ev - full.phi_pf_ev) / full.phi_pf_ev < 0.02


def test_pf_preconditions():
    p = default_params()
    with pytest.raises(ValueError):
        extract_pf(_pf_sweeps(p)[:2], d_fe=p.d_fe)  # < 3 temperatures
    v = np.linspace(0.4, 0.5, 8)  # no points inside the window
    bad = [Sweep(v, current_pf(v, t, p), t) for t in TEMPS]
    with pytest.raises(ValueError):
        extract_pf(bad, d_fe=p.d_fe)
    dup = _pf_sweeps(p)[:3] + [_pf_sweeps(p)[0]]
    with pytest.raises(ValueError):
        extract_pf(dup, d_fe=p.d_fe)  # duplicate temperature


# --- hopping-channel extraction ----------------------------------------------

def test_ohmic_round_trip_is_exact():
    p = default_params()
    out = extract_ohmic(_ohm_sweeps(p))
    assert out.ea_ohm_ev == pytest.approx(p.ea_ohm, rel=1e-10)
    for slope in out.loglog_slopes:
        assert abs(slope - 1.0) < 0.05  # clean data reads as linear


def test_ohmic_round_trip_other_activation():
    from dataclasses import replace
    p = replace(default_params(), ea_ohm=0.18)
    out = extract_ohmic(_ohm_sweeps(p))
    assert out.ea_ohm_ev == pytest.approx(0.18, rel=1e-9)


def test_ohmic_rejects_wrong_power_law():
    v = np.linspace(0.02, 0.1, 10)
    sweeps = [Sweep(v, 1e-6 * t ** 1.5 * v ** 3, t) for t in TEMPS]
    with pytest.raises(ValueError, match="not Ohmic"):
        extract_ohmic(sweeps)


def test_ohmic_slope_gate_on_pf_data():
    # trap-emission current in the low-bias window has log-log slope
    # ~2.7 at the calibrated field lowering: clearly mis-regime
    p = default_params()
    v = np.linspace(*OHMIC_WINDOW, 10)
    sweeps = [Sweep(v, current_pf(v, t, p), t) for t in TEMPS]
    with pytest.raises(ValueError, match="not Ohmic"):
        extract_ohmic(sweeps)


# --- composite-window behavior (documented bias) -----------------------------

def test_composite_window_estimates_frozen():
    p = default_params()
    pf = extract_pf(_composite_sweeps(p, PF_WINDOW), d_fe=p.d_fe)
    oh = extract_ohmic(_composite_sweeps(p, OHMIC_WINDOW))
    assert pf.phi_pf_ev == pytest.approx(PHI_HAT_COMPOSITE, rel=1e-9)
    assert oh.ea_ohm_ev == pytest.approx(EA_HAT_COMPOSITE, rel=1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "cross-channel bias: the hopping admixture inside the trap-emission "
    "window pulls the apparent barrier to ~0.49 eV at the default "
    "calibration (ledgered; the pure-channel round trip is exact)"))
def test_composite_window_barrier_in_band():
    p = default_params()
    pf = extract_pf(_composite_sweeps(p, PF_WINDOW), d_fe=p.d_fe)
    assert 0.1 <= pf.phi_pf_ev <= 0.2


@pytest.mark.xfail(strict=True, reason=(
    "cross-channel bias: trap emission inside the low-bias window drags "
    "the apparent activation energy to ~0.093 eV at the default "
    "calibration (ledgered; the pure-channel round trip is exact)"))
def test_composite_window_activation_in_band():
    p = default_params()
    oh = extract_ohmic(_composite_sweeps(p, OHMIC_WINDOW))
    assert 0.1 <= oh.ea_ohm_ev <= 0.2


# --- mechanism discrimination ------------------------------------------------

def test_discriminates_thermal_from_tunneling():
    p = default_params()
    v = np.linspace(*PF_WINDOW, 10)
    lrs = DeviceState(w=1.0)
    thermal = [Sweep(v, current_total(v, t, p, lrs), t) for t in TEMPS]
    verdict = discriminate_tunneling(thermal)
    assert verdict.tunneling_rejected is True
    assert verdict.t_sensitivity > 0.05
    assert verdict.label == "thermal"

    tunneling = [Sweep(v, current_tunneling(v, p), t) for t in TEMPS]
    verdict = discriminate_tunneling(tunneling)
    assert verdict.tunneling_rejected is False
    assert verdict.t_sensitivity == 0.0  # exactly temperature-free
    assert verdict.label == "tunneling"


def test_single_temperature_is_indeterminate():
    p = default_params()
    v = np.linspace(*PF_WINDOW, 10)
    lrs = DeviceState(w=1.0)
    verdict = discriminate_tunneling([Sweep(v, current_total(v, 300.0, p, lrs), 300.0)])
    assert verdict.tunneling_rejected is None
    assert verdict.label is None
    assert verdict.n_temperatures == 1


# --- update-curve fitting ----------------------------------------------------

def _clean_trace(a, n_full=50, n=50):
    k = np.arange(1, n + 1)
    return k, (1 - np.exp(-k / a)) / (1 - np.exp(-n_full / a))


def test_fit_update_a_noiseless_recovery():
    k, g = _clean_trace(11.627906976744185)
    fit = fit_update_a(k, g)
    assert fit.a == pytest.approx(11.627906976744185, rel=0.005)
    assert not fit.at_bound
    assert fit.rss < 1e-12


def test_fit_update_a_deterministic():
    k, g = _clean_trace(8.0)
    assert fit_update_a(k, g).a == fit_update_a(k, g).a


@pytest.mark.parametrize("a_true,noise", [(2.5, 0.0), (11.6, 0.0),
                                          (11.6, 0.02), (40.0, 0.05)])
def test_bounded_minimizer_port_takes_scipy_steps(a_true, noise):
    """fit_update_a's minimizer is a port of SciPy's bounded Brent method:
    on the fit's own objective it must evaluate the same points and return
    the same bits, so fitted shapes do not depend on which one ran."""
    from scipy.optimize import minimize_scalar

    from ftjsim.extraction import _minimize_bounded

    k, g = _clean_trace(a_true)
    g = g + np.random.default_rng(7).normal(0.0, noise, g.size)

    def recording(points):
        def rss(a):
            points.append(float(a))
            f = 1.0 - np.exp(-k / a)
            r = g - float(np.sum(g * f)) / float(np.sum(f * f)) * f
            return float(np.sum(r * r))
        return rss

    ours, theirs = [], []
    lo, hi = 0.5 * a_true, 2.0 * a_true
    x = _minimize_bounded(recording(ours), lo, hi, xatol=1e-10)
    ref = minimize_scalar(recording(theirs), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    assert x == ref.x
    assert ours == theirs


@pytest.mark.parametrize("n", [5, 50, 1310, 1311, 5000, 20000])
def test_fit_update_a_chunked_grid_costs_equal_full_grid(n):
    """The coarse A grid runs in row chunks; its costs must equal the one
    full (200, n) broadcast bit for bit."""
    from ftjsim.extraction import _coarse_costs

    k = np.arange(1.0, n + 1)
    g = 1 - np.exp(-k / (0.3 * n)) + np.random.default_rng(n).normal(
        0.0, 0.02, n)
    grid = np.geomspace(0.1, 10.0 * n, 200)
    f = 1.0 - np.exp(-k / grid[:, None])
    amp = np.sum(g * f, axis=1) / np.sum(f * f, axis=1)
    r = g - amp[:, None] * f
    full = np.sum(r * r, axis=1)
    assert _coarse_costs(k, g, grid).tobytes() == full.tobytes()


def test_fit_update_a_memory_stays_flat_in_trace_length():
    """A 20000-point trace peaks at a few MiB, not two (200, n) arrays."""
    import tracemalloc

    k = np.arange(1.0, 20001.0)
    g = 1 - np.exp(-k / 3000.0)
    tracemalloc.start()
    try:
        fit_update_a(k, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_fit_update_a_scale_invariance():
    """Multiplying every level by a common conductance scale must leave
    the recovered shape parameter untouched."""
    k, g = _clean_trace(7.3)
    a1 = fit_update_a(k, g).a
    a2 = fit_update_a(k, 2.7e-6 * g).a
    assert a2 == pytest.approx(a1, rel=1e-9)


def test_fit_update_a_linear_trace_hits_bound():
    k = np.arange(1, 40)
    fit = fit_update_a(k, k / 40.0)
    assert fit.at_bound
    assert fit.a == pytest.approx(10.0 * k[-1], rel=1e-6)


def _reference_fit_update_a(counts, trace, a_min=0.1, a_max=None):
    """fit_update_a with its coarse grid as one rss_of call per grid point,
    the loop the one-call broadcast replaced."""
    from ftjsim.extraction import _minimize_bounded

    k = np.asarray(counts, dtype=float)
    g = np.asarray(trace, dtype=float)
    if a_max is None:
        a_max = 10.0 * float(k[-1])

    def rss_of(a):
        f = 1.0 - np.exp(-k / a)
        denom = float(np.sum(f * f))
        amp = float(np.sum(g * f)) / denom
        r = g - amp * f
        return float(np.sum(r * r)), amp

    grid = np.geomspace(a_min, a_max, 200)
    costs = np.array([rss_of(a)[0] for a in grid])
    best = int(np.argmin(costs))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    a_hat = float(_minimize_bounded(lambda a: rss_of(a)[0], lo, hi, xatol=1e-10))
    rss, amp = rss_of(a_hat)
    return UpdateFit(a=a_hat, amplitude=amp, rss=rss,
                     at_bound=best == 0 or best == grid.size - 1)


@st.composite
def _update_traces(draw):
    """Saturating traces with noise, at random count spacings, from 5 to
    120 points, plus an occasional explicit search range."""
    n = draw(st.integers(5, 120))
    steps = draw(st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n))
    k = np.cumsum(steps)
    a = draw(st.floats(0.3, 200.0))
    amp = draw(st.floats(0.01, 3.0))
    noise = draw(st.sampled_from([0.0, 0.01, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = amp * (1.0 - np.exp(-k / a)) + rng.normal(0.0, noise, n)
    bounds = draw(st.sampled_from([{}, {"a_min": 1.0}, {"a_max": 50.0}]))
    return k, g, bounds


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_update_traces())
def test_fit_update_a_bit_identical_to_per_a_grid(case):
    k, g, bounds = case
    new = fit_update_a(k, g, **bounds)
    ref = _reference_fit_update_a(k, g, **bounds)
    assert (new.a, new.amplitude, new.rss, new.at_bound) \
        == (ref.a, ref.amplitude, ref.rss, ref.at_bound)
    assert math.isfinite(new.rss)


def test_fit_update_a_validation():
    k, g = _clean_trace(5.0)
    with pytest.raises(ValueError):
        fit_update_a(k[:4], g[:4])  # too few points
    with pytest.raises(ValueError):
        fit_update_a(k[::-1], g)  # counts not increasing
    with pytest.raises(ValueError):
        fit_update_a(k, g[:-1])  # shape mismatch
    with pytest.raises(ValueError):
        fit_update_a(np.stack([k, k]), np.stack([g, g]))  # not 1-D


def test_fit_update_a_noisy_median():
    a_true = 11.627906976744185
    errs = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        k, g = _clean_trace(a_true)
        noisy = g * rng.lognormal(mean=0.0, sigma=0.1, size=g.size)
        errs.append(abs(fit_update_a(k, noisy).a - a_true) / a_true)
    assert np.median(errs) < 0.15


# --- level statistics --------------------------------------------------------

def test_cdf_levels_counts_separated_plateaus():
    # enough cycles that the plateau medians settle well inside the
    # pooled IQR, leaving exactly the two real separations
    rng = np.random.default_rng(2)
    base = np.array([1.0, 1.0, 5.0, 5.0, 9.0])
    traces = base + rng.normal(0, 0.01, (30, 5))
    report = cdf_levels(traces)
    assert report.n_levels == 3
    assert report.pooled_iqr < 0.1


def test_cdf_levels_degenerate_trace_is_one_level():
    traces = np.full((4, 8), 3.3)
    assert cdf_levels(traces).n_levels == 1


def test_cdf_levels_noise_swamps_separation():
    rng = np.random.default_rng(4)
    base = np.linspace(0, 0.1, 12)
    traces = base + rng.normal(0, 5.0, (8, 12))
    assert cdf_levels(traces).n_levels < 3


def test_cdf_levels_validation():
    with pytest.raises(ValueError):
        cdf_levels(np.ones(5))  # 1-D
    with pytest.raises(ValueError):
        cdf_levels(np.ones((1, 5)))  # single cycle
