"""Passive-array network solve, bias schemes, sneak margins, disturb."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ftjsim import crossbar
from ftjsim.conduction import (ConductionParams, calibrate, CalibrationTargets,
                               check_temperature, current_total,
                               default_params, differential_conductance)
from ftjsim.crossbar import (
    BiasScheme,
    Crossbar,
    MAX_SOLVE_DIM,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    NetworkSolution,
    build_crossbar,
    mvm_read,
    sneak_margin,
    solve_network,
    write_v_half,
)
from ftjsim.device import (DeviceState, PulseSpec, default_update_model,
                           write_energy)
from ftjsim.extraction import Sweep
from oracle import d2d_draws, gauss_seidel, hexes, v_half

T = 300.0


@pytest.fixture(scope="module")
def p():
    return default_params()


@pytest.fixture(scope="module")
def p_ohmic():
    """Linear comparator: trap emission removed, same R_on."""
    return calibrate(CalibrationTargets(r_on_ohms=1e8, on_off=1.0, selection=2.0))


def _kcl_residual(xbar, sol, t=T):
    """Worst net current into any floating line, recomputed from scratch."""
    worst = 0.0
    for i in range(xbar.n_rows):
        net = 0.0
        for j in range(xbar.n_cols):
            net += current_total(sol.row_v[i] - sol.col_v[j], t, xbar.params,
                                 xbar.state(i, j))
        worst = max(worst, abs(net)) if sol.row_i[i] == 0.0 else worst
    return worst


def test_all_driven_closed_form(p):
    """With every line voltage pinned there is nothing to solve: device
    voltages and currents follow directly from the bias scheme."""
    xbar = build_crossbar(3, 4, p)
    scheme = BiasScheme(rows=(0.3, 0.1, 0.0), cols=(0.0, 0.05, 0.0, 0.1))
    sol = solve_network(xbar, scheme)
    for i, vr in enumerate(scheme.rows):
        for j, vc in enumerate(scheme.cols):
            assert sol.device_v[i, j] == pytest.approx(vr - vc, abs=1e-15)
            assert sol.device_i[i, j] == pytest.approx(
                current_total(vr - vc, T, p, xbar.state(i, j)), rel=1e-12)
    assert sol.residual <= 1e-12


def test_two_by_two_ohmic_divider(p_ohmic):
    """Hand-derived floating-node solution for the linear 2x2 read.

    Drive row 0 at v, ground column 0, float row 1 and column 1. The
    sneak path r01-r11-r10 is three equal resistors in series, so the
    floating nodes sit at 2v/3 and v/3 and the sneak current is one third
    of the direct current: margin exactly 3.
    """
    v = 0.5
    xbar = build_crossbar(2, 2, p_ohmic)
    scheme = BiasScheme.read_select(2, 2, 0, 0, v)
    sol = solve_network(xbar, scheme)
    assert sol.col_v[1] == pytest.approx(2 * v / 3, abs=1e-10)
    assert sol.row_v[1] == pytest.approx(v / 3, abs=1e-10)
    i_direct = sol.device_i[0, 0]
    assert sol.device_i[0, 1] == pytest.approx(i_direct / 3, rel=1e-10)
    report = sneak_margin(xbar, 0, 0, v)
    assert report.margin == pytest.approx(3.0, rel=1e-10)
    assert report.i_selected == pytest.approx(i_direct, rel=1e-12)


def test_newton_matches_brute_force_oracle(p):
    xbar = build_crossbar(3, 3, p, sigma_d2d=0.1, seed=11)
    w = np.array([[1.0, 0.0, 0.5], [0.2, 1.0, 0.0], [0.0, 0.8, 1.0]])
    xbar = xbar.with_weights(w)
    scheme = BiasScheme.read_select(3, 3, 1, 1, 0.5)
    # tight tolerance for the comparison: the default 1e-12 A residual
    # corresponds to microvolt-scale node uncertainty at nA conductances
    sol = solve_network(xbar, scheme, tol=1e-20)
    row_v, col_v = gauss_seidel(xbar, scheme)
    np.testing.assert_allclose(sol.row_v, row_v, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(sol.col_v, col_v, rtol=1e-9, atol=1e-12)
    # the default-tolerance solve must still satisfy KCL to spec
    assert solve_network(xbar, scheme).residual < 1e-12


def test_current_conservation(p):
    xbar = build_crossbar(4, 5, p, sigma_d2d=0.1, seed=3)
    scheme = BiasScheme.read_select(4, 5, 2, 3, 0.5)
    sol = solve_network(xbar, scheme)
    assert abs(sol.row_i.sum() - sol.col_i.sum()) < 1e-12
    # driven-line currents are reported, floating lines carry net zero
    assert sol.row_i[2] != 0.0
    for i in (0, 1, 3):
        assert abs(sol.row_i[i]) < 1e-12


def test_line_search_that_cannot_descend_raises(p, monkeypatch):
    """A negated Jacobian points every Newton step uphill: no halving
    reduces the residual, and the solve raises rather than stepping."""
    g_d = crossbar._conductance
    monkeypatch.setattr(crossbar, "_conductance", lambda *args: -g_d(*args))
    xbar = build_crossbar(3, 3, p, sigma_d2d=0.1, seed=11)
    with pytest.raises(RuntimeError,
                       match=r"at iteration 1: no step reduced the residual"):
        sneak_margin(xbar, 1, 1, 0.5)


def test_conductance_is_evaluated_once_per_newton_iteration(p, monkeypatch):
    """The conductance grid is built only for a Jacobian: once per
    iteration, never at the converged point or a rejected trial."""
    calls = []
    g_d = crossbar._conductance
    monkeypatch.setattr(crossbar, "_conductance",
                        lambda *args: calls.append(1) or g_d(*args))
    rng = np.random.default_rng(5)
    iterations = 0
    for n, sigma in ((8, 0.1), (16, 0.1), (16, 0.5), (32, 0.1), (5, 0.0)):
        xbar = build_crossbar(n, n, p, sigma_d2d=sigma, seed=n)
        xbar = xbar.with_weights(rng.uniform(0.0, 1.0, (n, n)))
        for row, col in rng.integers(0, n, (2, 2)):
            iterations += sneak_margin(xbar, int(row), int(col),
                                       0.5).solution.iterations
    assert iterations > 10
    assert len(calls) == iterations


def test_non_finite_newton_iterate_raises(p, monkeypatch):
    """A linear solve that returns a NaN step is caught at the trial
    iterate, which names the iteration, before any current is evaluated."""
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
    xbar = build_crossbar(3, 3, p, sigma_d2d=0.1, seed=11)
    with pytest.raises(RuntimeError,
                       match=r"non-finite iterate at iteration 1$"):
        sneak_margin(xbar, 1, 1, 0.5)


def test_solver_dimension_cap(p):
    xbar = build_crossbar(MAX_SOLVE_DIM + 1, 1, p)
    scheme = BiasScheme.read_select(MAX_SOLVE_DIM + 1, 1, 0, 0, 0.3)
    with pytest.raises(ValueError):
        solve_network(xbar, scheme)


def test_mvm_read_closed_form(p):
    """Columns at virtual ground decouple the devices: every column
    current is a plain sum of device currents at the input voltages."""
    xbar = build_crossbar(3, 2, p, sigma_d2d=0.05, seed=9)
    v_in = np.array([0.1, -0.05, 0.3])
    out = mvm_read(xbar, v_in)
    for j in range(2):
        expect = sum(current_total(v_in[i], T, p, xbar.state(i, j))
                     for i in range(3))
        assert out[j] == pytest.approx(expect, rel=1e-12)


def test_mvm_read_input_guard(p):
    xbar = build_crossbar(2, 2, p)
    with pytest.raises(ValueError, match="read inputs"):
        mvm_read(xbar, np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        mvm_read(xbar, np.array([0.1, 0.1, 0.1]))


def test_sneak_margin_single_column_is_infinite(p):
    xbar = build_crossbar(4, 1, p)
    report = sneak_margin(xbar, 0, 0, 0.5)
    assert report.margin == np.inf
    assert report.i_sneak_worst == 0.0


def test_sneak_margin_nonlinear_beats_ohmic(p, p_ohmic):
    """Self-selection suppresses the series sneak path: each sneak device
    sees at most ~v/3, where the composite I(V) is far below linear."""
    w = np.ones((4, 4))
    w[0, 0] = 0.0
    m_nl = sneak_margin(build_crossbar(4, 4, p).with_weights(w), 0, 0, 0.5)
    m_oh = sneak_margin(build_crossbar(4, 4, p_ohmic).with_weights(w), 0, 0, 0.5)
    assert m_nl.margin > 3.0 * m_oh.margin
    assert m_nl.voltage_margin > 1.0


def test_write_v_half_disturb_free_at_low_amplitude(p):
    """At v_write = 1.2 V every half-selected cell sees 0.6 V, which does
    not cross either update onset: zero disturb by construction."""
    m = default_update_model(c2c_rel=0.0)
    xbar = build_crossbar(3, 3, p).with_weights(0.5 * np.ones((3, 3)))
    after, report = write_v_half(xbar, 1, 1, PulseSpec(1.2, 50e-6), m)
    assert report.delta_w_selected < 0  # depression moved the cell
    assert report.disturbs == ()
    assert report.max_disturb == 0.0
    for i in range(3):
        for j in range(3):
            if (i, j) != (1, 1):
                assert after.state(i, j).w == xbar.state(i, j).w


def test_write_v_half_reports_disturb_at_high_amplitude(p):
    # 2.4 V write: half-selected cells see 1.2 V > the 0.8 V onset
    m = default_update_model(c2c_rel=0.0)
    xbar = build_crossbar(3, 3, p).with_weights(0.5 * np.ones((3, 3)))
    after, report = write_v_half(xbar, 1, 1, PulseSpec(2.4, 50e-6), m)
    assert len(report.disturbs) > 0
    assert report.max_disturb > 0.0
    # unselected (non-row, non-col) cells still see 0 V and never move
    assert after.state(0, 0).w == xbar.state(0, 0).w
    assert after.state(2, 0).w == xbar.state(2, 0).w


def test_write_v_half_single_cell_energy_matches_device(p):
    m = default_update_model(c2c_rel=0.0)
    xbar = build_crossbar(1, 1, p).with_weights(np.array([[0.0]]))
    pulse = PulseSpec(-1.6, 50e-6)
    _, report = write_v_half(xbar, 0, 0, pulse, m)
    assert report.energy_joules == pytest.approx(
        write_energy(pulse, DeviceState(w=0.0), p), rel=1e-12)


def test_write_v_half_checks_every_offset_before_any_pulse(p):
    """An offset past float range anywhere in the array, on an unbiased
    cell too, raises the named OverflowError before any noise draw."""
    d2d = np.zeros((3, 3))
    d2d[2, 2] = -400.0
    xbar = Crossbar(w=np.zeros((3, 3)), d2d_log10=d2d, params=p)
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(OverflowError, match=r"d2d_log10 = -400\.0 is "
                       r"outside float range"):
        write_v_half(xbar, 0, 0, PulseSpec(-1.6, 50e-6),
                     default_update_model(c2c_rel=0.1), rng=rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("read", [True, False], ids=["sneak_margin",
                                                     "write_v_half"])
@pytest.mark.parametrize("row, col", [(-1, 0), (0, -1), (4, 0), (0, 4)])
def test_selected_cell_outside_the_array_raises_first(p, monkeypatch, read,
                                                      row, col):
    """A selected cell outside a 4x4 array is a ValueError from the bias
    scheme, raised before any network solve or noise draw."""
    def no_solve(*args):
        raise AssertionError("solved a network for a cell outside the array")

    monkeypatch.setattr(crossbar, "solve_network", no_solve)
    xbar = build_crossbar(4, 4, p, sigma_d2d=0.1, seed=2)
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="^selected cell is outside the "
                       "array$"):
        if read:
            sneak_margin(xbar, row, col, 0.5)
        else:
            write_v_half(xbar, row, col, PulseSpec(-1.6, 50e-6),
                         default_update_model(c2c_rel=0.1), rng=rng)
    assert rng.bit_generator.state == before


def test_build_crossbar_reproducible(p):
    a = build_crossbar(3, 3, p, sigma_d2d=0.1, seed=5)
    b = build_crossbar(3, 3, p, sigma_d2d=0.1, seed=5)
    c = build_crossbar(3, 3, p, sigma_d2d=0.1, seed=6)
    assert a == b
    assert a != c
    clean = build_crossbar(2, 2, p, sigma_d2d=0.0, seed=5)
    assert np.all(clean.d2d_log10 == 0.0)


def _reference_build_crossbar(n_rows, n_cols, p, sigma_d2d, seed, t_kelvin=T):
    """build_crossbar from oracle.py's per-device draw, one spawned child
    per cell, row-major. Spawning advances a SeedSequence passed in."""
    offsets = d2d_draws(sigma_d2d, seed, n_rows * n_cols)
    return Crossbar(w=np.zeros((n_rows, n_cols)), params=p, t_kelvin=t_kelvin,
                    d2d_log10=np.reshape(offsets, (n_rows, n_cols)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(1, 12), st.sampled_from((0.0, 0.1, 0.5)),
       st.integers(0, 2**64), st.lists(st.integers(0, 40), max_size=3),
       st.booleans())
def test_build_crossbar_equals_per_cell_spawn_loop(nr, nc, sigma, root, path,
                                                   as_sequence):
    """Int seeds and SeedSequences nested like mvm_error_mc's children."""
    p = default_params()

    def make():
        if as_sequence:
            return np.random.SeedSequence(root, spawn_key=tuple(path))
        return root
    got = build_crossbar(nr, nc, p, sigma, make(), t_kelvin=310.0)
    ref = _reference_build_crossbar(nr, nc, p, sigma, make(), t_kelvin=310.0)
    assert got == ref
    assert hexes(got.d2d_log10) == hexes(ref.d2d_log10)


def test_build_crossbar_does_not_advance_a_seed_sequence(p):
    def make():
        return np.random.SeedSequence(17, spawn_key=(2,), n_children_spawned=3)
    ss = make()
    first = build_crossbar(3, 4, p, 0.1, ss)
    assert ss.n_children_spawned == 3
    # the first build equals the spawning loop on a fresh copy ...
    assert first == _reference_build_crossbar(3, 4, p, 0.1, make())
    # ... and, unlike that loop, a second build from the same object
    # gives the same array
    assert build_crossbar(3, 4, p, 0.1, ss) == first
    spent = make()
    assert (_reference_build_crossbar(3, 4, p, 0.1, spent)
            != _reference_build_crossbar(3, 4, p, 0.1, spent))


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
def test_build_crossbar_rejects_bad_sigma(p, sigma):
    with pytest.raises(ValueError, match="sigma_d2d"):
        build_crossbar(2, 3, p, sigma_d2d=sigma, seed=4)


def test_crossbar_weight_round_trip(p):
    w = np.array([[0.25, 1.0], [0.0, 0.75]])
    xbar = build_crossbar(2, 2, p).with_weights(w)
    np.testing.assert_array_equal(xbar.weights(), w)
    with pytest.raises(ValueError):
        build_crossbar(2, 2, p, t_kelvin=-1.0)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_temperature_limit_has_one_message(p, t):
    """Crossbar and extraction's Sweep reject a temperature through
    conduction.check_temperature, with its message."""
    with pytest.raises(ValueError) as kernel:
        check_temperature(t)
    with pytest.raises(ValueError) as xbar:
        build_crossbar(2, 2, p, t_kelvin=t)
    with pytest.raises(ValueError) as sweep:
        Sweep([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], t)
    assert str(xbar.value) == str(sweep.value) == str(kernel.value)


def test_solution_jacobian_consistency(p):
    # spot-check that the solver's stationary point is insensitive to a
    # nudge: perturbing a floating potential away from the solution
    # creates a nonzero residual of the expected differential size
    xbar = build_crossbar(2, 2, p)
    scheme = BiasScheme.read_select(2, 2, 0, 0, 0.5)
    sol = solve_network(xbar, scheme)
    j = 1  # floating column
    dv = 1e-6
    net = sum(current_total(sol.row_v[i] - (sol.col_v[j] + dv), T, p,
                            xbar.state(i, j)) for i in range(2))
    g = sum(differential_conductance(sol.row_v[i] - sol.col_v[j], T, p,
                                     xbar.state(i, j)) for i in range(2))
    assert net == pytest.approx(-g * dv, rel=1e-3)


# --- Bit-identity guard: array reads against the scalar-loop reference -----
#
# The reference below is the per-cell implementation the array reads
# replaced: one scalar kernel call per device, summed left to right. The
# array path must reproduce it bit for bit, because CLI sidecars hold
# full-repr floats from these solves.

def _seq_sum(values):
    """Left-to-right float sum from zero, as sum() computes it up to
    Python 3.11 (3.12 switched float sum() to compensated summation)."""
    acc = 0
    for v in values:
        acc = acc + v
    return acc


def _reference_solve(xbar, scheme, tol=NEWTON_TOL):
    nr, nc = xbar.n_rows, xbar.n_cols
    p, t = xbar.params, xbar.t_kelvin
    driven = [float(v) for v in list(scheme.rows) + list(scheme.cols)
              if v is not None]
    free_rows = [r for r, v in enumerate(scheme.rows) if v is None]
    free_cols = [c for c, v in enumerate(scheme.cols) if v is None]
    n_free = len(free_rows) + len(free_cols)
    row_v = np.array([0.0 if v is None else float(v) for v in scheme.rows])
    col_v = np.array([0.0 if v is None else float(v) for v in scheme.cols])
    x = np.full(n_free, float(np.mean(driven)))

    def assemble(xv):
        rv = row_v.copy()
        cv = col_v.copy()
        for k, r in enumerate(free_rows):
            rv[r] = xv[k]
        for k, c in enumerate(free_cols):
            cv[c] = xv[len(free_rows) + k]
        return rv, cv

    def residual(xv):
        rv, cv = assemble(xv)
        f = np.zeros(n_free)
        for k, r in enumerate(free_rows):
            f[k] = _seq_sum(current_total(rv[r] - cv[c], t, p, xbar.state(r, c))
                            for c in range(nc))
        for k, c in enumerate(free_cols):
            f[len(free_rows) + k] = _seq_sum(
                current_total(rv[r] - cv[c], t, p, xbar.state(r, c))
                for r in range(nr))
        return f, rv, cv

    def device_grid(rv, cv):
        dv = rv[:, None] - cv[None, :]
        di = np.array([[current_total(dv[r, c], t, p, xbar.state(r, c))
                        for c in range(nc)] for r in range(nr)])
        return dv, di

    if n_free == 0:
        rv, cv = assemble(x)
        dv, di = device_grid(rv, cv)
        return NetworkSolution(rv, cv, dv, di, di.sum(axis=1), di.sum(axis=0),
                               iterations=0, residual=0.0)

    f, rv, cv = residual(x)
    it = 0
    while np.max(np.abs(f)) > tol:
        if it >= NEWTON_MAX_ITER:
            raise RuntimeError("network solve did not converge")
        jac = np.zeros((n_free, n_free))
        col_index = {c: len(free_rows) + k for k, c in enumerate(free_cols)}
        row_index = {r: k for k, r in enumerate(free_rows)}
        for k, r in enumerate(free_rows):
            for c in range(nc):
                gdev = differential_conductance(rv[r] - cv[c], t, p, xbar.state(r, c))
                jac[k, k] += gdev
                if c in col_index:
                    jac[k, col_index[c]] -= gdev
        for k, c in enumerate(free_cols):
            kk = len(free_rows) + k
            for r in range(nr):
                gdev = differential_conductance(rv[r] - cv[c], t, p, xbar.state(r, c))
                jac[kk, kk] -= gdev
                if r in row_index:
                    jac[kk, row_index[r]] += gdev
        step = np.linalg.solve(jac, -f)
        norm0 = np.max(np.abs(f))
        lam = 1.0
        for _ in range(40):
            f_new, rv, cv = residual(x + lam * step)
            if np.max(np.abs(f_new)) < norm0:
                break
            lam *= 0.5
        x = x + lam * step
        f, rv, cv = residual(x)
        it += 1
    dv, di = device_grid(rv, cv)
    return NetworkSolution(row_v=rv, col_v=cv, device_v=dv, device_i=di,
                           row_i=di.sum(axis=1), col_i=di.sum(axis=0),
                           iterations=it, residual=float(np.max(np.abs(f))))


def _reference_mvm_read(xbar, v_in):
    out = np.zeros(xbar.n_cols)
    t = xbar.t_kelvin
    for c in range(xbar.n_cols):
        out[c] = _seq_sum(current_total(v_in[r], t, xbar.params, xbar.state(r, c))
                          for r in range(xbar.n_rows))
    return out


SCHEME_PATTERNS = ("read_select", "v_half_write", "all_driven",
                   "float_rows", "float_cols", "float_mask")


@st.composite
def _arrays(draw):
    """A random non-square array with device variation and random weights,
    at a random temperature."""
    nr = draw(st.integers(1, 32))
    nc = draw(st.integers(1, 32))
    sigma = draw(st.floats(0.01, 0.3))
    t = draw(st.floats(200.0, 450.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    xbar = build_crossbar(nr, nc, default_params(), sigma_d2d=sigma, seed=seed,
                          t_kelvin=t)
    return xbar.with_weights(rng.uniform(0.0, 1.0, (nr, nc))), rng


@st.composite
def _solve_cases(draw):
    xbar, rng = draw(_arrays())
    nr, nc = xbar.n_rows, xbar.n_cols
    pattern = draw(st.sampled_from(SCHEME_PATTERNS))
    row, col = int(rng.integers(nr)), int(rng.integers(nc))
    sign = float(rng.choice([-1.0, 1.0]))
    if pattern == "read_select":
        return xbar, BiasScheme.read_select(nr, nc, row, col,
                                            sign * rng.uniform(0.1, 1.0))
    if pattern == "v_half_write":
        return xbar, BiasScheme.v_half_write(nr, nc, row, col,
                                             sign * rng.uniform(0.5, 2.4))
    rows = [float(v) for v in rng.uniform(-0.6, 0.6, nr)]
    cols = [float(v) for v in rng.uniform(-0.6, 0.6, nc)]
    if pattern == "float_rows":
        rows = [None if rng.random() < 0.8 else v for v in rows]
    elif pattern == "float_cols":
        cols = [None if rng.random() < 0.8 else v for v in cols]
    elif pattern == "float_mask":
        rows = [None if rng.random() < 0.5 else v for v in rows]
        cols = [None if rng.random() < 0.5 else v for v in cols]
    if all(v is None for v in rows + cols):
        cols[col] = 0.0
    return xbar, BiasScheme(rows=tuple(rows), cols=tuple(cols))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (RuntimeError, ValueError) as exc:
        return type(exc)


_GUARD = settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)


def _fixed_case(nr, nc, rows=None, cols=None):
    """A read_select of a random cell, or the given row or column
    potentials (None floats) with every line of the other side driven."""
    rng = np.random.default_rng(nr * 100 + nc)
    xbar = build_crossbar(nr, nc, default_params(), sigma_d2d=0.1, seed=nr + nc)
    xbar = xbar.with_weights(rng.uniform(0.0, 1.0, (nr, nc)))
    if rows is None and cols is None:
        return xbar, BiasScheme.read_select(nr, nc, int(rng.integers(nr)),
                                            int(rng.integers(nc)), 0.5)
    driven = rng.uniform(-0.6, 0.6, nr + nc).tolist()
    return xbar, BiasScheme(rows=rows or tuple(driven[:nr]),
                            cols=cols or tuple(driven[nr:]))


@_GUARD
@example(_fixed_case(MAX_SOLVE_DIM, MAX_SOLVE_DIM))
@example(_fixed_case(1, MAX_SOLVE_DIM))
@example(_fixed_case(MAX_SOLVE_DIM, 1))
@example(_fixed_case(1, MAX_SOLVE_DIM, rows=(None,)))
@example(_fixed_case(MAX_SOLVE_DIM, 1, cols=(None,)))
# one floating column against seven floating rows: numpy 2.4.6 negates
# the 7 x 1 cross block of this 8 x 8 Jacobian wrongly in place
@example(_fixed_case(8, 2, rows=(None,) * 3 + (0.3,) + (None,) * 4,
                     cols=(0.0, None)))
# a floating row between columns at -2.8 and 8.5 V: iteration 4 accepts
# a halved step, and quartering finds no step that lowers the residual
@example((Crossbar(w=[[0.93, 0.94], [0.89, 0.89]],
                   d2d_log10=[[4.07, 0.06], [1.37, 4.36]],
                   params=default_params(), t_kelvin=294.0),
          BiasScheme(rows=(-0.2, None), cols=(-2.8, 8.5))))
@given(_solve_cases())
def test_solve_network_bit_identical_to_scalar_reference(case):
    """Every array by its bytes, so a signed zero counts too."""
    xbar, scheme = case
    new = _outcome(solve_network, xbar, scheme)
    ref = _outcome(_reference_solve, xbar, scheme)
    if isinstance(ref, type):
        assert new is ref
        return
    assert not isinstance(new, type), new
    for f in fields(NetworkSolution):
        a, b = getattr(new, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (
                b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert a == b, f.name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_solve_line_sums_run_left_to_right(nr, nc, seed):
    """The network solve's row and column sums, with its + 0.0, equal a
    left-to-right sum from zero by float.hex: entries spread over 1e-30 to
    1e30 in both signs, with signed zeros and all-(-0.0) lines."""
    rng = np.random.default_rng(seed)
    grid = (rng.choice([-1.0, 1.0], (nr, nc))
            * 10.0 ** rng.uniform(-30.0, 30.0, (nr, nc)))
    grid[rng.random((nr, nc)) < 0.1] = 0.0
    grid[rng.random((nr, nc)) < 0.1] = -0.0
    grid[rng.random(nr) < 0.2, :] = -0.0
    grid[:, rng.random(nc) < 0.2] = -0.0
    running, col_sums = np.empty((nr, nc)), np.empty(nc)
    crossbar._sums_into(grid, running, col_sums)
    rows = (running[:, -1] + 0.0).tolist()
    cols = (col_sums + 0.0).tolist()
    assert [x.hex() for x in rows] == [
        _seq_sum(line).hex() for line in grid.tolist()]
    assert [x.hex() for x in cols] == [
        _seq_sum(line).hex() for line in grid.T.tolist()]


@_GUARD
@given(_solve_cases())
def test_solve_network_kcl_on_floating_lines(case):
    xbar, scheme = case
    sol = solve_network(xbar, scheme)
    floating = np.concatenate([
        sol.row_i[[v is None for v in scheme.rows]],
        sol.col_i[[v is None for v in scheme.cols]]])
    assert np.all(np.abs(floating) < 1e-12)


@_GUARD
@given(_arrays(), st.integers(0, 2**32 - 1))
def test_mvm_read_bit_identical_to_scalar_reference(array, seed):
    xbar, _ = array
    v_in = np.random.default_rng(seed).uniform(-0.3, 0.3, xbar.n_rows)
    v_in[::3] = 0.0  # idle rows, as in the one-hot reads of mvm_charge
    assert np.array_equal(mvm_read(xbar, v_in), _reference_mvm_read(xbar, v_in))


# --- Bit-identity guard: write_v_half against the per-cell loop ------------
#
# The reference is oracle.py's per-cell object path on the shared generator.

# Write amplitudes around the default onsets (-0.6 V, +0.8 V): sub-onset,
# disturb-free (only the selected cell crosses), half-select disturbing
# (half the amplitude crosses too), and exact onset and half-onset values.
_WRITE_AMPLITUDES = st.one_of(
    st.floats(-0.6, 0.8), st.floats(-1.2, -0.6), st.floats(0.8, 1.6),
    st.floats(-3.5, -1.2), st.floats(1.6, 3.5),
    st.sampled_from((0.0, -0.6, 0.8, -1.2, 1.6, -1.6, 2.4)))


@st.composite
def _write_cases(draw):
    """A random array with device variation, pulse history and broken
    cells at a random temperature, a selected cell, a write pulse and an
    update model with or without cycle-to-cycle noise."""
    nr = draw(st.integers(1, 10))
    nc = draw(st.integers(1, 10))
    sigma = draw(st.floats(0.0, 0.3))
    t = draw(st.floats(200.0, 450.0))
    c2c = draw(st.sampled_from((0.0, 0.1, 0.3)))
    v_write = draw(_WRITE_AMPLITUDES)
    t_width = draw(st.sampled_from((50e-6, 50e-6, 1e-6, 0.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    xbar = build_crossbar(nr, nc, default_params(), sigma_d2d=sigma,
                          seed=seed, t_kelvin=t)
    xbar = Crossbar(
        w=rng.uniform(0.0, 1.0, (nr, nc)), d2d_log10=xbar.d2d_log10,
        params=xbar.params, t_kelvin=t,
        cycles=rng.integers(0, 4, (nr, nc)),
        broken=rng.random((nr, nc)) < 0.1,
        last_polarity=rng.integers(-1, 2, (nr, nc)))
    row, col = int(rng.integers(nr)), int(rng.integers(nc))
    return (xbar, row, col, PulseSpec(v_write, t_width),
            default_update_model(c2c_rel=c2c), seed)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_write_cases())
def test_write_v_half_bit_identical_to_per_cell_reference(case):
    xbar, row, col, pulse, m, seed = case
    rng_new = np.random.default_rng(seed + 1)
    rng_ref = np.random.default_rng(seed + 1)
    new_x, new_r = write_v_half(xbar, row, col, pulse, m, rng=rng_new)
    ref_x, ref_r = v_half(xbar, row, col, pulse, m, rng=rng_ref)
    assert new_x == ref_x
    assert new_r == ref_r
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
