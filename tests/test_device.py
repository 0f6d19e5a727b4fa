"""State dynamics: pulse updates, DC hysteresis, retention, energy."""

import math
import warnings
from dataclasses import dataclass, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftjsim import device
from ftjsim.conduction import current_total, default_params
from ftjsim.crossbar import build_crossbar
from ftjsim.device import (
    DeviceState,
    ENDURANCE_LIMIT,
    PulseScheme,
    PulseSpec,
    SCHEME_KINDS,
    Trace,
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
from ftjsim.device import _ChildSeed, _child_words
from oracle import d2d_draws, dc_loop, hexes, pulse_train, trace_of

POT = PulseSpec(-1.6, 50e-6)
DEP = PulseSpec(2.4, 50e-6)


@pytest.fixture(scope="module")
def p():
    return default_params()


@pytest.fixture()
def m0():
    """Noiseless update model."""
    return default_update_model(c2c_rel=0.0)


def _curve(n, a, n_full):
    return (1.0 - math.exp(-n / a)) / (1.0 - math.exp(-n_full / a))


def test_apply_pulse_follows_closed_form(m0):
    a = m0.amplitude_ramp.a_pot
    s = DeviceState(w=0.0)
    for n in range(1, 30):
        s = apply_pulse(s, POT, m0)
        assert s.w == pytest.approx(_curve(n, a, m0.n_full), abs=1e-12)


def test_depression_mirrors_potentiation(m0):
    a = m0.amplitude_ramp.a_dep
    s = DeviceState(w=1.0)
    for n in range(1, 30):
        s = apply_pulse(s, DEP, m0)
        assert 1.0 - s.w == pytest.approx(_curve(n, a, m0.n_full), abs=1e-12)


def test_sub_onset_pulses_are_inert(m0):
    s = DeviceState(w=0.3)
    for v in (-0.6, -0.5, 0.0, 0.5, 0.8):  # onsets are strict
        assert apply_pulse(s, PulseSpec(v, 50e-6), m0) is s


def test_zero_width_pulse_is_noop(m0):
    s = DeviceState(w=0.3)
    assert apply_pulse(s, PulseSpec(-1.6, 0.0), m0) is s
    assert write_energy(PulseSpec(-1.6, 0.0), s, default_params()) == 0.0


def test_broken_device_does_not_switch(m0):
    s = DeviceState(w=0.3, broken=True)
    assert apply_pulse(s, POT, m0) is s


def test_full_train_saturates(m0):
    s = DeviceState(w=0.0)
    for _ in range(m0.n_full):
        s = apply_pulse(s, POT, m0)
    assert s.w == 1.0
    for _ in range(m0.n_full):
        s = apply_pulse(s, DEP, m0)
    assert s.w == 0.0


def test_steps_shrink_along_the_curve(m0):
    s = DeviceState(w=0.0)
    deltas = []
    for _ in range(20):
        s2 = apply_pulse(s, POT, m0)
        deltas.append(s2.w - s.w)
        s = s2
    assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))


def test_polarity_reversal_counts_cycles(m0):
    s = DeviceState(w=0.5)
    s = apply_pulse(s, POT, m0)
    assert s.cycles == 0 and s.last_polarity == -1
    s = apply_pulse(s, DEP, m0)
    assert s.cycles == 1 and s.last_polarity == 1
    s = apply_pulse(s, DEP, m0)
    assert s.cycles == 1
    s = apply_pulse(s, POT, m0)
    assert s.cycles == 2


def test_c2c_noise_scale():
    """Single-pulse step spread matches the configured relative sigma.

    The multiplier is mean-one lognormal; over 1000 repetitions the
    sample std of the step must land within 20% of c2c_rel times the
    mean step.
    """
    m = default_update_model(c2c_rel=0.10)
    rng = np.random.default_rng(3)
    steps = []
    for _ in range(1000):
        s = apply_pulse(DeviceState(w=0.4), POT, m, rng=rng)
        steps.append(s.w - 0.4)
    steps = np.array(steps)
    rel = np.std(steps, ddof=1) / np.mean(steps)
    assert rel == pytest.approx(0.10, rel=0.20)
    assert np.mean(steps) > 0


def test_c2c_requires_generator():
    m = default_update_model(c2c_rel=0.10)
    with pytest.raises(ValueError):
        apply_pulse(DeviceState(w=0.4), POT, m)


# Draw counts around every block boundary of the noise stream (blocks of
# 1, 2, 4, ... up to _NOISE_BLOCK_MAX, then full blocks) and several full
# blocks in.
_BLOCK_ENDS = [2**j - 1 for j in range(1, 13)] + [4095 + 4096 * j for j in (1, 2)]
_DRAW_COUNTS = sorted({0, 1} | {end + d for end in _BLOCK_ENDS for d in (-1, 0, 1)})


class _Interrupt(Exception):
    pass


@pytest.mark.parametrize("k", _DRAW_COUNTS)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([0.05, 0.1, 0.3]), st.integers(0, 2**32 - 1),
       st.booleans())
def test_lognormal_stream_equals_scalar_draws(k, c2c, seed, interrupt):
    """k block-drawn factors equal k scalar rng.lognormal calls, and the
    generator ends in the same state, also when the with block raises."""
    assert device._NOISE_BLOCK_MAX == 4096  # _BLOCK_ENDS assume it
    s2 = math.log(1.0 + c2c**2)
    mean, sigma = -0.5 * s2, math.sqrt(s2)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = []
    try:
        with device._lognormal_stream(rng, mean, sigma) as (block, refill):
            got += [(block or refill()).pop() for _ in range(k)]
            if interrupt:
                raise _Interrupt
    except _Interrupt:
        pass
    expect = [ref.lognormal(mean=mean, sigma=sigma) for _ in range(k)]
    assert hexes(got) == hexes(expect)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_scheme_validation():
    with pytest.raises(ValueError):
        PulseScheme("bogus", 10, -1.6, v_step=-0.1, width=50e-6)
    with pytest.raises(ValueError):
        PulseScheme("amplitude_ramp", 10, -1.6, v_step=+0.1, width=50e-6)
    with pytest.raises(ValueError):
        PulseScheme("width_ramp", 10, -1.6, width_start=10e-6, width_ratio=0.9)
    with pytest.raises(ValueError):
        PulseSpec(-1.6, -1e-6)


def test_amplitude_preset_covers_onset_to_write():
    sch = preset_scheme("amplitude_ramp", "dep")
    pulses = sch.pulses()
    assert len(pulses) == 65
    assert pulses[0].v_write == pytest.approx(0.8)
    assert pulses[-1].v_write == pytest.approx(2.4)
    assert all(q.t_width == 50e-6 for q in pulses)


def test_amplitude_preset_full_swing(p, m0):
    trace = run_scheme(DeviceState(w=0.0), preset_scheme("amplitude_ramp", "pot"),
                       m0, p)
    assert trace.w[-1] == 1.0
    trace = run_scheme(DeviceState(w=1.0), preset_scheme("amplitude_ramp", "dep"),
                       m0, p)
    assert trace.w[-1] == 0.0


def test_width_preset_reaches_full_set(p, m0):
    trace = run_scheme(DeviceState(w=0.0), preset_scheme("width_ramp", "pot"),
                       m0, p)
    assert trace.w[-1] >= 0.99


def test_run_scheme_readout_tracks_state(p, m0):
    trace = run_scheme(DeviceState(w=0.0), preset_scheme("amplitude_ramp", "pot"),
                       m0, p)
    r = trace.r_ohms.tolist()
    # potentiation lowers resistance monotonically (noiseless)
    assert all(b <= a for a, b in zip(r, r[1:]))
    assert r[-1] == pytest.approx(1e8, rel=1e-6)


# --- DC hysteresis -----------------------------------------------------------

def _loop_grid(v_neg=1.6, v_pos=2.4, step=0.025):
    def ramp(a, b):
        n = max(int(round(abs(b - a) / step)), 1)
        return np.linspace(a, b, n + 1)
    return np.concatenate([ramp(0.0, -v_neg), ramp(-v_neg, v_pos)[1:],
                           ramp(v_pos, -v_neg)[1:], ramp(-v_neg, 0.0)[1:]])


def test_confined_sweep_leaves_state_alone(p):
    grid = np.linspace(-0.3, 0.3, 25)
    for w0 in (0.0, 0.5, 1.0):
        trace = dc_write_loop(DeviceState(w=w0), grid, p)
        assert trace.w.tolist() == [w0] * len(grid)


def test_memory_window_default_loop(p):
    grid = _loop_grid()
    trace = dc_write_loop(DeviceState(w=0.0), grid, p)
    win = memory_window(grid, trace.r_ohms)
    assert win.window_volts == pytest.approx(1.4, abs=0.05)
    assert win.v_c_minus == pytest.approx(-0.6, abs=0.05)
    assert win.v_c_plus == pytest.approx(0.8, abs=0.05)


def test_loop_closes(p):
    """A full loop returns to the same branch state on the second visit.

    The sweep order 0 -> -1.6 -> +2.4 -> -1.6 -> 0 passes the negative
    write twice; both visits must leave the device in the same (LRS)
    state, so the trailing leg retraces the leading one.
    """
    grid = _loop_grid()
    trace = dc_write_loop(DeviceState(w=0.0), grid, p)
    visits = np.flatnonzero(np.isclose(grid, -1.6))
    assert len(visits) == 2
    w_first, w_second = trace.w[visits].tolist()
    assert w_second == pytest.approx(w_first, abs=1e-12)
    r_first = float(trace.r_ohms[visits[0]])
    r_last = float(trace.r_ohms[-1])
    assert r_last == pytest.approx(r_first, rel=0.05)
    assert trace.w[-1] == 1.0


def test_loop_rejects_non_finite_grid(p):
    with pytest.raises(ValueError):
        dc_write_loop(DeviceState(w=0.0), [0.0, float("nan")], p)


def test_traces_are_float64_arrays_of_one_length(p, m0):
    """Both trace functions return one Trace of float64 arrays, one
    element per pulse or grid point; a Trace compares by identity only."""
    grid = _loop_grid()
    loop = dc_write_loop(DeviceState(w=0.0), grid, p)
    train = run_scheme(DeviceState(w=0.0), preset_scheme("hybrid", "pot"),
                       m0, p)
    for trace, n in ((loop, len(grid)), (train, 50)):
        assert type(trace) is Trace
        for f in fields(Trace):
            arr = getattr(trace, f.name)
            assert type(arr) is np.ndarray and arr.dtype == np.float64
            assert arr.shape == (n,)
    assert loop != dc_write_loop(DeviceState(w=0.0), grid, p)


@pytest.mark.parametrize("v_write, r_ohms, message", [
    ([], [], "at least 2 points, got 0"),
    ([0.0], [1e8], "at least 2 points, got 1"),
    ([0.0, 1.0, 2.0], [1e8, 1e9], r"equal length, got shapes \(3,\) and \(2,\)"),
    ([0.0, 1.0], [1e8, 1e9, 1e8], r"equal length, got shapes \(2,\) and \(3,\)"),
    ([[0.0, 1.0]], [[1e8, 1e9]], "1-D of equal length"),
    ([0.0, 1.0, 2.0], [1e8, math.nan, 1e9], r"r_ohms\[1\] = nan is not finite"),
    ([0.0, math.nan, 2.0], [1e8, 1e9, 1e8], r"v_write\[1\] = nan is not finite"),
    ([0.0, 1.0, 2.0], [1e8, math.inf, 1e8], r"r_ohms\[1\] = inf is not finite"),
    ([0.0, 1.0, 2.0], [0.0, 1e9, 1e8], r"r_ohms\[0\] = 0.0 is not finite and pos"),
    ([0.0, 1.0, 2.0], [1e8, 1e9, -1e9], r"r_ohms\[2\] = -1000000000.0 is not"),
])
def test_memory_window_checks_its_trace(v_write, r_ohms, message):
    with pytest.raises(ValueError, match=message):
        memory_window(v_write, r_ohms)


# --- retention / endurance / energy -----------------------------------------

def test_retention_zero_rate_is_identity():
    s = DeviceState(w=0.77)
    assert retention_evolve(s, 950400.0, 0.0) is s
    assert retention_evolve(s, 0.0, 1e-6) is s


def test_retention_exponential_decay():
    s = retention_evolve(DeviceState(w=1.0), 1e7, drift_rate=1e-7)
    assert s.w == pytest.approx(0.5 + 0.5 * math.exp(-1.0), abs=1e-9)
    s = retention_evolve(DeviceState(w=0.0), 1e7, drift_rate=1e-7)
    assert s.w == pytest.approx(0.5 - 0.5 * math.exp(-1.0), abs=1e-9)


def test_retention_validation():
    with pytest.raises(ValueError):
        retention_evolve(DeviceState(w=1.0), -1.0)
    with pytest.raises(ValueError):
        retention_evolve(DeviceState(w=1.0), 1.0, drift_rate=-1e-9)


def test_endurance_boundary():
    s = DeviceState(w=1.0)
    s = endurance_register(s, ENDURANCE_LIMIT)
    assert not s.broken
    s = endurance_register(s, 1)
    assert s.broken
    # broken is sticky
    assert endurance_register(s, 0).broken


def test_write_energy_formula(p):
    s = DeviceState(w=0.0)
    pulse = PulseSpec(-1.6, 50e-6)
    expect = abs(current_total(-1.6, 300.0, p, s)) * 1.6 * 50e-6
    assert write_energy(pulse, s, p) == pytest.approx(expect, rel=1e-12)
    # frozen default figure (the sub-pJ target misses by ~4 decades;
    # see the acceptance suite)
    assert write_energy(pulse, s, p) * 1e12 == pytest.approx(
        7642.127523053428, rel=1e-9)


def test_sample_device_statistics(p):
    offsets = np.array([sample_device(p, 0.1, ss).d2d_log10
                        for ss in np.random.SeedSequence(5).spawn(2000)])
    assert np.std(offsets, ddof=1) == pytest.approx(0.1, abs=0.01)
    assert abs(np.mean(offsets)) < 0.01
    # reproducible per seed
    a = sample_device(p, 0.1, 123)
    b = sample_device(p, 0.1, 123)
    assert a.d2d_log10 == b.d2d_log10
    assert sample_device(p, 0.0, 7).d2d_log10 == 0.0


_GUARD = settings(max_examples=120, deadline=None, derandomize=True,
                  database=None)


@st.composite
def _seed_sequences(draw):
    """Arguments of a SeedSequence: every entropy kind, spawn-key depth
    0-3, both pool sizes and a spawn count that may be nonzero."""
    kind = draw(st.sampled_from(("small", "big", "list", "u32", "u64")))
    if kind == "small":
        entropy = draw(st.integers(0, 2**32 - 1))
    elif kind == "big":
        entropy = draw(st.integers(2**64, 2**200))
    elif kind == "list":
        entropy = draw(st.lists(st.integers(0, 2**70), max_size=10))
    else:
        top = 2**32 - 1 if kind == "u32" else 2**64 - 1
        entropy = np.array(draw(st.lists(st.integers(0, top), min_size=1,
                                         max_size=10)),
                           dtype=np.uint32 if kind == "u32" else np.uint64)
    return dict(entropy=entropy,
                spawn_key=tuple(draw(st.lists(st.integers(0, 2**40),
                                              max_size=3))),
                pool_size=draw(st.sampled_from((4, 8))),
                n_children_spawned=draw(st.sampled_from((0, 1, 7, 2**20))))


@_GUARD
@given(_seed_sequences(), st.integers(1, 300), st.integers(0, 40))
def test_spawn_state_words_equal_numpy_children(kwargs, n, start):
    """The next n children, and children start .. start + n - 1 as
    _d2d_offsets takes a block."""
    ss = np.random.SeedSequence(**kwargs)
    expect = [c.generate_state(4, np.uint64)
              for c in np.random.SeedSequence(**kwargs).spawn(start + n)]
    words = _child_words([ss])(0, n)
    assert words.dtype == np.uint64 and words.shape == (n, 4)
    np.testing.assert_array_equal(words, expect[:n])
    np.testing.assert_array_equal(_child_words([ss])(start, n),
                                  expect[start:])
    assert ss.n_children_spawned == kwargs["n_children_spawned"]


@_GUARD
@given(st.lists(_seed_sequences(), min_size=1, max_size=4),
       st.sampled_from((4, 8)), st.integers(0, 80))
def test_spawn_state_words_of_several_seeds_in_one_pass(seeds, pool_size,
                                                         n):
    """One pass over several parents of one pool size, of any entropy,
    spawn key and spawn count, gives each parent's children as one row
    block."""
    seeds = [dict(kwargs, pool_size=pool_size) for kwargs in seeds]
    parents = [np.random.SeedSequence(**kwargs) for kwargs in seeds]
    expect = [c.generate_state(4, np.uint64)
              for kwargs in seeds
              for c in np.random.SeedSequence(**kwargs).spawn(n)]
    words = _child_words(parents)(0, n)
    assert words.dtype == np.uint64 and words.shape == (len(seeds) * n, 4)
    np.testing.assert_array_equal(words, np.reshape(expect, (-1, 4)))
    assert [ss.n_children_spawned for ss in parents] == [
        kwargs["n_children_spawned"] for kwargs in seeds]


@pytest.mark.parametrize("n", [12, 25, 64])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_d2d_offsets_of_sibling_seeds_equal_default_rng(n, sigma):
    """The s_pos, s_neg pair of an mvm_error_mc trial in one pass: each
    row equals default_rng on its seed's spawned children, on both sides
    of the vector cut-over of the summed population."""
    for trial in np.random.SeedSequence(2**40 + 5).spawn(3):
        siblings = trial.spawn(4)[:2]
        got = device._d2d_offsets(sigma, siblings, n)
        assert got.shape == (2, n)
        for row, ss in zip(got, siblings):
            assert hexes(row) == hexes(d2d_draws(sigma, ss, n))


# The kinds of seed a population is drawn from: an int, a SeedSequence
# with a spawn key that has spawned before, and an mvm_error_mc trial's
# (s_pos, s_neg) pair. Each call builds new objects.
_SEED_KINDS = {
    "int": lambda: [2**40 + 3],
    "spawned": lambda: [np.random.SeedSequence(9, spawn_key=(2, 5),
                                               n_children_spawned=7)],
    "siblings": lambda: np.random.SeedSequence(5).spawn(1)[0].spawn(4)[:2],
}


@pytest.fixture(scope="module")
def blocked_reference():
    """oracle.py's per-device draws of 2 _BLOCK + 1 children of each seed
    of each kind; a smaller population's draws are their prefix."""
    n = 2 * device._BLOCK + 1
    return {kind: [d2d_draws(0.1, seed, n) for seed in seeds()]
            for kind, seeds in _SEED_KINDS.items()}


@pytest.mark.parametrize("kind", list(_SEED_KINDS))
@pytest.mark.parametrize("extra", [-1, 0, 1, device._BLOCK + 1],
                         ids=["block-1", "block", "block+1", "2block+1"])
def test_blocked_draws_equal_per_device_draws(p, blocked_reference, kind,
                                              extra):
    """Populations on both sides of each block edge: _d2d_offsets over
    all seeds at once, and sample_d2d_offsets and build_crossbar on each
    seed, equal the per-device draws bit for bit."""
    n = device._BLOCK + extra
    expect = [hexes(draws[:n]) for draws in blocked_reference[kind]]
    got = device._d2d_offsets(0.1, _SEED_KINDS[kind](), n)
    assert got.shape == (len(expect), n)
    assert [hexes(row) for row in got] == expect
    for seed, want in zip(_SEED_KINDS[kind](), expect):
        assert hexes(sample_d2d_offsets(0.1, seed, n)) == want
    for seed, want in zip(_SEED_KINDS[kind](), expect):
        xbar = build_crossbar(1, n, p, sigma_d2d=0.1, seed=seed)
        assert hexes(xbar.d2d_log10) == want


@_GUARD
@given(_seed_sequences(), st.integers(1, 1024), st.sampled_from((0.0, 0.1, 0.5)))
def test_sample_d2d_offsets_equal_spawned_default_rng_draws(kwargs, n, sigma):
    got = sample_d2d_offsets(sigma, np.random.SeedSequence(**kwargs), n)
    assert hexes(got) == hexes(
        d2d_draws(sigma, np.random.SeedSequence(**kwargs), n))


# Forced draws. A PCG64 whose state after one LCG step is r < 2**64 (high
# half 0, rotation 0) outputs r first, so setting the state before that
# step through the public setter forces any first 64-bit output.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 2**128)
_U128 = 2**128 - 1


def _forced_generator(r, inc):
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                    "state": {"state": (r - inc) * _PCG_MULT_INV & _U128,
                              "inc": inc}}
    return np.random.Generator(bitgen)


def _forced_words(r, seq):
    """Seed words (init high, init low, seq high, seq low) of a child whose
    first PCG64 output is r, with the sequence word seq; and the child's
    increment."""
    inc = 2 * seq + 1 & _U128
    state = (r - inc) * _PCG_MULT_INV & _U128
    init = ((state - inc) * _PCG_MULT_INV - inc) & _U128
    return [init >> 64, init & 2**64 - 1, seq >> 64, seq & 2**64 - 1], inc


@pytest.fixture(scope="module")
def ziggurat_wi():
    # numpy's strip widths, read exactly: rabs = 1 in strip i draws wi[i]
    return [float(_forced_generator(1 << 9 | i, 1).standard_normal())
            for i in range(256)]


def _forced_raw(wi, strip, place, delta, sign):
    """A first output in the given strip whose 52-bit magnitude sits at
    place (an edge of the strip, or an edge of the band 1e-9 wide around
    ki ~ 2**52 wi[strip - 1] / wi[strip], where strip 0 takes wi[255])
    plus delta."""
    ki = 2.0**52 * wi[strip - 1] / wi[strip] if strip != 1 else 2.0**51
    rabs = {"low": 0, "high": 2**52 - 1,
            "band_low": math.floor(ki * (1 - 1e-9)),
            "ki": round(ki),
            "band_high": math.ceil(ki * (1 + 1e-9))}[place] + delta
    return min(max(rabs, 0), 2**52 - 1) << 9 | sign << 8 | strip


@settings(_GUARD, max_examples=60)
@given(_seed_sequences(), st.integers(1, 4096), st.sampled_from((0.0, 0.1, 0.5)),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 255),
                          st.sampled_from(("low", "high", "band_low", "ki",
                                           "band_high")),
                          st.integers(-2, 2), st.integers(0, 1)),
                max_size=24),
       st.data())
def test_sample_d2d_offsets_equal_forced_and_spawned_draws(
        ziggurat_wi, kwargs, n, sigma, forced, data):
    """Natural children compare with default_rng on the spawned child;
    forced ones, at the edges of strips 0 and 1 and on both sides of the
    ki band of strip 0 and of any other strip, with a Generator on the
    forced state."""
    words = _child_words([np.random.SeedSequence(**kwargs)])(0, n)
    expect = d2d_draws(sigma, np.random.SeedSequence(**kwargs), n)
    strips = [0] + data.draw(st.lists(st.integers(2, 255), min_size=2,
                                      max_size=2))
    forced += [(k / 10, strip, place, delta, k % 2)
               for k, (strip, place, delta) in enumerate(
                   [(0, "low", 0), (0, "high", 0), (1, "low", 0),
                    (1, "high", 0)]
                   + [(strip, place, delta) for strip in strips
                      for place, delta in (("band_low", -1),
                                           ("band_high", 0))])]
    for frac, strip, place, delta, sign in forced:
        i = min(int(frac * n), n - 1)
        r = _forced_raw(ziggurat_wi, strip, place, delta, sign)
        seq = int(words[i, 2]) << 64 | int(words[i, 3])
        row, inc = _forced_words(r, seq)
        words[i] = row
        assert np.random.PCG64(_ChildSeed(words[i])).random_raw() == r
        expect[i] = float(_forced_generator(r, inc).normal(0.0, sigma))
    with mock.patch("ftjsim.device._child_words",
                    lambda seeds: lambda start, count:
                    words[start:start + count].copy()):
        got = sample_d2d_offsets(sigma, np.random.SeedSequence(**kwargs), n)
    assert hexes(got) == hexes(expect)


def test_vector_pass_is_on_and_runs_clean():
    """On the installed numpy the vector pass is on and under 5 % of a 10k
    population falls back. Building its tables and drawing raise no
    floating-point error and no warning, as cli.main runs handlers."""
    device._ziggurat_tables.cache_clear()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        tables = device._ziggurat_tables()
        assert tables is not None
        words = _child_words([np.random.SeedSequence(7)])(0, 10000)
        _, exact = device._ziggurat_fast_path(
            device._pcg64_first_outputs(words), *tables)
        assert 0 < np.count_nonzero(~exact) < 500
        assert len(sample_d2d_offsets(0.1, 7, 10000)) == 10000


_FIRST_OUTPUTS, _FORCED_DRAW = device._pcg64_first_outputs, device._forced_draw


def _misread_first_outputs(words):
    return _FIRST_OUTPUTS(words) ^ 1


def _accepts_every_draw(bitgen, gen, r):
    return _FORCED_DRAW(bitgen, gen, r)[0], True


@pytest.mark.parametrize("name, fake", [
    ("_pcg64_first_outputs", _misread_first_outputs),
    ("_forced_draw", _accepts_every_draw)], ids=["seeding", "ki_band"])
def test_vector_pass_switches_off_when_numpy_draws_otherwise(name, fake):
    """A numpy whose PCG64 seeding or ziggurat acceptance differs from the
    model fails a table check, and every draw takes the per-device path."""
    expect = d2d_draws(0.1, 3, 500)
    device._ziggurat_tables.cache_clear()
    try:
        with mock.patch.object(device, name, fake):
            assert device._ziggurat_tables() is None
            assert hexes(sample_d2d_offsets(0.1, 3, 500)) == hexes(expect)
    finally:
        device._ziggurat_tables.cache_clear()


@pytest.mark.parametrize("seed", [0, 12345, 2**70 + 1, [3, 1, 4],
                                  ["0x1f", "017", "9", 2**33]])
def test_sample_d2d_offsets_int_seed_equals_sample_device(p, seed):
    children = np.random.SeedSequence(seed).spawn(40)
    expect = [sample_device(p, 0.1, c).d2d_log10 for c in children]
    assert hexes(sample_d2d_offsets(0.1, seed, 40)) == hexes(expect)
    assert sample_d2d_offsets(0.1, seed, 0) == []


def test_spawn_state_words_child_index_limit():
    # the last child with a one-word index, built the way spawn builds it
    expect = np.random.SeedSequence(9, spawn_key=(2**32 - 1,)).generate_state(
        4, np.uint64)
    last = np.random.SeedSequence(9, n_children_spawned=2**32 - 1)
    np.testing.assert_array_equal(_child_words([last])(0, 1), [expect])
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _child_words([last])(0, 2)


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
def test_sigma_d2d_rejected_before_any_draw(p, sigma):
    with pytest.raises(ValueError, match="sigma_d2d"):
        sample_device(p, sigma, 3)
    with pytest.raises(ValueError, match="sigma_d2d"):
        sample_d2d_offsets(sigma, 3, 5)


def test_read_state_consistency(p):
    s = DeviceState(w=1.0)
    ro = read_state(s, p, v_read=0.3)
    assert ro.r_ohms == pytest.approx(0.3 / ro.i_amps, rel=1e-15)
    assert ro.j_a_per_m2 == pytest.approx(ro.i_amps / p.area, rel=1e-15)
    assert read_state(s, p, v_read=0.3).r_ohms == pytest.approx(1e8, rel=1e-9)


def test_state_validation():
    with pytest.raises(ValueError):
        DeviceState(w=1.5)
    with pytest.raises(ValueError):
        DeviceState(w=-0.1)
    with pytest.raises(ValueError):
        DeviceState(w=0.5, d2d_log10=float("inf"))
    with pytest.raises(ValueError):
        DeviceState(w=0.5, cycles=-1)


# --- Bit-identity guard: float-level pulse trains and sweeps -----------------
#
# The references are oracle.py's per-pulse and per-point loops, one scalar
# read each. The float-level loops must reproduce every element of every
# Trace field by float.hex, and every generator draw.

def _bits(result):
    """Every field of a Readout or a Trace, in order, element by element by
    float.hex; a Trace has no ==."""
    return [hexes(np.atleast_1d(getattr(result, f.name)))
            for f in fields(result)]


@dataclass(frozen=True)
class _Train:
    """A hand-built pulse train: run_scheme reads only kind and pulses(),
    so this one can mix polarities, zero widths and sub-threshold pulses."""

    kind: str
    train: tuple

    def pulses(self):
        return list(self.train)


_READ_V = st.sampled_from([0.3, -0.25, 0.0, -0.0])
_TEMPS = st.floats(250.0, 340.0)


@st.composite
def _states(draw):
    return DeviceState(w=draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                        st.floats(0.0, 1.0))),
                       d2d_log10=draw(st.floats(-0.5, 0.5)),
                       cycles=draw(st.integers(0, 5)),
                       broken=draw(st.integers(0, 9)) == 0,
                       last_polarity=draw(st.integers(-1, 1)))


@st.composite
def _schemes(draw):
    """A preset, a random ramp that may start below its onset, or a mixed
    train with zero-width and sub-threshold pulses."""
    kind = draw(st.sampled_from(SCHEME_KINDS))
    form = draw(st.sampled_from(("preset", "ramp", "train")))
    if form == "preset":
        return preset_scheme(kind, draw(st.sampled_from(("pot", "dep"))),
                             alt_amplitudes=draw(st.booleans()))
    if form == "train":
        pulse = st.builds(PulseSpec,
                          st.one_of(st.floats(-3.0, 3.0),
                                    st.sampled_from([-0.6, 0.8, 0.0])),
                          st.sampled_from([0.0, 1e-6, 50e-6]))
        return _Train(kind, tuple(draw(st.lists(pulse, min_size=1,
                                                max_size=40))))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    v_start = sign * draw(st.floats(0.1, 2.0))
    n = draw(st.integers(1, 60))
    if kind == "amplitude_ramp":
        return PulseScheme(kind, n, v_start,
                           v_step=sign * draw(st.floats(0.0, 0.1)),
                           width=draw(st.floats(1e-6, 1e-4)))
    v_max = v_start + sign * draw(st.floats(0.0, 2.0))
    return PulseScheme(kind, n, v_start, v_max=v_max,
                       width_start=draw(st.floats(1e-6, 1e-4)),
                       width_ratio=draw(st.floats(1.0, 1.2)))


@_GUARD
@given(_states(), _schemes(), st.sampled_from([0.0, 0.1, 0.3]),
       st.sampled_from([10, 50]), _READ_V, _TEMPS, st.integers(0, 2**32 - 1))
def test_run_scheme_bit_identical_to_per_pulse_reference(s, scheme, c2c, n_full,
                                                         v_read, t, seed):
    p = default_params()
    m = default_update_model(n_full=n_full, c2c_rel=c2c)
    rng_new, rng_ref = (np.random.default_rng(seed) for _ in range(2))
    new = run_scheme(s, scheme, m, p, v_read=v_read, t=t, rng=rng_new)
    ref = trace_of(pulse_train(s, scheme, m, rng_ref), p, v_read, t)
    assert _bits(new) == [hexes(column) for column in ref]
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@_GUARD
@given(_states(), st.lists(st.one_of(st.floats(-3.0, 3.0),
                                     st.sampled_from([-0.9, -0.3, 0.5, 1.1])),
                           min_size=1, max_size=80),
       _READ_V, _TEMPS)
def test_dc_write_loop_bit_identical_to_per_point_reference(s, grid, v_read, t):
    p = default_params()
    assert _bits(dc_write_loop(s, grid, p, v_read=v_read, t=t)) == [
        hexes(column) for column in trace_of(dc_loop(s, grid), p, v_read, t)]


def _reference_pulses(scheme):
    """A scheme's train built pulse by pulse from its fields, on every call."""
    out = []
    for k in range(scheme.n_pulses):
        if scheme.kind == "amplitude_ramp":
            out.append(PulseSpec(scheme.v_start + k * scheme.v_step, scheme.width))
        elif scheme.kind == "width_ramp":
            out.append(PulseSpec(scheme.v_start,
                                 scheme.width_start * scheme.width_ratio ** k))
        else:
            if scheme.n_pulses == 1:
                v = scheme.v_start
            else:
                v = scheme.v_start + k * (scheme.v_max - scheme.v_start) \
                    / (scheme.n_pulses - 1)
            out.append(PulseSpec(v, scheme.width_start * scheme.width_ratio ** k))
    return out


@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("polarity", ["pot", "dep"])
@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_preset_pulses_equal_per_call_construction(kind, polarity, alt):
    scheme = preset_scheme(kind, polarity, alt_amplitudes=alt)
    assert list(scheme.pulses()) == _reference_pulses(scheme)
    assert scheme.pulses() is scheme.pulses()


@_GUARD
@given(_schemes().filter(lambda s: isinstance(s, PulseScheme)))
def test_drawn_pulses_equal_per_call_construction(scheme):
    """The train is built once, at construction; it is no field, so a
    scheme's equality, hash, repr and replace() ignore it."""
    assert list(scheme.pulses()) == _reference_pulses(scheme)
    twin = replace(scheme)
    assert twin == scheme and hash(twin) == hash(scheme)
    assert twin.pulses() == scheme.pulses() and "_specs" not in repr(scheme)
    shorter = replace(scheme, n_pulses=max(1, scheme.n_pulses // 2))
    assert list(shorter.pulses()) == _reference_pulses(shorter)


@pytest.mark.parametrize("run", [
    lambda s, p: read_state(s, p),
    lambda s, p: run_scheme(s, preset_scheme("amplitude_ramp", "pot"),
                            default_update_model(c2c_rel=0.0), p),
    lambda s, p: dc_write_loop(s, [0.0, -1.0, 1.0], p),
], ids=["read_state", "run_scheme", "dc_write_loop"])
def test_numpy_offset_past_float_range_is_named(p, run):
    """Regression: an np.float64 d2d_log10 took numpy's scalar power, which
    returned an infinite read with an overflow RuntimeWarning instead of
    the named OverflowError; a finite one reads as its float does."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"d2d_log10 = -400\.0 is "
                           r"outside float range"):
            run(DeviceState(w=0.5, d2d_log10=np.float64(-400.0)), p)
        assert _bits(run(DeviceState(w=0.5, d2d_log10=np.float64(0.1)), p)) \
            == _bits(run(DeviceState(w=0.5, d2d_log10=0.1), p))


def test_run_scheme_noise_without_generator_raises(p):
    m = default_update_model(c2c_rel=0.1)
    scheme = preset_scheme("amplitude_ramp", "pot")
    with pytest.raises(ValueError, match="explicit generator"):
        run_scheme(DeviceState(w=0.0), scheme, m, p)
    with pytest.raises(ValueError, match="explicit generator"):
        pulse_train(DeviceState(w=0.0), scheme, m)
    # a broken device never pulses, so it needs no generator
    trace = run_scheme(DeviceState(w=0.4, broken=True), scheme, m, p)
    assert trace.w.tolist() == [0.4] * scheme.n_pulses


@pytest.mark.parametrize("v_read, t", [(math.nan, 300.0), (math.inf, 300.0),
                                       (0.3, 0.0), (0.3, math.nan)])
def test_run_scheme_checks_the_read_before_any_pulse(p, v_read, t):
    m = default_update_model(c2c_rel=0.1)
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        run_scheme(DeviceState(w=0.0), preset_scheme("hybrid", "pot"), m, p,
                   v_read=v_read, t=t, rng=rng)
    assert rng.bit_generator.state == before


def test_run_scheme_checks_the_offset_before_any_pulse(p):
    """An offset past float range raises the named OverflowError before
    the first pulse takes its noise draw from the caller's generator."""
    m = default_update_model(c2c_rel=0.1)
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(OverflowError, match=r"d2d_log10 = -400\.0 is "
                       r"outside float range"):
        run_scheme(DeviceState(w=0, d2d_log10=-400),
                   preset_scheme("amplitude_ramp", "pot"), m, p, rng=rng)
    assert rng.bit_generator.state == before


_TRACE_BIASES = st.one_of(st.sampled_from([0.0, -0.0, 0.3, -0.25]),
                          st.floats(0.01, 2.0), st.floats(-2.0, -0.01))


@_GUARD
@given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 1.0]),
                                    st.floats(0.0, 1.0)),
                          st.floats(-3.0, 3.0)), max_size=40),
       st.booleans(), _TRACE_BIASES, _TEMPS)
def test_trace_read_equals_per_state_reads(states, one_offset, v, t):
    """One _trace_read call over a list of w, with one scalar offset
    broadcast over it or one offset per state, gives each state's scalar
    current_total and |v / i| (inf at zero current) by float.hex, under
    np.errstate(all="raise") with warnings as errors."""
    p = default_params()
    ws = [w for w, _ in states]
    if one_offset:
        d2d = states[0][1] if states else 0.0
        offsets = [d2d] * len(states)
    else:
        d2d = offsets = [d for _, d in states]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        i, r = device._trace_read(v, t, p, ws, d2d)
    ref = trace_of([DeviceState(w=w, d2d_log10=d)
                    for w, d in zip(ws, offsets)], p, v, t)
    assert [hexes(i), hexes(r)] == [hexes(column) for column in ref[1:]]


@pytest.mark.parametrize("v_read, t", [(math.nan, 300.0), (0.3, -1.0)])
def test_dc_write_loop_checks_the_read(p, v_read, t):
    with pytest.raises(ValueError):
        dc_write_loop(DeviceState(w=0.0), [0.0, -1.0], p, v_read=v_read, t=t)
