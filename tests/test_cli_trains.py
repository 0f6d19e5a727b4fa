"""The CLI's trace commands against their per-train or per-point reference.

cmd_scheme, cmd_cdf and cmd_fit_a open one device._pulser per command and
run every train of it through device._train on that one noise stream;
scheme and cdf then read all their traces in one device._trace_read call.
The references below are the same commands with each train one run_scheme
call on its own stream. cmd_hysteresis is checked against the per-point
loop of the device tests, one replace and one scalar read per grid point,
with memory_window run over Python floats. Rows and payloads must agree by
float.hex, cell type included, and the generators must end in the same
state.
"""

from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest

from ftjsim import cli
from ftjsim.conduction import V_READ
from ftjsim.config import _loop_legs, build_model, parse_config
from ftjsim.device import (SCHEME_KINDS, T_WIDTH_DEFAULT, V_DEP_DEFAULT,
                           V_POT_DEFAULT, DeviceState, PulseScheme,
                           memory_window, preset_scheme, read_state,
                           run_scheme)
from ftjsim.extraction import cdf_levels, fit_update_a
from test_device import _reference_dc_write_loop


def _reference_scheme(cfg, bundle, rng):
    p, m = bundle.params, bundle.update
    sec = cfg.scheme
    state = DeviceState(w=0.0)
    rows = []
    for cycle in range(1, sec.n_cycles + 1):
        index = 0
        for polarity in ("pot", "dep"):
            scheme = preset_scheme(sec.kind, polarity,
                                   alt_amplitudes=sec.alt_amplitudes)
            trace = run_scheme(state, scheme, m, p, v_read=V_READ,
                               t=bundle.t_kelvin, rng=rng)
            for pulse, w, r in zip(scheme.pulses(), trace.w.tolist(),
                                   trace.r_ohms.tolist()):
                rows.append((cycle, index, pulse.v_write, pulse.t_width, w, r))
                index += 1
            state = replace(state, w=float(trace.w[-1]),
                            last_polarity=-1 if polarity == "pot" else 1)
    return "trace.csv", ["cycle", "pulse_index", "v_write_volts", "t_width_s",
                         "w", "r_ohms_0p3v"], rows, {
        "kind": sec.kind,
        "cycles": sec.n_cycles,
        "alt_amplitudes": sec.alt_amplitudes,
        "c2c_rel": m.c2c_rel,
        "final_w": rows[-1][4],
    }


def _reference_cdf(cfg, bundle, rng):
    p, m = bundle.params, bundle.update
    cycles = cfg.cdf.n_cycles
    scheme = preset_scheme("amplitude_ramp", "dep")
    n = scheme.n_pulses
    traces = np.zeros((cycles, n + 1))
    s0 = DeviceState(w=1.0)
    traces[:, 0] = read_state(s0, p, v_read=V_READ,
                              t=bundle.t_kelvin).r_ohms
    for k in range(cycles):
        trace = run_scheme(s0, scheme, m, p, v_read=V_READ,
                           t=bundle.t_kelvin, rng=rng)
        traces[k, 1:] = trace.r_ohms
    report = cdf_levels(traces)
    rows = zip(range(n + 1), report.medians.tolist(), report.iqrs.tolist())
    return "cdf.csv", ["pulse_index", "median_r_ohms", "iqr_r_ohms"], rows, {
        "cycles": cycles,
        "scheme": "amplitude_ramp depression",
        "read_v": V_READ,
        "c2c_rel": m.c2c_rel,
        "n_levels": report.n_levels,
        "pooled_iqr_ohms": report.pooled_iqr,
    }


def _reference_fit_a(cfg, bundle, rng):
    p = bundle.params
    m = replace(bundle.update, c2c_rel=0.0)
    kind = cfg.fit_a.kind
    shape = m.shape_for(kind)
    n = m.n_full
    if kind == "amplitude_ramp":
        pot, dep = (PulseScheme("amplitude_ramp", n, v, v_step=0.0,
                                width=T_WIDTH_DEFAULT)
                    for v in (V_POT_DEFAULT, V_DEP_DEFAULT))
    else:
        pot, dep = preset_scheme(kind, "pot"), preset_scheme(kind, "dep")
    pot_w = run_scheme(DeviceState(w=0.0), pot, m, p).w.tolist()
    dep_w = run_scheme(DeviceState(w=1.0), dep, m, p).w.tolist()
    fit_pot = fit_update_a(np.arange(1, len(pot_w) + 1), pot_w)
    fit_dep = fit_update_a(np.arange(1, len(dep_w) + 1),
                           [1.0 - w for w in dep_w])
    rows = [
        ("a_pot", fit_pot.a, float("nan")),
        ("a_dep", fit_dep.a, float("nan")),
        ("amplitude_pot", fit_pot.amplitude, float("nan")),
        ("amplitude_dep", fit_dep.amplitude, float("nan")),
    ]
    return "fit.csv", ["param", "value", "stderr"], rows, {
        "kind": kind,
        "model_a": {"a_pot": shape.a_pot, "a_dep": shape.a_dep},
        "fit": {"a_pot": fit_pot.a, "a_dep": fit_dep.a,
                "rss_pot": fit_pot.rss, "rss_dep": fit_dep.rss,
                "at_bound": fit_pot.at_bound or fit_dep.at_bound},
    }


def _reference_hysteresis(cfg, bundle, rng):
    sec = cfg.hysteresis
    grid = [0.0]
    for a, b, n in _loop_legs(sec):
        grid += np.linspace(a, b, n + 1)[1:].tolist()
    w, i, r = _reference_dc_write_loop(DeviceState(w=0.0), grid,
                                       bundle.params, bundle.v_read,
                                       bundle.t_kelvin)
    rows = list(zip(grid, w, i, r))
    return "loop.csv", ["v_write_volts", "w", "i_amps", "r_ohms"], rows, {
        "sweep": asdict(sec),
        "read": {"v_read": bundle.v_read, "t_kelvin": bundle.t_kelvin},
        "window": asdict(memory_window(grid, r)),
    }


_REFERENCES = {"scheme": _reference_scheme, "cdf": _reference_cdf,
               "fitA": _reference_fit_a, "hysteresis": _reference_hysteresis}


def _exact(obj):
    """A table or payload with every float as its hex and every scalar
    tagged with its type, so equality is bit for bit."""
    if isinstance(obj, dict):
        return {k: _exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, zip)):
        return [_exact(v) for v in obj]
    if type(obj) is float:
        return "float", obj.hex()
    return type(obj).__name__, obj


def _command_run(command, cfg, bundle, seed):
    """(exact table, end states of every generator it made) of the CLI
    handler."""
    made = []
    default_rng = np.random.default_rng

    def spy(*args, **kwargs):
        made.append(default_rng(*args, **kwargs))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", spy):
        table = _exact(cli._HANDLERS[command](cfg, bundle, seed))
    return table, [g.bit_generator.state for g in made]


def _reference_run(command, cfg, bundle, seed):
    """(exact table, generator end states) of the reference; the handlers
    that draw make one generator, default_rng(seed)."""
    rng = np.random.default_rng(seed)
    table = _exact(_REFERENCES[command](cfg, bundle, rng))
    draws = command in ("scheme", "cdf")
    return table, [rng.bit_generator.state] if draws else []


_CONFIGS = {
    "scheme": [f"[scheme]\nkind = {kind}\nalt_amplitudes = {alt}\n"
               f"n_cycles = {n}\n[update]\nc2c_rel = {c2c}\n"
               for kind in SCHEME_KINDS for alt in ("false", "true")
               for n, c2c in ((3, 0.1), (2, 0.0))]
    + ["[scheme]\nn_cycles = 4\n[update]\nv_on_pot_v = -3.0\n",
       "[scheme]\nkind = width_ramp\n[update]\nc2c_rel = 0.3\nn_full = 12\n"],
    "cdf": ["", "[cdf]\nn_cycles = 2\n", "[update]\nc2c_rel = 0.0\n",
            "[update]\nc2c_rel = 0.3\nv_on_dep_v = 1.5\n[cdf]\nn_cycles = 40\n"],
    "fitA": [f"[fitA]\nkind = {kind}\n[update]\nc2c_rel = {c2c}\nn_full = {n}\n"
             for kind in SCHEME_KINDS for c2c, n in ((0.1, 50), (0.0, 20))],
}


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5])
@pytest.mark.parametrize("command, text", [
    (command, text) for command, texts in _CONFIGS.items() for text in texts])
def test_train_commands_equal_the_per_train_reference(command, text, seed):
    cfg = parse_config(text)
    bundle = build_model(cfg)
    assert _command_run(command, cfg, bundle, seed) \
        == _reference_run(command, cfg, bundle, seed)


@pytest.mark.parametrize("text", [
    "",
    "[hysteresis]\nv_neg_v = 1.2\nv_pos_v = 1.7\nstep_v = 0.01\n",
    "[hysteresis]\nv_neg_v = 3.0\nv_pos_v = 3.5\nstep_v = 0.07\n"
    "[device]\nv_read_v = 0.1\nt_kelvin = 350\n",
    "[hysteresis]\nstep_v = 0.013\n[device]\nv_read_v = 0.45\n"
    "t_kelvin = 220\n",
    "[hysteresis]\nv_neg_v = 0.95\nv_pos_v = 1.2\nstep_v = 0.2\n"
    "[device]\nt_kelvin = 310\n"])
def test_hysteresis_equals_the_per_point_reference(text):
    """cmd_hysteresis's rows and payload, window included, equal the
    per-point loop and memory_window over Python floats by float.hex and
    cell type, over non-default legs, steps, read biases and
    temperatures; it draws nothing."""
    cfg = parse_config(text)
    bundle = build_model(cfg)
    run = _command_run("hysteresis", cfg, bundle, 0)
    assert run == _reference_run("hysteresis", cfg, bundle, 0)
    assert run[1] == []


@pytest.mark.parametrize("text", ["", "[update]\nv_on_pot_v = -3.0\n"])
def test_scheme_trains_restart_from_the_start_state(monkeypatch, text):
    """Each train after the first starts where the one before it ended in
    w, with cycles back at the start state's 0 and last_polarity forced to
    -1 after potentiation and +1 after depression, as the per-train form
    does, also when no pulse of the train moved the state (v_on_pot_v =
    -3.0 puts every potentiation pulse below its onset)."""
    starts, ends = [], []
    train = cli._train

    def spy(step, s, pulses):
        starts.append((s.w, s.cycles, s.last_polarity))
        ws = train(step, s, pulses)
        ends.append(ws[-1])
        return ws

    monkeypatch.setattr(cli, "_train", spy)
    cfg = parse_config("[scheme]\nn_cycles = 3\n" + text)
    cli.cmd_scheme(cfg, build_model(cfg), 0)
    assert [(cycles, last) for _, cycles, last in starts] \
        == [(0, 0)] + [(0, -1), (0, 1)] * 2 + [(0, -1)]
    assert [w for w, _, _ in starts] == [0.0] + ends[:-1]
