"""The CLI's trace commands against oracle.py's per-train or per-point
forms: cdf and fitA run every train on one noise stream, and scheme runs
its n_cycles potentiation and depression trains as one train, where the
oracle runs each train pulse by pulse on its own pass; hysteresis and
retention read each point once. Rows and payloads must agree by
float.hex, cell type included, and the generators must end in the same
state.
"""

import numpy as np
import pytest

from ftjsim import cli, device
from ftjsim.config import build_model, parse_config
from ftjsim.device import SCHEME_KINDS, preset_scheme
from oracle import command_run, reference_run


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
    assert command_run(command, cfg, bundle, seed) \
        == reference_run(command, cfg, bundle, seed)


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
    run = command_run("hysteresis", cfg, bundle, 0)
    assert run == reference_run("hysteresis", cfg, bundle, 0)
    assert run[1] == []


@pytest.mark.parametrize("t_kelvin", [300.0, 350.0])
@pytest.mark.parametrize("v_read", [0.3, 0.1])
@pytest.mark.parametrize("rate", [0.0, 1e-6, 1e-3])
def test_retention_equals_the_per_point_reference(rate, v_read, t_kelvin):
    """cmd_retention's rows and payload equal one retention_evolve and one
    scalar read per hold time and start state, by float.hex and cell
    type; it draws nothing."""
    cfg = parse_config(f"[retention]\ndrift_rate_per_s = {rate!r}\n[device]\n"
                       f"v_read_v = {v_read!r}\nt_kelvin = {t_kelvin!r}\n")
    bundle = build_model(cfg)
    run = command_run("retention", cfg, bundle, 0)
    assert run == reference_run("retention", cfg, bundle, 0)
    assert run[1] == []



@pytest.mark.parametrize("text", ["", "[update]\nv_on_pot_v = -3.0\n"])
def test_scheme_trains_restart_from_the_start_state(monkeypatch, text):
    """scheme's one train gives the w of the per-train form on the same
    noise stream: each train after the first starts where the one before
    it ended, also when no pulse of the train moved the state
    (v_on_pot_v = -3.0 puts every potentiation pulse below its onset)."""
    calls = []
    trains = device._trains

    def spy(m, kind, rng, runs):
        out = trains(m, kind, rng, runs)
        calls.append((rng, runs, out))
        return out

    monkeypatch.setattr(device, "_trains", spy)
    cfg = parse_config("[scheme]\nn_cycles = 3\n" + text)
    bundle = build_model(cfg)
    cli.cmd_scheme(cfg, bundle, 0)
    [(rng, [(w, _)], [ws])] = calls
    assert w == 0.0

    sec = cfg.scheme
    per_train = [preset_scheme(sec.kind, polarity,
                               alt_amplitudes=sec.alt_amplitudes).pulses()
                 for polarity in ("pot", "dep")] * sec.n_cycles
    reference_rng = np.random.default_rng(0)
    expected = []
    for train in per_train:
        [run] = trains(bundle.update, sec.kind, reference_rng, [(w, train)])
        expected += run
        w = run[-1]
    assert [x.hex() for x in ws] == [x.hex() for x in expected]
    assert rng.bit_generator.state == reference_rng.bit_generator.state
