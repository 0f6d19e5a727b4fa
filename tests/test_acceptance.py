"""Figure-of-merit acceptance suite.

One test per release criterion. Every test prints a single verdict line
(bypassing capture) so a plain pytest run doubles as a checklist:

    [acceptance 03] PASS (0.01 s) R(+0.3 V, LRS) = 1.000e+08 ohm ...

Criterion 10 (sub-pJ write energy) is known-red under the default
calibration: the calibrated resistance scale puts the -1.6 V/50 us pulse
in the nJ range. It is asserted faithfully anyway so the gap stays
visible; see the README limitations section.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ftjsim.cli import main as cli_main
from ftjsim.conduction import (
    CalibrationTargets,
    calibrate,
    current_ohmic,
    current_pf,
    current_total,
    current_tunneling,
    default_params,
    on_off,
    self_selection_ratio,
)
from ftjsim.crossbar import (
    BiasScheme,
    build_crossbar,
    sneak_margin,
    solve_network,
)
from ftjsim.device import (
    DeviceState,
    PulseScheme,
    PulseSpec,
    dc_write_loop,
    default_update_model,
    memory_window,
    preset_scheme,
    read_state,
    retention_evolve,
    run_scheme,
    sample_device,
    write_energy,
)
from ftjsim.extraction import (
    OHMIC_WINDOW,
    PF_WINDOW,
    Sweep,
    cdf_levels,
    discriminate_tunneling,
    extract_ohmic,
    extract_pf,
    fit_update_a,
)
from ftjsim.inference import map_weights, mvm_charge, mvm_error_mc
from oracle import gauss_seidel

T = 300.0
TEMPS = (300.0, 320.0, 340.0, 360.0)
A_POT_TRUE = 50.0 / 4.3


def _verdict(capfd, num: int, ok: bool, t0: float, budget: float,
             detail: str):
    elapsed = time.perf_counter() - t0
    word = "PASS" if ok else "FAIL"
    with capfd.disabled():  # the checklist must survive output capture
        print(f"[acceptance {num:02d}] {word} ({elapsed:.2f} s) {detail}",
              flush=True)
    assert elapsed < budget, f"criterion {num} blew its {budget:.0f} s budget"


def test_criterion_01_on_off_window(capfd):
    t0 = time.perf_counter()
    ratio = on_off(default_params(), t=T)
    ok = 7.0 <= ratio <= 12.0
    _verdict(capfd, 1, ok, t0, 1.0,
             f"ON/OFF at 0.1 V read = {ratio:.3f} (need [7, 12])")
    assert ok


def test_criterion_02_self_selection(capfd):
    t0 = time.perf_counter()
    sel = self_selection_ratio(0.5, T, default_params(), DeviceState(w=1.0))
    ok = sel > 40.0
    _verdict(capfd, 2, ok, t0, 1.0,
             f"I(0.5 V)/I(0.25 V) in LRS = {sel:.2f} (need > 40)")
    assert ok


def test_criterion_03_calibrated_r_on(capfd):
    t0 = time.perf_counter()
    p = calibrate()
    r = 0.3 / current_total(0.3, T, p, DeviceState(w=1.0))
    ok = abs(r - 1e8) <= 0.01 * 1e8
    _verdict(capfd, 3, ok, t0, 1.0,
             f"R(+0.3 V, LRS) = {r:.4e} ohm (need 1e8 +- 1%)")
    assert ok


def test_criterion_04_memory_window(capfd):
    t0 = time.perf_counter()
    grid = np.concatenate([
        np.linspace(0.0, -1.6, 33),
        np.linspace(-1.6, 2.4, 81)[1:],
        np.linspace(2.4, -1.6, 81)[1:],
        np.linspace(-1.6, 0.0, 33)[1:],
    ])
    trace = dc_write_loop(DeviceState(w=1.0), grid, default_params())
    win = memory_window(grid, trace.r_ohms)
    ok = (abs(win.window_volts - 1.4) <= 0.1
          and abs(win.v_c_minus - (-0.6)) <= 0.05)
    _verdict(capfd, 4, ok, t0, 1.0,
             f"window = {win.window_volts:.3f} V, v_c- = {win.v_c_minus:.3f} V"
             " (need 1.4 +- 0.1 with v_c- = -0.6)")
    assert ok


def test_criterion_05_round_trip_extraction(capfd):
    t0 = time.perf_counter()
    p = replace(default_params(), phi_pf=0.12, ea_ohm=0.18)
    v_pf = np.linspace(*PF_WINDOW, 10)
    v_oh = np.linspace(*OHMIC_WINDOW, 10)
    pf = extract_pf([Sweep(v_pf, current_pf(v_pf, t, p), t) for t in TEMPS],
                    d_fe=p.d_fe)
    oh = extract_ohmic(
        [Sweep(v_oh, current_ohmic(v_oh, t, p), t) for t in TEMPS])
    ok = (abs(pf.phi_pf_ev - 0.12) <= 0.05 * 0.12
          and abs(oh.ea_ohm_ev - 0.18) <= 0.05 * 0.18)
    _verdict(capfd, 5, ok, t0, 10.0,
             f"recovered phi = {pf.phi_pf_ev:.4f} eV (inj 0.12), "
             f"ea = {oh.ea_ohm_ev:.4f} eV (inj 0.18); need 5%")
    assert ok


def test_criterion_06_tunneling_discrimination(capfd):
    t0 = time.perf_counter()
    p = default_params()
    v = np.linspace(*PF_WINDOW, 10)
    lrs = DeviceState(w=1.0)
    thermal = discriminate_tunneling(
        [Sweep(v, current_total(v, t, p, lrs), t) for t in TEMPS])
    simmons = discriminate_tunneling(
        [Sweep(v, current_tunneling(v, p), t) for t in TEMPS])
    ok = (thermal.tunneling_rejected is True
          and simmons.tunneling_rejected is False)
    _verdict(capfd, 6, ok, t0, 5.0,
             f"composite rejected = {thermal.tunneling_rejected}, "
             f"temperature-free accepted = {not simmons.tunneling_rejected}")
    assert ok


def test_criterion_07_update_fit_recovery(capfd):
    t0 = time.perf_counter()
    p = default_params()
    m = default_update_model()
    train = PulseScheme("amplitude_ramp", n_pulses=50, v_start=-1.6,
                        v_step=0.0, width=50e-6)
    counts = np.arange(1, 51, dtype=float)

    clean = run_scheme(DeviceState(w=0.0), train,
                       replace(m, c2c_rel=0.0), p)
    fit = fit_update_a(counts, clean.w)
    err_clean = abs(fit.a - A_POT_TRUE) / A_POT_TRUE

    errs = []
    for seed in range(100):
        noisy = run_scheme(DeviceState(w=0.0), train, m, p,
                           rng=np.random.default_rng(seed))
        f = fit_update_a(counts, noisy.w)
        errs.append(abs(f.a - A_POT_TRUE) / A_POT_TRUE)
    err_noisy = float(np.median(errs))

    ok = err_clean <= 0.005 and err_noisy <= 0.15
    _verdict(capfd, 7, ok, t0, 30.0,
             f"A error: noiseless {100 * err_clean:.4f}% (need <= 0.5%), "
             f"median over 100 seeds at 10% c2c {100 * err_noisy:.1f}%"
             " (need <= 15%)")
    assert ok


def test_criterion_08_multilevel_depression(capfd):
    t0 = time.perf_counter()
    p = default_params()
    m = default_update_model()  # 10% c2c by default
    scheme = preset_scheme("amplitude_ramp", "dep")
    rng = np.random.default_rng(0)
    cycles = 17
    traces = np.zeros((cycles, scheme.n_pulses + 1))
    for k in range(cycles):
        s0 = DeviceState(w=1.0)
        traces[k, 0] = read_state(s0, p, v_read=0.3, t=T).r_ohms
        trace = run_scheme(s0, scheme, m, p, v_read=0.3, t=T, rng=rng)
        traces[k, 1:] = trace.r_ohms
    report = cdf_levels(traces)
    ok = report.n_levels >= 10
    _verdict(capfd, 8, ok, t0, 30.0,
             f"{report.n_levels} separated levels over {cycles} noisy"
             " depression cycles (need >= 10)")
    assert ok


def test_criterion_09_d2d_spread(capfd):
    t0 = time.perf_counter()
    p = default_params()
    children = np.random.SeedSequence(0).spawn(10_000)
    log_r = np.empty(len(children))
    for idx, child in enumerate(children):
        s = sample_device(p, 0.1, child)  # fresh device reads out HRS
        log_r[idx] = np.log10(read_state(s, p, v_read=0.3, t=T).r_ohms)
    spread = float(np.std(log_r, ddof=1))
    ok = abs(spread - 0.1) <= 0.003
    _verdict(capfd, 9, ok, t0, 10.0,
             f"std log10 R(HRS) over 10,000 devices = {spread:.4f}"
             " (need 0.1 +- 0.003)")
    assert ok


def test_criterion_10_write_energy_sub_pj(capfd):
    t0 = time.perf_counter()
    p = default_params()
    pulse = PulseSpec(v_write=-1.6, t_width=50e-6)
    e_pj = write_energy(pulse, DeviceState(w=0.0), p) * 1e12
    ok = e_pj < 1.0
    _verdict(capfd, 10, ok, t0, 1.0,
             f"-1.6 V/50 us write from HRS = {e_pj:.1f} pJ (need < 1);"
             " unreachable at the 100 Mohm calibration point")
    assert ok, (
        f"write energy {e_pj:.1f} pJ is not sub-pJ: at R_on = 100 Mohm the "
        "write current alone dissipates nJ-scale energy over 50 us. Known "
        "model-wide gap, kept red on purpose.")


def test_criterion_11_solver_matches_oracle(capfd):
    t0 = time.perf_counter()
    p = default_params()
    xbar = build_crossbar(3, 3, p, sigma_d2d=0.1, seed=11).with_weights(
        np.array([[1.0, 0.0, 0.5], [0.2, 1.0, 0.0], [0.0, 0.8, 1.0]]))
    scheme = BiasScheme.read_select(3, 3, 1, 1, 0.5)
    sol = solve_network(xbar, scheme, tol=1e-20)
    row_v, col_v = gauss_seidel(xbar, scheme)
    dev = max(float(np.abs(sol.row_v - row_v).max()),
              float(np.abs(sol.col_v - col_v).max()))
    rel = dev / max(abs(float(v)) for v in np.concatenate([row_v, col_v]))
    kcl = solve_network(xbar, scheme).residual  # default tolerance

    ohmic = calibrate(CalibrationTargets(r_on_ohms=1e8, on_off=1.0,
                                         selection=2.0))
    x22 = build_crossbar(2, 2, ohmic)
    s22 = solve_network(x22, BiasScheme.read_select(2, 2, 0, 0, 0.5))
    divider_ok = (abs(s22.col_v[1] - 2 * 0.5 / 3) < 1e-10
                  and abs(s22.row_v[1] - 0.5 / 3) < 1e-10)

    ok = rel <= 1e-9 and kcl < 1e-12 and divider_ok
    _verdict(capfd, 11, ok, t0, 30.0,
             f"oracle deviation {rel:.2e} rel (need <= 1e-9), KCL residual"
             f" {kcl:.1e} A (need < 1e-12), 2x2 divider {divider_ok}")
    assert ok


def test_criterion_12_nonlinear_sneak_suppression(capfd):
    t0 = time.perf_counter()
    w = np.ones((4, 4))
    w[0, 0] = 0.0  # HRS bit read against an all-LRS worst-case background
    ohmic = calibrate(CalibrationTargets(r_on_ohms=1e8, on_off=1.0,
                                         selection=2.0))
    m_nl = sneak_margin(build_crossbar(4, 4, default_params())
                        .with_weights(w), 0, 0, 0.5).margin
    m_oh = sneak_margin(build_crossbar(4, 4, ohmic)
                        .with_weights(w), 0, 0, 0.5).margin
    ok = m_nl >= 3.0 * m_oh
    _verdict(capfd, 12, ok, t0, 10.0,
             f"sneak margin {m_nl:.2f} nonlinear vs {m_oh:.2f} Ohmic"
             f" = {m_nl / m_oh:.1f}x (need >= 3x)")
    assert ok


def test_criterion_13_retention_identity(capfd):
    t0 = time.perf_counter()
    eleven_days = 11 * 24 * 3600.0
    s = DeviceState(w=1.0, d2d_log10=0.02, cycles=5)
    out = retention_evolve(s, eleven_days)
    ok = out is s
    _verdict(capfd, 13, ok, t0, 1.0,
             f"state after {eleven_days:.0f} s at default drift is"
             " bit-identical")
    assert ok


def test_criterion_14_mvm_fidelity(capfd):
    t0 = time.perf_counter()
    p = default_params()
    rng = np.random.default_rng(1)
    w = rng.uniform(-1.0, 1.0, (8, 8))
    x = rng.uniform(0.0, 1.0, 8)

    # quantization bound, ideal pipeline: the decoded product may miss the
    # float product by at most half a level spacing per weight
    mapping = map_weights(w, 11, p)
    pos = build_crossbar(8, 8, p).with_weights(mapping.w_pos)
    neg = build_crossbar(8, 8, p).with_weights(mapping.w_neg)
    q = mvm_charge(pos, x) - mvm_charge(neg, x)
    y_hat = q / (mapping.v_read * (mapping.g_max - mapping.g_min))
    bound = 0.5 * mapping.level_spacing * np.abs(x).sum() + 1e-12
    worst = float(np.abs(y_hat - x @ w).max())
    bound_ok = worst <= bound

    meds = [mvm_error_mc(w, x_inputs=x, n_levels=11, sigma_d2d=s,
                         n_trials=50, seed=7, programming="ideal").median
            for s in (0.0, 0.05, 0.1)]
    mono_ok = meds[0] < meds[1] < meds[2]

    ok = bound_ok and mono_ok
    _verdict(capfd, 14, ok, t0, 60.0,
             f"quantization worst miss {worst:.4f} <= bound {bound:.4f}:"
             f" {bound_ok}; median error {[f'{e:.4f}' for e in meds]}"
             " monotone in sigma_d2d {0, 0.05, 0.1}: " + str(mono_ok))
    assert ok


def test_criterion_15_bench_determinism(capfd, tmp_path):
    t0 = time.perf_counter()
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli_main(["bench", "--out", str(out), "--seed", "3"]) == 0
    same = (a / "bench.csv").read_bytes() == (b / "bench.csv").read_bytes()
    _verdict(capfd, 15, same, t0, 10.0,
             "bench run twice with one seed gives byte-identical CSVs")
    assert same
