"""The independent scalar model that every bit-identity test and every
exactness sweep (tests/sweeps.py) checks against; a plain module, not
collected as tests.

Each form restates, once and one scalar step at a time, a loop that a fast
path of ftjsim must reproduce bit for bit. None calls a path it checks:
apply_pulse, run_scheme, dc_write_loop, _trains, _trim,
_lognormal_stream, _trace_read, _d2d_offsets, sample_d2d_offsets,
program_write_verify or write_v_half. They build on the scalar kernel
current_total, the record types, _switch_level, retention_evolve,
memory_window, the extraction fits, and build_crossbar and the CLI's grids
for inputs.
"""

import math
from dataclasses import asdict, fields, replace
from unittest import mock

import numpy as np

from ftjsim import cli
from ftjsim.conduction import T_REF, V_READ, current_total
from ftjsim.config import _loop_legs
from ftjsim.crossbar import BiasScheme, Crossbar, WriteReport, build_crossbar
from ftjsim.device import (DC_WIDTH, T_WIDTH_DEFAULT, V_C_NEG, V_C_POS,
                           V_DEP_DEFAULT, V_POT_DEFAULT, DeviceState,
                           PulseScheme, PulseSpec, _switch_level,
                           memory_window, preset_scheme, retention_evolve)
from ftjsim.extraction import cdf_levels, fit_update_a
from ftjsim.inference import (VERIFY_TOL_FRACTION, ProgramReport,
                              map_weights, state_conductance)

V_VERIFY = 0.3  # program_write_verify's default verify bias


def hexes(values):
    """Each float of an ndarray or a flat sequence, in order, as its
    float.hex; an element that is no float (an int, say) raises."""
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    return [float.hex(x) for x in values]


def multiplier(p, w, d2d_log10):
    """The state multiplier in Python floats."""
    return p.g_lrs ** w * 10.0 ** (-d2d_log10)


def read(state, p, v_read, t):
    """One scalar read: (current, |v_read / current|, inf at zero current)."""
    i = current_total(v_read, t, p, state)
    return i, abs(v_read / i) if i != 0.0 else math.inf


def d2d_draws(sigma, seed, n):
    """n d2d offsets, default_rng(child).normal(0.0, sigma) as a float for
    each child of seed.spawn(n) (an int or a SeedSequence, which spawning
    advances). The children are spawned one at a time, numbered as
    spawn(n) numbers them, so a large n never holds them all."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return [float(np.random.default_rng(seed.spawn(1)[0]).normal(0.0, sigma))
            for _ in range(n)]


def d2d_draw(sigma, seed, i):
    """d2d_draws(sigma, seed, i + 1)[i] for an int seed, without its
    elder siblings: spawn makes child i of SeedSequence(seed) as
    SeedSequence(seed, spawn_key=(i,))."""
    child = np.random.SeedSequence(seed, spawn_key=(i,))
    return float(np.random.default_rng(child).normal(0.0, sigma))


def pulse_law(s, pulse, m, rng=None, kind="amplitude_ramp"):
    """One write pulse on a DeviceState, from the update curves: invert
    the polarity's curve at the current progress, advance one count, times
    one scalar mean-one rng.lognormal factor when c2c_rel > 0, clamp at the
    rail and count a reversal as a cycle. A broken device, a zero-width
    pulse and an amplitude between the onsets return s."""
    def forward(n, a, n_full):
        return (1.0 - math.exp(-n / a)) / (1.0 - math.exp(-n_full / a))

    def invert(x, a, n_full):
        d = 1.0 - math.exp(-n_full / a)
        return -a * math.log(1.0 - x * d)

    if s.broken or pulse.t_width == 0.0:
        return s
    v = pulse.v_write
    shape = m.shape_for(kind)
    if v < m.v_on_pot:
        polarity, a, progress = -1, shape.a_pot, s.w
    elif v > m.v_on_dep:
        polarity, a, progress = +1, shape.a_dep, 1.0 - s.w
    else:
        return s
    n = invert(progress, a, m.n_full)
    step = forward(n + 1.0, a, m.n_full) - progress
    if m.c2c_rel > 0.0:
        if rng is None:
            raise ValueError("c2c_rel > 0 requires an explicit generator")
        s2 = math.log(1.0 + m.c2c_rel ** 2)
        step *= rng.lognormal(mean=-0.5 * s2, sigma=math.sqrt(s2))
    w_new = min(s.w + step, 1.0) if polarity < 0 else max(s.w - step, 0.0)
    cycles = s.cycles + (1 if (s.last_polarity != 0
                               and polarity != s.last_polarity) else 0)
    return replace(s, w=w_new, cycles=cycles, last_polarity=polarity)


def pulse_train(s, scheme, m, rng=None):
    """The state after each pulse of scheme.pulses(), one pulse_law call
    each."""
    states = []
    for pulse in scheme.pulses():
        s = pulse_law(s, pulse, m, rng=rng, kind=scheme.kind)
        states.append(s)
    return states


def dc_loop(s, v_grid):
    """The state after each grid voltage of a quasi-static DC sweep."""
    states = []
    for v in np.asarray(v_grid, dtype=float):
        if not np.isfinite(v):
            raise ValueError("v_grid contains non-finite values")
        pot_level = _switch_level((V_C_NEG - v) / DC_WIDTH)
        dep_level = _switch_level((v - V_C_POS) / DC_WIDTH)
        s = replace(s, w=min(max(s.w, pot_level), 1.0 - dep_level))
        states.append(s)
    return states


def trace_of(states, p, v_read, t):
    """A Trace's three columns as float lists, in its field order: each
    state's w and its scalar read's current and resistance."""
    reads = [read(s, p, v_read, t) for s in states]
    return ([s.w for s in states], [i for i, _ in reads],
            [r for _, r in reads])


def crossbar_of(states, p, t_kelvin):
    """A Crossbar holding a nested grid of DeviceStates."""
    return Crossbar(params=p, t_kelvin=t_kelvin, **{
        f.name: [[getattr(s, f.name) for s in row] for row in states]
        for f in fields(DeviceState)})


def program(xbar, g_targets, m, tol_g, rng, v_read=V_VERIFY,
            max_pulses=None):
    """program_write_verify cell by cell, row-major, on one generator: read,
    and while the chordal conductance is more than tol_g off and the cap
    allows, pulse toward the target and read again. A pulse that leaves w
    where it was ends the cell's trim uncounted."""
    p, t = xbar.params, xbar.t_kelvin
    g_targets = np.asarray(g_targets, dtype=float)
    pot = PulseSpec(V_POT_DEFAULT, T_WIDTH_DEFAULT)
    dep = PulseSpec(V_DEP_DEFAULT, T_WIDTH_DEFAULT)
    max_pulses = 3 * m.n_full if max_pulses is None else max_pulses
    counts = np.zeros((xbar.n_rows, xbar.n_cols), dtype=int)
    resid = np.zeros((xbar.n_rows, xbar.n_cols))
    rows = [[xbar.state(r, c) for c in range(xbar.n_cols)]
            for r in range(xbar.n_rows)]
    for r, row in enumerate(rows):
        for c, s in enumerate(row):
            target = float(g_targets[r, c])
            g = current_total(v_read, t, p, s) / v_read
            while abs(g - target) > tol_g and counts[r, c] < max_pulses:
                s_new = pulse_law(s, pot if g < target else dep, m, rng=rng)
                if s_new.w == s.w:
                    break
                row[c] = s = s_new
                g = current_total(v_read, t, p, s) / v_read
                counts[r, c] += 1
            resid[r, c] = abs(g - target)
    report = ProgramReport(pulse_counts=counts, residual_g=resid,
                           pulses_total=int(counts.sum()),
                           max_residual_g=float(resid.max()),
                           n_failed=int(np.sum(resid > tol_g)))
    return crossbar_of(rows, xbar.params, t), report


def programming_bits(result, rng):
    """A (Crossbar, ProgramReport) result and its generator as one
    comparable tuple: the Crossbar, its w and the residuals by float.hex,
    the counts with their dtype, and the generator's end state."""
    xbar, report = result
    return (xbar, hexes(xbar.w), report.pulse_counts.dtype,
            report.pulse_counts.tolist(), hexes(report.residual_g),
            report.pulses_total, report.max_residual_g.hex(),
            report.n_failed, rng.bit_generator.state)


def benchmark_planes(seed, p):
    """The two 8x8 planes of one mvm_error_mc trial at sigma_d2d = 0.1,
    with their verify targets and tol_g built as mvm_error_mc builds them,
    and the trial's programming generator seed."""
    w = np.random.default_rng(seed).uniform(-1.0, 1.0, (8, 8))
    mapping = map_weights(w, 11, p)
    gv_min = float(state_conductance(p, 0.0, V_VERIFY))
    gv_max = float(state_conductance(p, 1.0, V_VERIFY))
    tol = VERIFY_TOL_FRACTION * mapping.level_spacing * (gv_max - gv_min)
    (child,) = np.random.SeedSequence(seed).spawn(1)
    s_pos, s_neg, s_prog, _ = child.spawn(4)
    planes = [(build_crossbar(8, 8, p, 0.1, s_plane),
               gv_min + u * (gv_max - gv_min))
              for s_plane, u in ((s_pos, mapping.u_pos),
                                 (s_neg, mapping.u_neg))]
    return planes, tol, s_prog


def v_half(xbar, row, col, pulse, m, rng=None):
    """A V/2 write cell by cell: for each biased cell of the selected row
    and column, row-major, its energy from one scalar current_total, then
    one pulse_law call on the shared generator. The (Crossbar,
    WriteReport) of write_v_half."""
    nr, nc, t = xbar.n_rows, xbar.n_cols, xbar.t_kelvin
    scheme = BiasScheme.v_half_write(nr, nc, row, col, pulse.v_write)
    states = [[xbar.state(r, c) for c in range(nc)] for r in range(nr)]
    disturbs, energy, dw_sel = [], 0.0, 0.0
    for r in range(nr):
        for c in range(nc):
            if r != row and c != col:
                continue
            v_dev = scheme.rows[r] - scheme.cols[c]
            if v_dev == 0.0:
                continue
            s = states[r][c]
            energy += (abs(current_total(v_dev, t, xbar.params, s))
                       * abs(v_dev) * pulse.t_width)
            s_new = pulse_law(s, PulseSpec(v_dev, pulse.t_width), m, rng=rng)
            states[r][c] = s_new
            dw = s_new.w - s.w
            if r == row and c == col:
                dw_sel = dw
            elif dw != 0.0:
                disturbs.append((r, c, dw))
    report = WriteReport(
        delta_w_selected=dw_sel, disturbs=tuple(disturbs),
        max_disturb=max((abs(d[2]) for d in disturbs), default=0.0),
        energy_joules=energy)
    return crossbar_of(states, xbar.params, t), report


def gauss_seidel(xbar, scheme, t=T_REF, max_sweeps=200):
    """Brute-force nodal solve sharing no code with the Newton path: sweep
    the floating lines one at a time, zeroing each line's KCL residual by a
    bracketed scalar root solve, until the potentials stop moving. A line's
    net current is monotonic in its potential, so the driven-voltage range
    brackets every 1-D zero. Slow and simple on purpose."""
    from scipy.optimize import brentq

    nr, nc = xbar.n_rows, xbar.n_cols
    driven = [v for v in list(scheme.rows) + list(scheme.cols)
              if v is not None]
    lo, hi = min(driven) - 1.0, max(driven) + 1.0
    row_v = np.array([v if v is not None else (lo + hi) / 2
                      for v in scheme.rows])
    col_v = np.array([v if v is not None else (lo + hi) / 2
                      for v in scheme.cols])

    def row_net(i, v):
        row_v[i] = v
        return sum(current_total(row_v[i] - col_v[j], t, xbar.params,
                                 xbar.state(i, j)) for j in range(nc))

    def col_net(j, v):
        col_v[j] = v
        return sum(current_total(row_v[i] - col_v[j], t, xbar.params,
                                 xbar.state(i, j)) for i in range(nr))

    for _ in range(max_sweeps):
        before = np.concatenate([row_v, col_v]).copy()
        for i in range(nr):
            if scheme.rows[i] is None:
                row_v[i] = brentq(lambda v: row_net(i, v), lo, hi,
                                  xtol=1e-16, rtol=8.9e-16)
        for j in range(nc):
            if scheme.cols[j] is None:
                col_v[j] = brentq(lambda v: col_net(j, v), lo, hi,
                                  xtol=1e-16, rtol=8.9e-16)
        if np.abs(np.concatenate([row_v, col_v]) - before).max() < 1e-15:
            break
    return row_v, col_v


# --- The CLI's trace commands, one train or one point at a time -------------
#
# Each takes (cfg, bundle, rng) and returns the handler's (csv_name,
# header, rows, payload): scheme, cdf and fitA with each train run pulse
# by pulse on its own pass, hysteresis and retention one scalar read per
# point.

def scheme_command(cfg, bundle, rng):
    p, m = bundle.params, bundle.update
    sec = cfg.scheme
    state = DeviceState(w=0.0)
    rows = []
    for cycle in range(1, sec.n_cycles + 1):
        index = 0
        for polarity in ("pot", "dep"):
            scheme = preset_scheme(sec.kind, polarity,
                                   alt_amplitudes=sec.alt_amplitudes)
            ws, _, rs = trace_of(pulse_train(state, scheme, m, rng), p,
                                 V_READ, bundle.t_kelvin)
            for pulse, w, r in zip(scheme.pulses(), ws, rs):
                rows.append((cycle, index, pulse.v_write, pulse.t_width, w, r))
                index += 1
            state = replace(state, w=ws[-1],
                            last_polarity=-1 if polarity == "pot" else 1)
    return "trace.csv", ["cycle", "pulse_index", "v_write_volts", "t_width_s",
                         "w", "r_ohms_0p3v"], rows, {
        "kind": sec.kind,
        "cycles": sec.n_cycles,
        "alt_amplitudes": sec.alt_amplitudes,
        "c2c_rel": m.c2c_rel,
        "final_w": rows[-1][4],
    }


def cdf_command(cfg, bundle, rng):
    p, m, t = bundle.params, bundle.update, bundle.t_kelvin
    cycles = cfg.cdf.n_cycles
    scheme = preset_scheme("amplitude_ramp", "dep")
    n = scheme.n_pulses
    s0 = DeviceState(w=1.0)
    r0 = read(s0, p, V_READ, t)[1]
    report = cdf_levels(np.array([
        [r0, *trace_of(pulse_train(s0, scheme, m, rng), p, V_READ, t)[2]]
        for _ in range(cycles)]))
    rows = zip(range(n + 1), report.medians.tolist(), report.iqrs.tolist())
    return "cdf.csv", ["pulse_index", "median_r_ohms", "iqr_r_ohms"], rows, {
        "cycles": cycles,
        "scheme": "amplitude_ramp depression",
        "read_v": V_READ,
        "c2c_rel": m.c2c_rel,
        "n_levels": report.n_levels,
        "pooled_iqr_ohms": report.pooled_iqr,
    }


def fit_a_command(cfg, bundle, rng):
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
    pot_w = [s.w for s in pulse_train(DeviceState(w=0.0), pot, m)]
    dep_w = [s.w for s in pulse_train(DeviceState(w=1.0), dep, m)]
    fit_pot = fit_update_a(np.arange(1, len(pot_w) + 1), pot_w)
    fit_dep = fit_update_a(np.arange(1, len(dep_w) + 1),
                           [1.0 - w for w in dep_w])
    rows = [("a_pot", fit_pot.a, math.nan), ("a_dep", fit_dep.a, math.nan),
            ("amplitude_pot", fit_pot.amplitude, math.nan),
            ("amplitude_dep", fit_dep.amplitude, math.nan)]
    return "fit.csv", ["param", "value", "stderr"], rows, {
        "kind": kind,
        "model_a": {"a_pot": shape.a_pot, "a_dep": shape.a_dep},
        "fit": {"a_pot": fit_pot.a, "a_dep": fit_dep.a,
                "rss_pot": fit_pot.rss, "rss_dep": fit_dep.rss,
                "at_bound": fit_pot.at_bound or fit_dep.at_bound},
    }


def hysteresis_command(cfg, bundle, rng):
    """The loop with memory_window run over Python floats."""
    sec = cfg.hysteresis
    grid = [0.0]
    for a, b, n in _loop_legs(sec):
        grid += np.linspace(a, b, n + 1)[1:].tolist()
    w, i, r = trace_of(dc_loop(DeviceState(w=0.0), grid), bundle.params,
                       bundle.v_read, bundle.t_kelvin)
    rows = list(zip(grid, w, i, r))
    return "loop.csv", ["v_write_volts", "w", "i_amps", "r_ohms"], rows, {
        "sweep": asdict(sec),
        "read": {"v_read": bundle.v_read, "t_kelvin": bundle.t_kelvin},
        "window": asdict(memory_window(grid, r)),
    }


def retention_command(cfg, bundle, rng):
    """One retention_evolve and one scalar read per hold time, for each
    start state."""
    sec = cfg.retention
    times = np.geomspace(sec.t_min_s, sec.t_max_s, sec.n_points).tolist()
    rows, finals = [], {}
    for label, w0 in (("lrs", 1.0), ("hrs", 0.0)):
        states = [retention_evolve(DeviceState(w=w0), t_s,
                                   sec.drift_rate_per_s) for t_s in times]
        ws, _, rs = trace_of(states, bundle.params, bundle.v_read,
                             bundle.t_kelvin)
        rows += zip([label] * len(times), times, ws, rs)
        finals[label] = rs[-1]
    return "retention.csv", ["start_state", "t_seconds", "w",
                             "r_ohms"], rows, {
        "drift_rate_per_s": sec.drift_rate_per_s,
        "horizon_s": sec.t_max_s,
        "final_ratio": finals["hrs"] / finals["lrs"],
    }


COMMANDS = {"scheme": scheme_command, "cdf": cdf_command,
            "fitA": fit_a_command, "hysteresis": hysteresis_command,
            "retention": retention_command}


def exact(obj):
    """A table or payload with every float as its hex and every scalar
    tagged with its type, so equality is bit for bit."""
    if isinstance(obj, dict):
        return {k: exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, zip)):
        return [exact(v) for v in obj]
    if type(obj) is float:
        return "float", obj.hex()
    return type(obj).__name__, obj


def rows_of(blocks):
    """A handler's table of column blocks as a list of row tuples of
    Python cells: int64 and float64 columns through tolist, labels as
    they are."""
    return [row for block in blocks for row in zip(*(
        column if isinstance(column, list) else column.tolist()
        for column in block))]


def command_run(command, cfg, bundle, seed):
    """(exact table, end states of every generator it made) of the CLI
    handler, its column blocks read as rows."""
    made = []
    default_rng = np.random.default_rng

    def spy(*args, **kwargs):
        made.append(default_rng(*args, **kwargs))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", spy):
        name, header, blocks, payload = cli._HANDLERS[command](cfg, bundle,
                                                                seed)
        table = exact((name, header, rows_of(blocks), payload))
    return table, [g.bit_generator.state for g in made]


def reference_run(command, cfg, bundle, seed):
    """(exact table, generator end states) of the reference; the handlers
    that draw make one generator, default_rng(seed)."""
    rng = np.random.default_rng(seed)
    table = exact(COMMANDS[command](cfg, bundle, rng))
    draws = command in ("scheme", "cdf")
    return table, [rng.bit_generator.state] if draws else []
