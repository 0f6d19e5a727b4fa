"""Command-line front end.

Every analysis command reads one optional INI config, runs a deterministic
simulation seeded from --seed, and writes one CSV table plus a JSON
metadata sidecar, <command>.json, into --out. Experiment knobs live in
per-command config sections, so the command line carries only the run
plumbing:

    ftjsim --command iv --config run.ini --out results --seed 7

(the command may also be given positionally: `ftjsim iv ...`). --seed
takes a non-negative integer. The argument parser is built once per
process, on the first main call; importing the module builds none.

The write contract. Each command's handler maps (cfg, bundle, seed) to
(csv_name, header, rows, payload) and writes nothing. Handlers return
exact int, float or str cells, one type per column, and plain Python
payloads. Rows may be lazy: d2d reads its rows one block at a time as
main writes them, so only its offsets grow with n_devices. main renders
the payload, stamped through _meta, first. It then streams the table
through _csv_blocks, which reads, checks and renders _CSV_BLOCK rows at
a time with one "%d"/"%.12g"/"%s" line template, into <csv_name>.part in
--out, writes the sidecar, and renames the part over <csv_name> after
the last block (_write_files). A row of another width, a label that is
empty or would need quoting, or a column of mixed or other types raises,
so the bytes are those csv.writer writes. Any failure removes the part,
the sidecar and the directories main made: a command that fails leaves
--out as it found it. Output bytes are reproducible for a given (config,
seed, version): no timestamps, no machine identifiers, and all floats
rendered with a fixed format.

Exit codes: 0 success, 1 usage error (an OSError while --out or a file in
it is made, written or renamed is one), 2 configuration error (a
malformed file or a value outside a limit, all found when the config is
parsed), 3 numerical failure (calibration, a network solve, or any float
error, RuntimeError or ValueError while the model is built, a command
runs or its rows are read).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .conduction import (V_READ, _figures_of_merit, current_total,
                         current_tunneling)
from .config import (ConfigError, SimConfig, _loop_legs, build_model, emit_config,
                     load_config)
from .constants import K_B, Q_E
from .crossbar import build_crossbar, sneak_margin, write_v_half
from .device import (T_WIDTH_DEFAULT, V_DEP_DEFAULT, V_POT_DEFAULT,
                     DeviceState, PulseSpec, PulseScheme, _d2d_offsets,
                     _pulser, _trace_read, _train, dc_write_loop,
                     memory_window, preset_scheme, retention_evolve,
                     write_energy)
from .extraction import (OHMIC_WINDOW, PF_WINDOW, Sweep, cdf_levels,
                         discriminate_tunneling, extract_ohmic, extract_pf,
                         fit_update_a)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_Table = tuple[str, list[str], Iterable, dict]  # csv_name, header, rows, payload


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if type(obj) is float and not math.isfinite(obj):
        return repr(obj)  # JSON has no inf or nan
    return obj


_CELL_FORMATS = {int: "%d", float: "%.12g", str: "%s"}
_QUOTED = frozenset(',"\r\n')  # a label holding one would need CSV quoting
# Rows read, checked, rendered and written together. Reading and rendering
# CLI d2d's 10000 rows took 13.4-14.4 ms at minimum (21 interleaved runs,
# 2-CPU x86_64 box) at every size from 512 to 16384, so the size only
# bounds memory: d2d at n_devices = 200000 peaked at 3.1 MiB under
# tracemalloc from 1024 to 4096 and at 4.6 MiB at 8192.
_CSV_BLOCK = 2048


def _line_template(block: list[tuple], width: int) -> str:
    """The "%d"/"%.12g"/"%s" line template of a block of rows of `width`
    cells, each column exactly int, float or str. Raises ValueError for a
    row of another width or a label that is empty or needs quoting, and
    TypeError for a column of mixed or other types."""
    if set(map(len, block)) != {width}:
        raise ValueError(f"every CSV row must have {width} cells")
    cells = []
    for j, column in enumerate(zip(*block)):
        kinds = set(map(type, column))
        if len(kinds) != 1 or not kinds <= _CELL_FORMATS.keys():
            names = sorted(k.__name__ for k in kinds)
            raise TypeError(f"CSV column {j} must hold exactly one of int, "
                            f"float or str, got {names}")
        if str in kinds and not all(s and _QUOTED.isdisjoint(s)
                                    for s in column):
            raise ValueError(f"CSV column {j} holds a label that needs quoting")
        cells.append(_CELL_FORMATS[kinds.pop()])
    return ",".join(cells) + "\r\n"


class _RowsError(Exception):
    """An error that a table's rows raised as they were read, its cause:
    main reports it as it reports the handler's own."""


def _csv_blocks(header, rows):
    """The CSV text of a table, as the header line and then one string per
    block of _CSV_BLOCK rows. The header is one row of labels. Each block
    is read, checked and rendered in turn, so a lazy table reads its cells
    as it is written; a RuntimeError, ArithmeticError or ValueError that
    reading the rows raises comes out as _RowsError. The first block's
    template is the table's, and every block must match."""
    header = tuple(header)
    if not all(type(label) is str for label in header):
        raise TypeError("every CSV header cell must be a str")
    yield _line_template([header], len(header)) % header
    template = None
    rows = iter(rows)
    while True:
        try:
            block = list(map(tuple, itertools.islice(rows, _CSV_BLOCK)))
        except (RuntimeError, ArithmeticError, ValueError) as exc:
            raise _RowsError from exc
        if not block:
            return
        line = _line_template(block, len(header))
        template = template or line
        if line != template:
            raise TypeError("a CSV column's cell type changed between rows")
        # one format over the block: the same text as one per row
        yield (template * len(block)) % tuple(
            itertools.chain.from_iterable(block))


def _json_text(payload: dict) -> str:
    # allow_nan=False: a non-finite value that is not an exact float raises
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _meta(command: str, cfg: SimConfig, seed: int, payload: dict) -> dict:
    """Sidecar payload with the reproducibility triple stamped in."""
    base = {
        "command": command,
        "seed": seed,
        "version": __version__,
        "config_sha256": hashlib.sha256(emit_config(cfg).encode()).hexdigest(),
    }
    base.update(payload)
    return base


def _figures(p, t: float) -> dict:
    r_on, ratio, selection = _figures_of_merit(p, t)
    return {"on_off_0p1v": ratio, "r_on_ohms_0p3v": r_on,
            "selection_0p5v": selection}


@contextmanager
def _t_list_entry(t: float):
    """Name the t_list_k entry a float error was raised at."""
    try:
        yield
    except ArithmeticError as exc:
        raise type(exc)(f"t_list_k entry {t} K: {exc}") from exc


# --- commands ---------------------------------------------------------------

def cmd_iv(cfg: SimConfig, bundle, seed: int) -> _Table:
    p = bundle.params
    sec = cfg.iv
    if sec.log_grid:
        grid = np.geomspace(sec.v_min_v, sec.v_max_v, sec.n_points)
    else:
        grid = np.linspace(sec.v_min_v, sec.v_max_v, sec.n_points)
    state = DeviceState(w=sec.state_w)
    rows = []
    for t in sec.t_list_k:
        with _t_list_entry(t):
            currents = current_total(grid, t, p, state).tolist()
        rows.extend((v, t, sec.state_w, i, i / p.area)
                    for v, i in zip(grid.tolist(), currents))
    return "iv.csv", ["v_volts", "t_kelvin", "state_w", "i_amps",
                      "j_a_per_m2"], rows, {
        "temps_kelvin": list(sec.t_list_k),
        "grid": {"v_min_v": sec.v_min_v, "v_max_v": sec.v_max_v,
                 "n_points": sec.n_points, "log_grid": sec.log_grid},
        "params": asdict(p),
        "figures": _figures(p, bundle.t_kelvin),
    }


def cmd_hysteresis(cfg: SimConfig, bundle, seed: int) -> _Table:
    p = bundle.params
    sec = cfg.hysteresis
    grid = np.concatenate([[0.0]] + [np.linspace(a, b, n + 1)[1:]
                                     for a, b, n in _loop_legs(sec)])
    trace = dc_write_loop(DeviceState(w=0.0), grid, p,
                          v_read=bundle.v_read, t=bundle.t_kelvin)
    rows = list(zip(grid.tolist(), trace.w.tolist(), trace.i_amps.tolist(),
                    trace.r_ohms.tolist()))
    return "loop.csv", ["v_write_volts", "w", "i_amps", "r_ohms"], rows, {
        "sweep": asdict(sec),
        "read": {"v_read": bundle.v_read, "t_kelvin": bundle.t_kelvin},
        "window": asdict(memory_window(grid, trace.r_ohms)),
    }


def cmd_scheme(cfg: SimConfig, bundle, seed: int) -> _Table:
    p, m = bundle.params, bundle.update
    sec = cfg.scheme
    trains = [(last, preset_scheme(sec.kind, polarity,
                                   alt_amplitudes=sec.alt_amplitudes).pulses())
              for last, polarity in ((-1, "pot"), (1, "dep"))]
    cycle_pulses = list(enumerate(trains[0][1] + trains[1][1]))
    state = DeviceState(w=0.0)
    cells, ws = [], []
    with _pulser(m, sec.kind, np.random.default_rng(seed)) as step:
        for cycle in range(1, sec.n_cycles + 1):
            for last, train in trains:
                ws += _train(step, state, train)
                # each train restarts from the start state's cycles
                state = replace(state, w=ws[-1], last_polarity=last)
            cells.extend((cycle, index, pulse.v_write, pulse.t_width)
                         for index, pulse in cycle_pulses)
    _, r = _trace_read(V_READ, bundle.t_kelvin, p, ws)
    rows = [(*cell, w, r_ohms) for cell, w, r_ohms in zip(cells, ws, r.tolist())]
    return "trace.csv", ["cycle", "pulse_index", "v_write_volts", "t_width_s",
                         "w", "r_ohms_0p3v"], rows, {
        "kind": sec.kind,
        "cycles": sec.n_cycles,
        "alt_amplitudes": sec.alt_amplitudes,
        "c2c_rel": m.c2c_rel,
        "final_w": rows[-1][4],
    }


def cmd_fit_a(cfg: SimConfig, bundle, seed: int) -> _Table:
    m = replace(bundle.update, c2c_rel=0.0)
    kind = cfg.fit_a.kind
    shape = m.shape_for(kind)
    n = m.n_full
    if kind == "amplitude_ramp":
        # constant above-onset train: every pulse advances exactly one count
        pot, dep = (PulseScheme("amplitude_ramp", n, v, v_step=0.0,
                                width=T_WIDTH_DEFAULT)
                    for v in (V_POT_DEFAULT, V_DEP_DEFAULT))
    else:
        pot, dep = preset_scheme(kind, "pot"), preset_scheme(kind, "dep")
    with _pulser(m, kind, None) as step:
        pot_w = _train(step, DeviceState(w=0.0), pot.pulses())
        dep_w = _train(step, DeviceState(w=1.0), dep.pulses())
    fit_pot = fit_update_a(np.arange(1, len(pot_w) + 1), pot_w)
    fit_dep = fit_update_a(np.arange(1, len(dep_w) + 1),
                           [1.0 - w for w in dep_w])
    rows = [
        ("a_pot", fit_pot.a, math.nan),
        ("a_dep", fit_dep.a, math.nan),
        ("amplitude_pot", fit_pot.amplitude, math.nan),
        ("amplitude_dep", fit_dep.amplitude, math.nan),
    ]
    return "fit.csv", ["param", "value", "stderr"], rows, {
        "kind": kind,
        "model_a": {"a_pot": shape.a_pot, "a_dep": shape.a_dep},
        "fit": {"a_pot": fit_pot.a, "a_dep": fit_dep.a,
                "rss_pot": fit_pot.rss, "rss_dep": fit_dep.rss,
                "at_bound": fit_pot.at_bound or fit_dep.at_bound},
    }


def cmd_cdf(cfg: SimConfig, bundle, seed: int) -> _Table:
    p, m = bundle.params, bundle.update
    cycles = cfg.cdf.n_cycles
    train = preset_scheme("amplitude_ramp", "dep").pulses()
    n = len(train)
    s0 = DeviceState(w=1.0)
    # every cycle starts from the same pristine state, read as column 0
    with _pulser(m, "amplitude_ramp", np.random.default_rng(seed)) as step:
        ws = [[s0.w, *_train(step, s0, train)] for _ in range(cycles)]
    _, traces = _trace_read(V_READ, bundle.t_kelvin, p, ws)
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


def cmd_retention(cfg: SimConfig, bundle, seed: int) -> _Table:
    p = bundle.params
    sec = cfg.retention
    times = np.geomspace(sec.t_min_s, sec.t_max_s, sec.n_points).tolist()
    rows = []
    finals = {}
    for label, w0 in (("lrs", 1.0), ("hrs", 0.0)):
        s0 = DeviceState(w=w0)
        ws = [retention_evolve(s0, t_s, sec.drift_rate_per_s).w
              for t_s in times]
        _, r = _trace_read(bundle.v_read, bundle.t_kelvin, p, ws)
        rows.extend(zip(itertools.repeat(label), times, ws, r.tolist()))
        finals[label] = rows[-1][3]
    return "retention.csv", ["start_state", "t_seconds", "w",
                             "r_ohms"], rows, {
        "drift_rate_per_s": sec.drift_rate_per_s,
        "horizon_s": sec.t_max_s,
        "final_ratio": finals["hrs"] / finals["lrs"],
    }


def cmd_d2d(cfg: SimConfig, bundle, seed: int) -> _Table:
    p = bundle.params
    n_devices = cfg.d2d.n_devices
    sigma = cfg.variation.sigma_d2d
    offsets = _d2d_offsets(sigma, [seed], n_devices)[0]

    def block_rows(start):
        block = offsets[start:start + _CSV_BLOCK]
        _, (r_hrs, r_lrs) = _trace_read(bundle.v_read, bundle.t_kelvin, p,
                                        [[0.0], [1.0]], block)
        return zip(range(start, start + len(block)), block.tolist(),
                   r_hrs.tolist(), r_lrs.tolist())

    # one read per CSV block, as main writes it: only the offsets grow
    # with n_devices
    rows = itertools.chain.from_iterable(
        map(block_rows, range(0, n_devices, _CSV_BLOCK)))
    return "d2d.csv", ["device_index", "d2d_log10", "r_hrs_ohms",
                       "r_lrs_ohms"], rows, {
        "n_devices": n_devices,
        "sigma_target": sigma,
        "sigma_sample": float(np.std(offsets, ddof=1)),
        "mean_sample": float(np.mean(offsets)),
    }


def cmd_scaling(cfg: SimConfig, bundle, seed: int) -> _Table:
    p = bundle.params
    sec = cfg.scaling
    pulse = PulseSpec(sec.v_write_v, sec.t_width_s)
    rows = []
    for a_um2 in sec.areas_um2:
        pa = replace(p, area=a_um2 * 1e-12)
        lrs = DeviceState(w=1.0)
        i_read = current_total(V_READ, bundle.t_kelvin, pa, lrs)
        e_j = write_energy(pulse, lrs, pa, t=bundle.t_kelvin)
        rows.append((a_um2, i_read, i_read / pa.area, V_READ / i_read,
                     e_j * 1e12))
    return "scaling.csv", ["area_um2", "i_read_amps", "j_read_a_per_m2",
                           "r_on_ohms", "write_energy_pj"], rows, {
        "areas_um2": list(sec.areas_um2),
        "pulse": {"v_write": sec.v_write_v, "t_width_s": sec.t_width_s},
        "r_times_area_const": rows[0][3] * sec.areas_um2[0],
    }


def cmd_arrhenius(cfg: SimConfig, bundle, seed: int) -> _Table:
    p = bundle.params
    sec = cfg.arrhenius
    temps = list(sec.t_list_k)
    lrs = DeviceState(w=1.0)
    ohm_v = np.linspace(*OHMIC_WINDOW, sec.n_points)
    pf_v = np.linspace(*PF_WINDOW, sec.n_points)
    ohm_sweeps, pf_sweeps = [], []
    for v, sweeps in ((ohm_v, ohm_sweeps), (pf_v, pf_sweeps)):
        for t in temps:
            with _t_list_entry(t):
                sweeps.append(Sweep(v, current_total(v, t, p, lrs), t))
    pf = extract_pf(pf_sweeps, d_fe=p.d_fe)
    ohm = extract_ohmic(ohm_sweeps)
    verdict_dev = discriminate_tunneling(pf_sweeps)
    tun_sweeps = [Sweep(pf_v, current_tunneling(pf_v, p), t) for t in temps]
    verdict_tun = discriminate_tunneling(tun_sweeps)
    k_over_q = K_B / Q_E
    rows = [
        ("eps_r", pf.eps_r,
         2.0 * pf.eps_r * pf.slope_vs_inv_t.stderr_slope
         / pf.slope_vs_inv_t.slope),
        ("phi_pf_ev", pf.phi_pf_ev,
         pf.intercept_vs_inv_t.stderr_slope * k_over_q),
        ("ea_ohm_ev", ohm.ea_ohm_ev, ohm.arrhenius.stderr_slope * k_over_q),
    ]
    for sweep, fit in zip(pf_sweeps, pf.per_temperature):
        rows.append((f"pf_slope_{int(sweep.t_kelvin)}k", fit.slope,
                     fit.stderr_slope))
    return "fit.csv", ["param", "value", "stderr"], rows, {
        "temps_kelvin": temps,
        "windows": {"ohmic_v": list(OHMIC_WINDOW),
                    "trap_emission_v": list(PF_WINDOW)},
        "model_values": {"eps_r": p.eps_r, "phi_pf_ev": p.phi_pf,
                         "ea_ohm_ev": p.ea_ohm},
        "mechanism": {
            "device": {"label": verdict_dev.label,
                       "t_sensitivity": verdict_dev.t_sensitivity},
            "tunneling_reference": {"label": verdict_tun.label,
                                    "t_sensitivity": verdict_tun.t_sensitivity},
        },
        "note": "window fits carry cross-channel bias; see loglog slopes",
        "loglog_slopes": list(ohm.loglog_slopes),
    }


def cmd_xbar(cfg: SimConfig, bundle, seed: int) -> _Table:
    p, m = bundle.params, bundle.update
    sec = cfg.xbar
    sigma = cfg.variation.sigma_d2d
    xbar = build_crossbar(sec.n_rows, sec.n_cols, p, sigma, seed,
                          t_kelvin=bundle.t_kelvin)
    w = np.ones((sec.n_rows, sec.n_cols))
    w[0, 0] = 0.0  # worst case: every sneak path is low-resistance
    xbar = xbar.with_weights(w)
    report = sneak_margin(xbar, 0, 0, sec.v_read_v)
    sol = report.solution
    w, v, i = xbar.w.tolist(), sol.device_v.tolist(), sol.device_i.tolist()
    rows = [(r, c, w[r][c], v[r][c], i[r][c])
            for r in range(sec.n_rows) for c in range(sec.n_cols)]
    rng = np.random.default_rng(seed)
    pulse = PulseSpec(sec.v_write_v, sec.t_width_s)
    _, wrep = write_v_half(xbar, 0, 0, pulse, m, rng=rng)
    return "xbar.csv", ["row", "col", "w", "v_device_volts",
                        "i_device_amps"], rows, {
        "shape": [sec.n_rows, sec.n_cols],
        "sigma_d2d": sigma,
        "read": {"v_read": sec.v_read_v,
                 "i_selected_amps": report.i_selected,
                 "i_sneak_worst_amps": report.i_sneak_worst,
                 "margin": report.margin,
                 "voltage_margin": report.voltage_margin,
                 "newton_iterations": sol.iterations,
                 "residual_amps": sol.residual},
        "write": {"v_write": sec.v_write_v, "t_width_s": sec.t_width_s,
                  "delta_w_selected": wrep.delta_w_selected,
                  "n_disturbed": len(wrep.disturbs),
                  "max_disturb": wrep.max_disturb,
                  "energy_pj": wrep.energy_joules * 1e12},
    }


def cmd_bench(cfg: SimConfig, bundle, seed: int) -> _Table:
    """Figure-of-merit summary table for the calibrated model."""
    p, m = bundle.params, bundle.update
    t = bundle.t_kelvin
    hrs = DeviceState(w=0.0)
    shape = m.shape_for("amplitude_ramp")
    pulse = PulseSpec(V_POT_DEFAULT, T_WIDTH_DEFAULT)
    energy_j = write_energy(pulse, hrs, p, t=t)
    rows = [
        *_figures(p, t).items(),
        ("a_pot", shape.a_pot),
        ("a_dep", shape.a_dep),
        ("nl_pot", -m.n_full / shape.a_pot),
        ("nl_dep", m.n_full / shape.a_dep),
        ("c2c_pct", 100.0 * m.c2c_rel),
        ("energy_per_pulse_pj", energy_j * 1e12),
    ]
    return "bench.csv", ["metric", "value"], rows, {
        "t_kelvin": t,
        "pulse": {"v_write": pulse.v_write, "t_width_s": pulse.t_width,
                  "start_state": "hrs"},
        "note": ("energy_per_pulse_pj scales with device area through the "
                 "calibrated R_on; at the default large-area calibration it "
                 "sits far above selector-free sub-pJ figures"),
    }


# --- wiring -----------------------------------------------------------------

_HANDLERS = {
    "iv": cmd_iv,
    "hysteresis": cmd_hysteresis,
    "scheme": cmd_scheme,
    "fitA": cmd_fit_a,
    "cdf": cmd_cdf,
    "retention": cmd_retention,
    "d2d": cmd_d2d,
    "scaling": cmd_scaling,
    "arrhenius": cmd_arrhenius,
    "xbar": cmd_xbar,
    "bench": cmd_bench,
}


def _seed(text: str) -> int:
    """--seed's type: a non-negative integer, the seeds numpy's
    SeedSequence takes."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {seed}")
    return seed


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on the first main call."""
    parser = _Parser(prog="ftjsim",
                     description="Ferroelectric memristor compact-model toolkit")
    parser.add_argument("command_pos", nargs="?", metavar="COMMAND",
                        help=f"one of: {', '.join(_HANDLERS)}")
    parser.add_argument("--command", dest="command_flag", metavar="NAME",
                        help="command to run (alternative to the positional)")
    parser.add_argument("--config", help="INI config file (defaults baked in)")
    parser.add_argument("--out", default="ftjsim-out",
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="root seed for every random draw "
                             "(a non-negative integer)")
    return parser


def _write_files(out: Path, csv_path: Path, csv_blocks, json_path: Path,
                 json_text: str) -> None:
    """Create out if it is missing, stream csv_blocks into csv_path.part,
    write json_text to json_path, and then rename the part over csv_path.
    On any failure the part, the sidecar and the directories made here
    are removed, and the error is raised on. So a table that fails while
    it streams leaves out as it was."""
    made = []
    if not out.is_dir():
        for parent in (out, *out.parents):
            if parent.exists():
                break
            made.append(parent)
    part = csv_path.with_name(f"{csv_path.name}.part")
    written = []
    try:
        if made:
            out.mkdir(parents=True, exist_ok=True)
        with open(part, "w", newline="", encoding="utf-8") as fh:
            written.append(part)
            fh.writelines(csv_blocks)
        with open(json_path, "w", newline="", encoding="utf-8") as fh:
            written.append(json_path)
            fh.write(json_text)
        part.replace(csv_path)
    except BaseException:
        for path in written:
            with suppress(OSError):
                path.unlink()
        for directory in made:
            with suppress(OSError):
                directory.rmdir()
        raise


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command_pos and args.command_flag \
                and args.command_pos != args.command_flag:
            raise _UsageError(
                f"conflicting commands {args.command_pos!r} and "
                f"{args.command_flag!r}")
        command = args.command_flag or args.command_pos
        if not command:
            raise _UsageError("no command given")
        if command not in _HANDLERS:
            raise _UsageError(
                f"unknown command {command!r}; expected one of "
                f"{', '.join(_HANDLERS)}")
        out = Path(args.out)
        if out.exists() and not out.is_dir():
            raise _UsageError(f"--out {out} is not a directory")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        cfg = load_config(args.config) if args.config else SimConfig()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # parse owns every config limit, so what fails from here on is numerical
    try:
        bundle = build_model(cfg)
        # a float overflow, invalid operation or division by zero inside a
        # command is a numerical failure, not a warning beside a bad table
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            csv_name, header, rows, payload = _HANDLERS[command](
                cfg, bundle, args.seed)
    except (RuntimeError, ArithmeticError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # the JSON is rendered before any file is opened; the CSV is rendered
    # and written block by block, and the rows' reads run under the
    # handlers' float policy
    json_text = _json_text(_meta(command, cfg, args.seed, payload))
    csv_path, json_path = out / csv_name, out / f"{command}.json"
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _write_files(out, csv_path, _csv_blocks(header, rows),
                         json_path, json_text)
    except OSError as exc:
        print(f"usage error: --out {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _RowsError as exc:
        print(f"numerical error: {exc.__cause__}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {csv_path}\nwrote {json_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
