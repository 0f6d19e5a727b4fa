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
(csv_name, header, blocks, payload) and writes nothing. The payload holds
plain Python values. The header is a list of str labels, and the table a
sequence of blocks, each one 1-D column per header label, all of one
length. A column's dtype sets its format: "%d" for an int64 array,
"%.12g" for a float64 array and "%s" for a list of str labels. A column
keeps its kind in every block, and no label needs CSV quoting. The
writer trusts this domain and checks none of it:
test_handlers_hand_main_exact_python_cells pins it for every handler over
drawn configs, and checks that each handler's table renders to the bytes
csv.writer writes cell by cell. Tables that grow with the config come in
_CSV_BLOCK-row slices, and d2d reads each block only as main writes it,
so only its offsets grow with n_devices. main renders the payload,
stamped through _meta, first. It then streams the table through
_csv_blocks, which renders each block in one format, its template, into
<csv_name>.part in --out, writes the sidecar, and renames the part over
<csv_name> after the last block (_write_files). A block of at least
_ARRAY_ROWS rows and no label column is rendered instead by the array
pass, _number_text, which lays out the text of all its numbers in numpy
arrays at once; each value it cannot show exact takes Python's own
"%.12g" % x, so the bytes are the template's. Any failure removes
the part, the sidecar and the directories main made: a command that
fails leaves --out as it found it. Output bytes are reproducible for a
given (config, seed, version): no timestamps, no machine identifiers,
and all floats rendered with a fixed format.

Exit codes: 0 success, 1 usage error (an OSError while --out or a file in
it is made, written or renamed is one), 2 configuration error (a
malformed file or a value outside a limit, all found when the config is
parsed), 3 numerical failure (calibration, a network solve, or any float
error, RuntimeError or ValueError while the model is built, a command
runs or its table streams).
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
                     _trace_read, _trains, dc_write_loop, memory_window,
                     preset_scheme, retention_evolve, write_energy)
from .extraction import (OHMIC_WINDOW, PF_WINDOW, Sweep, cdf_levels,
                         discriminate_tunneling, extract_ohmic, extract_pf,
                         fit_update_a)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_Table = tuple[str, list[str], Iterable, dict]  # csv_name, header, blocks, payload


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


_FORMATS = {np.dtype(np.int64): "%d", np.dtype(np.float64): "%.12g"}
# Rows read, rendered and written together. Reading and rendering
# CLI d2d's 10000 rows, through the array pass, took 9.3-14.0 ms at
# minimum at 2048 and 4096 rows a block, 10.8-16 ms at 1024, 8192 and
# 16384, and 13-19 ms at 512 (two sets of 21 interleaved runs, 2-CPU
# x86_64 box). d2d at n_devices = 200000 peaked at 3.1 MiB under
# tracemalloc from 512 to 2048 rows a block, 3.7 MiB at 4096 and 5.8 MiB
# at 8192.
_CSV_BLOCK = 2048
# Blocks of at least this many rows and no label column are rendered by
# the array pass, _number_text, and the rest by the one-format template.
# The pass makes about 70 numpy calls a block, so it breaks even with the
# template between 192 and 320 rows of the hysteresis, scheme and d2d
# tables; at 384 rows it took 0.85-0.95 of the template's time (medians
# of 300 interleaved renders, 2-CPU x86_64 box).
_ARRAY_ROWS = 384


def _slices(*columns):
    """Equal-length columns as blocks of _CSV_BLOCK rows."""
    return ([c[start:start + _CSV_BLOCK] for c in columns]
            for start in range(0, len(columns[0]), _CSV_BLOCK))


# --- the array pass: "%d" and "%.12g" text for a block of number columns ----
#
# Each value is laid out in a lane of little-endian 64-bit words, NUL where
# it has no character, and the last byte of each lane holds the separator
# after it. The lanes of a block fill one buffer in row order, and one
# translate strips the NULs. A float's lane is five words: its sign and a
# "0.000"-style head, three words of four digits each with a slot for the
# point behind every digit, and an "e+308"-style tail. An int's lane is
# words of four digits, the first always a leading zero that holds the sign.
#
# A float's 12 significant digits are D = round(|x| * 10**(11 - e)) for e =
# floor(log10|x|). The scale is 10**(22 i), rounded, times an exact 10**j,
# rounded again, so the product is off by at most three roundings: under
# 3.4e-4 for a product below 1e12. The pass keeps a value only when the
# product lies in [1e11, 1e12 - 0.5) and at least _HALF_MARGIN from a half.
# Its rounding is then the exact value's, and e is its exponent, or D is
# 10**11 at e. Every other value (0, -0.0, subnormals and exponents below
# _E_MIN, nan, inf, near-ties, a log10 off by one) takes "%.12g" into its
# lane.

_E_MIN, _E_MAX = -296, 308
_HALF_MARGIN = 1e-3


@functools.cache
def _number_tables():
    """The array pass's lookup tables, built on its first block: about
    1 ms on a 2-CPU x86_64 box."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    coarse = np.array([float(f"1e{22 * i}") for i in range(-14, 14)])
    fine = np.array([float(10 ** j) for j in range(22)])
    scale = (coarse[:, None] * fine).ravel()[11 - e + 22 * 14]
    # a word of four digits by its value, each digit followed by a '.'
    tens, ones = np.divmod(np.arange(100, dtype=np.uint64), np.uint64(10))
    pair = tens + 48 | ones + 48 << np.uint64(16) | np.uint64(0x2E002E00)
    words = (pair[:, None] | pair << np.uint64(32)).ravel()
    # digits up to the last nonzero one, of two digits and of four
    two = (ones > 0) * np.uint64(1) + (tens + ones > 0)
    last = np.where(two > 0, two + 2, two[:, None]).ravel().astype(np.uint8)
    fixed = (e >= -4) & (e < 12)
    # digits before the point: e + 1, none for "0.0...", 1 in exponent form
    lead = np.where(fixed, np.maximum(e + 1, 0), 1)
    # the float digit-word masks by (lead, digits up to the last nonzero
    # one): the digits up to the larger of the two, and the point after
    # the lead digits if a digit follows it
    q = np.arange(13)[:, None, None]
    kept = np.arange(13)[None, :, None]
    p = np.arange(12)
    masks = np.empty((13, 13, 12, 2), np.uint8)
    masks[..., 0] = (p < np.maximum(kept, q)) * 255
    masks[..., 1] = ((p == q - 1) & (kept > q)) * 255
    heads = np.frombuffer(b"".join(
        (b"\0" + prefix).ljust(8, b"\0") for prefix in
        (b"", b"0.", b"0.0", b"0.00", b"0.000")), "<u8")
    m = np.abs(e).astype(np.uint64)
    tail = (ord("e") | np.where(e < 0, ord("-"), ord("+")).astype(np.uint64)
            << np.uint64(8) | np.where(m >= 100, m // 100 + 48, 0)
            << np.uint64(16) | (m // 10 % 10 + 48) << np.uint64(24)
            | (m % 10 + 48) << np.uint64(32))
    tail[fixed] = 0
    return {"scale": scale, "words": words, "last": last,
            "lead13": lead * 13,
            "masks": masks.reshape(13 * 13, 24).view("<u8"),
            "head": heads[np.where(fixed & (e < 0), -e, 0)], "tail": tail,
            # an int word's last k digits, k = 0..4
            "low": np.array([sum(0xff << 16 * d for d in range(4 - k, 4))
                             for k in range(5)], "<u8"),
            "pow10": np.array([10 ** k for k in range(1, 20)], np.uint64)}


def _float_lanes(x, lanes):
    """Lay (n, m) float64 values into (n, m, 5) word lanes as "%.12g"."""
    t = _number_tables()
    a = np.abs(x)
    ei = np.floor(np.log10(a)).astype(np.intp)
    ei -= _E_MIN
    np.clip(ei, 0, len(t["scale"]) - 1, out=ei)
    s = a * t["scale"][ei]
    d = np.rint(s)
    ok = (s >= 1e11) & (d < 1e12) & (np.abs(s - d) < 0.5 - _HALF_MARGIN)
    d[~ok] = 1e11
    # D's three words of four digits, exact in float64
    chunks = np.empty(x.shape + (3,))
    np.floor(d / 1e8, out=chunks[..., 0])
    d -= chunks[..., 0] * 1e8
    np.floor(d / 1e4, out=chunks[..., 1])
    np.subtract(d, chunks[..., 1] * 1e4, out=chunks[..., 2])
    chunks = chunks.astype(np.intp)
    last = t["last"][chunks]
    kept = np.maximum(np.maximum(
        last[..., 0], np.where(last[..., 1], last[..., 1] + 4, 0)),
        np.where(last[..., 2], last[..., 2] + 8, 0))
    np.bitwise_or(t["head"][ei], np.signbit(x) * np.uint64(ord("-")),
                  out=lanes[..., 0])
    np.bitwise_and(t["words"][chunks],
                   t["masks"].take(t["lead13"][ei] + kept, axis=0),
                   out=lanes[..., 1:4])
    lanes[..., 4] = t["tail"][ei]
    if not ok.all():
        bad = ~ok
        lanes.view(np.uint8)[bad] = np.frombuffer("".join(
            ("%.12g" % v).ljust(40, "\0") for v in x[bad].tolist()
        ).encode("ascii"), np.uint8).reshape(-1, 40)


def _int_words(v) -> int:
    """How many words an int lane needs for every value in v: four digits
    a word, and one digit more than the widest value has, for the sign."""
    widest = max(-int(v.min()), int(v.max()))
    return len(str(widest)) // 4 + 1


def _int_lanes(v, lanes):
    """Lay (n, m) int64 values into (n, m, k) word lanes as "%d"."""
    t = _number_tables()
    neg = v < 0
    mag = v.view(np.uint64).copy()
    np.negative(mag, out=mag, where=neg)
    digits = np.searchsorted(t["pow10"], mag, side="right") + 1
    k = lanes.shape[-1]
    for j in range(k - 1, -1, -1):
        mag, chunk = np.divmod(mag, np.uint64(10000))
        lanes[..., j] = t["words"][chunk.astype(np.intp)]
    lanes &= t["low"][np.clip(digits[..., None] - 4 * np.arange(k - 1, -1, -1),
                              0, 4)]
    lanes[..., 0] |= neg * np.uint64(ord("-"))


def _number_text(columns) -> str:
    """The CSV text of a block of equal-length int64 and float64 columns,
    byte for byte the one-format template's."""
    # per run of columns of one dtype: (values, first word, words a lane)
    laid, width = [], 0
    for dtype, run in itertools.groupby(columns, key=lambda c: c.dtype):
        x = np.column_stack(list(run))
        k = 5 if dtype == np.float64 else _int_words(x)
        laid.append((x, width, k))
        width += x.shape[1] * k
    n = len(columns[0])
    text = bytearray(n * (width + 1) * 8)
    out = np.frombuffer(text, "<u8").reshape(n, width + 1)
    # main writes under errstate(raise), and log10 of 0 or nan is no error
    # here: such a value takes "%.12g"
    with np.errstate(all="ignore"):
        for x, start, k in laid:
            lay = _float_lanes if x.dtype == np.float64 else _int_lanes
            lay(x, out[:, start:start + x.shape[1] * k].reshape(n, -1, k))
    ends = np.cumsum([k for x, _, k in laid for _ in range(x.shape[1])])
    out[:, ends[:-1] - 1] |= np.uint64(ord(",") << 56)
    out[:, -2] |= np.uint64(ord("\r") << 56)
    out[:, -1] = ord("\n")
    return text.translate(None, b"\0").decode("ascii")


def _csv_blocks(header, blocks):
    """The CSV text of a table in the write contract's domain, as the
    header line and then one string per block of columns. Each block is
    read and rendered in turn, so a lazy table reads its columns as it is
    written."""
    yield ",".join(header) + "\r\n"
    for block in blocks:
        # looked up first, so a column of another dtype raises this
        # KeyError rather than a float error inside the array pass
        formats = ["%s" if type(c) is list else _FORMATS[c.dtype]
                   for c in block]
        n = len(block[0]) if block else 0
        if n >= _ARRAY_ROWS and "%s" not in formats:
            yield _number_text(block)
            continue
        flat = [None] * (n * len(block))
        for j, c in enumerate(block):
            flat[j::len(block)] = c if type(c) is list else c.tolist()
        # one format over the block: the same text as one per row
        yield ((",".join(formats) + "\r\n") * n) % tuple(flat)


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
    currents = []
    for t in sec.t_list_k:
        with _t_list_entry(t):
            currents.append(current_total(grid, t, p, state))

    def block(t, v, i):
        # as float division: inf past float range, and no error
        with np.errstate(over="ignore"):
            j = i / p.area
        return v, np.full(len(v), t), np.full(len(v), sec.state_w), i, j

    blocks = (block(t, v, i) for t, i_t in zip(sec.t_list_k, currents)
              for v, i in _slices(grid, i_t))
    return "iv.csv", ["v_volts", "t_kelvin", "state_w", "i_amps",
                      "j_a_per_m2"], blocks, {
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
    blocks = _slices(grid, trace.w, trace.i_amps, trace.r_ohms)
    return "loop.csv", ["v_write_volts", "w", "i_amps", "r_ohms"], blocks, {
        "sweep": asdict(sec),
        "read": {"v_read": bundle.v_read, "t_kelvin": bundle.t_kelvin},
        "window": asdict(memory_window(grid, trace.r_ohms)),
    }


def cmd_scheme(cfg: SimConfig, bundle, seed: int) -> _Table:
    p, m = bundle.params, bundle.update
    sec = cfg.scheme
    pulses = [pulse for polarity in ("pot", "dep")
              for pulse in preset_scheme(
                  sec.kind, polarity,
                  alt_amplitudes=sec.alt_amplitudes).pulses()]
    # w depends only on w and the pulse, so the cycles run as one train
    [(ws, _, _)] = _trains(m, sec.kind, np.random.default_rng(seed),
                           [(0.0, 0, 0, False, pulses * sec.n_cycles)])
    _, r = _trace_read(V_READ, bundle.t_kelvin, p, ws)
    n = len(pulses)
    blocks = _slices(
        np.repeat(np.arange(1, sec.n_cycles + 1, dtype=np.int64), n),
        np.tile(np.arange(n, dtype=np.int64), sec.n_cycles),
        np.tile([pulse.v_write for pulse in pulses], sec.n_cycles),
        np.tile([pulse.t_width for pulse in pulses], sec.n_cycles),
        np.array(ws), r)
    return "trace.csv", ["cycle", "pulse_index", "v_write_volts", "t_width_s",
                         "w", "r_ohms_0p3v"], blocks, {
        "kind": sec.kind,
        "cycles": sec.n_cycles,
        "alt_amplitudes": sec.alt_amplitudes,
        "c2c_rel": m.c2c_rel,
        "final_w": ws[-1],
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
    (pot_w, _, _), (dep_w, _, _) = _trains(m, kind, None, [
        (0.0, 0, 0, False, pot.pulses()), (1.0, 0, 0, False, dep.pulses())])
    fit_pot = fit_update_a(np.arange(1, len(pot_w) + 1), pot_w)
    fit_dep = fit_update_a(np.arange(1, len(dep_w) + 1),
                           [1.0 - w for w in dep_w])
    blocks = [(["a_pot", "a_dep", "amplitude_pot", "amplitude_dep"],
               np.array([fit_pot.a, fit_dep.a, fit_pot.amplitude,
                         fit_dep.amplitude]),
               np.full(4, math.nan))]
    return "fit.csv", ["param", "value", "stderr"], blocks, {
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
    # every cycle starts from the same pristine w = 1, read as column 0
    ws = np.empty((cycles, n + 1))
    ws[:, 0] = 1.0
    ws[:, 1:] = [run for run, _, _ in _trains(
        m, "amplitude_ramp", np.random.default_rng(seed),
        [(1.0, 0, 0, False, train)] * cycles)]
    _, traces = _trace_read(V_READ, bundle.t_kelvin, p, ws)
    report = cdf_levels(traces)
    blocks = _slices(np.arange(n + 1, dtype=np.int64), report.medians,
                     report.iqrs)
    return "cdf.csv", ["pulse_index", "median_r_ohms", "iqr_r_ohms"], blocks, {
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
    times = np.geomspace(sec.t_min_s, sec.t_max_s, sec.n_points)
    blocks = []
    finals = {}
    for label, w0 in (("lrs", 1.0), ("hrs", 0.0)):
        s0 = DeviceState(w=w0)
        ws = np.fromiter((retention_evolve(s0, t_s, sec.drift_rate_per_s).w
                          for t_s in times.tolist()), float, len(times))
        _, r = _trace_read(bundle.v_read, bundle.t_kelvin, p, ws)
        blocks += ([[label] * len(t), t, w, r_ohms]
                   for t, w, r_ohms in _slices(times, ws, r))
        finals[label] = float(r[-1])
    return "retention.csv", ["start_state", "t_seconds", "w",
                             "r_ohms"], blocks, {
        "drift_rate_per_s": sec.drift_rate_per_s,
        "horizon_s": sec.t_max_s,
        "final_ratio": finals["hrs"] / finals["lrs"],
    }


def cmd_d2d(cfg: SimConfig, bundle, seed: int) -> _Table:
    p = bundle.params
    n_devices = cfg.d2d.n_devices
    sigma = cfg.variation.sigma_d2d
    offsets = _d2d_offsets(sigma, [seed], n_devices)[0]

    def block(start):
        d2d_log10 = offsets[start:start + _CSV_BLOCK]
        _, (r_hrs, r_lrs) = _trace_read(bundle.v_read, bundle.t_kelvin, p,
                                        [[0.0], [1.0]], d2d_log10)
        index = np.arange(start, start + len(d2d_log10), dtype=np.int64)
        return index, d2d_log10, r_hrs, r_lrs

    # one read per CSV block, as main writes it: only the offsets grow
    # with n_devices
    blocks = map(block, range(0, n_devices, _CSV_BLOCK))
    return "d2d.csv", ["device_index", "d2d_log10", "r_hrs_ohms",
                       "r_lrs_ohms"], blocks, {
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
                           "r_on_ohms", "write_energy_pj"], [
        list(np.array(rows).T)], {
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
    labels, values, stderrs = zip(*rows)
    blocks = [(list(labels), np.array(values), np.array(stderrs))]
    return "fit.csv", ["param", "value", "stderr"], blocks, {
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
    blocks = _slices(
        np.repeat(np.arange(sec.n_rows, dtype=np.int64), sec.n_cols),
        np.tile(np.arange(sec.n_cols, dtype=np.int64), sec.n_rows),
        xbar.w.ravel(), sol.device_v.ravel(), sol.device_i.ravel())
    rng = np.random.default_rng(seed)
    pulse = PulseSpec(sec.v_write_v, sec.t_width_s)
    _, wrep = write_v_half(xbar, 0, 0, pulse, m, rng=rng)
    return "xbar.csv", ["row", "col", "w", "v_device_volts",
                        "i_device_amps"], blocks, {
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
    metrics = {
        **_figures(p, t),
        "a_pot": shape.a_pot,
        "a_dep": shape.a_dep,
        "nl_pot": -m.n_full / shape.a_pot,
        "nl_dep": m.n_full / shape.a_dep,
        "c2c_pct": 100.0 * m.c2c_rel,
        "energy_per_pulse_pj": energy_j * 1e12,
    }
    blocks = [(list(metrics), np.array(list(metrics.values())))]
    return "bench.csv", ["metric", "value"], blocks, {
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
        if "\0" in args.out:
            raise _UsageError(f"--out {args.out!r} contains a NUL byte")
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
            csv_name, header, blocks, payload = _HANDLERS[command](
                cfg, bundle, args.seed)
    except (RuntimeError, ArithmeticError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # the JSON is rendered before any file is opened; the CSV is rendered
    # and written block by block, and the blocks' reads run under the
    # handlers' float policy
    json_text = _json_text(_meta(command, cfg, args.seed, payload))
    csv_path, json_path = out / csv_name, out / f"{command}.json"
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _write_files(out, csv_path, _csv_blocks(header, blocks),
                         json_path, json_text)
    except OSError as exc:
        print(f"usage error: --out {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {csv_path}\nwrote {json_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
