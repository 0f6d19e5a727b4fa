"""The exactness sweeps: ftjsim's fast paths against numpy's scalar draws,
oracle.py's scalar model and Python's number formatting, over more seeds
and values than tier-1 runs. From the repository root, with no options:

    PYTHONPATH=src python -W error tests/sweeps.py

Each sweep prints its counts, and an ::error:: line naming it if it finds
a mismatch or raises. Every sweep runs; the exit status is 1 if any
failed. The seeds and sizes are the constants below.
"""

import contextlib
import io
import math
import sys
import tempfile
import traceback
from dataclasses import fields
from pathlib import Path

import numpy as np

import oracle
from ftjsim import cli, conduction, device
from ftjsim.config import SimConfig, build_model, parse_config
from ftjsim.crossbar import (MAX_SOLVE_DIM, BiasScheme, NetworkSolution,
                             build_crossbar, solve_network)
from ftjsim.inference import program_write_verify

D2D_SEEDS, D2D_N = range(4), 200000
TRIAL_SEEDS = range(200)  # mvm_error_mc trials: d2d pairs, write-verify
NOISE_SEEDS, NOISE_C2C, NOISE_N = range(4), (0.05, 0.1, 0.3), 100000
TRAIN_SEEDS = range(200)
MULTIPLIER_SEEDS, MULTIPLIER_N = range(4), 250000
NUMBER_SEEDS, NUMBER_N, NUMBER_BLOCK = range(4), 250000, 65536
NETWORK_SEEDS = range(300)
NETWORK_PATTERNS = ("read_select", "float_rows", "float_cols", "float_mask")


def _differ(got, expect):
    """How many floats differ by float.hex, a length difference included."""
    got, expect = oracle.hexes(got), oracle.hexes(expect)
    return sum(a != b for a, b in zip(got, expect)) + abs(len(got) - len(expect))


def d2d():
    """sample_d2d_offsets draws a population in vector passes, one per
    block, and sends the draws it cannot show exact to numpy's per-device
    Generator. For seeds 0-3, 200000 offsets must equal oracle.d2d_draws
    by float.hex; the share of draws that took the per-device path is
    printed. At seed 0, the d2d command's 200000-row table, streamed in
    blocks, must equal the per-device table, two scalar reads per drawn
    offset, byte for byte.
    mvm_error_mc draws the two 8x8 planes of a trial, its s_pos and s_neg
    siblings, in one pass; for the first trial at seeds 0-199, each of the
    128 offsets must equal the oracle's draw on its sibling's child, and
    the mismatch count is printed."""
    ok = True
    tables = device._ziggurat_tables()
    if tables is None:
        print("::error::the vector pass is off on this numpy")
        ok = False
    for seed in D2D_SEEDS:
        expect = oracle.d2d_draws(0.1, seed, D2D_N)
        bad = _differ(device.sample_d2d_offsets(0.1, seed, D2D_N), expect)
        if seed == 0 and not _d2d_table_equals_reference(seed, expect):
            print(f"::error::seed {seed}: d2d.csv differs from the "
                  f"per-device table")
            ok = False
        if tables is not None:
            words = device._child_words([np.random.SeedSequence(seed)])(
                0, D2D_N)
            _, exact = device._ziggurat_fast_path(
                device._pcg64_first_outputs(words), *tables)
            print(f"seed {seed}: fallback share {1 - exact.mean():.4f}")
        if bad:
            print(f"::error::seed {seed}: {bad} of {D2D_N} offsets differ")
            ok = False
    bad = 0
    for seed in TRIAL_SEEDS:
        trial = np.random.SeedSequence(seed).spawn(1)[0]
        siblings = trial.spawn(4)[:2]
        got = device._d2d_offsets(0.1, siblings, 64)
        bad += sum(_differ(row, oracle.d2d_draws(0.1, ss, 64))
                   for row, ss in zip(got, siblings))
    print(f"mvm_error_mc sibling pairs, seeds {TRIAL_SEEDS[0]}-{TRIAL_SEEDS[-1]}: "
          f"{bad} of {len(TRIAL_SEEDS) * 128} offsets differ")
    if bad:
        print("::error::a sibling pass differs from default_rng")
    return ok and not bad


def _d2d_table_equals_reference(seed, offsets):
    """Run the d2d command at len(offsets) devices and compare its table
    with one written from offsets by two scalar reads per device."""
    model = build_model(SimConfig())
    p, v, t = model.params, model.v_read, model.t_kelvin
    rows = ["device_index,d2d_log10,r_hrs_ohms,r_lrs_ohms\r\n"]
    for i, d in enumerate(offsets):
        hrs, lrs = (oracle.read(device.DeviceState(w=w, d2d_log10=d), p, v,
                                t)[1] for w in (0.0, 1.0))
        rows.append("%d,%.12g,%.12g,%.12g\r\n" % (i, d, hrs, lrs))
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "run.ini"
        ini.write_text(f"[d2d]\nn_devices = {len(offsets)}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["d2d", "--config", str(ini), "--out", tmp,
                             "--seed", str(seed)])
        same = code == 0 and ((Path(tmp) / "d2d.csv").read_bytes()
                              == "".join(rows).encode())
    print(f"seed {seed}: d2d command exit {code}, "
          f"table {'equal' if same else 'differs'}")
    return same


def noise():
    """The pulse law draws its cycle-to-cycle factors in blocks and, on
    exit, re-syncs the generator to where one scalar draw per pulse
    leaves it. device._trains and the write-verify trim device._trim both
    read a factor as (block or refill()).pop(); so does this sweep. For
    seeds 0-3 and c2c_rel 0.05, 0.1 and 0.3, 100000 block-drawn factors
    must equal scalar rng.lognormal calls by float.hex, and the
    generators must end in the same state."""
    ok = True
    for seed in NOISE_SEEDS:
        for c2c in NOISE_C2C:
            s2 = math.log(1.0 + c2c ** 2)
            mean, sigma = -0.5 * s2, math.sqrt(s2)
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            with device._lognormal_stream(rng, mean, sigma) as (block, refill):
                got = [(block or refill()).pop() for _ in range(NOISE_N)]
            bad = _differ(got, [ref.lognormal(mean=mean, sigma=sigma)
                                for _ in range(NOISE_N)])
            same = rng.bit_generator.state == ref.bit_generator.state
            print(f"seed {seed} c2c_rel {c2c}: {bad} of {NOISE_N} differ, "
                  f"end states {'match' if same else 'differ'}")
            if bad or not same:
                print(f"::error::seed {seed} c2c_rel {c2c}: block draws are "
                      "not exact")
                ok = False
    return ok


def write_verify():
    """program_write_verify trims each cell in one fused loop: the pulse
    law, the noise factor and the verify read inline. For seeds 0-199 it
    programs the 8x8 pair of one mvm_error_mc trial (sigma_d2d 0.1,
    default c2c, mvm_error_mc's targets and tol_g) on one generator, and
    oracle.program (the per-pulse law and one current_total read per
    pulse) does the same on another. States, pulse counts and residuals
    must agree by float.hex and the generators must end in the same state.
    The mismatch count is printed."""
    p, m = conduction.default_params(), device.default_update_model()
    bad = pulses = 0
    for seed in TRIAL_SEEDS:
        planes, tol, s_prog = oracle.benchmark_planes(seed, p)
        rngs = np.random.default_rng(s_prog), np.random.default_rng(s_prog)
        for xbar, targets in planes:
            new, ref = (trim(xbar, targets, m, tol, rng) for trim, rng in
                        zip((program_write_verify, oracle.program), rngs))
            pulses += new[1].pulses_total
            if (oracle.programming_bits(new, rngs[0])
                    != oracle.programming_bits(ref, rngs[1])):
                print(f"::error::seed {seed}: the trim differs from the "
                      "per-pulse reference")
                bad += 1
    print(f"{bad} of {2 * len(TRIAL_SEEDS)} planes differ ({pulses} pulses)")
    return not bad


def _scheme_text(rng):
    """A drawn [scheme]/[update] config: any kind, alt_amplitudes, 1-20
    cycles, c2c_rel 0, 0.1 or 0.3, and each onset at its default, at a
    uniform draw that cuts a ramp part way, or past every preset pulse of
    its polarity (-3.0 V, 3.5 V), so whole trains fall below threshold."""
    kind = device.SCHEME_KINDS[rng.integers(3)]
    alt = ("false", "true")[rng.integers(2)]
    n_cycles = int(rng.integers(1, 21))
    c2c = (0.0, 0.1, 0.3)[rng.integers(3)]
    v_pot = (device.V_C_NEG, rng.uniform(-2.6, -0.05), -3.0)[rng.integers(3)]
    v_dep = (device.V_C_POS, rng.uniform(0.05, 3.3), 3.5)[rng.integers(3)]
    return (f"[scheme]\nkind = {kind}\nalt_amplitudes = {alt}\n"
            f"n_cycles = {n_cycles}\n[update]\nc2c_rel = {c2c!r}\n"
            f"v_on_pot_v = {float(v_pot)!r}\nv_on_dep_v = {float(v_dep)!r}\n")


def _hysteresis_text(rng):
    """A drawn [hysteresis]/[device] config: loop legs, step_v, the read
    bias and the temperature."""
    v_neg, v_pos, step, v_read, t = (
        rng.uniform(lo, hi) for lo, hi in
        ((0.95, 3.0), (1.15, 3.5), (0.002, 0.1), (0.01, 0.6),
         (200.0, 400.0)))
    return (f"[hysteresis]\nv_neg_v = {v_neg!r}\nv_pos_v = {v_pos!r}\n"
            f"step_v = {step!r}\n[device]\nv_read_v = {v_read!r}\n"
            f"t_kelvin = {t!r}\n")


def pulse_trains():
    """cdf runs its trains through one noise stream, and scheme runs its
    cycles as one train. For seeds 0-199 at the default config, each
    command's table and payload must equal oracle.py's per-train form by
    float.hex and cell type, and the generators must end in the same
    state. So must scheme's over 200 configs drawn from seeds 0-199 by
    _scheme_text, each run at its seed, and hysteresis's, memory window
    included, against oracle.py's per-point form over 200 configs drawn
    by _hysteresis_text. Each command's mismatch count is printed."""
    def differs(command, cfg, bundle, seed):
        return (oracle.command_run(command, cfg, bundle, seed)
                != oracle.reference_run(command, cfg, bundle, seed))

    cfg = SimConfig()
    bundle = build_model(cfg)
    bad = 0
    for command in ("cdf", "scheme"):
        before = bad
        for seed in TRAIN_SEEDS:
            if differs(command, cfg, bundle, seed):
                print(f"::error::{command} seed {seed}: differs from the "
                      "per-train reference")
                bad += 1
        print(f"{command}: {bad - before} of {len(TRAIN_SEEDS)} runs differ")
    for command, text in (("scheme", _scheme_text),
                          ("hysteresis", _hysteresis_text)):
        before = bad
        for seed in TRAIN_SEEDS:
            drawn = parse_config(text(np.random.default_rng(seed)))
            if differs(command, drawn, build_model(drawn), seed):
                print(f"::error::{command} config seed {seed}: differs from "
                      "the oracle's form")
                bad += 1
        print(f"{command}: {bad - before} of {len(TRAIN_SEEDS)} drawn configs "
              "differ")
    return not bad


def multiplier():
    """Every trace read, the crossbar reads and the conductance helpers
    build state multipliers with the broadcasting state_multiplier
    (np.float_power). It must equal oracle.multiplier, g_lrs ** w *
    10.0 ** (-d) in Python floats, which the write-verify trim folds
    inline into each read. For seeds 0-3, 250000 (w, d2d_log10) pairs are
    compared by float.hex, and so is the trace reads' call shape: the same
    w as a list with one scalar offset (0 and a drawn offset). np.power's
    mismatch count is printed for information only."""
    p = conduction.default_params()
    ok = True
    for seed in MULTIPLIER_SEEDS:
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, MULTIPLIER_N)
        d = rng.normal(0.0, 0.3, MULTIPLIER_N)
        ws = w.tolist()
        ref = [oracle.multiplier(p, wi, di) for wi, di in zip(ws, d.tolist())]
        bad = _differ(conduction.state_multiplier(p, w, d), ref)
        info = _differ(np.power(p.g_lrs, w) * np.power(10.0, -d), ref)
        print(f"seed {seed}: {bad} of {MULTIPLIER_N} differ "
              f"(np.power: {info}, not gated)")
        for d0 in (0.0, float(d[0])):
            one = _differ(conduction.state_multiplier(p, ws, d0),
                          [oracle.multiplier(p, wi, d0) for wi in ws])
            print(f"seed {seed}, w list at offset {d0!r}: "
                  f"{one} of {MULTIPLIER_N} differ")
            bad += one
        if bad:
            print(f"::error::seed {seed}: state_multiplier is not exact")
            ok = False
    return ok


def _network_case(seed):
    """seed's array and scheme: 1-64 rows and columns, each side
    log-uniform up to 2 ** 6.5 and capped at 64 (so about one side in
    thirteen has 64 lines), with d2d spread, uniform weights and a drawn
    temperature, under pattern seed % 4. read_select reads a drawn cell at
    +-0.1-1 V; the others drive each line at -0.6-0.6 V and float 80 % of
    the rows, 80 % of the columns, or half of both, with one column driven
    at 0 V if every line floats."""
    rng = np.random.default_rng(seed)
    nr, nc = (min(round(2.0 ** rng.uniform(0.0, 6.5)), MAX_SOLVE_DIM)
              for _ in range(2))
    xbar = build_crossbar(nr, nc, conduction.default_params(),
                          sigma_d2d=rng.uniform(0.01, 0.3), seed=seed,
                          t_kelvin=rng.uniform(200.0, 450.0))
    xbar = xbar.with_weights(rng.uniform(0.0, 1.0, (nr, nc)))
    pattern = NETWORK_PATTERNS[seed % len(NETWORK_PATTERNS)]
    row, col = int(rng.integers(nr)), int(rng.integers(nc))
    if pattern == "read_select":
        v = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.1, 1.0)
        return xbar, BiasScheme.read_select(nr, nc, row, col, v)
    rows = rng.uniform(-0.6, 0.6, nr).tolist()
    cols = rng.uniform(-0.6, 0.6, nc).tolist()
    share_rows, share_cols = {"float_rows": (0.8, 0.0),
                              "float_cols": (0.0, 0.8),
                              "float_mask": (0.5, 0.5)}[pattern]
    rows = [None if rng.random() < share_rows else v for v in rows]
    cols = [None if rng.random() < share_cols else v for v in cols]
    if all(v is None for v in rows + cols):
        cols[col] = 0.0
    return xbar, BiasScheme(rows=tuple(rows), cols=tuple(cols))


def _solution_bytes(solve, xbar, scheme):
    """solve's iteration count and every field of its NetworkSolution as
    (dtype, shape, bytes), or the type of the RuntimeError or ValueError
    it raised."""
    try:
        sol = solve(xbar, scheme)
    except (RuntimeError, ValueError) as exc:
        return type(exc)
    arrays = (np.asarray(getattr(sol, f.name))
              for f in fields(NetworkSolution))
    return sol.iterations, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def network():
    """solve_network reads each Newton point through conduction's array
    kernel. For seeds 0-299 it solves _network_case's array and scheme,
    and oracle.reference_solve (one scalar current_total per device,
    summed left to right) does the same. Every field of the two solutions
    must agree by its bytes, or both must raise the same error. The
    mismatch count and the Newton iterations are printed."""
    bad = iterations = 0
    for seed in NETWORK_SEEDS:
        xbar, scheme = _network_case(seed)
        new, ref = (_solution_bytes(solve, xbar, scheme) for solve in
                    (solve_network, oracle.reference_solve))
        if new != ref:
            print(f"::error::seed {seed}: a {xbar.n_rows}x{xbar.n_cols} "
                  "solve differs from the scalar reference")
            bad += 1
        elif not isinstance(new, type):
            iterations += new[0]
    print(f"{bad} of {len(NETWORK_SEEDS)} solves differ "
          f"({iterations} Newton iterations)")
    return not bad


def _number_lines_differ(column, form) -> int:
    """How many lines of the array pass's text for column differ from
    form % value, rendered NUMBER_BLOCK values at a time."""
    bad = 0
    for start in range(0, len(column), NUMBER_BLOCK):
        part = column[start:start + NUMBER_BLOCK]
        got = cli._number_text([part]).split("\r\n")[:-1]
        bad += sum(line != form % v for line, v in zip(got, part.tolist()))
        bad += abs(len(got) - len(part))
    return bad


def csv_numbers():
    """The CLI writes blocks of number columns through the array pass,
    cli._number_text, which must write each float64 as "%.12g" % x and
    each int64 as "%d" % v. For seeds 0-3 it is compared on 250000 random
    float64 bit patterns (nan, infinities and subnormals among them), on
    250000 doubles nearest a 13-digit decimal ending in 5 (ties and
    near-ties at the 12th digit) and on 250000 random int64 values. Once,
    it is compared on every power of ten from 1e-320 to 1e308 and its
    neighbours within 3 ulps, of both signs. The mismatch counts are
    printed."""
    bad = 0
    for seed in NUMBER_SEEDS:
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, NUMBER_N, dtype=np.uint64,
                            endpoint=False).view(np.float64)
        digits = rng.integers(10**11, 10**12, NUMBER_N).tolist()
        exps = rng.integers(-300, 291, NUMBER_N).tolist()
        ties = np.array([float(f"{d}5e{e}") for d, e in zip(digits, exps)])
        ints = rng.integers(-2**63, 2**63 - 1, NUMBER_N, endpoint=True)
        counts = [_number_lines_differ(bits, "%.12g"),
                  _number_lines_differ(ties, "%.12g"),
                  _number_lines_differ(ints, "%d")]
        print(f"seed {seed}: {counts[0]} of {NUMBER_N} bit patterns, "
              f"{counts[1]} of {NUMBER_N} near-ties, {counts[2]} of "
              f"{NUMBER_N} ints differ")
        bad += sum(counts)
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
    near = [tens]
    for toward in (math.inf, -math.inf):
        step = tens
        for _ in range(3):
            step = np.nextafter(step, toward)
            near.append(step)
    near = np.concatenate(near + [-v for v in near])
    powers = _number_lines_differ(near, "%.12g")
    print(f"powers of ten 1e-320-1e308 within 3 ulps: {powers} of "
          f"{len(near)} differ")
    bad += powers
    if bad:
        print("::error::the array pass differs from Python's formatting")
    return not bad


SWEEPS = (d2d, noise, write_verify, pulse_trains, multiplier, network,
          csv_numbers)


def main():
    print("numpy", np.__version__)
    failed = False
    for sweep in SWEEPS:
        print(f"--- {sweep.__name__}")
        try:
            ok = sweep()
        except Exception:
            traceback.print_exc(file=sys.stdout)
            ok = False
        if not ok:
            print(f"::error::the {sweep.__name__} sweep failed")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
