"""Polarization state machine: pulse updates, DC hysteresis, retention.

The device state is a value type. The normalized polarization w runs from
0 (HRS, fully depressed) to 1 (LRS, fully potentiated) and indexes the
conduction model's state multiplier. Pulse-driven updates move w along a
saturating-exponential curve in equivalent-pulse-count space:

    w(n) = (1 - exp(-n/A)) / (1 - exp(-n_full/A)),   n in [0, n_full]

one count per above-onset pulse, with the curve shape A chosen per pulse
scheme and polarity. Cycle-to-cycle noise multiplies each step by a
mean-one lognormal factor. DC writes switch through a logistic transition
centered on the coercive voltages.

The pulse law. _update_law owns its constants: each polarity's curve
shape and normalization, and the noise factor's mean and sigma. _trains
holds every rule in plain floats: it runs pulse trains in order on one
noise stream, each from its own (w, cycles, last, broken). apply_pulse
and run_scheme run one train, crossbar.write_v_half one one-pulse train
per biased cell, and the CLI's scheme, cdf and fitA commands their trains
in one call. Lognormal factors are drawn in blocks (_lognormal_stream),
and on exit the generator is re-synced to where one scalar draw per noisy
pulse leaves it. No read of a train, a DC sweep or a retention hold
decides a pulse, so each trace is read after its loop by _trace_read, in
one call of conduction._array_current, and _check_read or the config
parse checks the read first; read_state reads one state with
current_total.

The write-verify trim. _trim is the cell loop of inference._program, the
one write-verify entry: while a cell reads more than tol_g from its
target, it takes one amplitude_ramp pulse of the law and reads again,
with the law, the noise factor and the verify read inline in Python
floats. It is the one read outside the array kernel, since each reading
decides the next pulse: ((g * area) * ohm_c) * v + (g * area) * pf_k
with g = g_lrs ** w * 10 ** (-d2d_log10), the per-bias terms from
conduction._read_terms, equal to current_total bit for bit. _program
checks every offset's float range, then makes one _trim call for a whole
array, or both planes of a trial. The trains and the trim are each pinned
bit for bit, generator end state included, to an independent per-pulse
reference in the tests.

The d2d draw. Device k of a population takes the offset d2d_log10 ~
N(0, sigma_d2d) that sample_device draws on child k of
SeedSequence(seed).spawn(n), bit for bit, without building the children.
_d2d_offsets draws the children of one seed, or sibling seeds, in blocks
of _BLOCK per seed, so only the result grows with n; sample_d2d_offsets,
crossbar.build_crossbar, CLI d2d and inference.mvm_error_mc (a trial's
two sibling seeds) all draw through it. numpy supplies each parent's
entropy pool as SeedSequence.pool, and the hash constant its children
mix their last word with is closed-form: a prefix of L words hashed into
a pool of s words takes s * L hashmix calls. Each block takes one
vectorized pass of that last word and SeedSequence's output hash for the
seed words, one pass of PCG64 seeding on 32-bit limbs for each child's
first output (O'Neill, HMC-CS-2014-0905), and the first-draw acceptance
of numpy's 256-strip ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8),
2000): offset = 0.0 + sigma_d2d * x. A draw the pass cannot show exact
(strip 1, or at or above 1 - 1e-9 of its strip's acceptance estimate),
about 1.5 % of draws, takes numpy's own PCG64 and normal on its child's
words, as does every draw of a call whose population, summed over its
seeds, is below _VECTOR_MIN_N. _ziggurat_tables reads the strip widths
once per process by forced draws and checks each strip's bound; if a
check fails, every draw takes that per-device path.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .conduction import (ConductionParams, Readout, T_REF, V_READ,
                         _array_current, _checked, _read_terms, current_total,
                         state_multiplier)

__all__ = [
    "DeviceState",
    "PulseSpec",
    "PulseScheme",
    "UpdateShape",
    "UpdateModel",
    "Trace",
    "WindowReport",
    "sample_device",
    "sample_d2d_offsets",
    "apply_pulse",
    "run_scheme",
    "read_state",
    "dc_write_loop",
    "memory_window",
    "retention_evolve",
    "endurance_register",
    "write_energy",
    "default_update_model",
    "preset_scheme",
]

SCHEME_KINDS = ("amplitude_ramp", "width_ramp", "hybrid")

# Coercive voltages. The negative one doubles as the pulse potentiation
# onset; +0.8 V is the 1.6 MV/cm coercive field times the film thickness,
# rounded up from 0.784 V.
V_C_NEG = -0.6
V_C_POS = 0.8
DC_WIDTH = 0.1          # logistic transition width, V

N_FULL_DEFAULT = 50
C2C_REL_DEFAULT = 0.10

# Signed nonlinearity magnitudes n_full/A reported for the two ramp
# schemes; the sharp value belongs to potentiation under the amplitude
# ramp and to depression under the width ramp.
NL_SHARP = 4.3
NL_GENTLE = 1.9

ENDURANCE_LIMIT = 10_000_000_000

# Preset write pulses (benchmark row): 50 us, -1.6 V potentiation,
# +2.4 V depression. The alternate constant-field pair is steeper.
T_WIDTH_DEFAULT = 50e-6
V_POT_DEFAULT = -1.6
V_DEP_DEFAULT = 2.4
V_POT_ALT = -1.4
V_DEP_ALT = 3.2


@dataclass(frozen=True)
class DeviceState:
    """Value-type device state.

    w: normalized polarization in [0, 1].
    d2d_log10: device-to-device offset applied to log10 resistance.
    cycles: polarity reversals seen so far.
    broken: endurance flag; a broken device no longer switches.
    last_polarity: -1 after a potentiation pulse, +1 after a depression
    pulse, 0 for a pristine device. Used to count reversals.
    """

    w: float
    d2d_log10: float = 0.0
    cycles: int = 0
    broken: bool = False
    last_polarity: int = 0

    def __post_init__(self):
        _check_cells(self.w, self.d2d_log10, self.cycles)


def _check_cells(w, d2d_log10, cycles) -> None:
    """DeviceState's limits on one device's numbers or a Crossbar's arrays."""
    def every(test) -> bool:
        return test if isinstance(test, bool) else bool(test.all())
    inside = (w >= 0.0) & (w <= 1.0)  # a NaN is outside
    if not every(inside):
        raise ValueError("w must be in [0, 1], got "
                         f"{np.asarray(w)[np.logical_not(inside)][0]}")
    if not every(abs(d2d_log10) < math.inf):
        raise ValueError("d2d_log10 must be finite")
    if not every(cycles >= 0):
        raise ValueError("cycles must be non-negative")


@dataclass(frozen=True)
class PulseSpec:
    """One write pulse: amplitude (signed, V) and width (s).

    A zero-width pulse is a degenerate no-op that deposits no energy and
    moves no state; it is allowed so energy formulas stay total.
    """

    v_write: float
    t_width: float

    def __post_init__(self):
        if not (math.isfinite(self.t_width) and self.t_width >= 0):
            raise ValueError(f"t_width must be >= 0, got {self.t_width}")
        if not math.isfinite(self.v_write):
            raise ValueError("v_write must be finite")


@dataclass(frozen=True)
class UpdateShape:
    """Curve shapes (equivalent-pulse-count scale A) for one scheme."""

    a_pot: float
    a_dep: float

    def __post_init__(self):
        if not (self.a_pot > 0 and self.a_dep > 0):
            raise ValueError("curve shapes must be positive")


@dataclass(frozen=True)
class UpdateModel:
    """Pulse-update dynamics: onsets, count scale, noise, per-scheme shapes."""

    amplitude_ramp: UpdateShape
    width_ramp: UpdateShape
    hybrid: UpdateShape
    n_full: int = N_FULL_DEFAULT
    v_on_pot: float = V_C_NEG
    v_on_dep: float = V_C_POS
    c2c_rel: float = C2C_REL_DEFAULT

    def __post_init__(self):
        if self.n_full < 2:
            raise ValueError(f"n_full must be >= 2, got {self.n_full}")
        if not self.v_on_pot < 0.0 < self.v_on_dep:
            raise ValueError("onsets must satisfy v_on_pot < 0 < v_on_dep")
        if not 0.0 <= self.c2c_rel < 1.0:
            raise ValueError(f"c2c_rel must be in [0, 1), got {self.c2c_rel}")

    def shape_for(self, kind: str) -> UpdateShape:
        if kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {kind!r}")
        return getattr(self, kind)


def default_update_model(n_full: int = N_FULL_DEFAULT,
                         c2c_rel: float = C2C_REL_DEFAULT) -> UpdateModel:
    """Default dynamics: sharp potentiation under the amplitude ramp,
    sharp depression under the width ramp, symmetric hybrid."""
    a_sharp = n_full / NL_SHARP
    a_gentle = n_full / NL_GENTLE
    a_mid = math.sqrt(a_sharp * a_gentle)
    return UpdateModel(
        amplitude_ramp=UpdateShape(a_pot=a_sharp, a_dep=a_gentle),
        width_ramp=UpdateShape(a_pot=a_gentle, a_dep=a_sharp),
        hybrid=UpdateShape(a_pot=a_mid, a_dep=a_mid),
        n_full=n_full,
        c2c_rel=c2c_rel,
    )


@dataclass(frozen=True)
class PulseScheme:
    """A programmed pulse train.

    amplitude_ramp: amplitude steps by v_step at constant width.
    width_ramp: constant amplitude, width grows geometrically.
    hybrid: amplitude ramps linearly to v_max while width grows.
    Ramps must be monotone in pulse strength. The train is built and its
    pulses checked once, here; pulses() returns it.
    """

    kind: str
    n_pulses: int
    v_start: float
    v_step: float | None = None
    v_max: float | None = None
    width: float | None = None
    width_start: float | None = None
    width_ratio: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")
        if self.v_start == 0.0:
            raise ValueError("v_start must be nonzero")
        if self.kind == "amplitude_ramp":
            if self.v_step is None or self.width is None:
                raise ValueError("amplitude_ramp needs v_step and width")
            if self.v_step * math.copysign(1.0, self.v_start) < 0.0:
                raise ValueError("amplitude ramp must grow in magnitude")
            if not self.width > 0:
                raise ValueError("width must be positive")
        else:
            if self.width_start is None or self.width_ratio is None:
                raise ValueError(f"{self.kind} needs width_start and width_ratio")
            if not self.width_start > 0:
                raise ValueError("width_start must be positive")
            if not self.width_ratio >= 1.0:
                raise ValueError("width_ratio must be >= 1")
            if self.kind == "hybrid":
                if self.v_max is None:
                    raise ValueError("hybrid needs v_max")
                if self.v_max * self.v_start < 0 or abs(self.v_max) < abs(self.v_start):
                    raise ValueError("hybrid amplitude ramp must grow in magnitude")
        out = []
        for k in range(self.n_pulses):
            if self.kind == "amplitude_ramp":
                out.append(PulseSpec(self.v_start + k * self.v_step, self.width))
            elif self.kind == "width_ramp":
                out.append(PulseSpec(self.v_start,
                                     self.width_start * self.width_ratio ** k))
            else:
                if self.n_pulses == 1:
                    v = self.v_start
                else:
                    v = self.v_start + k * (self.v_max - self.v_start) / (self.n_pulses - 1)
                out.append(PulseSpec(v, self.width_start * self.width_ratio ** k))
        object.__setattr__(self, "_specs", tuple(out))

    def pulses(self) -> tuple[PulseSpec, ...]:
        return self._specs


def preset_scheme(kind: str, polarity: str, alt_amplitudes: bool = False) -> PulseScheme:
    """Stock pulse trains for the three schemes.

    polarity: "pot" or "dep". The amplitude ramps run 25 mV steps from the
    onset to the preset write amplitude; width ramps hold the write
    amplitude constant (alt_amplitudes selects the steeper constant-field
    pair).
    """
    if polarity not in ("pot", "dep"):
        raise ValueError(f"polarity must be 'pot' or 'dep', got {polarity!r}")
    pot = polarity == "pot"
    if kind == "amplitude_ramp":
        start, stop = (-0.8, -2.4) if pot else (0.8, 2.4)
        step = math.copysign(0.025, stop - start)
        n = int(round((stop - start) / step)) + 1
        return PulseScheme(kind, n, start, v_step=step, width=T_WIDTH_DEFAULT)
    if kind == "width_ramp":
        if alt_amplitudes:
            v = V_POT_ALT if pot else V_DEP_ALT
        else:
            v = V_POT_DEFAULT if pot else V_DEP_DEFAULT
        return PulseScheme(kind, N_FULL_DEFAULT, v,
                           width_start=10e-6, width_ratio=1.15)
    if kind == "hybrid":
        start, stop = (-0.8, V_POT_DEFAULT) if pot else (0.8, V_DEP_DEFAULT)
        return PulseScheme(kind, N_FULL_DEFAULT, start, v_max=stop,
                           width_start=10e-6, width_ratio=1.08)
    raise ValueError(f"unknown scheme kind {kind!r}")


def _check_sigma_d2d(sigma_d2d: float) -> None:
    if not (math.isfinite(sigma_d2d) and sigma_d2d >= 0):
        raise ValueError(f"sigma_d2d must be finite and >= 0, got {sigma_d2d}")


def sample_device(p: ConductionParams, sigma_d2d: float, seed) -> DeviceState:
    """Draw one pristine device: w = 0, d2d_log10 ~ N(0, sigma_d2d).

    Deterministic per seed (accepts an int or a SeedSequence). For a
    population, sample_d2d_offsets draws the same offsets as this function
    on each SeedSequence.spawn child, without building the children.
    """
    _check_sigma_d2d(sigma_d2d)
    rng = np.random.default_rng(seed)
    return DeviceState(w=0.0, d2d_log10=float(rng.normal(0.0, sigma_d2d)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), in uint32
# arithmetic. _hashmix and _mix take uint32 arrays.
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


# The output hash's constants: word k of generate_state is XORed with item
# k and multiplied by item k + 1, as a (9, 1) uint32 column.
_OUT_HASH = np.array([[_INIT_B * _MULT_B ** k & _MASK32] for k in range(9)],
                     dtype=np.uint32)


def _hashmix(value, hash_const: int):
    """(hashed value, next hash constant)."""
    hash_next = hash_const * _MULT_A & _MASK32
    value = (value ^ hash_const) * hash_next & _MASK32
    return value ^ value >> _XSHIFT, hash_next


def _mix(x, y):
    r = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return r ^ r >> _XSHIFT


def _uint32_words(x) -> list[int]:
    """SeedSequence's coercion of entropy or a spawn key to uint32 words:
    an int becomes its base-2**32 digits, least significant first (0 is one
    word); a sequence becomes the concatenation of its items' words. x
    comes from a built SeedSequence, which has rejected negative items."""
    if isinstance(x, str):  # an item of sequence entropy, e.g. ["0x1f", 9]
        x = int(x, 16 if x.startswith("0x") else 10)
    if isinstance(x, (int, np.integer)):
        n = int(x)
        words = [n & _MASK32]
        while n := n >> 32:
            words.append(n & _MASK32)
        return words
    return [word for item in x for word in _uint32_words(item)]


def _child_words(seeds):
    """words(start, n) -> the (len(seeds) * n, 4) uint64 array whose row
    k * n + i equals seeds[k].spawn(start + n)[start + i]
    .generate_state(4, np.uint64), without spawning.

    Child i's assembled entropy is its parent's run entropy padded to
    pool_size s, then the parent's spawn_key, then i. That prefix of L =
    max(run words, s) + spawn-key words is what the parent's own pool
    already hashes (zero padding and the hash running out over an empty
    pool word are the same step), so numpy supplies it as SeedSequence
    .pool. The hash constant depends only on how many words were hashed:
    the prefix takes s * L hashmix calls (s to fill the pool, s * (s - 1)
    to mix it with itself, s per word past the pool), each a multiply by
    _MULT_A, so pool word k mixes in the last word with _INIT_A * _MULT_A
    ** (s * L + k). Each words call runs the last word and the output
    hash over every pool word of its children of every parent at once.
    Child indices count from each parent's n_children_spawned, as in
    spawn; the parents are not changed. The parents share one pool size:
    each caller passes one seed, or siblings of one spawn.
    """
    size = seeds[0].pool_size
    # Parent k's pool and hash constants as column k of (size, parents).
    pools = np.array([ss.pool for ss in seeds], dtype=np.uint32).T
    hashed = [size * (max(len(_uint32_words(ss.entropy)), size)
                      + len(_uint32_words(ss.spawn_key))) for ss in seeds]
    consts = np.array([[_INIT_A * pow(_MULT_A, h + k, 1 << 32) & _MASK32
                        for h in hashed] for k in range(size)],
                      dtype=np.uint32)
    spawned = [ss.n_children_spawned for ss in seeds]

    def per_child(values: np.ndarray, n: int) -> np.ndarray:
        """A (size, rows) array of each parent's column over its n
        children, or a lone parent's column."""
        if values.shape[1] == 1:
            return values
        return np.repeat(values, n, axis=1)

    def words(start: int, n: int) -> np.ndarray:
        if max(spawned) + start + n > 2 ** 32:
            raise ValueError("child indices must stay below 2**32")
        index = np.concatenate([np.arange(s + start, s + start + n,
                                          dtype=np.uint32) for s in spawned])
        # The last entropy word, the child index, mixed into every pool
        # word of every child at once: one row per pool word, one column
        # per child.
        hashed, _ = _hashmix(index, per_child(consts, n))
        pool = _mix(per_child(pools, n), hashed)
        # generate_state(4, np.uint64): eight uint32 words cycled from the
        # pool, each hashed with the next of the fixed output constants,
        # read as little-endian pairs.
        word = pool.take(np.arange(8) % size, axis=0)
        word ^= _OUT_HASH[:-1]
        word *= _OUT_HASH[1:]
        word = word ^ word >> _XSHIFT
        out = np.ascontiguousarray(word.T, dtype="<u4").view("<u8")
        return out.astype(np.uint64, copy=False)

    return words


class _ChildSeed(np.random.bit_generator.ISeedSequence):
    """The seed sequence of one spawned child, reduced to the state words
    PCG64 asks it for."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only PCG64's generate_state(4, np.uint64) is held")
        return self._words


# PCG64 (O'Neill, HMC-CS-2014-0905) as numpy seeds it from state words
# (init high, init low, seq high, seq low): inc = 2 seq + 1, state = inc,
# state += init, one LCG step; the first output takes one more step and is
# the XSL-RR of that state. Folded together, the first output's state is
# init * M**2 + seq * 2 (M**2 + M + 1) + (M**2 + M + 1) mod 2**128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U128 = (1 << 128) - 1
_PCG_SUM = (_PCG_MULT * _PCG_MULT + _PCG_MULT + 1) & _U128
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)


def _limbs32(x: int) -> np.ndarray:
    return np.array([x >> 32 * k & _MASK32 for k in range(4)], dtype=np.uint64)


_PCG_INIT_FACTOR = _limbs32(_PCG_MULT * _PCG_MULT & _U128)
_PCG_SEQ_FACTOR = _limbs32(2 * _PCG_SUM & _U128)
_PCG_ADDEND = _limbs32(_PCG_SUM)


def _pcg64_first_outputs(words: np.ndarray) -> np.ndarray:
    """uint64 array whose item i equals
    PCG64(_ChildSeed(words[i])).random_raw(), for (n, 4) uint64 words.

    The 128-bit states are four 32-bit limbs held in uint64 arrays, least
    significant first. A limb times a factor limb is below 2**64, and a
    column gathers at most 15 words below 2**32 before the one carry pass,
    so nothing wraps. Every operation is on arrays: a numpy scalar uint64
    warns where an array wraps silently.
    """
    m32 = np.uint64(_MASK32)
    cols = np.repeat(_PCG_ADDEND[:, None], len(words), axis=1)
    # (word column, the limb its low half fills, factor)
    for col, low, factor in ((1, 0, _PCG_INIT_FACTOR),
                             (0, 2, _PCG_INIT_FACTOR),
                             (3, 0, _PCG_SEQ_FACTOR),
                             (2, 2, _PCG_SEQ_FACTOR)):
        word = words[:, col]
        for limb, value in ((low, word & m32), (low + 1, word >> 32)):
            product = value * factor[:4 - limb, None]
            cols[limb:] += product & m32
            cols[limb + 1:] += product[:3 - limb] >> 32
    for k in range(3):
        cols[k + 1] += cols[k] >> 32
    s = cols & m32
    x = (s[3] ^ s[1]) << 32 | (s[2] ^ s[0])
    rot = s[3] >> 26
    return (x >> rot) | (x << ((64 - rot) & 63))


def _ziggurat_fast_path(raw: np.ndarray, wi: np.ndarray, limit: np.ndarray):
    """(x, exact) for first outputs raw: x is the standard normal that
    numpy's 256-strip ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8),
    2000) returns when it accepts its first draw, and exact marks the draws
    whose 52-bit magnitude is below limit, so that it does."""
    idx = (raw & 0xFF).astype(np.intp)
    rabs = (raw >> 9) & ((1 << 52) - 1)
    x = rabs.astype(np.float64) * wi[idx]
    np.negative(x, out=x, where=(raw & 0x100) != 0)
    return x, rabs < limit[idx]


def _forced_draw(bitgen: np.random.PCG64, gen: np.random.Generator, r: int):
    """(standard normal, accepted) of a draw whose first output is r <
    2**64. The state is set one LCG step (increment 1) before the state r,
    whose high half and rotation are 0, so XSL-RR outputs r itself.
    accepted is whether the draw used that one output alone."""
    bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                    "state": {"state": (r - 1) * _PCG_MULT_INV & _U128,
                              "inc": 1}}
    x = gen.standard_normal()
    return x, bitgen.state["state"]["state"] == r


@functools.cache
def _ziggurat_tables():
    """(wi, limit) for _ziggurat_fast_path, or None when the installed
    numpy does not draw as modelled here. Built on first use.

    wi[i] is read exactly from a forced draw of magnitude 1 in strip i.
    numpy accepts a first draw in strip i != 1 when its magnitude is below
    ki[i] ~ 2**52 wi[i-1] / wi[i], cyclically: strip 0, the base strip
    with the tail, takes wi[255]. limit sits 1e-9 below that estimate, and
    two forced draws per strip check that the one just below limit is
    accepted and the one 1e-9 above the estimate is not. Strip 1 (limit 0)
    and draws at or above limit take the per-device path.
    """
    sample = _child_words([np.random.SeedSequence(0)])(0, 8)
    if not all(int(raw) == np.random.PCG64(_ChildSeed(words)).random_raw()
               for raw, words in zip(_pcg64_first_outputs(sample), sample)):
        return None
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    wi = [_forced_draw(bitgen, gen, 1 << 9 | i)[0] for i in range(256)]
    limit = [0] * 256
    for i in (0, *range(2, 256)):
        ki = 2.0 ** 52 * wi[i - 1] / wi[i]
        below, above = math.floor(ki * (1 - 1e-9)), math.ceil(ki * (1 + 1e-9))
        if not (0 < below < above < 2 ** 52
                and _forced_draw(bitgen, gen, below - 1 << 9 | i)[1]
                and not _forced_draw(bitgen, gen, above << 9 | i)[1]):
            return None
        limit[i] = below
    return np.array(wi), np.array(limit, dtype=np.uint64)


# Below this population, summed over the seeds of one call, the per-device
# Generator is about as fast as the vector pass. Medians of 200 calls on
# one mvm_error_mc trial's two sibling seeds, 2-CPU x86_64 box, numpy
# 2.4.6, per-device against vector: 0.067 against 0.068 ms at n = 32,
# 0.078 against 0.069 ms at n = 40, 0.110 against 0.072 ms at n = 64,
# 0.195 against 0.079 ms at n = 128.
_VECTOR_MIN_N = 40
# Children per seed in one pass of _d2d_offsets. Per-block costs (the
# array calls of a pass, about 0.1 ms) fall as blocks grow, and the
# temporaries grow with them. Medians of 101 interleaved calls at n =
# 10000 and of 5 at n = 10**6, one seed, 2-CPU x86_64 box, with the
# tracemalloc peak beyond the result: 1024 took 2.62 and 265 ms (0.20
# MiB), 2048 2.08 and 204 ms (0.40 MiB), 4096 1.99 and 163 ms (0.71 MiB),
# 8192 2.22 and 166 ms (1.32 MiB), 16384 2.54 and 160 ms (2.64 MiB).
_BLOCK = 4096


def _child_normal(words: np.ndarray, sigma_d2d: float) -> float:
    return float(np.random.Generator(np.random.PCG64(_ChildSeed(words)))
                 .normal(0.0, sigma_d2d))


def sample_d2d_offsets(sigma_d2d: float, seed, n: int) -> list[float]:
    """n device-to-device offsets d2d_log10 ~ N(0, sigma_d2d), one per
    spawned child of the seed (an int or a SeedSequence).

    Offset i equals sample_device(p, sigma_d2d, children[i]).d2d_log10 for
    children = SeedSequence(seed).spawn(n), bit for bit, by the d2d draw
    of the module docstring. A SeedSequence passed in is read from its
    current spawn count, which this does not advance.
    """
    return _d2d_offsets(sigma_d2d, [seed], n)[0].tolist()


def _d2d_offsets(sigma_d2d: float, seeds, n: int) -> np.ndarray:
    """sample_d2d_offsets for each seed of seeds at once: a (len(seeds),
    n) float64 array whose row k is seed k's offsets. Each block of
    _BLOCK children of every seed takes one pass: seed words, first
    outputs, the ziggurat and the fallbacks. So only the result grows
    with n, and an mvm_error_mc pair is one pass."""
    _check_sigma_d2d(sigma_d2d)
    child_words = _child_words(
        [seed if isinstance(seed, np.random.SeedSequence)
         else np.random.SeedSequence(seed) for seed in seeds])
    tables = _ziggurat_tables() if len(seeds) * n >= _VECTOR_MIN_N else None
    out = np.empty((len(seeds), n))
    for start in range(0, n, _BLOCK):
        count = min(_BLOCK, n - start)
        words = child_words(start, count)
        if tables is None:
            offsets = np.array([_child_normal(row, sigma_d2d)
                                for row in words], dtype=float)
        else:
            x, exact = _ziggurat_fast_path(_pcg64_first_outputs(words),
                                           *tables)
            offsets = 0.0 + sigma_d2d * x
            for i in np.flatnonzero(~exact).tolist():
                offsets[i] = _child_normal(words[i], sigma_d2d)
        out[:, start:start + count] = offsets.reshape(len(seeds), count)
    return out


# The lognormal factors come in blocks of 1, 2, 4, ... up to this size.
_NOISE_BLOCK_MAX = 4096


@contextlib.contextmanager
def _lognormal_stream(rng: np.random.Generator | None, mean: float,
                      sigma: float):
    """Yields (block, refill): the next lognormal factor is
    (block or refill()).pop(), equal to the next
    rng.lognormal(mean=mean, sigma=sigma) scalar call.

    block holds the current block's unused factors, the next one last.
    refill() draws the next block into it and returns it, one
    rng.lognormal(mean, sigma, k) call, which numpy's Generator makes
    equal to k scalar calls, end state included. Blocks start at one draw
    and double, so a single draw takes one value. On exit, by exception
    or not, a block that was not used up is undone: the state saved
    before it is restored and only its used draws are drawn again, so the
    generator ends where one scalar call per factor leaves it. Nothing
    else may draw from rng inside the block. With no generator, refill()
    raises ValueError.
    """
    block = []
    size, saved = 0, None  # the current block's size and the state before it

    def refill() -> list:
        nonlocal size, saved
        if rng is None:
            raise ValueError("c2c_rel > 0 requires an explicit generator")
        size = min(2 * size, _NOISE_BLOCK_MAX) or 1
        # a block of one is used up as soon as it is drawn
        saved = rng.bit_generator.state if size > 1 else None
        block[:] = rng.lognormal(mean, sigma, size)[::-1].tolist()
        return block

    try:
        yield block, refill
    finally:
        if block:
            rng.bit_generator.state = saved
            rng.lognormal(mean, sigma, size - len(block))


def _update_law(m: UpdateModel, kind: str):
    """The constants of one scheme kind's pulse update law, their one
    owner: (polarity, a, span) for potentiation and for depression, where
    span = 1 - exp(-n_full/a) normalizes the curve, and the (mean, sigma)
    of the mean-one lognormal noise factor."""
    shape = m.shape_for(kind)
    pot = (-1, shape.a_pot, 1.0 - math.exp(-m.n_full / shape.a_pot))
    dep = (+1, shape.a_dep, 1.0 - math.exp(-m.n_full / shape.a_dep))
    s2 = math.log(1.0 + m.c2c_rel ** 2)
    return pot, dep, (-0.5 * s2, math.sqrt(s2))


def _trains(m: UpdateModel, kind: str, rng: np.random.Generator | None,
            trains) -> list:
    """The pulse update law of one scheme kind, run over trains in order
    on one noise stream. Each train is (w, cycles, last, broken, pulses)
    in plain floats, pulses a sequence of PulseSpec; each gives back
    (ws, cycles, last): w after each pulse as a list of Python floats and
    the train's final cycles and last polarity.

    A broken device, a zero-width pulse and an amplitude between the onsets
    are no-ops. Otherwise the pulse inverts the polarity's curve at the
    current progress, advances one count times one mean-one lognormal
    factor (c2c_rel > 0), clamps at the rail, counts a reversal as a cycle,
    and sets last to -1 after potentiation, +1 after depression. The
    factors come from _lognormal_stream, so the generator ends where one
    scalar rng.lognormal call per noisy pulse leaves it, however the loop
    exits. A noisy pulse without a generator raises ValueError when it is
    taken.
    """
    pot, dep, noise = _update_law(m, kind)
    v_on_pot, v_on_dep, noisy = m.v_on_pot, m.v_on_dep, m.c2c_rel > 0.0
    log, exp = math.log, math.exp
    runs = []
    with _lognormal_stream(rng, *noise) as (block, refill):
        for w, cycles, last, broken, pulses in trains:
            ws = []
            for pulse in pulses:
                v = pulse.v_write
                if (not broken and pulse.t_width != 0.0
                        and (v < v_on_pot or v > v_on_dep)):
                    (polarity, a, span), progress = (
                        (pot, w) if v < v_on_pot else (dep, 1.0 - w))
                    n = -a * log(1.0 - progress * span)
                    dw = (1.0 - exp(-(n + 1.0) / a)) / span - progress
                    if noisy:
                        dw *= (block or refill()).pop()
                    if last != 0 and polarity != last:
                        cycles += 1
                    w = min(w + dw, 1.0) if polarity < 0 else max(w - dw, 0.0)
                    last = polarity
                ws.append(w)
            runs.append((ws, cycles, last))
    return runs


def _trim(m: UpdateModel, rng: np.random.Generator | None,
          p: ConductionParams, t: float, v_read: float, tol_g: float,
          max_pulses: int, cells) -> list:
    """Write-verify of cells, one at a time in order on one noise stream.
    Each cell is (w, d2d_log10, cycles, last, broken, target) in plain
    floats and gives back (w, cycles, last, pulses, residual), where
    target and residual are chordal conductances at the verify bias
    v_read.

    The cell is read and, while the reading is more than tol_g from
    target and fewer than max_pulses pulses were taken, takes one
    amplitude_ramp pulse of _trains's law, V_POT_DEFAULT below the target
    and V_DEP_DEFAULT above it, both T_WIDTH_DEFAULT wide (so no pulse is
    a zero-width no-op), and is read again. It stops early without a draw
    on a broken cell or an amplitude below its onset, and after the draw
    on a pulse that leaves w where it was, which is not counted and keeps
    cycles and last.

    The law and the read run in the same float operations as _trains and
    conduction.current_total (see the module docstring). The bias and
    temperature are checked before any draw; the offsets, by
    inference._program before the call.
    """
    (_, a_pot, span_pot), (_, a_dep, span_dep), noise = _update_law(
        m, "amplitude_ramp")
    pot_on, dep_on = V_POT_DEFAULT < m.v_on_pot, V_DEP_DEFAULT > m.v_on_dep
    noisy = m.c2c_rel > 0.0
    v, ohm_c, pf_k = _read_terms(v_read, t, p)
    g_lrs, area, log, exp = p.g_lrs, p.area, math.log, math.exp
    trimmed = []
    with _lognormal_stream(rng, *noise) as (block, refill):
        for w, d2d_log10, cycles, last, broken, target in cells:
            shift = 10.0 ** (-d2d_log10)
            ga = g_lrs ** w * shift * area
            g = (ga * ohm_c * v + ga * pf_k) / v
            n = 0
            while abs(g - target) > tol_g and n < max_pulses and not broken:
                if g < target:
                    if not pot_on:
                        break
                    x = -a_pot * log(1.0 - w * span_pot)
                    dw = (1.0 - exp(-(x + 1.0) / a_pot)) / span_pot - w
                    if noisy:
                        dw *= (block or refill()).pop()
                    moved, polarity = w + dw, -1
                    if moved > 1.0:  # min(w + dw, 1.0), as _trains clamps
                        moved = 1.0
                else:
                    if not dep_on:
                        break
                    progress = 1.0 - w
                    x = -a_dep * log(1.0 - progress * span_dep)
                    dw = (1.0 - exp(-(x + 1.0) / a_dep)) / span_dep - progress
                    if noisy:
                        dw *= (block or refill()).pop()
                    moved, polarity = w - dw, +1
                    if moved < 0.0:  # max(w - dw, 0.0)
                        moved = 0.0
                if moved == w:
                    break  # pinned at a rail
                if last != 0 and polarity != last:
                    cycles += 1
                w, last = moved, polarity
                ga = g_lrs ** w * shift * area
                g = (ga * ohm_c * v + ga * pf_k) / v
                n += 1
            trimmed.append((w, cycles, last, n, abs(g - target)))
    return trimmed


def apply_pulse(s: DeviceState, pulse: PulseSpec, m: UpdateModel,
                rng: np.random.Generator | None = None,
                kind: str = "amplitude_ramp") -> DeviceState:
    """Apply one write pulse and return the new state.

    Above-onset pulses advance the state by one equivalent count along the
    potentiation or depression curve for the given scheme kind; the step is
    multiplied by mean-one lognormal noise with relative spread c2c_rel.
    Sub-threshold pulses and broken devices return s itself.
    """
    [([w], cycles, last)] = _trains(
        m, kind, rng, [(s.w, s.cycles, s.last_polarity, s.broken, (pulse,))])
    if (w, cycles, last) == (s.w, s.cycles, s.last_polarity):
        return s
    return replace(s, w=w, cycles=cycles, last_polarity=last)


def read_state(s: DeviceState, p: ConductionParams,
               v_read: float = V_READ, t: float = T_REF) -> Readout:
    """Measure the device at a bias point."""
    i = current_total(v_read, t, p, s)
    return Readout(v_read=v_read, t_kelvin=t, i_amps=i,
                   r_ohms=abs(v_read / i) if i != 0.0 else math.inf,
                   j_a_per_m2=i / p.area)


def _check_read(v_read: float, t: float, p: ConductionParams,
                d2d_log10: float) -> None:
    """A trace read's checks, made before its loop so that a bad read
    leaves the generator untouched: bias, temperature, and the offset's
    float range (state_multiplier's named OverflowError)."""
    _checked(v_read, t, p)
    state_multiplier(p, 0.0, d2d_log10)


def _trace_read(v_read: float, t: float, p: ConductionParams, ws,
                d2d_log10=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Read states at one bias in one conduction._array_current call, with
    v_read and t checked by the caller: the currents and the resistances
    |v_read / i|, inf at zero current, as ndarrays, each element equal to
    read_state's. The division ignores every float error whatever
    errstate the caller set, as float division does."""
    i = _array_current(p, t, ws, d2d_log10, v_read)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.where(i != 0.0, np.abs(v_read / i), math.inf)
    return i, r


@dataclass(frozen=True, eq=False)
class Trace:
    """A pulse-train or DC-sweep trace as float64 arrays of one length:
    each point's state w and its read's current and resistance |v/i|
    (inf at zero current). The caller holds the pulses or the grid."""

    w: np.ndarray
    i_amps: np.ndarray
    r_ohms: np.ndarray


def run_scheme(s: DeviceState, scheme: PulseScheme, m: UpdateModel,
               p: ConductionParams, v_read: float = V_READ, t: float = T_REF,
               rng: np.random.Generator | None = None) -> Trace:
    """Apply a pulse train, reading out after every pulse: one Trace point
    per pulse of scheme.pulses().

    The read is checked before any pulse or generator draw. The train runs
    in floats as one _trains train and is read in one _trace_read call, so
    every step, read and draw equals applying and reading pulse by pulse.
    """
    _check_read(v_read, t, p, s.d2d_log10)
    [(ws, _, _)] = _trains(m, scheme.kind, rng, [
        (s.w, s.cycles, s.last_polarity, s.broken, scheme.pulses())])
    return Trace(np.array(ws, dtype=float),
                 *_trace_read(v_read, t, p, ws, s.d2d_log10))


# --- DC hysteresis ---------------------------------------------------------

_LOGISTIC_CUT = 3.0  # transition support: +-3 widths around the coercive voltage
_LOGISTIC_LO = 1.0 / (1.0 + math.exp(_LOGISTIC_CUT))
_LOGISTIC_HI = 1.0 / (1.0 + math.exp(-_LOGISTIC_CUT))


_CUT_EPS = 1e-9  # pad: +-0.3 V grids land exactly on the support edge,
                 # where (v_c - v)/width suffers float cancellation


def _switch_level(x: float) -> float:
    """Logistic switching function rescaled to reach exactly 0 and 1 at
    +-3 widths, so sweeps that stay outside the transition are no-ops."""
    if x <= -_LOGISTIC_CUT + _CUT_EPS:
        return 0.0
    if x >= _LOGISTIC_CUT - _CUT_EPS:
        return 1.0
    raw = 1.0 / (1.0 + math.exp(-x))
    return (raw - _LOGISTIC_LO) / (_LOGISTIC_HI - _LOGISTIC_LO)


def dc_write_loop(s: DeviceState, v_grid, p: ConductionParams,
                  v_read: float = V_READ, t: float = T_REF) -> Trace:
    """Quasi-static DC sweep: write at each grid voltage, then read; one
    Trace point per grid voltage.

    Negative voltages past the coercive point raise w toward the logistic
    switching level; positive ones past the other coercive point cap it.
    The grid, then the read bias, the temperature and the offset are
    checked once, before any point. The sweep runs in Python floats, and
    the trace is read in one _trace_read call, each read equal to
    read_state's.
    """
    grid = np.asarray(v_grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ValueError("v_grid contains non-finite values")
    _check_read(v_read, t, p, s.d2d_log10)
    w, ws = s.w, []
    for v in grid.tolist():
        pot_level = _switch_level((V_C_NEG - v) / DC_WIDTH)
        dep_level = _switch_level((v - V_C_POS) / DC_WIDTH)
        w = min(max(w, pot_level), 1.0 - dep_level)
        ws.append(w)
    return Trace(np.array(ws, dtype=float),
                 *_trace_read(v_read, t, p, ws, s.d2d_log10))


@dataclass(frozen=True)
class WindowReport:
    v_c_minus: float
    v_c_plus: float
    window_volts: float


def memory_window(v_write, r_ohms) -> WindowReport:
    """Coercive voltages from a hysteresis loop trace: the sweep's write
    voltages and the resistance read after each (dc_write_loop's r_ohms).

    Finds where log10(R) crosses the midpoint between the loop's rails:
    the rising-R crossing is the positive coercive voltage, the falling-R
    crossing the negative one. The last crossing of each kind wins, so a
    loop that starts pristine settles onto its steady branches first.
    A non-finite v_write, or an r_ohms outside (0, inf), is a ValueError.
    """
    vs = np.asarray(v_write, dtype=float)
    rs = np.asarray(r_ohms, dtype=float)
    if vs.ndim != 1 or vs.shape != rs.shape:
        raise ValueError("v_write and r_ohms must be 1-D of equal length, "
                         f"got shapes {vs.shape} and {rs.shape}")
    if len(vs) < 2:
        raise ValueError(f"a trace needs at least 2 points, got {len(vs)}")
    for name, xs, ok, what in (("v_write", vs, np.isfinite(vs), "finite"),
                               ("r_ohms", rs, (rs > 0.0) & (rs < math.inf),
                                "finite and positive")):
        if not ok.all():
            k = int(ok.argmin())
            raise ValueError(f"{name}[{k}] = {float(xs[k])} is not {what}")
    logr = np.array([math.log10(r) for r in rs.tolist()])
    mid = 0.5 * (logr.max() + logr.min())
    if logr.max() - logr.min() < 0.1:
        raise ValueError("trace does not open a resistance window")
    v_plus = None
    v_minus = None
    for k in range(len(vs) - 1):
        lo, hi = logr[k], logr[k + 1]
        if lo == hi or (lo - mid) * (hi - mid) > 0:
            continue
        frac = (mid - lo) / (hi - lo)
        v_at = vs[k] + frac * (vs[k + 1] - vs[k])
        if hi > lo:
            v_plus = v_at
        else:
            v_minus = v_at
    if v_plus is None or v_minus is None:
        raise ValueError("trace does not cross both coercive transitions")
    return WindowReport(v_c_minus=float(v_minus), v_c_plus=float(v_plus),
                        window_volts=float(v_plus - v_minus))


# --- Retention, endurance, energy ------------------------------------------

def retention_evolve(s: DeviceState, dt_seconds: float,
                     drift_rate: float = 0.0) -> DeviceState:
    """Relax w toward 0.5 with the given rate (1/s). Rate zero is a
    bit-identical no-op at any horizon."""
    if dt_seconds < 0:
        raise ValueError("dt_seconds must be >= 0")
    if drift_rate < 0:
        raise ValueError("drift_rate must be >= 0")
    if drift_rate == 0.0 or dt_seconds == 0.0:
        return s
    w = 0.5 + (s.w - 0.5) * math.exp(-drift_rate * dt_seconds)
    return replace(s, w=w)


def endurance_register(s: DeviceState, n_cycles: int) -> DeviceState:
    """Account for n_cycles polarity reversals; past the endurance limit
    the device is flagged broken and its state freezes."""
    if n_cycles < 0:
        raise ValueError("n_cycles must be >= 0")
    cycles = s.cycles + n_cycles
    return replace(s, cycles=cycles, broken=s.broken or cycles > ENDURANCE_LIMIT)


def write_energy(pulse: PulseSpec, s: DeviceState, p: ConductionParams,
                 t: float = T_REF) -> float:
    """Rectangular-pulse write energy |I(v)|*|v|*t_width, J."""
    i = current_total(pulse.v_write, t, p, s)
    return abs(i) * abs(pulse.v_write) * pulse.t_width
