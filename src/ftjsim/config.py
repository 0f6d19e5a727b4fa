"""INI-style run configuration: parse, validate, emit, build models.

The format is a small, strict subset of INI: `[section]` headers,
`key = value` pairs, blank lines, and comments. A comment runs from the
first `#` or `;` that begins a line's text or follows a space or tab to
the end of the line; elsewhere both marks are part of the value.
Keys carry their unit in the name (d_fe_nm, area_um2, v_read_v) so a
config file is unambiguous without a manual. Unknown sections or keys,
duplicate assignments, and malformed values are all hard errors that
report the offending line and column; silent fallback to a default is
reserved for keys that are absent entirely.

Besides the model sections ([device], [update], [variation]) there is one
section per analysis command carrying that command's experiment knobs, so
a single file pins an entire reproducible run.

The schema is read once, at import, off the section dataclasses below: a
section's keys are its fields, in order, and each key's type is the type
of its default. Every limit that a record or an owner's check makes is
checked at parse time by building that record, or calling that check, on
the value a command will hand it; its message is the one reported, and
_validate holds only the limits no record makes and the count bounds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

from .conduction import (DEFAULT_AREA, DEFAULT_D_FE, DEFAULT_EA_OHM,
                         DEFAULT_PHI_PF, T_REF, V_READ, CalibrationTargets,
                         ConductionParams, TunnelBarrier, calibrate,
                         check_temperature)
from .crossbar import _check_solve_lines
from .device import (C2C_REL_DEFAULT, N_FULL_DEFAULT, T_WIDTH_DEFAULT,
                     V_C_NEG, V_C_POS, V_DEP_DEFAULT, V_POT_DEFAULT,
                     DeviceState, PulseSpec, UpdateModel, _check_sigma_d2d,
                     default_update_model)

__all__ = [
    "ConfigError",
    "SimConfig",
    "parse_config",
    "load_config",
    "emit_config",
    "ModelBundle",
    "build_model",
]

class ConfigError(ValueError):
    """Malformed or invalid configuration, with source position."""

    def __init__(self, message: str, source: str = "<config>",
                 line: int = 0, col: int = 0):
        self.source = source
        self.line = line
        self.col = col
        if line:
            super().__init__(f"{source}:{line}:{col}: {message}")
        else:
            super().__init__(f"{source}: {message}")


@dataclass(frozen=True)
class DeviceConfig:
    """[device]: stack geometry, channel parameters, calibration targets,
    and the read conditions shared by every command."""

    d_fe_nm: float = DEFAULT_D_FE * 1e9
    area_um2: float = DEFAULT_AREA * 1e12
    phi_pf_ev: float = DEFAULT_PHI_PF
    ea_ohm_ev: float = DEFAULT_EA_OHM
    eps_r: float = ConductionParams.eps_r
    c_pf: float = ConductionParams.c_pf
    c_ohm: float = ConductionParams.c_ohm
    g_lrs: float = ConductionParams.g_lrs
    tun_phi_bar_ev: float = TunnelBarrier.phi_bar
    tun_m_eff: float = TunnelBarrier.m_eff
    calibrate: bool = True
    r_on_ohms: float = CalibrationTargets.r_on_ohms
    on_off: float = CalibrationTargets.on_off
    selection: float = CalibrationTargets.selection
    t_kelvin: float = T_REF
    v_read_v: float = V_READ


@dataclass(frozen=True)
class UpdateConfig:
    """[update]: pulse-update dynamics."""

    n_full: int = N_FULL_DEFAULT
    c2c_rel: float = C2C_REL_DEFAULT
    v_on_pot_v: float = V_C_NEG
    v_on_dep_v: float = V_C_POS


@dataclass(frozen=True)
class VariationConfig:
    """[variation]: device-to-device spread used by sampling commands."""

    sigma_d2d: float = 0.1


@dataclass(frozen=True)
class IvConfig:
    """[iv]: static sweep grid."""

    t_list_k: tuple = (300.0,)
    v_min_v: float = 0.02
    v_max_v: float = 0.5
    n_points: int = 60
    state_w: float = 1.0
    log_grid: bool = False


@dataclass(frozen=True)
class HysteresisConfig:
    """[hysteresis]: quasi-static loop extents (v_neg_v is a magnitude)."""

    v_neg_v: float = 1.6
    v_pos_v: float = 2.4
    step_v: float = 0.025


# Loop grid point limit. A run at the limit (step_v = 0.00011201, 99991
# points) took 0.5-1.0 s and peaked at 70 MiB, measured as the count bounds
# below are.
_LOOP_POINT_LIMIT = 100_000

# (section, what is counted, the count, its bound) for each count key, each
# bound far above its default. What a run at each bound costs, as ftjsim
# in a fresh process (wall time over three runs, peak RSS), on a 2-vCPU
# Intel Xeon VM with Python 3.11.7 and numpy 2.4.6: iv (50000 points at
# four temperatures) 0.6-1.1 s, 73 MiB; retention 0.5-0.6 s, 70 MiB;
# arrhenius (250000 points at four temperatures) 0.4-0.6 s, 81 MiB; d2d
# 2.0-2.3 s, 52 MiB; cdf 0.9-1.4 s, 79 MiB; scheme 0.7-1.0 s, 72 MiB; fitA
# at the n_full bound 0.4-0.6 s, 45 MiB.
_COUNT_LIMITS = (
    ("iv", "n_points * len(t_list_k)",
     lambda c: c.iv.n_points * len(c.iv.t_list_k), 200_000),
    ("retention", "n_points", lambda c: c.retention.n_points, 100_000),
    ("arrhenius", "n_points * len(t_list_k)",
     lambda c: c.arrhenius.n_points * len(c.arrhenius.t_list_k), 1_000_000),
    ("d2d", "n_devices", lambda c: c.d2d.n_devices, 1_000_000),
    ("cdf", "n_cycles", lambda c: c.cdf.n_cycles, 10_000),
    ("scheme", "n_cycles", lambda c: c.scheme.n_cycles, 1_000),
    ("update", "n_full", lambda c: c.update.n_full, 10_000),
)


def _loop_legs(sec: HysteresisConfig) -> list[tuple[float, float, int]]:
    """The loop's ramps 0 -> -v_neg_v -> v_pos_v -> -v_neg_v -> 0 as
    (start, stop, n): n is |stop - start| / step_v rounded, one at least,
    or inf past float range. The grid is 0 V, then each ramp's n points
    after its start."""
    lo, hi = -sec.v_neg_v, sec.v_pos_v
    ramps = [(a, b, abs(b - a) / sec.step_v)
             for a, b in ((0.0, lo), (lo, hi), (hi, lo), (lo, 0.0))]
    return [(a, b, max(round(x), 1) if math.isfinite(x) else math.inf)
            for a, b, x in ramps]


@dataclass(frozen=True)
class SchemeConfig:
    """[scheme]: pulse-train experiment."""

    kind: str = "amplitude_ramp"
    n_cycles: int = 3
    alt_amplitudes: bool = False


@dataclass(frozen=True)
class FitAConfig:
    """[fitA]: which preset trace the nonlinearity fit runs on."""

    kind: str = "amplitude_ramp"


@dataclass(frozen=True)
class CdfConfig:
    """[cdf]: repeated-cycle level statistics."""

    n_cycles: int = 17


@dataclass(frozen=True)
class RetentionConfig:
    """[retention]: log-spaced hold horizons. The default drift rate is
    zero: retention of the remanent state is the baseline behavior."""

    drift_rate_per_s: float = 0.0
    t_min_s: float = 1.0
    t_max_s: float = 950400.0
    n_points: int = 25


@dataclass(frozen=True)
class D2dConfig:
    """[d2d]: population size for the spread study (sigma comes from
    [variation])."""

    n_devices: int = 10000


@dataclass(frozen=True)
class ScalingConfig:
    """[scaling]: device areas for the homogeneity check."""

    areas_um2: tuple = (100.0, 1600.0, 14400.0)
    v_write_v: float = V_POT_DEFAULT
    t_width_s: float = T_WIDTH_DEFAULT


@dataclass(frozen=True)
class ArrheniusConfig:
    """[arrhenius]: temperatures and per-window grid density."""

    t_list_k: tuple = (300.0, 320.0, 340.0, 360.0)
    n_points: int = 10


@dataclass(frozen=True)
class XbarConfig:
    """[xbar]: array shape and operating points (sigma comes from
    [variation])."""

    n_rows: int = 4
    n_cols: int = 4
    v_read_v: float = 0.5
    v_write_v: float = V_DEP_DEFAULT
    t_width_s: float = T_WIDTH_DEFAULT


@dataclass(frozen=True)
class SimConfig:
    """Typed configuration with every knob at its default."""

    device: DeviceConfig = field(default_factory=DeviceConfig)
    update: UpdateConfig = field(default_factory=UpdateConfig)
    variation: VariationConfig = field(default_factory=VariationConfig)
    iv: IvConfig = field(default_factory=IvConfig)
    hysteresis: HysteresisConfig = field(default_factory=HysteresisConfig)
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    fit_a: FitAConfig = field(default_factory=FitAConfig,
                              metadata={"section": "fitA"})
    cdf: CdfConfig = field(default_factory=CdfConfig)
    retention: RetentionConfig = field(default_factory=RetentionConfig)
    d2d: D2dConfig = field(default_factory=D2dConfig)
    scaling: ScalingConfig = field(default_factory=ScalingConfig)
    arrhenius: ArrheniusConfig = field(default_factory=ArrheniusConfig)
    xbar: XbarConfig = field(default_factory=XbarConfig)


# section name -> (SimConfig attribute, section class, {key: type of its
# default}); a section is named after its attribute unless its field's
# metadata says otherwise.
_SCHEMA: dict[str, tuple[str, type, dict[str, type]]] = {
    f.metadata.get("section", f.name): (
        f.name, f.default_factory,
        {k.name: type(k.default) for k in fields(f.default_factory)})
    for f in fields(SimConfig)
}

# schema type -> the text of a value, which _convert reads back equal
_RENDER = {
    bool: lambda v: "true" if v else "false",
    int: str,
    float: lambda v: repr(float(v)),
    tuple: lambda v: ", ".join(repr(float(x)) for x in v),
    str: str,
}

_BOOLS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}

# schema type -> (reader of a value's text, what that text must be); the
# inverse of _RENDER
_PARSE = {
    bool: (lambda s: _BOOLS[s.lower()], "true/false"),
    int: (int, "an integer"),
    float: (float, "a number"),
    tuple: (lambda s: tuple(float(tok) for tok in s.split(",") if tok.strip()),
            "comma-separated numbers"),
    str: (str, "text"),
}

# where a comment starts, by the rule in the module docstring
_COMMENT = re.compile(r"(?:^\s*|(?<=[ \t]))[#;]")


def _convert(raw: str, kind: type):
    """The value of a non-empty value text under its schema type. Raises
    ValueError with the message parse_config reports at its column."""
    read, what = _PARSE[kind]
    try:
        value = read(raw)
    except (KeyError, ValueError):
        raise ValueError(f"expected {what}, got {raw!r}") from None
    if kind is tuple and not value:
        raise ValueError("expected at least one number")
    # inf and nan read as floats but are never a valid setting
    if kind in (float, tuple) and not all(
            map(math.isfinite, value if kind is tuple else (value,))):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def parse_config(text: str, source: str = "<config>") -> SimConfig:
    """Parse configuration text into a SimConfig.

    Raises ConfigError with line and column on any malformed or unknown
    content. Keys not present keep their defaults. Only a line holding a
    '#' or ';' is searched for a comment, and a column is computed only
    for the error that reports it: a line that parses costs no column
    arithmetic.
    """

    def error(message: str, value: str | None = None) -> ConfigError:
        """The error on the current line, at its value when one is given
        ("" for a missing one) and else at its first character of content."""
        if value is None:
            col = raw_line.index(stripped[0]) + 1
        elif value:
            col = raw_line.find(value, raw_line.index("=")) + 1
        else:
            col = raw_line.index("=") + 2
        return ConfigError(message, source, line_no, col)

    staged: dict[str, dict[str, object]] = {}
    section = types = values = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line
        if "#" in line or ";" in line:
            line = _COMMENT.split(line, 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped[0] == "[":
            if stripped[-1] != "]":
                raise ConfigError("section header is missing its closing ']'",
                                  source, line_no,
                                  raw_line.index(stripped[0]) + len(stripped))
            name = stripped[1:-1].strip()
            if not name:
                raise error("empty section name")
            if name not in _SCHEMA:
                raise error(f"unknown section [{name}]; expected one of "
                            f"{', '.join(sorted(_SCHEMA))}")
            if name in staged:
                raise error(f"duplicate section [{name}]")
            section, types = name, _SCHEMA[name][2]
            values = staged[name] = {}
            continue
        key_part, eq, value_part = stripped.partition("=")
        if not eq:
            raise error("expected 'key = value'")
        if section is None:
            raise error("assignment before any [section] header")
        key = key_part.strip()
        value = value_part.strip()
        if not key:
            raise error("missing key before '='")
        if key not in types:
            raise error(f"unknown key {key!r} in [{section}]; expected one of "
                        f"{', '.join(sorted(types))}")
        if key in values:
            raise error(f"duplicate key {key!r} in [{section}]")
        if not value:
            raise error(f"missing value for {key!r}", value)
        try:
            values[key] = _convert(value, types[key])
        except ValueError as exc:
            raise error(str(exc), value) from None
    cfg = SimConfig(**{attr: section_cls(**staged.get(name, {}))
                       for name, (attr, section_cls, _) in _SCHEMA.items()})
    _validate(cfg, source)
    try:
        skeleton, _, update = _model_records(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc), source) from exc
    # the records and checks each command will apply to these values
    iv, sc, xb, temps = cfg.iv, cfg.scaling, cfg.xbar, cfg.arrhenius.t_list_k
    scaled = lambda a: replace(skeleton, area=a * 1e-12)  # as cmd_scaling
    for section, key, check, *args in [
        ("device", "t_kelvin", check_temperature, cfg.device.t_kelvin),
        ("variation", "sigma_d2d", _check_sigma_d2d, cfg.variation.sigma_d2d),
        ("iv", "state_w", DeviceState, iv.state_w),
        *(("iv", "t_list_k", check_temperature, t) for t in iv.t_list_k),
        ("scheme", "kind", update.shape_for, cfg.scheme.kind),
        ("fitA", "kind", update.shape_for, cfg.fit_a.kind),
        *(("scaling", "areas_um2", scaled, a) for a in sc.areas_um2),
        ("scaling", "t_width_s", PulseSpec, sc.v_write_v, sc.t_width_s),
        *(("arrhenius", "t_list_k", check_temperature, t) for t in temps),
        ("xbar", "n_rows", _check_solve_lines, xb.n_rows),
        ("xbar", "n_cols", _check_solve_lines, xb.n_cols),
        ("xbar", "t_width_s", PulseSpec, xb.v_write_v, xb.t_width_s),
    ]:
        try:
            check(*args)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}", source) from exc
    return cfg


def _validate(cfg: SimConfig, source: str) -> None:
    d = cfg.device
    checks = [
        (d.r_on_ohms > 0, "r_on_ohms must be positive"),
        (d.on_off >= 1, "on_off must be >= 1"),
        (d.selection > 0, "selection must be positive"),
        (d.v_read_v > 0, "v_read_v must be positive"),
        # a record checks n_full too, but n_full <= 0 fails on a shape first
        (cfg.update.n_full >= 2, "n_full must be >= 2"),
        (cfg.iv.n_points >= 1, "[iv] n_points must be >= 1"),
        (cfg.iv.v_min_v <= cfg.iv.v_max_v,
         "[iv] v_min_v must not exceed v_max_v"),
        (not cfg.iv.log_grid or cfg.iv.v_min_v > 0,
         "[iv] log_grid needs a positive v_min_v"),
        (cfg.hysteresis.v_neg_v > 0, "[hysteresis] v_neg_v must be positive"),
        (cfg.hysteresis.v_pos_v > 0, "[hysteresis] v_pos_v must be positive"),
        (cfg.hysteresis.step_v > 0, "[hysteresis] step_v must be positive"),
        (cfg.scheme.n_cycles >= 1, "[scheme] n_cycles must be >= 1"),
        (cfg.cdf.n_cycles >= 2, "[cdf] n_cycles must be >= 2"),
        (cfg.retention.drift_rate_per_s >= 0,
         "[retention] drift_rate_per_s must be >= 0"),
        (cfg.retention.t_min_s > 0, "[retention] t_min_s must be positive"),
        (cfg.retention.t_max_s >= cfg.retention.t_min_s,
         "[retention] t_max_s must be >= t_min_s"),
        (cfg.retention.n_points >= 2, "[retention] n_points must be >= 2"),
        (cfg.d2d.n_devices >= 2, "[d2d] n_devices must be >= 2"),
        (len(cfg.arrhenius.t_list_k) >= 3
         and len(set(cfg.arrhenius.t_list_k)) == len(cfg.arrhenius.t_list_k),
         "[arrhenius] t_list_k needs >= 3 distinct temperatures"),
        (cfg.arrhenius.n_points >= 4, "[arrhenius] n_points must be >= 4"),
        (cfg.xbar.v_read_v != 0, "[xbar] v_read_v must be nonzero"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message, source)
    for section, what, count, limit in _COUNT_LIMITS:
        n = count(cfg)
        if n > limit:
            raise ConfigError(f"[{section}] {what} = {n} is over the limit "
                              f"of {limit}", source)
    points = 1 + sum(n for _, _, n in _loop_legs(cfg.hysteresis))
    if points > _LOOP_POINT_LIMIT:
        raise ConfigError(f"[hysteresis] the loop grid would hold {points} "
                          f"points, over the limit of {_LOOP_POINT_LIMIT}", source)


def load_config(path: str) -> SimConfig:
    """Read and parse a config file. A file that is not UTF-8 text is a
    ConfigError naming the byte offset of its first undecodable byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: byte 0x{data[exc.start]:02x} at "
                          f"offset {exc.start} ({exc.reason})", path) from None
    return parse_config(text, source=path)


def emit_config(cfg: SimConfig) -> str:
    """Render a SimConfig as text that parses back to an equal value."""
    lines = []
    for name, (attr, _, types) in _SCHEMA.items():
        section = getattr(cfg, attr)
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {_RENDER[kind](getattr(section, key))}"
                     for key, kind in types.items())
        lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class ModelBundle:
    """Everything a simulation run needs, built from one config."""

    params: ConductionParams
    update: UpdateModel
    v_read: float
    t_kelvin: float


def _model_records(cfg: SimConfig) -> tuple[ConductionParams,
                                            CalibrationTargets, UpdateModel]:
    """The uncalibrated conduction skeleton, the calibration targets and
    the update model a config describes; each record checks its limits."""
    d = cfg.device
    skeleton = ConductionParams(
        d_fe=d.d_fe_nm * 1e-9,
        area=d.area_um2 * 1e-12,
        phi_pf=d.phi_pf_ev,
        eps_r=d.eps_r,
        ea_ohm=d.ea_ohm_ev,
        c_pf=d.c_pf,
        c_ohm=d.c_ohm,
        tun=TunnelBarrier(phi_bar=d.tun_phi_bar_ev, m_eff=d.tun_m_eff),
        g_lrs=d.g_lrs,
    )
    targets = CalibrationTargets(r_on_ohms=d.r_on_ohms, on_off=d.on_off,
                                 selection=d.selection)
    update = replace(default_update_model(n_full=cfg.update.n_full,
                                          c2c_rel=cfg.update.c2c_rel),
                     v_on_pot=cfg.update.v_on_pot_v,
                     v_on_dep=cfg.update.v_on_dep_v)
    return skeleton, targets, update


def build_model(cfg: SimConfig) -> ModelBundle:
    """Construct the conduction and update models a config describes.

    With calibrate = true the prefactors and permittivity are solved from
    the figure-of-merit targets; otherwise the raw [device] values are
    used as-is.
    """
    skeleton, targets, update = _model_records(cfg)
    d = cfg.device
    params = calibrate(targets, skeleton, t=d.t_kelvin) if d.calibrate \
        else skeleton
    return ModelBundle(params=params, update=update, v_read=d.v_read_v,
                       t_kelvin=d.t_kelvin)
