"""INI config parsing, model building, CLI exit codes, output determinism."""

import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ftjsim
from ftjsim import cli, config, crossbar, device
from ftjsim.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from ftjsim.conduction import CalibrationError
from ftjsim.config import (
    ConfigError,
    SimConfig,
    build_model,
    emit_config,
    parse_config,
)
from ftjsim.device import SCHEME_KINDS, DeviceState, read_state
from oracle import d2d_draw, d2d_draws, read, rows_of


def test_empty_config_is_all_defaults():
    assert parse_config("") == SimConfig()
    assert parse_config("\n# just a comment\n") == SimConfig()


def test_round_trip_through_emit():
    text = emit_config(SimConfig())
    cfg = parse_config(text)
    assert cfg == SimConfig()
    assert emit_config(cfg) == text


def test_parse_values_and_comments():
    cfg = parse_config(
        "[device]\n"
        "on_off = 8.5  ; inline comment\n"
        "calibrate = true\n"
        "\n"
        "[iv]\n"
        "t_list_k = 300, 340, 380\n"
        "n_points = 12\n"
        "log_grid = false\n"
        "[arrhenius]\n"
        "n_points = 5 ; five # points\n")
    assert cfg.device.on_off == 8.5
    assert cfg.iv.t_list_k == (300.0, 340.0, 380.0)
    assert cfg.iv.n_points == 12
    assert cfg.iv.log_grid is False
    assert cfg.arrhenius.n_points == 5
    # a mark with no space or tab before it is part of the value
    for text, value in [("[iv]\nn_points = 12;x\n", "12;x"),
                        ("[iv]\nt_list_k = 300,#1\n", "300,#1")]:
        with pytest.raises(ConfigError, match=re.escape(repr(value))):
            parse_config(text)


_SECTIONS = ", ".join(sorted(config._SCHEMA))
_IV_KEYS = ", ".join(sorted(config._SCHEMA["iv"][2]))
_DEVICE_KEYS = ", ".join(sorted(config._SCHEMA["device"][2]))


@pytest.mark.parametrize("text, line, col, message", [
    # the line-level raise sites, each with and without a comment
    ("[device\n", 1, 7, "section header is missing its closing ']'"),
    ("  [device   # note\n", 1, 9, "section header is missing its closing ']'"),
    ("[ ]\n", 1, 1, "empty section name"),
    ("\t[  ] ; none\n", 1, 2, "empty section name"),
    ("[bogus]\nx = 1\n", 1, 1,
     f"unknown section [bogus]; expected one of {_SECTIONS}"),
    ("[device]\non_off = 9\n[device]\n", 3, 1, "duplicate section [device]"),
    ("[iv]\n  [iv] # again\n", 2, 3, "duplicate section [iv]"),
    ("[iv]\nn_points\n", 2, 1, "expected 'key = value'"),
    ("[iv]\n   n_points ; no value\n", 2, 4, "expected 'key = value'"),
    ("n_points = 5\n", 1, 1, "assignment before any [section] header"),
    ("# header\n  n_points = 5\n", 2, 3,
     "assignment before any [section] header"),
    ("[iv]\n = 5\n", 2, 2, "missing key before '='"),
    ("[device]\nbadkey = 1\n", 2, 1,
     f"unknown key 'badkey' in [device]; expected one of {_DEVICE_KEYS}"),
    ("[iv]\nbogus = 1 # what\n", 2, 1,
     f"unknown key 'bogus' in [iv]; expected one of {_IV_KEYS}"),
    ("[iv]\nn_points = 5\n n_points = 6 # again\n", 3, 2,
     "duplicate key 'n_points' in [iv]"),
    ("[iv]\nn_points =\n", 2, 11, "missing value for 'n_points'"),
    ("[iv]\nn_points =   ; none\n", 2, 11, "missing value for 'n_points'"),
    ("[iv]\nn_points = abc\n", 2, 12, "expected an integer, got 'abc'"),
    ("[iv]\nn_points = 2.5\n", 2, 12, "expected an integer, got '2.5'"),
    ("[device]\non_off = notanumber\n", 2, 10,
     "expected a number, got 'notanumber'"),
    ("[iv]\r\n\tn_points = abc ; x\r\n", 2, 13,
     "expected an integer, got 'abc'"),
    # a '#' with no space before it is part of the value
    ("[iv]\nn_points = 12#x  # note\n", 2, 12,
     "expected an integer, got '12#x'"),
    # the value's column is found after the '=', not in the key
    ("[xbar]\nv_read_v = v\n", 2, 12, "expected a number, got 'v'"),
    ("[iv]\nlog_grid = maybe\n", 2, 12, "expected true/false, got 'maybe'"),
    ("[iv]\nt_list_k = ,\n", 2, 12, "expected at least one number"),
    ("[iv]\nv_max_v = inf ; never\n", 2, 11,
     "expected a finite number, got 'inf'"),
    # the whole-config raise sites carry no line or column
    ("[iv]\nn_points = 0\n", 0, 0, "[iv] n_points must be >= 1"),
    ("[device]\neps_r = 0.5\n", 0, 0, "eps_r must be >= 1, got 0.5"),
    ("[iv]\nstate_w = 2\n", 0, 0,
     "[iv] state_w: w must be in [0, 1], got 2.0"),
])
def test_parse_errors_carry_position(text, line, col, message):
    """Every raise site of parse_config gives its message at its line and
    column, which are computed only when the error is raised."""
    with pytest.raises(ConfigError) as err:
        parse_config(text, source="test.ini")
    assert (err.value.line, err.value.col) == (line, col)
    where = f"test.ini:{line}:{col}" if line else "test.ini"
    assert str(err.value) == f"{where}: {message}"


def test_validation_errors():
    with pytest.raises(ConfigError, match="n_points"):
        parse_config("[iv]\nn_points = 0\n")
    with pytest.raises(ConfigError, match="sigma_d2d"):
        parse_config("[variation]\nsigma_d2d = -0.1\n")
    with pytest.raises(ConfigError, match="log_grid"):
        parse_config("[iv]\nlog_grid = true\nv_min_v = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[arrhenius]\nt_list_k = 300, 300, 300\n")
    with pytest.raises(ConfigError):
        parse_config("[cdf]\nn_cycles = 1\n")


def test_fit_a_section_name():
    cfg = parse_config("[fitA]\nkind = hybrid\n")
    assert cfg.fit_a.kind == "hybrid"
    with pytest.raises(ConfigError):
        parse_config("[fitA]\nkind = secret\n")


def test_build_model_calibrated_hits_targets():
    from ftjsim.conduction import current_total
    cfg = parse_config("[device]\nr_on_ohms = 2e8\non_off = 9\nselection = 50\n")
    bundle = build_model(cfg)
    lrs = DeviceState(w=1.0)
    r = 0.3 / current_total(0.3, bundle.t_kelvin, bundle.params, lrs)
    assert r == pytest.approx(2e8, rel=0.01)
    assert bundle.params.g_lrs == 9.0


def test_build_model_raw_parameters():
    cfg = parse_config(
        "[device]\ncalibrate = false\neps_r = 12\nc_pf = 2e-11\nc_ohm = 1e-12\n")
    bundle = build_model(cfg)
    assert bundle.params.eps_r == 12.0
    assert bundle.params.c_pf == 2e-11


def test_build_model_update_section():
    cfg = parse_config("[update]\nn_full = 80\nc2c_rel = 0.02\n")
    bundle = build_model(cfg)
    assert bundle.update.n_full == 80
    assert bundle.update.c2c_rel == 0.02


# --- schema: emit and parse through one type table ---------------------------

# The emitter as it stood while the schema was stated by hand: an explicit
# section table and a type tag built per key from a fresh section instance.
# Kept as the byte-for-byte reference for emit_config, whose text every
# sidecar's config_sha256 hashes.
_REF_SECTIONS = {
    "device": ("device", config.DeviceConfig),
    "update": ("update", config.UpdateConfig),
    "variation": ("variation", config.VariationConfig),
    "iv": ("iv", config.IvConfig),
    "hysteresis": ("hysteresis", config.HysteresisConfig),
    "scheme": ("scheme", config.SchemeConfig),
    "fitA": ("fit_a", config.FitAConfig),
    "cdf": ("cdf", config.CdfConfig),
    "retention": ("retention", config.RetentionConfig),
    "d2d": ("d2d", config.D2dConfig),
    "scaling": ("scaling", config.ScalingConfig),
    "arrhenius": ("arrhenius", config.ArrheniusConfig),
    "xbar": ("xbar", config.XbarConfig),
}


def _ref_kind_of(section_cls, key):
    for f in fields(section_cls):
        if f.name == key:
            default = getattr(section_cls(), key)
            if isinstance(default, bool):
                return "bool"
            if isinstance(default, int):
                return "int"
            if isinstance(default, float):
                return "float"
            if isinstance(default, tuple):
                return "floatlist"
            return "str"
    raise KeyError(key)


def _ref_emit_config(cfg):
    lines = []
    for name, (attr, section_cls) in _REF_SECTIONS.items():
        section = getattr(cfg, attr)
        lines.append(f"[{name}]")
        for key in [f.name for f in fields(section_cls)]:
            value = getattr(section, key)
            kind = _ref_kind_of(section_cls, key)
            if kind == "bool":
                text = "true" if value else "false"
            elif kind == "int":
                text = str(value)
            elif kind == "floatlist":
                text = ", ".join(repr(float(v)) for v in value)
            elif kind == "str":
                text = str(value)
            else:
                text = repr(float(value))
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def _key_values(key, kind, default):
    """Valid values for one key, drawn by its schema type. Scaling a float
    default by [1, 2] and raising an int one keeps every sign, order and
    range limit of the defaults, except for [iv] state_w, a polarization in
    [0, 1] whose default is 1; tuples are distinct positive floats."""
    if key == "state_w":
        return st.floats(0.0, 1.0)
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(default, 2 * default + 3)
    if kind is float:
        return st.floats(1.0, 2.0).map(lambda f: default * f)
    if kind is tuple:
        return st.lists(st.floats(1.0, 1e4), min_size=3, max_size=5,
                        unique=True).map(tuple)
    return st.sampled_from(SCHEME_KINDS)


@st.composite
def _valid_configs(draw):
    sections = {}
    for attr, section_cls, types in config._SCHEMA.values():
        defaults = section_cls()
        sections[attr] = section_cls(**{
            key: draw(_key_values(key, kind, getattr(defaults, key)))
            for key, kind in types.items()})
    return SimConfig(**sections)


_SCHEMA_PROPERTY = settings(max_examples=100, deadline=None,
                            derandomize=True, database=None)


def test_section_defaults_have_schema_types():
    for section in fields(SimConfig):
        defaults = section.default_factory()
        for f in fields(defaults):
            assert type(getattr(defaults, f.name)) in (bool, int, float,
                                                       tuple, str), f.name


@_SCHEMA_PROPERTY
@given(_valid_configs())
@example(SimConfig())
def test_emit_parse_round_trip(cfg):
    text = emit_config(cfg)
    assert parse_config(text) == cfg
    assert emit_config(parse_config(text)) == text


@_SCHEMA_PROPERTY
@given(_valid_configs())
@example(SimConfig())
def test_emit_equals_reference_emitter(cfg):
    assert emit_config(cfg) == _ref_emit_config(cfg)


# (config text, the message parse_config reports). The first eight are the
# limits _validate used to repeat; the next seven used to pass parse and
# fail only in build_model. Each record's own message is the one reported.
_RECORD_LIMITS = [
    ("[device]\nd_fe_nm = -1\n", "d_fe must be positive, got -1e-09"),
    ("[device]\narea_um2 = 0\n", "area must be positive, got 0.0"),
    ("[device]\neps_r = 0\n", "eps_r must be >= 1, got 0.0"),
    ("[device]\ng_lrs = 0.5\n", "g_lrs must be >= 1, got 0.5"),
    ("[device]\ntun_phi_bar_ev = 0\n",
     "phi_bar must be in (0, 10) eV, got 0.0"),
    ("[device]\ntun_m_eff = 0\n", "m_eff must be in (0, 1], got 0.0"),
    ("[update]\nc2c_rel = 1\n", "c2c_rel must be in [0, 1), got 1.0"),
    ("[update]\nv_on_pot_v = 0.1\n",
     "onsets must satisfy v_on_pot < 0 < v_on_dep"),
    ("[device]\neps_r = 0.5\n", "eps_r must be >= 1, got 0.5"),
    ("[device]\ntun_phi_bar_ev = 10\n",
     "phi_bar must be in (0, 10) eV, got 10.0"),
    ("[device]\ntun_m_eff = 1.5\n", "m_eff must be in (0, 1], got 1.5"),
    ("[device]\nphi_pf_ev = 3\n", "phi_pf must be in (0, 3) eV, got 3.0"),
    ("[device]\nea_ohm_ev = -0.1\n", "ea_ohm must be >= 0, got -0.1"),
    ("[device]\nc_pf = -1\n", "c_pf must be >= 0, got -1.0"),
    ("[device]\nc_ohm = 0\n", "c_ohm must be positive, got 0.0"),
    # the one limit _validate keeps from a record: a shape fails first
    ("[update]\nn_full = 0\n", "n_full must be >= 2"),
]

# (config text, the message parse_config reports) for the values a command
# hands to a record or an owner's check: each is built or called at parse
# and named by its [section] key. state_w, n_rows/n_cols and areas_um2 used
# to pass parse and fail only in their command (exit 3).
_COMMAND_LIMITS = [
    ("[iv]\nstate_w = 2\n", "[iv] state_w: w must be in [0, 1], got 2.0"),
    ("[iv]\nstate_w = -0.5\n", "[iv] state_w: w must be in [0, 1], got -0.5"),
    ("[xbar]\nn_rows = 100\n", "[xbar] n_rows: a dense network solve takes "
                             "1 to 64 lines per side, got 100"),
    ("[xbar]\nn_cols = 65\n", "[xbar] n_cols: a dense network solve takes "
                            "1 to 64 lines per side, got 65"),
    ("[xbar]\nn_rows = 0\n", "[xbar] n_rows: a dense network solve takes "
                           "1 to 64 lines per side, got 0"),
    ("[scaling]\nt_width_s = -1\n",
     "[scaling] t_width_s: t_width must be >= 0, got -1.0"),
    ("[xbar]\nt_width_s = -1\n",
     "[xbar] t_width_s: t_width must be >= 0, got -1.0"),
    ("[scheme]\nkind = bogus\n", "[scheme] kind: unknown scheme kind 'bogus'"),
    ("[fitA]\nkind = bogus\n", "[fitA] kind: unknown scheme kind 'bogus'"),
    ("[variation]\nsigma_d2d = -1\n",
     "[variation] sigma_d2d: sigma_d2d must be finite and >= 0, got -1.0"),
    ("[iv]\nt_list_k = 300, -5\n",
     "[iv] t_list_k: temperature must be positive and finite, got -5.0"),
    ("[arrhenius]\nt_list_k = 300, -5, 400\n",
     "[arrhenius] t_list_k: temperature must be positive and finite, got -5.0"),
    # 1e-320 um^2 is 0.0 m^2 once scaled, as cmd_scaling scales it
    ("[scaling]\nareas_um2 = 100, 1e-320\n",
     "[scaling] areas_um2: area must be positive, got 0.0"),
    ("[device]\nt_kelvin = -1\n",
     "[device] t_kelvin: temperature must be positive and finite, got -1.0"),
]


# --- CLI ---------------------------------------------------------------------

def _run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_cli_usage_errors(tmp_path, capsys):
    assert main([]) == EXIT_USAGE
    assert main(["bogus"]) == EXIT_USAGE
    assert main(["iv", "--command", "bench"]) == EXIT_USAGE
    out = capsys.readouterr()
    assert "usage error" in out.err
    # a command line cannot carry a NUL byte, but a main(argv) caller can
    assert main(["bench", "--out", str(tmp_path / "x\0y")]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_positional_and_flag_agree(tmp_path):
    assert _run(tmp_path, "iv", "--command", "iv") == EXIT_OK
    assert (tmp_path / "iv.csv").exists()


def test_cli_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[device]\nbadkey = 1\n")
    assert _run(tmp_path, "iv", "--config", str(bad)) == EXIT_CONFIG
    assert _run(tmp_path, "iv", "--config", str(tmp_path / "missing.ini")) \
        == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("data, offset, byte, reason", [
    (b"[device]\nr_on_ohms = 1e8 \xff\n", 25, "ff", "invalid start byte"),
    (b"[iv]\nn_points = 5 # caf\xe9\n", 23, "e9",
     "invalid continuation byte"),
    (b"[iv]\nn_points = 5 # \xe2\x82", 20, "e2", "unexpected end of data"),
])
def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys,
                                                       data, offset, byte,
                                                       reason):
    """A config file that is not UTF-8 exits 2 naming the offset of its
    first undecodable byte, with no traceback and no output directory."""
    ini = tmp_path / "bad.ini"
    ini.write_bytes(data)
    out = tmp_path / "out"
    assert main(["iv", "--config", str(ini), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {ini}: not UTF-8 text: byte 0x{byte} at offset "
        f"{offset} ({reason})\n")
    assert not out.exists()
    # the same comment in UTF-8 parses
    ini.write_bytes("[iv]\nn_points = 5 # caf\u00e9\n".encode())
    assert config.load_config(str(ini)).iv.n_points == 5


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_cli_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                            command):
    """--seed takes a non-negative integer: -1 exits 1 at parse, for every
    command, before the handler runs or --out is made."""
    monkeypatch.setitem(cli._HANDLERS, command,
                        lambda *args: pytest.fail("the handler ran"))
    out = tmp_path / "out"
    for argv in (["--seed", "-1"], ["--seed=-1"]):
        assert main([command, *argv, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: argument --seed: expected a non-negative integer, "
            "got -1\n")
    assert main([command, "--seed", "x", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "usage error: argument --seed: invalid int value: 'x'\n"
    assert not out.exists()


def test_main_reuses_one_parser_with_the_same_bytes(tmp_path, capsys):
    """In one process: all 11 commands, then a usage error, an unknown
    command and a config error, then all 11 again. The second round
    writes the first round's bytes, the parser is one object, and --help
    still exits 0 listing every command."""
    bad = tmp_path / "bad.ini"
    bad.write_text("[device]\nbadkey = 1\n")

    def run_all(name):
        files = {}
        for command in cli._HANDLERS:
            out = tmp_path / name / command
            assert main([command, "--out", str(out), "--seed", "4"]) == EXIT_OK
            files.update({f"{command}/{f.name}": f.read_bytes()
                          for f in out.iterdir()})
        return files

    first = run_all("first")
    failed = tmp_path / "failed"
    assert main(["iv", "--seed", "x", "--out", str(failed)]) == EXIT_USAGE
    assert main(["bogus", "--out", str(failed)]) == EXIT_USAGE
    assert main(["iv", "--config", str(bad), "--out", str(failed)]) \
        == EXIT_CONFIG
    assert not failed.exists()
    second = run_all("second")
    assert len(first) == 2 * len(cli._HANDLERS) and second == first
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: ftjsim ")
    assert all(re.search(rf"\b{command}\b", text) for command in cli._HANDLERS)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "fitA and arrhenius both write fit.csv; the re-capture that renames "
    "fitA's table removes this marker"))
def test_fita_and_arrhenius_tables_survive_one_out(tmp_path):
    """fitA, then arrhenius, into one --out keeps every file each writes
    on its own, byte for byte. Today the directory ends with fitA.json,
    arrhenius.json and one fit.csv, which holds the Arrhenius table."""
    def files(out):
        return {f.name: f.read_bytes() for f in out.iterdir()}

    both = tmp_path / "both"
    for command in ("fitA", "arrhenius"):
        assert _run(tmp_path / command, command) == EXIT_OK
        assert _run(both, command) == EXIT_OK
    together = files(both)
    for command in ("fitA", "arrhenius"):
        alone = files(tmp_path / command)
        assert {name: together.get(name) for name in alone} == alone, command


def test_cli_parser_is_built_on_first_use_only():
    """Importing the CLI builds no parser; the first main call builds the
    one the process keeps."""
    script = (
        "from ftjsim import cli\n"
        "before = cli._build_parser.cache_info().currsize\n"
        "cli.main(['bogus'])\n"
        "cli.main(['bogus'])\n"
        "info = cli._build_parser.cache_info()\n"
        "print(before, info.currsize, info.misses)\n")
    assert _fresh(script).split() == ["0", "1", "1"]


@pytest.mark.parametrize("text", [
    "[iv]\nv_max_v = inf\n",
    "[device]\nt_kelvin = -inf\n",
    "[variation]\nsigma_d2d = nan\n",
    "[iv]\nt_list_k = 300, inf\n",
    "[arrhenius]\nt_list_k = 300, nan, 400\n",
])
def test_cli_rejects_non_finite_floats(tmp_path, capsys, text):
    """inf and nan are config errors (exit 2) at their line and column,
    never a numerical failure further in."""
    ini = tmp_path / "nonfinite.ini"
    ini.write_text(text)
    assert _run(tmp_path, "iv", "--config", str(ini)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{ini}:2:" in err and "expected a finite number" in err


@pytest.mark.parametrize(
    "text, message", _RECORD_LIMITS,
    ids=[text.split("\n")[1].replace(" ", "") for text, _ in _RECORD_LIMITS])
def test_model_record_limits_are_config_errors_at_parse(tmp_path, capsys,
                                                        text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    ini = tmp_path / "limit.ini"
    ini.write_text(text)
    assert _run(tmp_path, "iv", "--config", str(ini)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {ini}: {message}\n"


@pytest.mark.parametrize(
    "text, message", _COMMAND_LIMITS,
    ids=[text.replace("\n", "").replace(" ", "") for text, _ in _COMMAND_LIMITS])
def test_command_limits_are_config_errors_at_parse(tmp_path, capsys,
                                                   monkeypatch, text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    ini = tmp_path / "limit.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    command = text[1:text.index("]")]
    command = {"device": "bench", "variation": "d2d"}.get(command, command)
    monkeypatch.setitem(cli._HANDLERS, command,
                        lambda *args: pytest.fail("the handler ran"))
    assert main([command, "--config", str(ini), "--out", str(out)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {ini}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("section, what, count, limit", config._COUNT_LIMITS,
                         ids=[f"{s}.{w}" for s, w, _, _ in config._COUNT_LIMITS])
def test_count_keys_are_bounded_at_parse(tmp_path, capsys, monkeypatch,
                                         section, what, count, limit):
    """Each count key's work is bounded above its default: a config at the
    bound parses, and one past it exits 2 at parse naming the count,
    before the command runs. No command runs at such a size."""
    assert count(SimConfig()) < limit
    key = what.split(" ")[0]
    temps = ("t_list_k = 300, 310, 320, 330\n"
             if "t_list_k" in what else "")
    per = 4 if temps else 1
    at = limit // per
    assert count(parse_config(f"[{section}]\n{temps}{key} = {at}\n")) \
        == at * per == limit
    ini = tmp_path / "big.ini"
    ini.write_text(f"[{section}]\n{temps}{key} = {at + 1}\n")
    message = f"[{section}] {what} = {(at + 1) * per} is over the limit of {limit}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(ini.read_text())
    command = {"update": "fitA"}.get(section, section)
    monkeypatch.setitem(cli._HANDLERS, command,
                        lambda *args: pytest.fail("the handler ran"))
    out = tmp_path / "out"
    assert main([command, "--config", str(ini), "--out", str(out)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {ini}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("selection", ["2.0001", "2.00000001"])
def test_cli_selection_below_the_bracket_end_is_a_numerical_error(
        tmp_path, capsys, selection):
    """A selection target just above 2 that no eps_r <= 1e4 reaches exits
    3 with calibrate's CalibrationError, not 2 with the root search's
    bare ValueError."""
    ini = tmp_path / "sel.ini"
    ini.write_text(f"[device]\nselection = {selection}\n")
    out = tmp_path / "out"
    assert main(["bench", "--config", str(ini), "--out", str(out)]) \
        == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: selection target unreachable "
                          "for eps_r <= 1e4 (relative residuals ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("iv", "[iv]\nt_list_k = 300, 1\n"),
    ("arrhenius", "[arrhenius]\nt_list_k = 1, 2, 3\n"),
])
def test_cli_temperature_overflow_names_its_t_list_k_entry(
        tmp_path, capsys, command, text):
    """A t_list_k entry cold enough to overflow the trap-emission exponent
    exits 3 naming that entry."""
    ini = tmp_path / "cold.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(ini), "--out", str(out)]) \
            == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical error: t_list_k entry 1.0 K: overflow encountered in exp\n")
    assert not out.exists()


def test_cli_numerical_error(tmp_path, capsys):
    infeasible = tmp_path / "x.ini"
    infeasible.write_text("[device]\nselection = 1e6\n")
    assert _run(tmp_path, "iv", "--config", str(infeasible)) == EXIT_NUMERICAL
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("text, names", [
    ("[device]\nt_kelvin = 0.001\n", "t_kelvin = 0.001 K"),
    ("[device]\nt_kelvin = 0.05\n", "t_kelvin = 0.05 K"),
    ("[device]\nt_kelvin = 0.5\n", "t_kelvin = 0.5 K"),
    ("[device]\nt_kelvin = 2\n", "t_kelvin = 2.0 K"),
    ("[device]\nt_kelvin = 7\n", "t_kelvin = 7.0 K"),
    ("[device]\nea_ohm_ev = 50\n", "ea_ohm = 50.0 eV"),
    ("[device]\nea_ohm_ev = 1000\n", "ea_ohm = 1000.0 eV"),
    ("[device]\nd_fe_nm = 0.001\n", "d_fe = 1.0000000000000002e-12 m"),
])
def test_cli_calibration_past_float_range_is_a_numerical_error(
        tmp_path, capsys, text, names):
    """A temperature, activation energy or film thickness that takes a
    calibration shape past float range exits 3 in every command, naming
    the value, without a traceback, a warning or an output file."""
    ini = tmp_path / "limit.ini"
    ini.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in cli._HANDLERS:
            assert _run(tmp_path / command, command, "--config", str(ini)) \
                == EXIT_NUMERICAL
            err = capsys.readouterr().err
            assert err.startswith("numerical error: ") and names in err
            assert "Traceback" not in err
            assert not (tmp_path / command).exists()


def test_cli_current_past_float_range_is_a_numerical_error(tmp_path, capsys):
    """Prefactors whose read current overflows fail every command that
    reads a trace, as iv and d2d do, instead of writing the resistance of
    an infinite current; fitA reads nothing and still runs."""
    ini = tmp_path / "huge.ini"
    ini.write_text("[device]\ncalibrate = false\nc_ohm = 1e300\nc_pf = 1e300\n")
    for command in ("hysteresis", "scheme", "cdf", "retention", "d2d"):
        assert _run(tmp_path / command, command, "--config", str(ini)) \
            == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and "Traceback" not in err
        assert not (tmp_path / command).exists()
    assert _run(tmp_path / "fitA", "fitA", "--config", str(ini)) == EXIT_OK


def test_cli_figures_past_float_range_are_a_numerical_error(tmp_path, capsys):
    """An LRS multiplier times area past float range (uncalibrated g_lrs =
    1e308 at 1e13 um^2) fails the two commands that report the figures of
    merit, instead of writing on/off = inf, r_on = 0 and selection = nan."""
    ini = tmp_path / "wide.ini"
    ini.write_text("[device]\ncalibrate = false\ng_lrs = 1e308\n"
                   "area_um2 = 1e13\n")
    for command in ("iv", "bench"):
        assert _run(tmp_path / command, command, "--config", str(ini)) \
            == EXIT_NUMERICAL
        assert capsys.readouterr().err == \
            "numerical error: overflow encountered in multiply\n"
        assert not (tmp_path / command).exists()


def test_cli_failing_command_writes_nothing(tmp_path, capsys, monkeypatch):
    """A command that fails after computing its table leaves no CSV: a
    sweep that opens no memory window, and a network solve whose line
    search cannot reduce the residual."""
    ini = tmp_path / "narrow.ini"
    ini.write_text("[hysteresis]\nv_neg_v = 0.2\nv_pos_v = 0.2\n")
    out = tmp_path / "hysteresis"
    assert main(["hysteresis", "--config", str(ini), "--out", str(out)]) \
        == EXIT_NUMERICAL
    assert "resistance window" in capsys.readouterr().err
    assert not out.exists()

    g_d = crossbar._conductance
    monkeypatch.setattr(crossbar, "_conductance", lambda *args: -g_d(*args))
    out = tmp_path / "xbar"
    assert main(["xbar", "--out", str(out)]) == EXIT_NUMERICAL
    assert "line search failed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_naming_a_file_is_a_usage_error(tmp_path, capsys,
                                                monkeypatch):
    """--out naming an existing file exits 1 before the command runs, and
    an --out that cannot be created (a path under a file) exits 1 too:
    both name the path, print no traceback and write nothing."""
    blocker = tmp_path / "results.txt"
    blocker.write_text("keep\n")
    with monkeypatch.context() as patch:
        patch.setitem(cli._HANDLERS, "iv",
                      lambda *args: pytest.fail("the handler ran"))
        assert main(["iv", "--out", str(blocker)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"usage error: --out {blocker} is not a directory\n"
    under = blocker / "sub"
    assert main(["iv", "--out", str(under)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: --out {under}: ")
    assert "Traceback" not in err
    assert blocker.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("text, points", [
    ("[hysteresis]\nstep_v = 1e-7\n", 112000001),
    ("[hysteresis]\nv_neg_v = 1e6\n", 160000193),
    ("[hysteresis]\nstep_v = 1e-320\n", math.inf),  # past float range
])
def test_hysteresis_grid_past_its_limit_is_a_config_error(
        tmp_path, capsys, monkeypatch, text, points):
    """A loop grid over the point limit exits 2 at parse, naming its point
    count, before the handler builds the grid or creates --out."""
    message = (f"[hysteresis] the loop grid would hold {points} points, "
               f"over the limit of {config._LOOP_POINT_LIMIT}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    ini = tmp_path / "grid.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    monkeypatch.setitem(cli._HANDLERS, "hysteresis",
                        lambda *args: pytest.fail("the handler ran"))
    assert main(["hysteresis", "--config", str(ini), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {ini}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "", "[hysteresis]\nstep_v = 0.0123\n",
    "[hysteresis]\nv_neg_v = 0.7\nv_pos_v = 3.1\nstep_v = 0.3\n"])
def test_hysteresis_grid_limit_counts_the_built_grid(text):
    """The parse-time count is the length of the grid the command sweeps."""
    cfg = parse_config(text)
    _, _, blocks, _ = cli.cmd_hysteresis(cfg, build_model(cfg), 0)
    assert len(rows_of(blocks)) == 1 + sum(
        n for _, _, n in config._loop_legs(cfg.hysteresis))


def test_hysteresis_grid_limit_edge():
    """With 2**-10 V steps, legs of 16383 and 33616 steps make a loop of
    99999 points, which parses; one more step on v_pos_v makes 100001."""
    text = "[hysteresis]\nv_neg_v = 15.9990234375\nstep_v = 0.0009765625\n"
    parse_config(text + "v_pos_v = 16.8291015625\n")
    with pytest.raises(ConfigError, match="would hold 100001 points"):
        parse_config(text + "v_pos_v = 16.830078125\n")


@pytest.mark.parametrize("command", ["d2d", "xbar"])
def test_cli_d2d_offset_past_float_range_is_a_numerical_error(
        tmp_path, capsys, command):
    """sigma_d2d = 1000 draws offsets whose shift 10**(-d2d_log10)
    overflows: exit 3 naming d2d_log10 and its value."""
    ini = tmp_path / "wide.ini"
    ini.write_text("[variation]\nsigma_d2d = 1000\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(ini), "--out", str(out)]) \
            == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical error: d2d_log10 = -\d+\.\d+ is outside "
                        r"float range: .*\n", err), err
    assert not out.exists()


# --- config contract: every parsed config runs or exits 2 or 3 -------------

# The commands a config section feeds: a model section every command that
# reads it, a command section its own command.
_FEEDS = {"device": tuple(cli._HANDLERS),
          "update": ("scheme", "fitA", "cdf", "xbar", "bench"),
          "variation": ("d2d", "xbar")}
_KEYS = [(name, key, kind, getattr(section_cls(), key))
         for name, (_, section_cls, types) in config._SCHEMA.items()
         for key, kind in types.items()]
_EXTREMES = (0.0, -1.0, 1e-300, 1e300, -1e300)
# Either sign of 1e-200 to 1e200, log-uniform: the factor a float is
# drawn at, times its default.
_SCALES = st.tuples(st.floats(-200.0, 200.0), st.sampled_from((1.0, -1.0))
                    ).map(lambda es: es[1] * 10.0 ** es[0])


def _any_value(kind, default):
    """A value of the key's schema type, valid or not: float-range
    extremes, and any scale of _SCALES times the default (of 1 for a
    tuple's items). Ints stop at 40 so that a draw runs in
    milliseconds."""
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(-2, 40)
    if kind is float:
        return st.one_of(st.sampled_from(_EXTREMES),
                         _SCALES.map(lambda f: f * (default or 1.0)))
    if kind is tuple:
        return st.lists(st.one_of(st.sampled_from(_EXTREMES), _SCALES),
                        max_size=5).map(tuple)
    return st.one_of(st.sampled_from(SCHEME_KINDS),
                     st.text("abcxyz_", min_size=1, max_size=8))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_KEYS).flatmap(
    lambda k: st.tuples(st.just(k), _any_value(k[2], k[3]))))
def test_every_parsed_config_runs_or_exits_2_or_3(drawn):
    """One key at a time, drawn by its schema type: every command that
    key feeds exits 0, 2 or 3, with no traceback and no warning."""
    (section, key, kind, _), value = drawn
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "one.ini"
        ini.write_text(f"[{section}]\n{key} = {config._RENDER[kind](value)}\n")
        for command in _FEEDS.get(section, (section,)):
            err = io.StringIO()
            with warnings.catch_warnings(), redirect_stderr(err), \
                    redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = main([command, "--config", str(ini),
                             "--out", str(Path(tmp) / command)])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), \
                (command, err.getvalue())
            assert "Traceback" not in err.getvalue()


def test_cli_sidecar_metadata(tmp_path):
    assert _run(tmp_path, "iv", "--seed", "9") == EXIT_OK
    meta = json.loads((tmp_path / "iv.json").read_text())
    assert meta["seed"] == 9
    assert meta["command"] == "iv"
    assert len(meta["config_sha256"]) == 64
    import ftjsim
    assert meta["version"] == ftjsim.__version__


def test_cli_sha_tracks_config(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    ini = tmp_path / "run.ini"
    ini.write_text("[device]\non_off = 9\n")
    assert main(["iv", "--out", str(a)]) == EXIT_OK
    assert main(["iv", "--out", str(b), "--config", str(ini)]) == EXIT_OK
    sha_a = json.loads((a / "iv.json").read_text())["config_sha256"]
    sha_b = json.loads((b / "iv.json").read_text())["config_sha256"]
    assert sha_a != sha_b


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_cli_outputs_are_deterministic(tmp_path, command):
    """Same (config, seed) must give byte-identical files; the commands
    that draw from the seed give a different table at another seed."""
    runs = {}
    for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        out = tmp_path / name
        assert main([command, "--out", str(out), "--seed", seed]) == EXIT_OK
        runs[name] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert runs["a"] == runs["b"]
    assert sorted(runs["a"]) == sorted(runs["c"])
    assert f"{command}.json" in runs["a"] and len(runs["a"]) == 2
    (table,) = (name for name in runs["a"] if name.endswith(".csv"))
    if command in ("scheme", "cdf", "d2d", "xbar"):
        assert runs["a"][table] != runs["c"][table]


def _fresh(script: str) -> str:
    """The output of script, run in a fresh interpreter on this ftjsim."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, env={
                              **os.environ,
                              "PYTHONPATH": os.pathsep.join(filter(None, path))
                          }).stdout


def _modules_run(script: str) -> tuple[list[str], list[str]]:
    """script's output lines in a fresh interpreter, and the ftjsim modules
    whose code it ran: the files of the code objects that the exec audit
    event reports."""
    out = _fresh(
        "import sys\n"
        "from pathlib import Path\n"
        "ran = set()\n"
        "sys.addaudithook(lambda event, args: ran.add(args[0].co_filename)\n"
        "                 if event == 'exec' else None)\n"
        + script +
        "\nprint(sorted(Path(f).stem for f in ran\n"
        "             if Path(f).parent.name == 'ftjsim'))\n")
    *lines, ran = out.splitlines()
    return lines, ast.literal_eval(ran)


def test_cli_commands_load_no_scipy(tmp_path):
    """scipy is a test-only dependency: all 11 commands, run in a fresh
    interpreter, load no scipy module. None of them runs inference's
    code either."""
    lines, ran = _modules_run(
        "from ftjsim import cli\n"
        "for command in cli._HANDLERS:\n"
        f"    assert cli.main([command, '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert lines[-1] == "[]"
    assert ran == ["__init__", "cli", "conduction", "config", "constants",
                   "crossbar", "device", "extraction"]


def test_importing_ftjsim_and_its_cli_runs_no_layer():
    """Each layer runs on first use: importing the package and the CLI,
    in either form, runs none of the six."""
    assert _modules_run("import ftjsim, ftjsim.cli\n"
                        "from ftjsim import cli")[1] == [
        "__init__", "cli", "constants"]


def test_a_crossbar_read_runs_only_the_layers_under_it():
    """An array read never runs config, extraction or inference."""
    assert _modules_run(
        "import ftjsim\n"
        "xbar = ftjsim.crossbar.build_crossbar(\n"
        "    8, 8, ftjsim.conduction.default_params(), seed=0)\n"
        "ftjsim.crossbar.sneak_margin(xbar, 0, 0, 0.5)")[1] == [
        "__init__", "conduction", "constants", "crossbar", "device"]


_LAYERS = ("conduction", "config", "crossbar", "device", "extraction",
           "inference")


def _public_names() -> set[str]:
    return {name for layer in _LAYERS
            for name in getattr(ftjsim, layer).__all__}


def test_dir_lists_every_public_name_before_any_layer_loads():
    """dir(ftjsim) is where test_readme_lists_the_public_api_by_module
    takes the public names from: in a fresh interpreter, before any
    attribute access, it holds every layer's __all__ and the modules."""
    listed = ast.literal_eval(_fresh("import ftjsim\n"
                                     "print(dir(ftjsim))").splitlines()[-1])
    assert {*_public_names(), *_LAYERS, "constants"} - set(listed) == set()


def test_star_import_binds_every_public_name_and_layer():
    """`from ftjsim import *` binds what the package's star imports of
    the six layers bound: every __all__ name, the layers and constants."""
    bound = ast.literal_eval(_fresh(
        "from ftjsim import *\n"
        "print(sorted(n for n in globals() if not n.startswith('_')))"
    ).splitlines()[-1])
    assert sorted(bound) == sorted({*_public_names(), *_LAYERS, "constants"})


def test_public_names_are_their_layers_objects(monkeypatch):
    """ftjsim.<name> is ftjsim.<layer>.<name>; a name that two layers
    export resolves to the later layer's, as the star imports bound it."""
    owner = {name: layer for layer in _LAYERS
             for name in getattr(ftjsim, layer).__all__}
    for name, layer in owner.items():
        assert getattr(ftjsim, name) is getattr(getattr(ftjsim, layer),
                                                name), name
    later = object()
    monkeypatch.setattr(ftjsim.inference, "__all__",
                        [*ftjsim.inference.__all__, "build_crossbar"])
    monkeypatch.setattr(ftjsim.inference, "build_crossbar", later,
                        raising=False)
    assert ftjsim.build_crossbar is later


def test_unknown_package_attribute_names_itself():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ftjsim.no_such_name  # noqa: B018


def test_cli_iv_zero_grid_gives_zero_current(tmp_path):
    ini = tmp_path / "zero.ini"
    ini.write_text("[iv]\nv_min_v = 0\nv_max_v = 0\nn_points = 4\n")
    assert _run(tmp_path, "iv", "--config", str(ini)) == EXIT_OK
    with open(tmp_path / "iv.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(float(r["i_amps"]) == 0.0 for r in rows)


def test_cli_iv_rows_equal_scalar_reads():
    """The iv table reads each temperature's grid in one kernel call; every
    row's current must equal a scalar current_total read bit for bit."""
    from ftjsim.conduction import current_total

    cfg = parse_config("[iv]\nt_list_k = 280, 300, 355.5\nv_min_v = 0.001\n"
                       "v_max_v = 0.9\nn_points = 400\nstate_w = 0.37\n"
                       "log_grid = true\n")
    bundle = build_model(cfg)
    p, state = bundle.params, DeviceState(w=0.37)
    _, _, blocks, _ = cli.cmd_iv(cfg, bundle, 0)
    rows = rows_of(blocks)
    assert len(rows) == 3 * 400
    for v, t, w, i, j in rows:
        ref = current_total(v, t, p, state)
        assert (w, i.hex(), j.hex()) == (0.37, ref.hex(), (ref / p.area).hex())
    assert [t for _, t, *_ in rows[::400]] == [280.0, 300.0, 355.5]


def test_cli_scaling_current_density_invariant(tmp_path):
    """R scales inversely with area, so the read current density is the
    same number for every die size."""
    assert _run(tmp_path, "scaling") == EXIT_OK
    with open(tmp_path / "scaling.csv") as fh:
        rows = list(csv.DictReader(fh))
    j = [float(r["j_read_a_per_m2"]) for r in rows]
    assert len(j) == 3
    assert max(j) - min(j) <= 1e-12 * max(j)


def test_cli_trace_schema(tmp_path):
    assert _run(tmp_path, "scheme") == EXIT_OK
    with open(tmp_path / "trace.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["cycle", "pulse_index", "v_write_volts", "t_width_s",
                      "w", "r_ohms_0p3v"]


def test_cli_fit_schema(tmp_path):
    assert _run(tmp_path, "fitA") == EXIT_OK
    with open(tmp_path / "fit.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["param", "value", "stderr"]


def test_cli_handlers_do_not_mutate_config(tmp_path):
    # SimConfig is a frozen dataclass tree; equality against a fresh
    # instance after a run proves the handler had no way to scribble on it
    cfg = SimConfig()
    snapshot = emit_config(cfg)
    assert _run(tmp_path, "bench") == EXIT_OK
    assert emit_config(cfg) == snapshot
    assert cfg == SimConfig()


# --- d2d: one array read per state, against the per-device loop --------------

D2D_HEADER = ["device_index", "d2d_log10", "r_hrs_ohms", "r_lrs_ohms"]


def _csv_text(header, blocks) -> str:
    """The whole CSV text that main streams, block by block."""
    return "".join(cli._csv_blocks(header, blocks))


def _d2d_samples(cfg, seed):
    """The model and the pristine devices of oracle.py's per-device draw."""
    return build_model(cfg), [
        DeviceState(w=0.0, d2d_log10=d)
        for d in d2d_draws(cfg.variation.sigma_d2d, seed, cfg.d2d.n_devices)]


def _reference_d2d(cfg, seed, out):
    """The per-device d2d loop: two scalar reads per sampled device at
    [device] v_read_v and t_kelvin, its table written by csv.writer cell
    by cell and its sidecar by the CLI's own writer."""
    bundle, states = _d2d_samples(cfg, seed)
    p, v, t = bundle.params, bundle.v_read, bundle.t_kelvin
    rows = [(idx, s.d2d_log10, read(s, p, v, t)[1],
             read(replace(s, w=1.0), p, v, t)[1])
            for idx, s in enumerate(states)]
    _reference_write_csv(out / "d2d.csv", D2D_HEADER, rows)
    offsets = np.array([s.d2d_log10 for s in states])
    (out / "d2d.json").write_bytes(cli._json_text(cli._meta("d2d", cfg, seed, {
        "n_devices": len(states),
        "sigma_target": cfg.variation.sigma_d2d,
        "sigma_sample": float(np.std(offsets, ddof=1)),
        "mean_sample": float(np.mean(offsets)),
    })).encode())


@pytest.mark.parametrize("text", [
    # defaults but a smaller population; the full default run is pinned
    # by the cli_studies benchmark goldens
    "[d2d]\nn_devices = 1000\n",
    "[device]\nv_read_v = 0.2\n[variation]\nsigma_d2d = 0.25\n"
    "[d2d]\nn_devices = 37\n",
    # HRS resistances past float range read inf, as read_state reads them
    "[device]\non_off = 1e300\n[d2d]\nn_devices = 40\n",
], ids=["defaults", "sigma_n_vread", "r_past_float_range"])
def test_cli_d2d_matches_per_device_reference(tmp_path, text):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    cfg = parse_config(text)
    for seed in range(4):
        new, ref = tmp_path / f"new{seed}", tmp_path / f"ref{seed}"
        ref.mkdir()
        assert main(["d2d", "--config", str(ini), "--out", str(new),
                     "--seed", str(seed)]) == EXIT_OK
        _reference_d2d(cfg, seed, ref)
        for name in ("d2d.csv", "d2d.json"):
            assert (new / name).read_bytes() == (ref / name).read_bytes(), name


def test_cli_d2d_across_blocks_matches_per_device_reference(tmp_path):
    """A population of 2 _BLOCK + 1 devices crosses the edges of the draw
    blocks and of the CSV blocks, and still writes the per-device bytes."""
    text = f"[d2d]\nn_devices = {2 * device._BLOCK + 1}\n"
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    new, ref = tmp_path / "new", tmp_path / "ref"
    ref.mkdir()
    assert main(["d2d", "--config", str(ini), "--out", str(new),
                 "--seed", "5"]) == EXIT_OK
    _reference_d2d(parse_config(text), 5, ref)
    for name in ("d2d.csv", "d2d.json"):
        assert (new / name).read_bytes() == (ref / name).read_bytes(), name


def _peak_run(where, command: str, text: str, seed: int, traced: bool):
    """Run command with config text into where/out; return the out
    directory and tracemalloc's peak in bytes (0 when not traced)."""
    where.mkdir()
    ini = where / "run.ini"
    ini.write_text(text)
    args = [command, "--config", str(ini), "--out", str(where / "out"),
            "--seed", str(seed)]
    if not traced:
        assert main(args) == EXIT_OK
        return where / "out", 0
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    return where / "out", peak


def _d2d_run(tmp_path, n: int, seed: int, traced: bool):
    """Run d2d at n devices into its own --out; return the out directory
    and tracemalloc's peak in bytes (0 when not traced)."""
    return _peak_run(tmp_path / f"{n}-{int(traced)}", "d2d",
                     f"[d2d]\nn_devices = {n}\n", seed, traced)


def test_cli_d2d_streams_in_fixed_memory(tmp_path):
    """d2d holds its float64 offsets and one block at a time. The offsets
    and np.std's one temporary of their size cost 16 bytes a device; a
    table held as row tuples costs about 190. So after an untraced warm-up
    run, tracemalloc's peak at 60000 devices exceeds the peak at 20000 by
    under 32 bytes a device, and stays under 8 MiB. The rows at every
    block edge, and the first and last, equal the per-device reference's."""
    small, n, seed = 20_000, 60_000, 2
    _d2d_run(tmp_path, 3 * cli._CSV_BLOCK, seed, traced=False)
    _, peak_small = _d2d_run(tmp_path, small, seed, traced=True)
    out, peak = _d2d_run(tmp_path, n, seed, traced=True)
    assert (peak - peak_small) / (n - small) < 32, (peak_small, peak)
    assert peak < 8 * 2**20, peak
    lines = (out / "d2d.csv").read_bytes().decode().split("\r\n")
    assert len(lines) == n + 2 and lines[0] == ",".join(D2D_HEADER)
    assert lines[-1] == ""
    bundle = build_model(SimConfig())
    p, v, t = bundle.params, bundle.v_read, bundle.t_kelvin
    edges = {0, n - 1}
    for block in (cli._CSV_BLOCK, device._BLOCK):
        for start in range(block, n, block):
            edges |= {start - 1, start}
    for i in sorted(edges):
        s = DeviceState(w=0.0, d2d_log10=d2d_draw(0.1, seed, i))
        row = (i, s.d2d_log10, read(s, p, v, t)[1],
               read(replace(s, w=1.0), p, v, t)[1])
        assert lines[i + 1] == "%d,%.12g,%.12g,%.12g" % row, i
    payload = json.loads((out / "d2d.json").read_text())
    assert payload["n_devices"] == n


# a config of `rows` table rows, and the table, per command
_GROWING = {
    "iv": (lambda rows: f"[iv]\nn_points = {rows // 4}\n"
           "t_list_k = 250, 300, 350, 400\n", "iv.csv"),
    "retention": (lambda rows: f"[retention]\nn_points = {rows // 2}\n",
                  "retention.csv"),
}


@pytest.mark.parametrize("command", list(_GROWING))
def test_cli_iv_and_retention_stream_in_fixed_memory(tmp_path, command):
    """iv holds each temperature's float64 currents, and retention each
    start state's float64 w and resistances, and both hand them to main
    in _CSV_BLOCK-row slices. After an untraced warm-up, tracemalloc's
    peak grew by 11-21 bytes a row for iv (its currents and one
    temperature's kernel temporaries) and by 38-40 for retention (its
    arrays and the hold times as Python floats) from 20000 to 200000
    rows, where tables held as row tuples grew by 136-166. So the peak at
    60000 rows exceeds the peak at 20000 by under 64 bytes a row and
    stays under 8 MiB, and the table holds every row."""
    config_of, csv_name = _GROWING[command]
    small, n = 20_000, 60_000
    _peak_run(tmp_path / "warm", command, config_of(3 * cli._CSV_BLOCK), 0,
              traced=False)
    _, peak_small = _peak_run(tmp_path / "small", command, config_of(small),
                              0, traced=True)
    out, peak = _peak_run(tmp_path / "large", command, config_of(n), 0,
                          traced=True)
    assert (peak - peak_small) / (n - small) < 64, (peak_small, peak)
    assert peak < 8 * 2**20, peak
    lines = (out / csv_name).read_bytes().split(b"\r\n")
    assert len(lines) == n + 2 and lines[-1] == b""


def _needs_no_quoting(label) -> bool:
    """True when csv.writer writes the label, alone on its row, as is: it
    quotes an empty label there, and any label holding a comma, a quote or
    a line break."""
    buf = io.StringIO()
    csv.writer(buf).writerow([label])
    return buf.getvalue() == f"{label}\r\n"


def _plain(obj) -> bool:
    """True when obj holds only plain Python values: dicts keyed by str,
    lists and tuples of plain values, and exact int, float, str, bool or
    None leaves."""
    if type(obj) is dict:
        return all(type(k) is str and _plain(v) for k, v in obj.items())
    if type(obj) in (list, tuple):
        return all(map(_plain, obj))
    return type(obj) in (int, float, str, bool, type(None))


# what main reports as exit 2 or 3 when building the model or running a
# handler: a drawn config may hand main no table
_NO_TABLE = (CalibrationError, RuntimeError, np.linalg.LinAlgError,
             ArithmeticError, ValueError)
_XBAR_3X5 = parse_config("[xbar]\nn_rows = 3\nn_cols = 5\n")
_RICH = parse_config("[device]\nt_kelvin = 340\n[xbar]\nn_rows = 3\n"
                     "n_cols = 5\n[iv]\nlog_grid = true\n"
                     "[scheme]\nkind = hybrid\n[fitA]\nkind = width_ramp\n"
                     "[retention]\ndrift_rate_per_s = 1e-6\n")


@pytest.mark.parametrize("command", list(cli._HANDLERS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(cfg=_valid_configs())
@example(cfg=SimConfig())
@example(cfg=_XBAR_3X5)
@example(cfg=_RICH)
def test_handlers_hand_main_exact_python_cells(command, cfg):
    """Every table a handler hands main is a sequence of blocks of at most
    _CSV_BLOCK rows, each one 1-D column per header label of one length:
    an int64 or float64 array, or a list of str labels that need no
    quoting, each column of one kind in every block. Its header labels
    need no quoting and its payload holds plain Python values. This is
    the write contract's domain, which the writer does not check: so
    _csv_blocks renders each table to the bytes per-cell csv.writer rows
    write, and _json_text writes the payload as it is. xbar.csv has one
    row per cell, its two index columns int64 and the rest float64."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, header, blocks, payload = cli._HANDLERS[command](
                cfg, build_model(cfg), 0)
            blocks = [list(block) for block in blocks]
    except _NO_TABLE:
        # the explicit examples must each produce a table
        assert cfg not in (SimConfig(), _XBAR_3X5, _RICH)
        return
    assert blocks
    assert all(type(h) is str and _needs_no_quoting(h) for h in header)
    table_kinds = None
    for block in blocks:
        assert len(block) == len(header)
        assert len({len(column) for column in block}) == 1
        assert 0 < len(block[0]) <= cli._CSV_BLOCK
        kinds = []
        for column in block:
            if type(column) is list:
                assert all(type(x) is str and _needs_no_quoting(x)
                           for x in column), column
                kinds.append(str)
            else:
                assert type(column) is np.ndarray and column.ndim == 1
                assert column.dtype in (np.int64, np.float64), column.dtype
                kinds.append(column.dtype)
        table_kinds = table_kinds or kinds
        assert kinds == table_kinds
    assert _plain(payload)
    _assert_same_csv_bytes(header, blocks)
    if command == "xbar":
        assert sum(len(block[0]) for block in blocks) \
            == cfg.xbar.n_rows * cfg.xbar.n_cols
        assert table_kinds == [np.int64] * 2 + [np.float64] * 3


def test_cli_d2d_reads_at_config_temperature(tmp_path):
    text = "[device]\nt_kelvin = 350\n[d2d]\nn_devices = 40\n"
    ini = tmp_path / "hot.ini"
    ini.write_text(text)
    assert _run(tmp_path, "d2d", "--config", str(ini), "--seed", "3") == EXIT_OK
    with open(tmp_path / "d2d.csv") as fh:
        rows = list(csv.DictReader(fh))
    bundle, states = _d2d_samples(parse_config(text), 3)
    assert len(rows) == len(states) == 40
    p, v = bundle.params, bundle.v_read
    for row, s in zip(rows, states):
        for key, state in (("r_hrs_ohms", s), ("r_lrs_ohms", replace(s, w=1.0))):
            hot = read_state(state, p, v, 350.0).r_ohms
            assert float(row[key]) == float(f"{hot:.12g}")
            assert float(row[key]) != float(f"{read_state(state, p, v).r_ohms:.12g}")


# --- Byte-identity guard: the template CSV writer -----------------------------

def _reference_fmt(x) -> str:
    """A cell as a plain csv.writer table would hold it: "%.12g" text for
    a float, str() for an int or a label."""
    return f"{x:.12g}" if type(x) is float else str(x)


def _reference_write_csv(path, header, rows):
    """_csv_text as one csv.writer row per table row, each cell through
    _reference_fmt."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_reference_fmt(x) for x in row])
    return path


def _assert_same_csv_bytes(header, blocks):
    with tempfile.TemporaryDirectory() as tmp:
        ref = _reference_write_csv(Path(tmp) / "ref.csv", header,
                                   rows_of(blocks))
        # the CLI passes one-shot iterators as well as lists
        assert _csv_text(header, iter(blocks)).encode() == ref.read_bytes()


def _split(columns, size):
    """Equal-length columns as blocks of size rows; no block if there is
    no column."""
    n = len(columns[0]) if columns else 0
    return [[c[start:start + size] for c in columns]
            for start in range(0, n, size)]


_LABELS = st.text(st.characters(blacklist_characters=',"\r\n',
                                blacklist_categories=("Cs",)),
                  min_size=1, max_size=6)
# every int a handler emits fits int64, so the domain stops there
_COLUMNS = (
    (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
     np.float64),
    (st.integers(-2**63, 2**63 - 1), np.int64),
    (_LABELS, list),
)


@st.composite
def _tables(draw):
    """A table in _csv_blocks's domain, as its header and its columns:
    labels free of the characters csv.writer quotes, and one cell
    strategy per column, floats with nan, infinities, subnormals and
    -0.0."""
    header = draw(st.lists(_LABELS, max_size=5))
    n = draw(st.integers(0, 25))
    columns = []
    for _ in header:
        cells, kind = draw(st.sampled_from(_COLUMNS))
        cells = draw(st.lists(cells, min_size=n, max_size=n))
        columns.append(cells if kind is list else np.array(cells, kind))
    return header, columns


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tables())
def test_write_csv_bytes_equal_per_cell_writer(table):
    header, columns = table
    _assert_same_csv_bytes(header, _split(columns, 4096))


@pytest.mark.parametrize("header, blocks", [
    (["a"], []),
    (["a"], [[np.array([])]]),
    ([], [[]]),
    (list("abcdefg"), [[np.array([x]) for x in (
        0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1 / 3)]]),
    (list("abcd"), [[np.array([x], np.int64)
                     for x in (2**63 - 1, -2**63, 0, -1)]]),
    ([" a b", "%s", "\u00e9\t;"], [[["lrs", "hrs"], ["%d", "%%"],
                                     [" x", "y "]]]),
], ids=["empty", "empty-block", "no-columns", "floats", "ints", "labels"])
def test_write_csv_bytes_equal_per_cell_writer_on_edge_tables(header, blocks):
    _assert_same_csv_bytes(header, blocks)


@pytest.mark.parametrize("block", [1, 2, 3])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_tables())
def test_write_csv_bytes_equal_per_cell_writer_across_blocks(block, table):
    """Small blocks split each table into many templated writes."""
    header, columns = table
    _assert_same_csv_bytes(header, _split(columns, block))


# --- the array pass against Python's formatter ------------------------------

_FLOAT_EDGES = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
    sys.float_info.max, -sys.float_info.max,
    1e11, 1e12, math.nextafter(1e11, 0.0), math.nextafter(1e12, 0.0),
    99999999999.5, 999999999999.5, 0.5, 2.5, 1e-4, 1e-5, 1e-297, 1e-296,
    1e16, 123456789012345678.0]


def _near_ten_power(k: int, ulps: int) -> float:
    """The double nearest 10**k, moved by ulps of its ulp."""
    ten = float(f"1e{k}")
    return ten + ulps * math.ulp(ten)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_FLOAT_EDGES),
    # the double nearest a 13-digit decimal ending in 5: a tie at the 12th
    # digit where it is exact (k + 0.5), and a near-tie elsewhere
    st.builds(lambda digits, e: float(f"{digits}5e{e}"),
              st.integers(10**11, 10**12 - 1), st.integers(-300, 290)),
    # a power of ten and its neighbours within three ulps
    st.builds(_near_ten_power, st.integers(-320, 308), st.integers(-3, 3)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_FLOATS, min_size=1, max_size=40),
       st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40))
@example(_FLOAT_EDGES, [-2**63, 2**63 - 1, 0, -1, 9999, 10000, -10**18])
def test_number_text_equals_python_formatting(floats, ints):
    """_number_text, the array pass, writes each float64 as "%.12g" % x
    and each int64 as "%d" % v: nan, infinities, -0.0, subnormals, the
    largest floats, powers of ten and their neighbours, and ties and
    near-ties at the 12th digit among the floats, and the whole int64
    range."""
    assert cli._number_text([np.array(floats)]) == "".join(
        "%.12g\r\n" % x for x in floats)
    assert cli._number_text([np.array(ints, np.int64)]) == "".join(
        "%d\r\n" % v for v in ints)


@st.composite
def _long_tables(draw):
    """A table long enough to reach the array pass: int64 and float64
    columns drawn from a seed, each at a drawn scale, the floats with edge
    values at drawn rows, and maybe a column of drawn labels."""
    n = draw(st.integers(cli._ARRAY_ROWS, cli._ARRAY_ROWS + 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            high = 10 ** draw(st.integers(1, 18))
            columns.append(rng.integers(-high, high, n))
            continue
        column = rng.normal(size=n) * 10.0 ** draw(st.integers(-30, 30))
        for row in draw(st.lists(st.integers(0, n - 1), max_size=8)):
            column[row] = draw(st.sampled_from(_FLOAT_EDGES))
        columns.append(column)
    if draw(st.booleans()):
        labels = draw(st.lists(_LABELS, min_size=1, max_size=3))
        columns.insert(draw(st.integers(0, len(columns))),
                       [labels[i % len(labels)] for i in range(n)])
    return [f"c{j}" for j in range(len(columns))], columns


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_long_tables(), st.booleans())
def test_write_csv_bytes_equal_per_cell_writer_on_long_blocks(table, whole):
    """A block of number columns with at least _ARRAY_ROWS rows takes the
    array pass, and a shorter one or one with a label column the
    template; either way the table is what per-cell csv.writer rows
    write. The table goes as one block, or as one block of _ARRAY_ROWS
    rows and the rest."""
    header, columns = table
    _assert_same_csv_bytes(header, _split(
        columns, len(columns[0]) if whole else cli._ARRAY_ROWS))


@pytest.mark.parametrize("rows", [1, cli._ARRAY_ROWS],
                         ids=["template", "array-pass"])
@pytest.mark.parametrize("dtype", [
    np.float32, np.float16, np.int8, np.int32, np.uint64, np.bool_,
    np.complex128, object, "U3",
], ids=["float32", "float16", "int8", "int32", "uint64", "bool",
        "complex128", "object", "str"])
def test_write_csv_raises_the_format_lookup_for_a_column_of_another_dtype(
        dtype, rows):
    """A column of a dtype with no format in _FORMATS raises the KeyError
    of the format lookup. The lookup runs before the array-pass test, so
    under main's float policy a long block of such a column never reaches
    _number_text."""
    blocks = [[np.arange(rows, dtype=np.int64),
               np.full(rows, 0.5).astype(dtype)]]
    with np.errstate(over="raise", invalid="raise", divide="raise"), \
            pytest.raises(KeyError):
        _csv_text(["index", "value"], iter(blocks))


@pytest.mark.parametrize("error", [
    FloatingPointError, OverflowError, ZeroDivisionError, ValueError,
    np.linalg.LinAlgError, RuntimeError,
], ids=lambda error: error.__name__)
def test_main_exits_3_on_a_numerical_failure_while_the_table_streams(
        tmp_path, capsys, error):
    """A float error, RuntimeError or ValueError raised while a block of
    the table is read exits 3 with its message and no traceback, and
    leaves no --out behind."""
    def blocks():
        yield [np.array([1.0])]
        raise error("the second block failed")

    def handler(cfg, bundle, seed):
        return "t.csv", ["x"], blocks(), {}
    out = tmp_path / "out"
    with mock.patch.dict(cli._HANDLERS, iv=handler):
        assert main(["iv", "--out", str(out)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == "numerical error: the second block failed\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("blocks, payload, error", [
    (iter([[np.array([1.0])], [np.array([2.0], np.float32)]]), {}, KeyError),
    ([[np.array([1.0])]], {"x": np.float64(math.inf)}, ValueError),
    ([[np.array([1.0])]], {"x": np.int64(7)}, TypeError),
], ids=["csv-cell", "json-non-finite", "json-np-int"])
def test_main_writes_no_file_for_a_cell_outside_the_writers_domain(
        tmp_path, blocks, payload, error):
    """A handler that hands over a cell the writers cannot render leaves
    nothing: main renders the JSON before it opens a file, and a CSV that
    fails mid-stream, here at the format lookup of a float32 column, is
    removed with the directory main made for it."""
    def handler(cfg, bundle, seed):
        return "t.csv", ["x"], blocks, payload
    out = tmp_path / "out"
    with mock.patch.dict(cli._HANDLERS, iv=handler), pytest.raises(error):
        main(["iv", "--out", str(out)])
    assert not out.exists()


def _third_block_fails(kind):
    """A handler whose lazy table fails in its third CSV block: a value
    column of a dtype outside the writer's domain, or a float error while
    the block is read."""
    def blocks():
        for b in range(3):
            index = np.arange(b * cli._CSV_BLOCK, (b + 1) * cli._CSV_BLOCK,
                              dtype=np.int64)
            value = np.full(cli._CSV_BLOCK, 0.5)
            if b == 2:
                if kind == "cell":
                    value = value.astype(np.float32)
                else:
                    np.float64(1.0) / np.float64(0.0)  # divide raises in main
            yield index, value

    def handler(cfg, bundle, seed):
        return "t.csv", ["index", "value"], blocks(), {"n": 1}
    return handler


def _listing(root):
    return sorted((str(path.relative_to(root)),
                   path.read_bytes() if path.is_file() else None)
                  for path in root.rglob("*"))


@pytest.mark.parametrize("kind", ["cell", "float"])
@pytest.mark.parametrize("place", ["new", "existing"])
def test_main_leaves_out_as_it_found_it_when_a_stream_fails(
        tmp_path, capsys, kind, place):
    """A CSV stream that fails in its third block leaves --out as it was:
    no CSV, no JSON, no .part file, the earlier outputs unchanged, and
    none of the directories main made. A float error there exits 3 with
    the handler's message; a float32 column raises the KeyError of its
    format lookup, before the block reaches the array pass."""
    out = tmp_path / "a" / "b" if place == "new" else tmp_path / "out"
    if place == "existing":
        out.mkdir()
        (out / "t.csv").write_text("old table\n")
        (out / "iv.json").write_text("old sidecar\n")
    before = _listing(tmp_path)
    with mock.patch.dict(cli._HANDLERS, iv=_third_block_fails(kind)):
        if kind == "cell":
            with pytest.raises(KeyError):
                main(["iv", "--out", str(out)])
        else:
            assert main(["iv", "--out", str(out)]) == EXIT_NUMERICAL
            err = capsys.readouterr().err
            assert err.startswith("numerical error: ") and "divide" in err
    assert _listing(tmp_path) == before
    assert "wrote" not in capsys.readouterr().out


@pytest.mark.parametrize("blocked", ["bench.json", "bench.csv",
                                     "bench.csv.part"])
def test_main_exits_1_when_a_file_cannot_be_written(tmp_path, capsys,
                                                    blocked):
    """A directory where main writes or renames a file is a usage error:
    exit 1 naming --out, no traceback, and no CSV, JSON or .part file of
    this run left behind."""
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    before = _listing(tmp_path)
    assert main(["bench", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: --out {out}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert _listing(tmp_path) == before
