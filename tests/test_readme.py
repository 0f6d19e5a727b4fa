"""README.md is the user contract. These tests read it and check it against
the package: every command with the files it writes, every config section
and key with its default and limit, the count bounds, the exit codes, the
public API by module, and that its example config and command lines run
through the real parsers. The README names no private name and no
machine: design notes live in the module docstrings and timings in the
benchmark.
"""

import json
import re
import shlex
import types
from pathlib import Path

import pytest

import ftjsim
from ftjsim import cli, config, crossbar
from ftjsim.config import SimConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
MANIFEST = Path(__file__).with_name("cli_golden_sha256.json")
MODULES = ("conduction", "config", "crossbar", "device", "extraction",
           "inference")


def _section(title: str) -> str:
    """The text under '## title', up to the next '## ' heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", TEXT,
                      re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def _table(text: str, header: list[str]) -> list[list[str]]:
    """The body rows of the table in text whose header row is header, as
    lists of stripped cells with their backticks removed."""
    lines = text.splitlines()
    head = "| " + " | ".join(header) + " |"
    assert head in lines, f"no table headed {head}"
    rows = []
    for line in lines[lines.index(head) + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip().replace("`", "") for c in line.strip("|").split("|")]
        assert len(cells) == len(header), line
        rows.append(cells)
    return rows


def _config_rows() -> list[tuple[str, str, str, str]]:
    """(section, key, default, limit) per row of the config table; a row
    with an empty section cell continues the section above it."""
    rows, section = [], None
    for sec, key, default, limit in _table(_section("Config"),
                                           ["Section", "Key", "Default", "Limit"]):
        section = sec.strip("[]") or section
        rows.append((section, key, default, limit))
    return rows


def _fenced() -> list[tuple[str, str]]:
    """(info string, text) of each fenced code block, in order."""
    blocks, info, body = [], None, []
    for line in TEXT.splitlines():
        if line.startswith("```"):
            if info is None:
                info, body = line[3:].strip(), []
            else:
                blocks.append((info, "".join(body)))
                info = None
        elif info is not None:
            body.append(line + "\n")
    assert info is None, "README has an unclosed code block"
    return blocks


def _names_number(cell: str, n: int) -> bool:
    return re.search(rf"(?<![\d.]){n}(?![\d.])", cell) is not None


def test_readme_is_short():
    assert len(TEXT.splitlines()) <= 250


def test_readme_names_no_private_name_and_no_machine():
    assert re.findall(r"(?<!\w)_[A-Za-z]\w*", TEXT) == []
    assert [w for w in ("vCPU", "x86_64", "MiB") if w in TEXT] == []


def test_readme_lists_every_command_with_its_files():
    golden = json.loads(MANIFEST.read_text(encoding="utf-8"))
    files = {}
    for key in golden:
        seed, command, name = key.split("/")
        if seed == "0":
            files.setdefault(command, set()).add(name)
    rows = _table(_section("Commands"), ["Command", "Files", "What it reproduces"])
    assert [row[0] for row in rows] == list(cli._HANDLERS)
    for command, listed, claim in rows:
        assert set(listed.split(", ")) == files[command], command
        assert claim, command


def test_readme_lists_every_config_key_with_its_default_and_limit():
    rows = _config_rows()
    assert [(s, k) for s, k, _, _ in rows] == [
        (section, key) for section, (_, _, keys) in config._SCHEMA.items()
        for key in keys]
    defaults = SimConfig()
    for section, key, default, limit in rows:
        attr = config._SCHEMA[section][0]
        cfg = parse_config(f"[{section}]\n{key} = {default}\n")
        assert getattr(getattr(cfg, attr), key) == \
            getattr(getattr(defaults, attr), key), (section, key, default)
        assert limit, (section, key)


def test_readme_names_every_count_bound():
    limits = {(s, k): limit for s, k, _, limit in _config_rows()}
    for section, what, _, bound in config._COUNT_LIMITS:
        cell = limits[section, re.match(r"\w+", what).group()]
        assert _names_number(cell, bound), (section, what, bound)
        assert what in cell or re.fullmatch(r"\w+", what), (section, what)
    assert any(_names_number(limit, config._LOOP_POINT_LIMIT)
               for (s, _), limit in limits.items() if s == "hysteresis")
    for key in ("n_rows", "n_cols"):
        cell = limits["xbar", key]
        assert _names_number(cell, crossbar.MAX_SOLVE_DIM), key
        assert "MAX_SOLVE_DIM" in cell, key


def test_readme_lists_the_exit_codes():
    rows = _table(_section("Exit codes"), ["Code", "Meaning"])
    assert [int(code) for code, _ in rows] == [
        cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL] \
        == [0, 1, 2, 3]
    assert all(meaning for _, meaning in rows)


def test_readme_lists_the_public_api_by_module():
    text = _section("Public API")
    bullets = dict(re.findall(r"^- `ftjsim\.(\w+)`:(.*?)(?=^- |^\n|\Z)",
                              text, re.M | re.S))
    assert sorted(bullets) == sorted(MODULES)
    public = {n for n in dir(ftjsim) if not n.startswith("_")
              and not isinstance(getattr(ftjsim, n), types.ModuleType)}
    listed = set()
    for module in MODULES:
        names = getattr(ftjsim, module).__all__
        named = set(re.findall(r"`(\w+)`", bullets[module]))
        assert [n for n in names if n not in named] == [], module
        assert [n for n in names if not hasattr(ftjsim, n)] == [], module
        listed |= set(names)
    assert public - listed == set()


def test_readme_ini_examples_parse():
    blocks = [text for info, text in _fenced() if info == "ini"]
    assert blocks
    for block in blocks:
        parse_config(block, source="README.md")


def test_readme_command_lines_parse():
    lines = [line for info, text in _fenced() if info != "ini"
             for line in text.splitlines()
             if line.split()[:1] == ["ftjsim"]]
    assert lines
    parser = cli._build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except cli._UsageError as exc:
            pytest.fail(f"{line!r}: {exc}")
        assert (args.command_flag or args.command_pos) in cli._HANDLERS, line
