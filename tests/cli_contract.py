"""The CLI contract: every ftjsim command run as a user runs it, in a fresh
interpreter under -W error, at its defaults and at the edges of the config.
From the repository root, with no options:

    PYTHONPATH=src python -W error tests/cli_contract.py

Each case prints "ok ..." per check, or an ::error:: line naming what
failed. Every case runs; the exit status is 1 if any failed. A case that
must fail checks its exit code, that stderr holds no traceback and, where
it says so, that --out was not made. The commands are listed here by
hand, not read from the package, so a command dropped from the parser
fails the contract.
"""

import csv
import io
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

from ftjsim.config import SimConfig, emit_config

COMMANDS = ("iv", "hysteresis", "scheme", "fitA", "cdf", "retention", "d2d",
            "scaling", "arrhenius", "xbar", "bench")
D2D_MAX, D2D_RSS_MIB = 1_000_000, 128
# iv's 200000-row bound as 50000 points at four temperatures; iv held as
# float64 arrays peaked at 41.2 MiB RSS there, and as row tuples at 73.3
IV_POINTS, IV_TEMPS, IV_RSS_MIB = 50_000, 4, 56
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"),
     *filter(None, [os.environ.get("PYTHONPATH")])]))


# A bare interpreter that spawns the command, waits for it with os.wait4
# and writes "<exit code> <ru_maxrss in KiB>" to the descriptor named by
# its first argument. A child's ru_maxrss starts from the memory it was
# spawned from; this one is spawned from the launcher's, not from this
# process's, which has numpy loaded and grows with the cases.
_LAUNCHER = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[2:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]),
         b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


class Run:
    """One finished `python -W error -m ftjsim.cli ...` process: its exit
    code, stdout, stderr and peak RSS in MiB. The process is started by
    _LAUNCHER, which reads its own ru_maxrss, so the peak is the
    command's wherever the case runs."""

    def __init__(self, *args):
        with (tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err,
              tempfile.TemporaryFile() as report):
            subprocess.run(
                [sys.executable, "-c", _LAUNCHER, str(report.fileno()),
                 "-W", "error", "-m", "ftjsim.cli", *args],
                stdout=out, stderr=err, env=ENV, pass_fds=[report.fileno()],
                check=True)
            report.seek(0)
            self.code, maxrss_kib = map(int, report.read().split())
            self.rss_mib = maxrss_kib / 1024
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode("utf-8", "replace")
            self.stderr = err.read().decode("utf-8", "replace")

    def last_line(self) -> str:
        lines = self.stderr.strip().splitlines()
        return lines[-1] if lines else ""


def _check(ok: bool, good: str, bad: str) -> bool:
    print(f"ok {good}" if ok else f"::error::{bad}")
    return ok


def _fails_cleanly(run: Run, want: int, out: Path | None = None) -> bool:
    """The run exited `want` with no traceback, and made no `out`."""
    return (run.code == want and "Traceback" not in run.stderr
            and (out is None or not out.exists()))


def _write(tmp: Path, name: str, text: str | bytes) -> str:
    path = tmp / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return str(path)


def _lines(path: Path) -> int:
    """The line count of a file, read in 1 MiB chunks."""
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines


def commands(tmp: Path) -> bool:
    """Every command exits 0 at its defaults and from the emitted default
    config read back through the parser; xbar also at the network solve's
    cap, 64 x 64 and 1 x 64 lines. A film of 0.001 nm and a temperature of
    0.05 K each take calibration past float range: every command exits 3.
    Each run that passed leaves one CSV, which csv.reader reads back and
    csv.writer writes again to the same bytes, every row with the header's
    field count, so no unquoted label would have needed quoting."""
    ok = True
    default = _write(tmp, "default.ini", emit_config(SimConfig()))
    limits = {"thin": _write(tmp, "thin.ini", "[device]\nd_fe_nm = 0.001\n"),
              "cold": _write(tmp, "cold.ini", "[device]\nt_kelvin = 0.05\n")}
    written = []
    for cmd in COMMANDS:
        for tag, extra in (("defaults", ()), ("config", ("--config", default))):
            out = tmp / f"{tag}-{cmd}"
            run = Run(cmd, *extra, "--out", str(out), "--seed", "0")
            if _check(run.code == 0, f"{cmd} ({tag})",
                      f"ftjsim {cmd} ({tag}) failed under -W error: "
                      f"{run.last_line()}"):
                written.append(out)
            else:
                ok = False
        for name, ini in limits.items():
            run = Run(cmd, "--config", ini, "--out", str(tmp / f"{name}-{cmd}"),
                      "--seed", "0")
            ok &= _check(_fails_cleanly(run, 3), f"{cmd} {name} exits 3",
                         f"ftjsim {cmd} with {name}.ini exited {run.code}: "
                         f"{run.last_line()}")
    for shape, (rows, cols) in {"cap": (64, 64), "row": (1, 64)}.items():
        ini = _write(tmp, f"{shape}.ini", f"[xbar]\nn_rows = {rows}\nn_cols = {cols}\n")
        out = tmp / f"{shape}-xbar"
        run = Run("xbar", "--config", ini, "--out", str(out), "--seed", "0")
        if _check(run.code == 0, f"xbar at {rows} x {cols}",
                  f"ftjsim xbar at {rows} x {cols} failed under -W error: "
                  f"{run.last_line()}"):
            written.append(out)
        else:
            ok = False
    for out in written:
        found = sorted(out.glob("*.csv"))
        if not _check(len(found) == 1, f"{out.name} holds one CSV",
                      f"{out}: expected one CSV, found {len(found)}"):
            ok = False
            continue
        data = found[0].read_bytes()
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        again = io.StringIO(newline="")
        csv.writer(again).writerows(rows)
        where = f"{out.name}/{found[0].name}"
        ok &= _check({len(row) for row in rows} == {len(rows[0])},
                     f"{where}: {len(rows)} rows of the header's width",
                     f"{where}: rows differ from the header's field count")
        ok &= _check(again.getvalue().encode("utf-8") == data,
                     f"{where} round-trips through csv.writer",
                     f"{where}: csv.writer re-writes it to other bytes")
    return ok


def out_names_a_file(tmp: Path) -> bool:
    """An --out that names an existing file is a usage error: exit 1, no
    traceback, and the file is left as it was."""
    path = Path(_write(tmp, "file.txt", "keep\n"))
    run = Run("iv", "--out", str(path), "--seed", "0")
    return _check(_fails_cleanly(run, 1) and path.read_text() == "keep\n",
                  "--out naming a file exits 1",
                  f"ftjsim iv --out <file> exited {run.code}: {run.last_line()}")


def config_limits(tmp: Path) -> bool:
    """Values past a limit that parsing finds exit 2, with no traceback and
    no --out: a hysteresis loop grid over its point limit (step_v = 1e-7),
    an [iv] state_w outside [0, 1] and an [xbar] n_rows over the network
    solve's cap. A selection target of 2.0001, which no eps_r <= 1e4
    reaches, exits 3 the same way."""
    ok = True
    for cmd, name, text, want in (
            ("hysteresis", "step_v", "[hysteresis]\nstep_v = 1e-7\n", 2),
            ("iv", "state_w", "[iv]\nstate_w = 2\n", 2),
            ("xbar", "n_rows", "[xbar]\nn_rows = 100\n", 2),
            ("bench", "selection", "[device]\nselection = 2.0001\n", 3)):
        out = tmp / f"{name}-{cmd}"
        run = Run(cmd, "--config", _write(tmp, f"{name}.ini", text),
                  "--out", str(out), "--seed", "0")
        ok &= _check(_fails_cleanly(run, want, out),
                     f"{cmd} with {name}.ini exits {want}",
                     f"ftjsim {cmd} with {name}.ini exited {run.code}, "
                     f"expected {want}: {run.last_line()}")
    return ok


def d2d_fails_while_streaming(tmp: Path) -> bool:
    """[variation] sigma_d2d = 200 draws an offset whose state multiplier
    overflows. d2d reads each block only as main writes it, so the first
    block's read fails while the table streams: exit 3 naming the offset
    as outside float range, no traceback, and no --out."""
    out = tmp / "wide-d2d"
    run = Run("d2d", "--config",
              _write(tmp, "wide.ini", "[variation]\nsigma_d2d = 200\n"),
              "--out", str(out), "--seed", "0")
    return _check(_fails_cleanly(run, 3, out)
                  and "is outside float range" in run.last_line(),
                  "d2d with sigma_d2d = 200 exits 3 while it streams",
                  f"ftjsim d2d with wide.ini exited {run.code}: "
                  f"{run.last_line()}")


def comment(tmp: Path) -> bool:
    """A value followed by a ';' comment that holds a '#' parses:
    n_points = 5 ; five # points gives iv.csv a header and 5 rows."""
    out = tmp / "comment-iv"
    run = Run("iv", "--config",
              _write(tmp, "comment.ini", "[iv]\nn_points = 5 ; five # points\n"),
              "--out", str(out), "--seed", "0")
    table = out / "iv.csv"
    lines = table.read_bytes().count(b"\n") if table.is_file() else -1
    return _check(_fails_cleanly(run, 0) and lines == 6,
                  "iv with a '; ... #' comment writes 5 rows",
                  f"ftjsim iv with comment.ini exited {run.code}, "
                  f"{lines} lines: {run.last_line()}")


def help_lists_commands(tmp: Path) -> bool:
    """ftjsim --help exits 0 and names all 11 commands."""
    run = Run("--help")
    words = set(run.stdout.replace(",", " ").split())
    missing = [cmd for cmd in COMMANDS if cmd not in words]
    return _check(run.code == 0 and not missing,
                  "--help exits 0 and lists the 11 commands",
                  f"ftjsim --help exited {run.code}, missing: {missing}")


def bad_seed_and_encoding(tmp: Path) -> bool:
    """A --seed of -1 is a usage error (exit 1) and a config file that is
    not UTF-8 a config error (exit 2): no traceback, no --out."""
    bad = _write(tmp, "bad.ini", b"[device]\nr_on_ohms = 1e8 \xff\n")
    ok = True
    for name, want, flag, value in (("seed", 1, "--seed", "-1"),
                                    ("utf8", 2, "--config", bad)):
        out = tmp / f"{name}-iv"
        run = Run("iv", flag, value, "--out", str(out))
        ok &= _check(_fails_cleanly(run, want, out),
                     f"iv {flag} {Path(value).name} exits {want}",
                     f"ftjsim iv {flag} {value} exited {run.code}, expected "
                     f"{want}: {run.last_line()}")
    return ok


def d2d_at_the_maximum(tmp: Path) -> bool:
    """[d2d] n_devices = 1000000, the largest population the config
    accepts: d2d streams its table in fixed blocks and only its float64
    offsets grow with n_devices, so it exits 0, writes a header and
    1000000 rows, and peaks at no more than 128 MiB RSS."""
    out = tmp / "max-d2d"
    ini = _write(tmp, "max.ini", f"[d2d]\nn_devices = {D2D_MAX}\n")
    run = Run("d2d", "--config", ini, "--out", str(out), "--seed", "0")
    lines = _lines(out / "d2d.csv") if run.code == 0 else 0
    print(f"d2d at {D2D_MAX} devices: exit {run.code}, {lines} lines, "
          f"peak RSS {run.rss_mib:.1f} MiB")
    return (_check(run.code == 0 and lines == D2D_MAX + 1,
                   f"d2d writes {D2D_MAX} rows",
                   f"d2d at {D2D_MAX} devices exited {run.code} with "
                   f"{lines} lines: {run.last_line()}")
            & _check(run.rss_mib <= D2D_RSS_MIB,
                     f"d2d peaks under {D2D_RSS_MIB} MiB",
                     f"d2d at {D2D_MAX} devices peaked at {run.rss_mib:.1f} "
                     f"MiB RSS, over {D2D_RSS_MIB} MiB"))


def iv_at_the_maximum(tmp: Path) -> bool:
    """[iv] n_points = 50000 over four temperatures, the 200000 rows the
    config accepts: iv holds each temperature's currents as one float64
    array and hands main its table in fixed blocks, so it exits 0, writes
    a header and 200000 rows, and peaks at no more than 56 MiB RSS."""
    rows = IV_POINTS * IV_TEMPS
    out = tmp / "max-iv"
    ini = _write(tmp, "max.ini", f"[iv]\nn_points = {IV_POINTS}\n"
                 "t_list_k = 250, 300, 350, 400\n")
    run = Run("iv", "--config", ini, "--out", str(out), "--seed", "0")
    lines = _lines(out / "iv.csv") if run.code == 0 else 0
    print(f"iv at {rows} rows: exit {run.code}, {lines} lines, "
          f"peak RSS {run.rss_mib:.1f} MiB")
    return (_check(run.code == 0 and lines == rows + 1,
                   f"iv writes {rows} rows",
                   f"iv at {rows} rows exited {run.code} with {lines} "
                   f"lines: {run.last_line()}")
            & _check(run.rss_mib <= IV_RSS_MIB,
                     f"iv peaks under {IV_RSS_MIB} MiB",
                     f"iv at {rows} rows peaked at {run.rss_mib:.1f} MiB "
                     f"RSS, over {IV_RSS_MIB} MiB"))


CASES = (commands, d2d_at_the_maximum, iv_at_the_maximum, out_names_a_file,
         config_limits, d2d_fails_while_streaming, comment,
         help_lists_commands, bad_seed_and_encoding)


def main():
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            print(f"--- {case.__name__}")
            where = Path(tmp) / case.__name__
            where.mkdir()
            try:
                ok = case(where)
            except Exception:
                traceback.print_exc(file=sys.stdout)
                ok = False
            if not ok:
                print(f"::error::the {case.__name__} case failed")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
