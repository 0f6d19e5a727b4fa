"""Byte identity of every CLI output against a checked-in manifest.

cli_golden_sha256.json holds the SHA-256 of the CSV table and the JSON
sidecar each of the 11 commands writes at seeds 0-3 under the default
config: 88 files, keyed "<seed>/<command>/<file>". The test regenerates
them in a temporary directory and compares. A change that moves output
bits on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and says why in CHANGES.md.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from ftjsim import cli

MANIFEST = Path(__file__).with_name("cli_golden_sha256.json")
SEEDS = range(4)


def _digests(out: Path) -> dict:
    digests = {}
    for seed in SEEDS:
        for command in cli._HANDLERS:
            where = out / f"{seed}-{command}"
            with redirect_stdout(io.StringIO()):
                code = cli.main([command, "--out", str(where),
                                 "--seed", str(seed)])
            assert code == cli.EXIT_OK, f"{command} at seed {seed} exited {code}"
            for path in sorted(where.iterdir()):
                digests[f"{seed}/{command}/{path.name}"] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_cli_outputs_equal_the_golden_manifest(tmp_path):
    golden = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert len(golden) == 2 * len(SEEDS) * len(cli._HANDLERS) == 88
    got = _digests(tmp_path)
    assert sorted(got) == sorted(golden)
    assert [key for key in golden if got[key] != golden[key]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as out:
        text = json.dumps(_digests(Path(out)), indent=1, sort_keys=True)
    MANIFEST.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
