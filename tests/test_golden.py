"""Byte-identical outputs against golden files.

The files under ``tests/golden/`` hold the JSON output and exit code of
every file subcommand on the reference nets, two seeded ``paper-suite``
runs (one under a cap that truncates the reference nets), a digest of
the serialized random suite nets, and a digest of the exit code and JSON
output of ``paper-suite --random 30`` for seeds 0..99, at the default cap
and at ``--max-states 4``.  A refactor that changes none of the program's
behaviour leaves them all untouched.

Regenerate them (only for an intended change of output) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from lucentnet import document_of, serialize_net, suite_nets
from lucentnet.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = GOLDEN / "exit-codes.json"
SUITE_DIGEST = GOLDEN / "suite-nets-500-seed0.sha256"
SEEDS_DIGEST = GOLDEN / "paper-suite-random30-seeds0-99.sha256"

COMMANDS = ("analyze", "lucency", "home-clusters", "reach")
NETS = ("n1", "n2", "n3", "n4", "n5")


def cases():
    """(golden file name, argv) for every captured CLI run."""
    out = []
    for cmd in COMMANDS:
        for ident in NETS:
            out.append((f"{cmd}-{ident}.json",
                        [cmd, str(ROOT / "corpus" / f"{ident}.net"), "--format", "json"]))
    for method in ("direct", "short-circuit"):
        for ident in NETS:
            out.append((f"home-clusters-{method}-{ident}.json",
                        ["home-clusters", str(ROOT / "corpus" / f"{ident}.net"),
                         "--method", method, "--format", "json"]))
    out.append(("paper-suite-random200-seed7.json",
                ["paper-suite", "--random", "200", "--seed", "7", "--format", "json"]))
    out.append(("paper-suite-random30-seed0-cap4.json",  # reference nets cut short
                ["paper-suite", "--random", "30", "--seed", "0", "--max-states", "4",
                 "--format", "json"]))
    return out


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def suite_digest() -> str:
    h = hashlib.sha256()
    for name, net, m0 in suite_nets(random_count=500, seed=0):
        h.update(serialize_net(document_of(name, net, m0)).encode())
    return h.hexdigest() + "\n"


def seeds_digest() -> str:
    """One hash over ``paper-suite --random 30`` for seeds 0..99, two caps."""
    h = hashlib.sha256()
    for cap in ([], ["--max-states", "4"]):
        for seed in range(100):
            rc, out = run_cli(["paper-suite", "--random", "30", "--seed", str(seed),
                               "--format", "json", *cap])
            h.update(f"{rc}\n".encode())
            h.update(out.encode())
    return h.hexdigest() + "\n"


def test_cli_outputs_match_golden():
    codes = json.loads(EXIT_CODES.read_text())
    for fname, argv in cases():
        rc, out = run_cli(argv)
        assert rc == codes[fname], fname
        assert out == (GOLDEN / fname).read_text(), fname


def test_suite_nets_match_golden():
    assert suite_digest() == SUITE_DIGEST.read_text()


def test_paper_suite_seeds_match_golden():
    assert seeds_digest() == SEEDS_DIGEST.read_text()


def write():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for fname, argv in cases():
        codes[fname], out = run_cli(argv)
        (GOLDEN / fname).write_text(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    SUITE_DIGEST.write_text(suite_digest())
    SEEDS_DIGEST.write_text(seeds_digest())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    write()
