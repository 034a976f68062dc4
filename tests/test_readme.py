"""README's examples run as written: the library quick start, with
warnings as errors, prints what its comments state, and the ``lucency``
examples print their lines with the documented exit codes."""

import os
import re
import subprocess
import sys
from pathlib import Path

from lucentnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_library_quick_start_prints_what_its_comments_state():
    section = README.split("\n## Library quick start\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    want = ["True", "['{p5, p6, t3}', '{p7, p8, t7, t8}']", "[p2, p5] [p2, p6] ('t3',)"]
    assert run.stdout.splitlines() == want
    for line in want:
        assert f"# {line}\n" in code


def test_lucency_examples_print_their_lines(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    examples = re.findall(r"^\$ lucentnet (lucency \S+)\n(.+)$", README, re.M)
    codes = []
    for command, line in examples:
        codes.append(main(command.split()))
        assert capsys.readouterr().out == line + "\n"
    assert codes == [0, 1]
