"""Generated net documents through every file subcommand: a document that
parses gets an answer (exit 0, 1 or 3), one that does not an input error
(exit 2), and neither a traceback; serializing a parsed document is a
fixpoint.  The documents are small and include transitions with an empty
preset or postset and nets with no initial token."""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lucentnet import ParseError, parse_net, run_theorem_suite, serialize_net
from lucentnet.cli import main

FILE_COMMANDS = (["analyze"], ["lucency"], ["reach"],
                 ["home-clusters", "--method", "direct"],
                 ["home-clusters", "--method", "short-circuit"],
                 ["home-clusters", "--method", "both"])

PLACELESS = "net src\nplace p\ntrans t\narc t -> p\n"


@st.composite
def documents(draw):
    places = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    transitions = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    pairs = ([(p, t) for p in places for t in transitions]
             + [(t, p) for t in transitions for p in places])
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    lines = ["net fuzz"]
    for p in places:
        tokens = draw(st.sampled_from([0, 0, 0, 1, 1, 2]))
        lines.append(f"place {p} init {tokens}" if tokens else f"place {p}")
    lines += [f"trans {t}" for t in transitions]
    lines += [f"arc {a} -> {b}" for a, b in arcs]
    return "\n".join(lines) + "\n"


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def run_file_commands(text, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.net")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return {" ".join(cmd): run_cli(cmd[:1] + [path] + cmd[1:] +
                                       ["--max-states", "64", "--format", fmt])
                for cmd in FILE_COMMANDS}


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example(text=PLACELESS, fmt="text")
@given(text=documents(), fmt=st.sampled_from(["text", "json"]))
def test_every_parsed_document_gets_an_answer(text, fmt):
    try:
        normal = serialize_net(parse_net(text))
        assert serialize_net(parse_net(normal)) == normal
        answers = {0, 1, 3}
    except ParseError:
        answers = {2}  # not a valid net: an input error
    codes = run_file_commands(text, fmt)
    assert set(codes.values()) <= answers, (text, codes)


def test_placeless_cluster_on_empty_marking():
    # t has an empty preset, so its cluster {t} has no places; with no
    # initial token the short-circuiting transition would have no arcs
    codes = run_file_commands(PLACELESS, "json")
    assert codes["analyze"] == 0
    assert codes["home-clusters --method both"] == 3
    assert codes["home-clusters --method short-circuit"] == 3
    net, m0 = parse_net(PLACELESS).to_net()
    report = run_theorem_suite([("src", net, m0)])
    assert report.ok and report.nets == 1
