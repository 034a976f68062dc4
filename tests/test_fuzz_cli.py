"""Generated net documents through every file subcommand: a document that
parses gets an answer (exit 0, 1 or 3), one that does not an input error
(exit 2), and neither a traceback; every JSON answer is exactly what
``json.dumps(indent=2)`` writes; serializing a parsed document is a
fixpoint.  The documents are small and include transitions with an empty
preset or postset and nets with no initial token.  Text outside the
grammar comes from token-level mutations of these documents and from bytes
that are not UTF-8."""

import contextlib
import io
import json
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


# replacements for a token: bad identifiers, keywords out of place, numbers
JUNK = ["9p", "p-1", "p\u00e9", "p.q", "_", "->", "#", "net", "place", "trans", "arc",
        "init", "0", "007", "1000001", "p0", "t0"]
# control and separator characters, each inside or next to a token
CONTROL = ["\x00", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x7f", "\x85", "\u2028", "\ufeff"]


@st.composite
def mutated_documents(draw):
    """A generated document with one to three token-level faults: a token
    dropped, repeated, swapped with one of any line or replaced, a stray
    "->" or "#", or a control character inside or next to a token."""
    lines = [line.split(" ") for line in draw(documents()).split("\n")]
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(rng.choice([1, 1, 2, 3])):
        tokens = rng.choice(lines)
        i = rng.randrange(len(tokens))
        fault = rng.choice(["drop", "repeat", "swap", "replace", "stray", "control"])
        if fault == "drop":
            del tokens[i]
            if not tokens:
                tokens.append("")
        elif fault == "repeat":
            tokens.insert(i, tokens[i])
        elif fault == "swap":
            other = rng.choice(lines)
            j = rng.randrange(len(other))
            tokens[i], other[j] = other[j], tokens[i]
        elif fault == "replace":
            tokens[i] = rng.choice(JUNK)
        elif fault == "stray":
            tokens.insert(i + rng.randint(0, 1), rng.choice(["->", "#"]))
        else:
            cut = rng.randint(0, len(tokens[i]))
            tokens[i] = tokens[i][:cut] + rng.choice(CONTROL) + tokens[i][cut:]
    return "\n".join(" ".join(tokens) for tokens in lines)


def expected_codes(data: bytes):
    """Exit 2 exactly when the bytes are not UTF-8 or ``parse_net`` raises."""
    try:
        parse_net(data.decode("utf-8"))
    except (UnicodeDecodeError, ParseError):
        return {2}
    return {0, 1, 3}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if argv[-1] == "json" and code in (0, 1, 3):
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", (argv, text)
    return code


def run_file_commands(text, fmt):
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.net")
        with open(path, "wb") as fh:
            fh.write(data)
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


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example(text="net n # a\x0cb\nplace p init 1\ntrans t\narc p -> t\n", fmt="text")
@example(text="net n\nplace p init 1\ntrans t\narc p -> -> t\n", fmt="json")
@given(text=mutated_documents(), fmt=st.sampled_from(["text", "json"]))
def test_text_outside_the_grammar_gets_an_answer_or_exit_2(text, fmt):
    expected = expected_codes(text.encode("utf-8"))
    codes = run_file_commands(text, fmt)
    assert set(codes.values()) <= expected, (text, codes)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=documents(), at=st.integers(0, 10 ** 4),
       junk=st.one_of(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90"]),
                      st.binary(min_size=1, max_size=3)))
def test_bytes_that_are_not_utf8_exit_2(text, at, junk):
    data = text.encode("utf-8")
    at %= len(data) + 1
    data = data[:at] + junk + data[at:]
    codes = run_file_commands(data, "json")
    assert set(codes.values()) <= expected_codes(data), (data, codes)


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
