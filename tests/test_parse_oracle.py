"""``parse_net`` and the ``PetriNet`` constructor against the item-by-item
oracle in ``parse_oracle``: for every input both give the same document
and net, or the same exception and message (and, for a ``ParseError``, the
same line)."""

import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lucentnet import (NetDocument, NetStructureError, ParseError, PetriNet, document_of,
                       parse_net, serialize_net)
from lucentnet.net import is_identifier
import parse_oracle
from test_derived_ring import by_node
from test_fast_short_circuit import forkjoin, ring
from test_fuzz_cli import documents, mutated_documents
from test_packed_explore import chain

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def outcome(call, *args):
    try:
        out = call(*args)
    except Exception as exc:  # the oracle says which exceptions are right
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(out, PetriNet):
        return out.places, out.transitions, out.flow, by_node(out._pre), by_node(out._post)
    if isinstance(out, NetDocument):  # equality covers every field
        return out, out.name, out.places, out.transitions, out.arcs
    return out


def assert_parses_alike(text):
    got = outcome(parse_net, text)
    assert got == outcome(parse_oracle.parse_net, text), text
    doc = got[0]
    if isinstance(doc, NetDocument):  # the net built while parsing, too
        net, _ = doc.to_net()
        args = ([p for p, _ in doc.places], doc.transitions, doc.arcs)
        assert outcome(lambda: net) == outcome(parse_oracle.check_net, *args)
    return got


def assert_builds_alike(places, transitions, arcs):
    got = outcome(PetriNet, list(places), list(transitions), list(arcs))
    assert got == outcome(parse_oracle.check_net, list(places), list(transitions), list(arcs))
    return got


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.net")), ids=lambda p: p.stem)
def test_corpus_files(path):
    assert isinstance(assert_parses_alike(path.read_text(encoding="utf-8"))[0], NetDocument)


def scrambled(net, m0, rng, whole):
    """The net's text with its declarations and arcs shuffled (with
    ``whole``, all statements together, so arcs may come before their
    endpoints), and comments, blank lines and CRLF endings thrown in."""
    head, *body = serialize_net(document_of("family", net, m0)).split("\n")[:-1]
    if whole:
        rng.shuffle(body)
    else:
        decls = [line for line in body if not line.startswith("arc ")]
        arcs = body[len(decls):]
        rng.shuffle(decls)
        rng.shuffle(arcs)
        body = decls + arcs
    lines = [head]
    for line in body:
        decoration = rng.choice(["", "", "", " # note", "\r", "\t"])
        lines.append(line + decoration)
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "# comment", "   "]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("whole", [False, True])
def test_shuffled_families(whole):
    rng = random.Random(2029)
    nets = ([chain(n) for n in (1, 2, 7, 60)] + [ring(n) for n in (2, 3, 9, 40)]
            + [forkjoin(k) for k in (1, 2, 5, 12)])
    outcomes = set()
    for net, m0 in nets:
        for _ in range(8):
            got = assert_parses_alike(scrambled(net, m0, rng, whole))
            outcomes.add(got[0] if got[0] is ParseError else NetDocument)
    # arcs shuffled ahead of their endpoints do not parse
    assert outcomes == ({ParseError} if whole else {NetDocument})


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(documents(), mutated_documents()))
def test_generated_documents(text):
    assert_parses_alike(text)


BAD = [
    # names that are not identifiers, one "\n" inside a name included
    (["p", 1], ["t"], [("p", "t")]),
    ([None], ["t"], []),
    (["p"], [b"t"], [("p", "t")]),
    (["p\nq"], ["t"], [("p\nq", "t")]),
    (["p", "q\n"], ["t"], [("p", "t")]),
    (["\np"], ["t"], []),
    (["p"], ["t\n"], []),
    (["p", ""], ["t"], []),
    (["p", "p q"], ["t"], []),
    (["p"], ["té"], []),
    (["p"], [["t"]], []),
    # empty sides, duplicates and overlap
    ([], ["t"], []),
    (["p"], [], []),
    ([], [], []),
    (["p", "p"], ["t"], [("p", "t")]),
    (["p"], ["t", "t"], [("p", "t")]),
    (["p", "t"], ["t"], [("p", "t")]),
    # arcs: repeated, unknown endpoints, within a kind, not pairs
    (["p"], ["t"], [("p", "t"), ("p", "t")]),
    (["p"], ["t"], [("p", "u")]),
    (["p"], ["t"], [("u", "t")]),
    (["p"], ["t"], [(1, "t")]),
    (["p", "q"], ["t"], [("p", "t"), ("p", "q")]),
    (["p"], ["t", "u"], [("p", "t"), ("t", "u")]),
    (["p"], ["t"], [("p", "t", "p")]),
    (["p"], ["t"], [("p",)]),
    (["p"], ["t"], [(["p"], "t")]),
    # weak connectedness
    (["p"], ["t"], []),
    (["p", "q"], ["t", "u"], [("p", "t"), ("q", "u")]),
    # several faults at once: the first in the oracle's order is named
    (["9p", "p", "p"], ["t", "t"], [("p", "t"), ("p", "t")]),
    (["p", "p"], ["t", "t", "p"], []),
    (["p"], ["t"], [("p", "t"), ("x", "t"), ("p", "t")]),
    (["p"], ["t"], [("p", "t"), ("p", "t"), ("x", "t")]),
    (["p", "q"], ["t"], [("p", "q"), ("x", "t")]),
    (["p", "q"], ["t"], [("x", "y"), ("p", "q")]),
    (["p", "q"], ["t"], [("p", "t"), ("p",), ("p", "p")]),
    (["p", "q"], ["t"], [("p", "t"), ("q", "q"), (["p"], "t")]),
    (["p", "q", "r"], ["t", "u"], [("p", "t"), ("t", "q"), ("r", "r")]),
]


@pytest.mark.parametrize("places,transitions,arcs", BAD)
def test_bad_constructor_inputs(places, transitions, arcs):
    got = assert_builds_alike(places, transitions, arcs)
    assert got[0] in (TypeError, ValueError, NetStructureError)


NAMES = ["p", "q", "t", "u", "9p", "p\nq", "p\n", "", "p q", "é", 1, None]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(places=st.lists(st.sampled_from(NAMES), max_size=4),
       transitions=st.lists(st.sampled_from(NAMES), max_size=4),
       arcs=st.lists(st.one_of(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)),
                               st.tuples(st.sampled_from(NAMES)),
                               st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES),
                                         st.sampled_from(NAMES))),
                     max_size=6))
def test_generated_constructor_inputs(places, transitions, arcs):
    assert_builds_alike(places, transitions, arcs)


def test_ascii_isidentifier_is_the_identifier_rule():
    # the parser and the constructor test names with net.is_identifier,
    # which is str.isidentifier() on ASCII text
    chars = [chr(c) for c in range(128)]
    for token in chars + ["a" + c for c in chars] + [c + "a" for c in chars] + ["é", "aé"]:
        want = bool(parse_oracle._IDENT.match(token))
        assert is_identifier(token) == want, repr(token)
    assert not is_identifier(1) and not is_identifier(None)
