"""The two paths of ``textio.parse_net``: the bulk happy path
(``_read_bulk``) and the line checker (``_check_lines``).  Wherever the
happy path returns a document, the line checker returns the same one; it
declines a valid document only for a declaration after an arc or a count
written with more digits than ``MAX_INIT_TOKENS``; and the documents the
program writes or reads in bulk never reach the line checker."""

import importlib.util
import pathlib
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lucentnet import NetDocument, document_of, parse_net, serialize_net, suite_nets, textio
from lucentnet.textio import MAX_INIT_TOKENS
import parse_oracle
from test_fast_short_circuit import forkjoin, ring
from test_fuzz_cli import documents, mutated_documents
from test_packed_explore import chain
from test_parse_oracle import outcome, scrambled

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = sys.modules[SPEC.name] = importlib.util.module_from_spec(SPEC)  # for dataclass
SPEC.loader.exec_module(workloads)


def lines_of(text):
    """The lines ``parse_net`` hands to both paths."""
    return [line.partition("#")[0] for line in text.split("\n")]


def needs_line_order(lines):
    """A declaration after an arc, or a count longer than the limit's digits."""
    rows = [fields for fields in map(str.split, lines) if fields]
    kinds = [fields[0] for fields in rows]
    after_arc = kinds[kinds.index("arc"):] if "arc" in kinds else []
    return (any(kind != "arc" for kind in after_arc)
            or any(len(f) == 4 and f[0] == "place" and len(f[3]) > len(str(MAX_INIT_TOKENS))
                   for f in rows))


def assert_paths_agree(text):
    lines = lines_of(text)
    fast = textio._read_bulk(lines)
    slow = outcome(textio._check_lines, lines)
    assert outcome(parse_net, text) == slow == outcome(parse_oracle.parse_net, text), text
    if fast is not None:
        assert outcome(lambda: fast) == slow, text
        assert fast.to_net() == slow[0].to_net()
    elif isinstance(slow[0], NetDocument):
        assert needs_line_order(lines), text
    return fast


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(documents(), mutated_documents()))
def test_generated_documents(text):
    assert_paths_agree(text)


@pytest.mark.parametrize("whole", [False, True])
def test_shuffled_families(whole):
    rng = random.Random(2031)
    nets = ([chain(n) for n in (1, 2, 7, 60)] + [ring(n) for n in (2, 3, 9, 40)]
            + [forkjoin(k) for k in (1, 2, 5, 12)])
    taken = set()
    for net, m0 in nets:
        for _ in range(8):
            taken.add(assert_paths_agree(scrambled(net, m0, rng, whole)) is not None)
    # with declarations first every document takes the happy path; shuffled
    # whole, a declaration after an arc sends the document to the checker
    assert False in taken if whole else taken == {True}


HEAD = "net x\nplace a\ntrans t\n"
# first error by line, then the error PetriNet would name first
FIRST_BY_LINE = [
    # a duplicate arc before a bad identifier
    (HEAD + "arc a -> t\narc a -> t\ntrans 9u\n", 5, "duplicate arc a -> t"),
    (HEAD + "place b\narc a -> t\narc a -> t\narc b -> 9u\n", 6, "duplicate arc a -> t"),
    # a duplicate identifier before a bad one
    (HEAD + "place t\nplace 9b\n", 4, "duplicate identifier 't'"),
    # a declaration after an arc that names it (PetriNet takes the net)
    ("net x\nplace a\narc a -> t\ntrans t\n", 3, "unknown arc endpoint 't'"),
    ("net x\ntrans t\narc a -> t\nplace a init 1\n", 3, "unknown arc endpoint 'a'"),
    # a count of 10^6+1 after a structural fault
    (HEAD + f"trans a\nplace b init {MAX_INIT_TOKENS + 1}\n", 4, "duplicate identifier 'a'"),
    (HEAD + f"arc t -> t\nplace b init {MAX_INIT_TOKENS + 1}\n", 4,
     "arc t -> t must connect a place and a transition"),
    # a structural fault after the count
    (HEAD + f"place b init {MAX_INIT_TOKENS + 1}\ntrans a\n", 4,
     f"initial token count exceeds {MAX_INIT_TOKENS}"),
    # faults of a net PetriNet takes: the header's name, a count over the limit
    ("net 9x\nplace a\ntrans t\narc a -> t\n", 1, "bad identifier '9x'"),
    (f"net x\nplace a init {MAX_INIT_TOKENS + 1}\ntrans t\narc a -> t\n", 2,
     f"initial token count exceeds {MAX_INIT_TOKENS}"),
    # a fault only the build finds: the line that declares the first node listed
    (HEAD + "place b\ntrans u\narc a -> t\narc b -> u\n", 4, "not weakly connected"),
]


@pytest.mark.parametrize("text,line,message", FIRST_BY_LINE)
def test_first_fault_by_line(text, line, message):
    assert assert_paths_agree(text) is None
    kind, got, got_line = outcome(parse_net, text)
    assert got_line == line and message in got, (got_line, got)


def test_valid_documents_in_line_order():
    # valid, but only an arc's place in the file says its endpoints exist
    interleaved = "net x\nplace a init 1\ntrans t\narc a -> t\nplace b\narc t -> b\n"
    assert assert_paths_agree(interleaved) is None
    long_count = "net x\nplace a init 00000001\ntrans t\narc a -> t\n"
    assert assert_paths_agree(long_count) is None
    assert parse_net(long_count).places == (("a", 1),)


def bulk_documents():
    """The benchmark's file workloads, every corpus file, and the
    serialization of each of those and of the suite's nets."""
    texts = [structure.text(random.Random(f"{workload}:{seed}"))
             for workload, structure in (("chain-lucency", workloads.chain(workloads.CHAIN_L)),
                                         ("ring-home", workloads.ring(workloads.RING_L)),
                                         ("forkjoin-analyze",
                                          workloads.forkjoin(workloads.FORKJOIN_K)))
             for seed in (1, 2, 3)]
    texts += [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("corpus/*.net"))]
    texts += [serialize_net(parse_net(text)) for text in texts]
    texts += [serialize_net(document_of(name.replace("-", "_"), net, m0))
              for name, net, m0 in suite_nets(30, seed=1)]
    return texts


def test_bulk_documents_never_reach_the_line_checker(monkeypatch):
    calls = []
    check = textio._check_lines
    monkeypatch.setattr(textio, "_check_lines", lambda lines: calls.append(1) or check(lines))
    texts = bulk_documents()
    for text in texts:
        parse_net(text)
    assert len(texts) > 60 and calls == []
    parse_net("net x\nplace a init 1\ntrans t\narc a -> t\nplace b\narc t -> b\n")
    assert calls == [1]  # the counter counts
