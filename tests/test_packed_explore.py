"""The packed-integer ``explore`` against the Marking-based explorer it
replaced (``explore_oracle``): same states in the same order, same edges,
verdict, witness, expanded count and index, on every net family and on
the field-widening paths."""

import random

import pytest

from lucentnet import (ExplorationLimits, Marking, NetStructureError, PetriNet,
                       all_reference_nets, enabled_transitions, explore,
                       suite_nets)
from lucentnet import reachability
from lucentnet.net import enabled_list
from lucentnet.textio import MAX_INIT_TOKENS
import explore_oracle
from test_fast_short_circuit import CAPS, forkjoin, ring


def chain(length):
    """p_i -> {a_i, b_i} -> p_(i+1) for i < L; p_L is a sink place."""
    arcs = []
    for i in range(length):
        arcs += [(f"p{i}", f"a{i}"), (f"p{i}", f"b{i}"),
                 (f"a{i}", f"p{i + 1}"), (f"b{i}", f"p{i + 1}")]
    return (PetriNet([f"p{i}" for i in range(length + 1)],
                     [f"a{i}" for i in range(length)] + [f"b{i}" for i in range(length)],
                     arcs),
            Marking.of("p0"))


def assert_same(net, m0, limits=None):
    """Both explorers give the same graph; returns the new one."""
    got = explore(net, m0, limits)
    want = explore_oracle.explore(net, m0, limits)
    assert got.states == want.states
    assert got.edges == want.edges
    assert got.verdict == want.verdict
    assert got.unbounded_witness == want.unbounded_witness
    assert got._expanded == want._expanded
    assert got.index == want.index
    return got


@pytest.fixture
def widths(monkeypatch):
    """The field width of every search ``explore`` runs, restarts included."""
    seen = []
    original = reachability._search

    def recording(form, layout, *args):
        seen.append(layout.width)
        return original(form, layout, *args)

    monkeypatch.setattr(reachability, "_search", recording)
    return seen


def _limits(cap):
    return None if cap is None else ExplorationLimits(max_states=cap)


def test_reference_nets_match_oracle():
    for ref in all_reference_nets():
        for cap in CAPS:
            assert_same(ref.net, ref.initial, _limits(cap))


@pytest.mark.parametrize("seed", [0, 31337])
def test_suite_nets_match_oracle(seed):
    verdicts = set()
    for _, net, m0 in suite_nets(random_count=500, seed=seed):
        for cap in CAPS:
            verdicts.add(assert_same(net, m0, _limits(cap)).verdict)
    assert verdicts == {"complete", "truncated", "unbounded"}


def random_net(rng):
    """A small net of any class: empty presets and postsets, self-loops and
    initial counts up to 7 all occur."""
    places = [f"p{i}" for i in range(rng.randint(1, 6))]
    transitions = [f"t{i}" for i in range(rng.randint(1, 5))]
    arcs = set()
    for t in transitions:
        for p in rng.sample(places, rng.randint(0, min(3, len(places)))):
            arcs.add((p, t))
        for p in rng.sample(places, rng.randint(0, min(3, len(places)))):
            arcs.add((t, p))
    m0 = Marking.from_counts({p: rng.choice([0, 0, 1, 1, 2, 3, 7]) for p in places})
    return PetriNet(places, transitions, sorted(arcs)), m0


def test_random_nets_match_oracle():
    rng = random.Random(606)
    checked = 0
    verdicts = set()
    while checked < 400:
        try:
            net, m0 = random_net(rng)
        except NetStructureError:
            continue
        checked += 1
        for cap in (None, 2, 30):
            verdicts.add(assert_same(net, m0, _limits(cap)).verdict)
    assert verdicts == {"complete", "truncated", "unbounded"}


def test_families_match_oracle():
    for k in range(2, 12):
        assert_same(*forkjoin(k))
    for length in (2, 5, 70, 1000):
        assert_same(*ring(length))
    for length in (1, 10, 500, 2000):
        assert_same(*chain(length))


def test_safe_start_widens_when_a_place_gets_two_tokens(widths):
    # one token on a; t1 moves it to b, t2 then puts a second token on c
    net = PetriNet(["a", "b", "c"], ["t1", "t2", "t3"],
                   [("a", "t1"), ("t1", "b"), ("t1", "c"),
                    ("b", "t2"), ("t2", "c"), ("c", "t3")])
    rg = assert_same(net, Marking.of("a"))
    assert rg.complete
    assert Marking.of("c", "c") in rg.index
    assert max(len(m) for m in rg.states) == 2
    assert widths == [1, 2]  # restarted at width 2


def test_largest_initial_count_matches_oracle(widths):
    # a token-conserving swap: 10^6 + 1 states, so capped
    net = PetriNet(["a", "b"], ["t", "u"], [("a", "t"), ("t", "b"), ("b", "u"), ("u", "a")])
    m0 = Marking.from_counts({"a": MAX_INIT_TOKENS})
    rg = assert_same(net, m0, ExplorationLimits(max_states=50))
    assert rg.verdict == "truncated"
    assert rg.states[1] == Marking.from_counts({"a": MAX_INIT_TOKENS - 1, "b": 1})
    assert widths == [MAX_INIT_TOKENS.bit_length()]
    # a place that only drains: 1501 states in a line
    drain = PetriNet(["a", "b"], ["t"], [("a", "t"), ("t", "b")])
    rg = assert_same(drain, Marking.from_counts({"a": 1500}))
    assert rg.complete and rg.states[-1] == Marking.from_counts({"b": 1500})


def test_unbounded_pump_across_field_widths(widths):
    # s0 -> s1 -> ... -> s19 -> s0, each step adds a token to b: b reaches
    # 2, 4 and 16 (outgrowing fields of 1, 2 and 4 bits) before the lap
    # ends on s0 plus 20 tokens, which strictly dominates the root
    laps = 20
    arcs = [("b", "drain")]
    for i in range(laps):
        arcs += [(f"s{i}", f"t{i}"), (f"t{i}", f"s{(i + 1) % laps}"), (f"t{i}", "b")]
    net = PetriNet([f"s{i}" for i in range(laps)] + ["b"],
                   [f"t{i}" for i in range(laps)] + ["drain"], arcs)
    rg = assert_same(net, Marking.of("s0"))
    assert rg.verdict == "unbounded"
    assert rg.unbounded_witness.stem == ()
    assert max(m.count("b") for m in rg.states) == laps - 1
    assert widths == [1, 2, 4, 8]
    # a bounded counter whose counts outgrow the initial width
    counter = PetriNet(["a", "b", "c"], ["inc", "dec"],
                       [("a", "inc"), ("inc", "b"), ("inc", "c"),
                        ("b", "dec"), ("c", "dec"), ("dec", "a")])
    for n in (1, 2, 3, 4, 5, 9, 17):
        assert_same(counter, Marking.from_counts({"a": n}))
        assert_same(counter, Marking.from_counts({"a": n, "b": n, "c": 2 * n}))


def test_places_outside_the_net_are_carried():
    net, m0 = ring(4)
    rg = assert_same(net, m0 + Marking.of("zz", "zz", "aa"))
    assert all(m.count("zz") == 2 and m.count("aa") == 1 for m in rg.states)


def test_enabled_list_is_place_driven_and_in_identifier_order():
    rng = random.Random(7)
    nets = [(ref.net, ref.initial) for ref in all_reference_nets()]
    nets += [forkjoin(5), ring(12), chain(15)]
    checked = 0
    while checked < 200:
        try:
            nets.append(random_net(rng))
            checked += 1
        except NetStructureError:
            pass
    for net, m0 in nets:
        for m in explore(net, m0, ExplorationLimits(max_states=200)).states:
            want = explore_oracle.scan_enabled(net, m)
            assert enabled_list(net, m) == want
            assert enabled_transitions(net, m) == frozenset(want)
