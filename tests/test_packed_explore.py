"""The packed-integer ``explore`` against the Marking-based explorer it
replaced (``explore_oracle``): same states in the same order, same edges
and out-edges, verdict, witness, expanded count, token counts and index,
an enabled mask equal to the net's enabled set for every state found, and
dead transitions that label no explored edge, on every net family and on
the field-widening paths."""

import gc
import random
import tracemalloc

import pytest

from lucentnet import (ExplorationLimits, Marking, NetStructureError, NodeNotFound, PetriNet,
                       all_reference_nets, bound_k, build_report, check_lucency, clean,
                       dead_transitions, enabled_transitions, explore, find_home_clusters,
                       short_circuit, suite_nets, support_closure)
from lucentnet import reachability
from lucentnet.net import compiled, enabled_list
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
    assert got.states == want.states and len(got.states) == len(want.states)
    assert got.edges == want.edges and len(got.edges) == len(want.edges)
    assert got.verdict == want.verdict
    assert got.unbounded_witness == want.unbounded_witness
    assert got._expanded == want.expanded
    assert got.sizes == [len(m) for m in want.states]
    assert [got.index_of(m) for m in want.index] == list(want.index.values())
    out = [[] for _ in want.states]
    for i, t, j in want.edges:
        out[i].append((t, j))
    assert [got.out_edges(i) for i in range(len(out))] == out
    bit = {t: 1 << k for k, t in enumerate(net.transitions)}
    masks = [sum(bit[t] for t in enabled_transitions(net, m)) for m in want.states]
    assert got.masks() == masks  # every found state's, written by the search
    fired = {t for _, t, _ in want.edges}
    assert dead_transitions(net, got) == tuple(t for t in net.transitions if t not in fired)
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
    assert rg.contains(Marking.of("c", "c"))
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


def test_markings_of_non_places_are_rejected(n1):
    # a misspelled place, an item added to the net's own marking, and a
    # transition: every analysis that explores or cleans refuses them
    cluster = n1.net.clusters()[0]
    analyses = [explore, check_lucency, bound_k, find_home_clusters,
                lambda net, m: build_report("n1", net, m), support_closure, clean,
                lambda net, m: short_circuit(net, cluster, m)]
    for m in (Marking.of("p1x"), n1.initial + Marking.of("zz"), Marking.of("t1")):
        for analysis in analyses:
            with pytest.raises(NodeNotFound):
                analysis(n1.net, m)


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


def test_chain_net_holds_under_700_kb():
    # one list per node and direction: freezing the 3,002 presets and
    # postsets of chain(500) into frozensets held 962,328 bytes
    net, _ = chain(500)
    args = (list(net.places), list(net.transitions), sorted(net.flow))
    del net
    gc.collect()
    tracemalloc.start()
    try:
        net = PetriNet(*args)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(net.nodes()) == 1501
    assert held < 700_000


def test_graph_holds_at_most_24_bytes_per_edge():
    # the masks and flat successor list; one (name, j) tuple per edge, as
    # the graph kept before, took about 80 bytes per edge
    net, m0 = forkjoin(12)
    explore(net, m0)  # the compiled form is built once, outside the measure
    gc.collect()
    tracemalloc.start()
    try:
        rg = explore(net, m0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (len(rg.states), len(rg.edges)) == (4097, 49_154)
    assert held <= 24 * len(rg.edges)


# -- edge cases of the enabled masks carried from parent to child ----------

EDGE_CAPS = (None, 1, 2, 5)


@pytest.mark.parametrize("cap", EDGE_CAPS)
def test_self_loop_place_keeps_what_it_feeds(cap):
    # t reads a (a self-loop) and moves b to c; w takes a away, after which
    # t is dead: firing t must keep w enabled, at width 1 and at width 2
    net = PetriNet(["a", "b", "c", "d"], ["t", "u", "w"],
                   [("a", "t"), ("b", "t"), ("t", "a"), ("t", "c"),
                    ("c", "u"), ("u", "b"), ("a", "w"), ("w", "d")])
    for m0 in (Marking.of("a", "b"), Marking.of("a", "b", "b"), Marking.of("a", "a", "b")):
        rg = assert_same(net, m0, _limits(cap))
        if cap is None:
            assert rg.complete
            assert all(rg.enabled(i) >= {"w"} for i, m in enumerate(rg.states) if "a" in m)


@pytest.mark.parametrize("cap", EDGE_CAPS)
def test_two_tokens_on_a_shared_input_keep_the_sibling_enabled(cap, widths):
    # p feeds t1, t2 and w; after t1 or t2 fires, p still holds a token, so
    # the width-2 update must re-test the other instead of dropping it, and
    # w, fed by both the place t1 takes from and the one it puts on, too
    net = PetriNet(["p", "q", "r"], ["t1", "t2", "u", "w"],
                   [("p", "t1"), ("t1", "q"), ("p", "t2"), ("t2", "r"),
                    ("q", "u"), ("r", "u"), ("u", "p"), ("p", "w"), ("q", "w"), ("w", "r")])
    rg = assert_same(net, Marking.of("p", "p"), _limits(cap))
    assert set(widths) == {2}
    if cap is None or cap >= 2:
        assert rg.enabled(1) == {"t1", "t2", "w"}  # p:1 and q:1 after t1


@pytest.mark.parametrize("cap", EDGE_CAPS)
def test_empty_preset_transition_stays_enabled(cap):
    # src has no input place: every state enables it, and it pumps p
    net = PetriNet(["p", "q"], ["src", "t"], [("src", "p"), ("p", "t"), ("t", "q")])
    for m0 in (Marking(), Marking.of("q")):
        rg = assert_same(net, m0, _limits(cap))
        assert all("src" in rg.enabled(i) for i in range(len(rg.states)))
        if cap is None:
            assert rg.verdict == "unbounded"


@pytest.mark.parametrize("cap", EDGE_CAPS)
def test_widening_restart_in_the_middle_of_the_search(cap, widths):
    # two safe chains meet on c, which holds two tokens only once both
    # have run to their end: the width-1 search finds several states
    # before it starts over at width 2
    arcs = [("a0", "s0"), ("s0", "a1"), ("a1", "s1"), ("s1", "a2"), ("a2", "s2"), ("s2", "c"),
            ("b0", "u0"), ("u0", "b1"), ("b1", "u1"), ("u1", "c"), ("c", "v"), ("v", "d")]
    net = PetriNet(["a0", "a1", "a2", "b0", "b1", "c", "d"],
                   ["s0", "s1", "s2", "u0", "u1", "v"], arcs)
    rg = assert_same(net, Marking.of("a0", "b0"), _limits(cap))
    if cap is None:
        assert widths == [1, 2]
        assert rg.index_of(Marking.of("c", "c")) > 5
    else:
        assert widths == [1]  # every cap stops the search before c gets two


def test_widening_after_an_edge_to_a_found_state(widths):
    # expanding {b, c}: t2 leads back to {a, c}, found before, and only
    # then t3 puts a second token on c; the guard bits of a successor are
    # tested only when it is new, so the restart must still happen there
    net = PetriNet(["a", "b", "c"], ["t1", "t2", "t3"],
                   [("a", "t1"), ("t1", "b"), ("b", "t2"), ("t2", "a"),
                    ("b", "t3"), ("t3", "c")])
    rg = assert_same(net, Marking.of("a", "c"))
    assert widths == [1, 2]
    assert rg.complete and rg.out_edges(1) == [("t2", 0), ("t3", 2)]
    assert rg.states[2] == Marking.of("c", "c")


@pytest.mark.parametrize("cap", EDGE_CAPS)
def test_dominated_ancestor_above_a_run_of_fuller_ancestors(cap):
    # one path: [p] -> [s0] (1 token) -> 4 -> 3 -> [s3] (1) -> 3 -> 2 ->
    # [s0, x] (2), which strictly dominates [s0].  The walk from the new
    # state hops over the fuller ancestors to [s3], which it does not
    # dominate, then over two more to [s0]
    arcs = [("p", "tp"), ("tp", "s0"),
            ("s0", "t0"), ("t0", "s1"), ("t0", "y1"), ("t0", "y2"), ("t0", "y3"),
            ("s1", "t1"), ("y1", "t1"), ("t1", "s2"),
            ("s2", "t2"), ("y2", "t2"), ("y3", "t2"), ("t2", "s3"),
            ("s3", "t3"), ("t3", "s4"), ("t3", "z1"), ("t3", "z2"),
            ("s4", "t4"), ("z1", "t4"), ("t4", "s5"),
            ("s5", "t5"), ("z2", "t5"), ("t5", "s0"), ("t5", "x")]
    net = PetriNet(["p", "s0", "s1", "s2", "s3", "s4", "s5", "x", "y1", "y2", "y3", "z1", "z2"],
                   ["tp", "t0", "t1", "t2", "t3", "t4", "t5"], arcs)
    rg = assert_same(net, Marking.of("p"), _limits(cap))
    if cap is None:
        assert rg.sizes == [1, 1, 4, 3, 1, 3, 2]
        assert rg.verdict == "unbounded"
        assert rg.unbounded_witness.stem == ("tp",)
        assert rg.unbounded_witness.pump == ("t0", "t1", "t2", "t3", "t4", "t5")


def wide(n, loops):
    """One transition t with inputs x_0..x_(n-1) and n outputs: the first
    ``loops`` inputs are outputs too (self-loops), the rest go to y_i."""
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(loops, n)]
    return PetriNet(xs + ys, ["t"], [(x, "t") for x in xs] + [("t", p) for p in xs[:loops] + ys])


@pytest.mark.parametrize("cap", EDGE_CAPS)
def test_wide_transition_with_self_loops(cap, widths):
    # 2,000 inputs and 2,000 outputs, 50 places on both sides; a second
    # token on a self-loop place runs the search at width 2
    net = wide(2000, 50)
    xs = [p for p in net.places if p.startswith("x")]
    for m0 in (Marking.of(*xs), Marking.of("x0", *xs)):
        rg = assert_same(net, m0, _limits(cap))
        if cap is None:
            assert rg.complete and rg.masks() == [1, 0]
    assert set(widths) == {1, 2}


@pytest.mark.parametrize("width", [1, 2])
def test_dense_and_sparse_decodes_match_markings(width):
    # every state is decoded both by the bit loop and by the digit scan
    # (the layout's threshold set to 10**9 and to 0), and by whichever the
    # mark count picks
    net, _ = ring(300)
    layout = reachability._Layout(compiled(net), net.places, width)
    rng = random.Random(width)
    dense = layout.dense
    assert 0 < dense < 300
    for marks in (0, 1, dense - 1, dense, dense + 1, 299, 300):
        for _ in range(5):
            m = Marking.from_counts({p: rng.randint(1, 2 ** width - 1)
                                     for p in rng.sample(net.places, marks)})
            s = layout.pack(m)
            want = sorted(layout.index[p] for p in m.support())
            for switch in (10 ** 9, 0, dense):
                layout.dense = switch
                assert layout.marked(s) == want
                assert layout.marking(s) == m


def test_truncated_and_unbounded_graphs_hold_every_mask(monkeypatch):
    # the search wrote the mask of every state it found: reading them
    # needs no rescan, so no net form is read after the search
    graphs = [explore(*chain(30), ExplorationLimits(max_states=7)),
              explore(*forkjoin(5), ExplorationLimits(max_states=20)),
              explore(PetriNet(["p", "q"], ["src", "t"], [("src", "p"), ("p", "t"), ("t", "q")]),
                      Marking.of("q"))]
    assert [rg.verdict for rg in graphs] == ["truncated", "truncated", "unbounded"]
    assert all(rg._expanded < len(rg.states) for rg in graphs)
    monkeypatch.setattr(reachability, "compiled", None)
    for rg in graphs:
        bit = {t: 1 << k for k, t in enumerate(rg.net.transitions)}
        assert rg.masks() == [sum(bit[t] for t in enabled_transitions(rg.net, m))
                              for m in rg.states]


def test_truncated_dead_transitions_label_no_explored_edge():
    # p1 is found but not expanded: it enables a1 and b1, yet no explored
    # edge carries them, so they are dead in the truncated graph
    rg = assert_same(*chain(3), ExplorationLimits(max_states=2))
    assert rg.verdict == "truncated" and rg.enabled(1) == {"a1", "b1"}
    assert dead_transitions(rg.net, rg) == ("a1", "a2", "b1", "b2")
