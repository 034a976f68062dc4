"""The scans that read the graph's packed states against their ``Marking``
versions (``scan_oracle``), the packed lookups at their edges, and how few
states ``analyze`` decodes."""

import random

import pytest

from lucentnet import (ExplorationLimits, Marking, NetStructureError, PetriNet,
                       UndecidedError, all_reference_nets, bound_k,
                       check_lucency, check_no_dominating,
                       check_pairwise_incomparable, dead_places,
                       dead_transitions, document_of, explore,
                       find_conflict_pairs, home_markings,
                       is_deadlock_free, is_fully_transparent, serialize_net,
                       suite_nets)
from lucentnet import reachability
from lucentnet.cli import main
import explore_oracle
import scan_oracle
from test_fast_short_circuit import forkjoin, ring
from test_packed_explore import random_net


def _nets():
    yield from ((ref.net, ref.initial) for ref in all_reference_nets())
    for seed in (0, 31337):
        yield from ((net, m0) for _, net, m0 in suite_nets(random_count=300, seed=seed))
    rng = random.Random(99)
    made = 0
    while made < 300:  # any class, counts up to 7
        try:
            net, m0 = random_net(rng)
        except NetStructureError:
            continue
        made += 1
        yield net, m0
    for k in range(2, 7):
        yield forkjoin(k)
    for j in range(1, 20):  # the largest field 2^j - 1 or 2^j, at widths up to 20
        yield hub(2 ** j - 1)
        yield hub(2 ** j)
    yield hub(10 ** 6)
    for count in (3, 4, 7, 8):
        yield funnel(count)


def hub(count):
    """One reachable state: a hub place holding ``count`` tokens on a
    self-loop, and three one-token places each on a self-loop through it."""
    arcs = [("h", "th"), ("th", "h")]
    arcs += [a for i in range(3) for a in ((f"q{i}", f"t{i}"), ("h", f"t{i}"),
                                           (f"t{i}", f"q{i}"), (f"t{i}", "h"))]
    net = PetriNet(["h", "q0", "q1", "q2"], ["th", "t0", "t1", "t2"], arcs)
    return net, Marking.from_counts({"h": count, "q0": 1, "q1": 1, "q2": 1})


def funnel(count):
    """Two places of ``count`` tokens each, emptied one token a firing into a
    third: the largest field, ``2 * count``, comes last in the search."""
    net = PetriNet(["a", "b", "c"], ["ta", "tb"],
                   [("a", "ta"), ("ta", "c"), ("b", "tb"), ("tb", "c")])
    return net, Marking.from_counts({"a": count, "b": count})


def assert_scans_match(net, m0, limits=None):
    rg = explore(net, m0, limits)
    g = explore_oracle.explore(net, m0, limits)
    assert rg.rows(range(len(rg.states))) == scan_oracle.strings(g)
    assert max(rg.sizes) == scan_oracle.fullest(g)
    assert dead_places(net, rg) == scan_oracle.dead_places(net, g)
    assert dead_transitions(net, rg) == scan_oracle.dead_transitions(net, g)
    assert is_deadlock_free(net, rg).witness == scan_oracle.dead_markings(net, g)
    assert is_fully_transparent(net, m0, rg=rg).witness == scan_oracle.transparency_witness(net, g)
    if not rg.complete:
        return rg.verdict
    assert bound_k(net, m0, rg=rg).k == scan_oracle.bound(g)
    luc = check_lucency(net, m0, rg=rg)
    want = scan_oracle.lucency_witness(net, g)
    assert (luc.witness, luc.footprint) == (want or (None, None))
    for cluster in net.clusters():
        assert (check_no_dominating(net, m0, cluster, rg=rg).witness
                == scan_oracle.no_dominating_witness(g, cluster))
    assert (check_pairwise_incomparable(net, m0, rg=rg).witness
            == scan_oracle.incomparable_witness(g))
    assert home_markings(net, rg) == scan_oracle.home_markings(g)
    assert (rg.sccs(), rg.terminal_sccs()) == scan_oracle.sccs(g)
    pairs = [(p.m1, p.m2) for p in find_conflict_pairs(net, m0, rg=rg)]
    assert pairs == scan_oracle.conflict_pairs(net, g)
    return rg.verdict


def test_packed_scans_match_marking_scans():
    verdicts = set()
    for net, m0 in _nets():
        for limits in (None, ExplorationLimits(max_states=5)):
            verdicts.add(assert_scans_match(net, m0, limits))
    assert verdicts == {"complete", "truncated", "unbounded"}


def _row_nets():
    yield from ((ref.net, ref.initial) for ref in all_reference_nets())
    yield from ((net, m0) for _, net, m0 in suite_nets(random_count=60, seed=7))
    net, m0 = ring(5)
    yield net, m0 + m0  # width 2 from the start
    yield PetriNet(["a", "b", "c"], ["t1", "t2", "t3"],  # widens from 1 to 2
                   [("a", "t1"), ("t1", "b"), ("t1", "c"),
                    ("b", "t2"), ("t2", "c"), ("c", "t3")]), Marking.of("a")
    yield countdown(100)


def countdown(n):
    """t_i takes k_i and d_i and puts k_(i+1): one line of states, holding
    n + 1 marks down to 1 among 2n + 1 places."""
    arcs = [a for i in range(n) for a in ((f"k{i}", f"t{i}"), (f"d{i}", f"t{i}"),
                                          (f"t{i}", f"k{i + 1}"))]
    net = PetriNet([f"k{i}" for i in range(n + 1)] + [f"d{i}" for i in range(n)],
                   [f"t{i}" for i in range(n)], arcs)
    return net, Marking.of("k0", *(f"d{i}" for i in range(n)))


def test_rows_match_marking_strings():
    # every state's row, by the digit reader, by the bit loop, and by the
    # one its mark count picks, against the strings of the oracle's markings
    crossed = False
    for net, m0 in _row_nets():
        rg = explore(net, m0)
        want = scan_oracle.strings(explore_oracle.explore(net, m0))
        lay = rg._layout
        crossed |= lay.width == 1 and min(rg.sizes) < lay.dense <= max(rg.sizes)
        for dense in (lay.dense, 0, 10 ** 9):
            lay.dense = dense
            assert rg.rows(range(len(want))) == want
            assert rg.rows(reversed(range(len(want)))) == want[::-1]
            assert rg.rows([]) == []
    assert crossed  # some graph has states on both sides of the crossover


def test_rows_of_a_net_with_100000_places():
    # the scale smoke's wide net: t takes x_0..x_49999 and puts y_0..y_49999
    n = 50_000
    xs, ys = [f"x{i}" for i in range(n)], [f"y{i}" for i in range(n)]
    net = PetriNet(xs + ys, ["t"], [(x, "t") for x in xs] + [("t", y) for y in ys])
    rg = explore(net, Marking.of(*xs))
    assert rg.rows([0, 1]) == [[f"{p}:1" for p in sorted(xs)], [f"{p}:1" for p in sorted(ys)]]


def assert_lookups_match(net, m0, queries=(), limits=None):
    """``index_of``, ``contains``, ``above`` and ``is_home`` agree with a
    dict of the decoded states on every state, the empty marking and
    ``queries``; returns the graph."""
    rg = explore(net, m0, limits)
    g = explore_oracle.explore(net, m0, limits)
    reference = {m: i for i, m in enumerate(g.states)}
    homes = set(scan_oracle.home_markings(g)) if rg.complete else None
    for m in list(g.states) + [Marking()] + list(queries):
        assert rg.index_of(m) == reference.get(m), m
        assert rg.contains(m) is (m in reference), m
        assert rg.above(m) == next((i for i, s in enumerate(g.states) if m.lt(s)), None), m
        if homes is None:
            with pytest.raises(UndecidedError):
                rg.is_home(m)
        else:
            assert rg.is_home(m) is (m in homes), m
    return rg


def test_lookups_with_places_outside_the_net():
    # a marking that names a place outside the net is in no graph
    net, m0 = ring(4)
    outside = Marking.of("zz", "zz", "aa")
    rg = assert_lookups_match(net, m0, [
        m0 + outside, m0 + Marking.of("zz", "aa"),    # a state plus items outside
        m0 + outside + Marking.of("yy"),
        Marking.of("aa"), outside,
        Marking.of("p1") + Marking.of("zz"),          # a state plus one item outside
        Marking.of("p1", "yy"),
    ])
    assert rg.index_of(Marking.of("p1")) == 1 and rg.index_of(Marking.of("p1") + outside) is None
    assert rg.above(Marking.of("zz", "zz", "aa", "aa")) is None


def test_lookups_of_counts_wider_than_a_field():
    # safe: one value bit per field, so a count of 2 cannot be packed; a
    # count of 4 on p0, packed, would read as one token on p1
    net, m0 = ring(4)
    rg = assert_lookups_match(net, m0, [Marking.of("p0", "p0"), Marking.from_counts({"p3": 5}),
                                        Marking.of("p0", "p1", "p1"),
                                        Marking.from_counts({"p0": 4})])
    assert rg._layout.width == 1
    # a safe start that puts two tokens on c restarts at width 2: 3 fits, 4
    # does not, and 8 tokens on b, packed, would read as one on c
    net = PetriNet(["a", "b", "c"], ["t1", "t2", "t3"],
                   [("a", "t1"), ("t1", "b"), ("t1", "c"),
                    ("b", "t2"), ("t2", "c"), ("c", "t3")])
    rg = assert_lookups_match(net, Marking.of("a"), [
        Marking.from_counts({"c": n}) for n in range(1, 7)] + [
        Marking.from_counts({"b": 4, "c": 1}), Marking.from_counts({"b": 8}),
        Marking.of("a", "a")])
    assert rg._layout.width == 2
    assert rg.contains(Marking.of("c", "c")) and not rg.contains(Marking.from_counts({"c": 4}))


def test_lookups_of_the_empty_marking():
    drain = PetriNet(["a", "b"], ["t", "u"], [("a", "t"), ("t", "b"), ("b", "u")])
    rg = assert_lookups_match(drain, Marking.of("a"))
    assert rg.index_of(Marking()) == 2 and rg.is_home(Marking())
    rg = assert_lookups_match(drain, Marking())
    assert rg.index_of(Marking()) == 0


def test_lookups_on_unbounded_and_truncated_graphs():
    pump = PetriNet(["p", "q"], ["t"], [("p", "t"), ("t", "p"), ("t", "q")])
    rg = assert_lookups_match(pump, Marking.of("p"), [Marking.of("p", "q", "q")])
    assert rg.verdict == "unbounded"
    net, m0 = forkjoin(4)
    rg = assert_lookups_match(net, m0, [Marking.of("d0", "d1", "d2", "d3")],
                              ExplorationLimits(max_states=5))
    assert rg.verdict == "truncated"


def test_analyze_decodes_only_its_witnesses(monkeypatch, tmp_path, capsys):
    # forkjoin(10) has 1,025 states; its report prints every one as a home
    # marking, yet only the transparency witness (state 2) needs a Marking
    decoded = []
    decode = reachability._Layout.marking
    monkeypatch.setattr(reachability._Layout, "marking",
                        lambda layout, s: decoded.append(s) or decode(layout, s))
    path = tmp_path / "fj.net"
    path.write_text(serialize_net(document_of("fj", *forkjoin(10))))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 10_000
    assert 0 < len(decoded) < 10


def test_conflict_pair_conditions_agree_on_names_and_masks():
    # the conditions live twice: on masks in find_conflict_pairs, which needs
    # a graph, and on names in derive_conflict_pair, which may have none
    # (scan_oracle.verify_conflict_pair reads them); every state pair must
    # get one answer from both
    pairs = 0
    for net, m0 in _nets():
        rg = explore(net, m0)
        if not rg.complete or len(rg.states) > 60:
            continue
        found = {(p.m1, p.m2) for p in find_conflict_pairs(net, m0, rg=rg)}
        states = rg.states
        for i, mi in enumerate(states):
            for mj in states[i + 1:]:
                assert (scan_oracle.verify_conflict_pair(net, rg, mi, mj)
                        == ((mi, mj) in found)), (net, mi, mj)
        pairs += len(found)
    assert pairs > 50  # 82 conflict pairs among these nets


def test_conflict_pairs_decode_only_the_pairs_found(monkeypatch, n3):
    decoded = []
    decode = reachability._Layout.marking
    monkeypatch.setattr(reachability._Layout, "marking",
                        lambda layout, s: decoded.append(s) or decode(layout, s))
    # c and the self-loop s keep s enabled at every state of forkjoin(6):
    # no two footprints are disjoint, so no state is decoded
    net, m0 = forkjoin(6)
    net = PetriNet(net.places + ("c",), net.transitions + ("s",),
                   sorted(net.flow) + [("c", "s"), ("s", "c"), ("c", "tf"), ("tf", "c")])
    assert find_conflict_pairs(net, m0 + Marking.of("c")) == ()
    assert decoded == []
    pairs = find_conflict_pairs(n3.net, n3.initial)
    assert pairs and len(decoded) == 2 * len(pairs)


def test_same_states_matches_decoded_sets():
    # each suite net against the ring of each of its clusters, as the
    # detection equivalence compares them: rings whose cleaning dropped
    # places, fields widened past 1 on one side or both, and truncated or
    # unbounded runs that stop on different sets
    from lucentnet.homecluster import _cluster_walk
    limits = ExplorationLimits(max_states=2000)
    kinds = set()
    for _, net, m0 in suite_nets(random_count=200, seed=5):
        rg = explore(net, m0, limits)
        for _, _, _, graph in _cluster_walk(net, m0, limits, "both", rg, rings=True):
            if graph is None:
                continue
            a, b = rg._layout, graph._layout
            same = set(rg.states) == set(graph.states)
            assert rg.same_states(graph) is same and graph.same_states(rg) is same
            kinds.add((a.places == b.places, a.width == b.width, same))
            kinds.add(("widened", max(a.width, b.width) > 1))
    assert kinds >= {(True, True, True), (True, True, False), (False, True, True),
                     (False, True, False), (True, False, False), ("widened", True)}
    # one cycle from two of its states: from {a} the fields widen 1 -> 2 -> 4
    # as p fills up to 4 tokens, from {e, p^4} they start at 3 bits
    places = ["a", "b", "c", "d", "e", "g", "h", "i", "p"]
    fill = ["a", "b", "c", "d", "e"]
    arcs = [arc for k in range(4) for arc in ((fill[k], f"t{k}"), (f"t{k}", fill[k + 1]),
                                             (f"t{k}", "p"))]
    drain = ["e", "g", "h", "i", "a"]
    arcs += [arc for k in range(4) for arc in ((drain[k], f"u{k}"), ("p", f"u{k}"),
                                              (f"u{k}", drain[k + 1]))]
    net = PetriNet(places, [f"t{k}" for k in range(4)] + [f"u{k}" for k in range(4)], arcs)
    low = explore(net, Marking.of("a"))
    high = explore(net, Marking.of("e", "p", "p", "p", "p"))
    assert (low._layout.width, high._layout.width) == (4, 3) and len(low.states) == 8
    assert low.same_states(high) and high.same_states(low)


def test_paper_suite_decodes_few_states(monkeypatch, capsys):
    # 269 decodes before the detection equivalence compared packed states,
    # 155 before the rooted-path row read them and the reference
    # expectations read the suite's verdicts
    decoded = []
    decode = reachability._Layout.marking
    monkeypatch.setattr(reachability._Layout, "marking",
                        lambda layout, s: decoded.append(s) or decode(layout, s))
    assert main(["paper-suite", "--random", "30", "--seed", "123456", "--format", "json"]) == 0
    capsys.readouterr()
    assert 0 < len(decoded) <= 123
