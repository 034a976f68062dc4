import pytest

from lucentnet import (ExplorationLimits, Marking, PetriNet, UndecidedError,
                       bound_k, dead_places, dead_transitions, explore,
                       fire_sequence, home_markings, is_deadlock_free,
                       is_live, is_perpetual, is_safe, short_circuit)


def unbounded_toy():
    # firing t strictly adds a q token every time
    net = PetriNet(["p", "q"], ["t"], [("p", "t"), ("t", "p"), ("t", "q")])
    return net, Marking.of("p")


def test_explore_n2_exact_state_set(n2):
    rg = explore(n2.net, n2.initial)
    assert rg.verdict == "complete"
    assert set(rg.states) == {
        Marking.of("p1"), Marking.of("p2", "p5"), Marking.of("p2", "p6"),
        Marking.of("p3", "p5"), Marking.of("p3", "p6"), Marking.of("p4")}
    assert rg.states[0] == n2.initial


def test_explore_edges_are_consistent(n2):
    from lucentnet import fire
    rg = explore(n2.net, n2.initial)
    for i, t, j in rg.edges:
        assert t in rg.enabled(i)
        assert fire(n2.net, rg.states[i], t) == rg.states[j]
    # completeness: one edge per enabled transition per state
    for i in range(len(rg.states)):
        assert sorted(t for t, _ in rg.out_edges(i)) == sorted(rg.enabled(i))


def test_explore_deterministic(n3):
    a = explore(n3.net, n3.initial)
    b = explore(n3.net, n3.initial)
    assert a.states == b.states
    assert a.edges == b.edges
    assert a.verdict == b.verdict
    assert a.terminal_sccs() == b.terminal_sccs()


def test_explore_single_dead_state():
    net = PetriNet(["a", "b"], ["t"], [("a", "t"), ("t", "b")])
    rg = explore(net, Marking.of("b"))
    assert rg.verdict == "complete"
    assert len(rg.states) == 1 and len(rg.edges) == 0


def test_explore_detects_unboundedness():
    net, m0 = unbounded_toy()
    rg = explore(net, m0)
    assert rg.verdict == "unbounded"
    w = rg.unbounded_witness
    assert w.stem == () and w.pump == ("t",)
    # witness replays: the pump strictly grows the stem marking
    ma = fire_sequence(net, m0, w.stem)
    mb = fire_sequence(net, ma, w.pump)
    assert ma.lt(mb)


def test_explore_n3_matches_circuit_oracle(n3):
    # independent oracle: one token cycles in each of the three circuits,
    # so the state set is the product of the per-circuit slots
    oracle = {Marking.of(a, b, c)
              for a in ("p1", "p2") for b in ("p3", "p4") for c in ("p5", "p6")}
    rg = explore(n3.net, n3.initial)
    assert set(rg.states) == oracle
    assert len(rg.states) == 8


def test_explore_truncation(n3):
    rg = explore(n3.net, n3.initial, ExplorationLimits(max_states=3))
    assert rg.verdict == "truncated"
    assert len(rg.states) == 3


def test_bound_k(n1, n3):
    assert bound_k(n1.net, n1.initial).k == 1
    assert bound_k(n3.net, n3.initial).k == 1
    net, m0 = unbounded_toy()
    r = bound_k(net, m0)
    assert r.kind == "unbounded" and r.witness.pump == ("t",)
    r = bound_k(n3.net, n3.initial, ExplorationLimits(max_states=3))
    assert r.kind == "unknown" and r.value is None


def test_is_safe(n1, n3):
    assert is_safe(n3.net, n3.initial).value is True
    assert is_safe(n1.net, n1.initial).value is True
    net, m0 = unbounded_toy()
    assert is_safe(net, m0).value is False
    two_tokens = PetriNet(["p"], ["t"], [("p", "t"), ("t", "p")])
    assert is_safe(two_tokens, Marking.of("p", "p")).value is False


def test_is_live(n1, n3):
    assert is_live(n3.net, n3.initial).value is True
    v = is_live(n1.net, n1.initial)
    assert v.value is False
    t, marking = v.witness
    assert marking == Marking.of("p4")
    assert t in n1.net.transitions


def test_is_live_dead_transition():
    # t2 waits for q, which is never marked
    net = PetriNet(["p", "q"], ["t1", "t2"],
                   [("p", "t1"), ("t1", "p"), ("q", "t2"), ("t2", "p")])
    v = is_live(net, Marking.of("p"))
    assert v.value is False
    assert v.witness[0] == "t2"


def test_is_live_undecided_on_truncation(n3):
    v = is_live(n3.net, n3.initial, ExplorationLimits(max_states=3))
    assert v.value is None


def test_dead_sets(n1, n2):
    rg = explore(n2.net, n2.initial)
    assert dead_places(n2.net, rg) == ()
    assert dead_transitions(n2.net, rg) == ()
    rg = explore(n1.net, n1.initial)
    assert dead_places(n1.net, rg) == ()
    assert dead_transitions(n1.net, rg) == ()
    # unreachable branch: q is never marked, so t2 and r never activate
    net = PetriNet(["p", "q", "r"], ["t1", "t2"],
                   [("p", "t1"), ("t1", "p"), ("q", "t2"), ("t2", "r"), ("t2", "p")])
    rg = explore(net, Marking.of("p"))
    assert dead_places(net, rg) == ("q", "r")
    assert dead_transitions(net, rg) == ("t2",)


def test_deadlock_freeness(n1, n3):
    rg3 = explore(n3.net, n3.initial)
    assert is_deadlock_free(n3.net, rg3).value is True
    rg1 = explore(n1.net, n1.initial)
    v = is_deadlock_free(n1.net, rg1)
    assert v.value is False
    assert v.witness == (Marking.of("p4"),)
    loop = PetriNet(["p"], ["t"], [("p", "t"), ("t", "p")])
    assert is_deadlock_free(loop, explore(loop, Marking.of("p"))).value is True


def _reachable_state_indices(rg, start):
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for _, j in rg.out_edges(i):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def _home_markings_oracle(rg):
    # independent of the terminal-SCC implementation: a home marking is
    # reachable from every state, checked by |states| brute-force searches
    n = len(rg.states)
    reach = [_reachable_state_indices(rg, i) for i in range(n)]
    return {rg.states[h] for h in range(n) if all(h in r for r in reach)}


def test_home_markings(n1, n3, n5):
    rg1 = explore(n1.net, n1.initial)
    assert set(home_markings(n1.net, rg1)) == {Marking.of("p4")}
    rg3 = explore(n3.net, n3.initial)
    assert set(home_markings(n3.net, rg3)) == set(rg3.states)
    for ref, rg in ((n1, rg1), (n3, rg3), (n5, explore(n5.net, n5.initial))):
        homes = _home_markings_oracle(rg)
        assert set(home_markings(ref.net, rg)) == homes
        assert {m for m in rg.states if rg.is_home(m)} == homes
    assert not rg1.is_home(Marking.of("p1", "p2", "p3", "p4"))  # never reached


def test_home_markings_of_plain_cycle():
    net = PetriNet(["p", "q"], ["t1", "t2"],
                   [("p", "t1"), ("t1", "q"), ("q", "t2"), ("t2", "p")])
    rg = explore(net, Marking.of("p"))
    assert set(home_markings(net, rg)) == set(rg.states)


def test_home_markings_need_completeness(n3):
    rg = explore(n3.net, n3.initial, ExplorationLimits(max_states=3))
    with pytest.raises(UndecidedError):
        home_markings(n3.net, rg)
    with pytest.raises(UndecidedError):
        rg.is_home(rg.initial)


def test_is_perpetual(n1, n3, n5):
    assert is_perpetual(n1.net, n1.initial).value is False
    assert is_perpetual(n3.net, n3.initial).value is False
    assert is_perpetual(n5.net, n5.initial).value is False
    # short-circuiting n1 over its home cluster gives a live, bounded net
    # whose extended cluster is a home cluster
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    ring = short_circuit(n1.net, c4, n1.initial)
    assert is_perpetual(ring.net, n1.initial).value is True


def test_lucent_nets_have_small_complete_state_spaces(n1, n5):
    # a lucent net cannot have more distinct markings than transition sets
    for ref in (n1, n5):
        rg = explore(ref.net, ref.initial)
        assert rg.complete
        assert len(rg.states) <= 2 ** len(ref.net.transitions)


def _graph_cases():
    """(net, graph) pairs covering complete, truncated and unbounded runs."""
    from lucentnet import all_reference_nets, suite_nets
    cases = [(ref.net, explore(ref.net, ref.initial)) for ref in all_reference_nets()]
    cases += [(net, explore(net, m0)) for _, net, m0 in suite_nets(random_count=200, seed=5)]
    n3 = next(ref for ref in all_reference_nets() if ref.ident == "n3")
    cases.append((n3.net, explore(n3.net, n3.initial, ExplorationLimits(max_states=3))))
    net, m0 = unbounded_toy()
    cases.append((net, explore(net, m0)))
    return cases


def test_graph_enabled_sets_match_net_scan():
    from lucentnet import enabled_transitions
    verdicts = set()
    for net, rg in _graph_cases():
        verdicts.add(rg.verdict)
        for i, m in enumerate(rg.states):
            assert rg.enabled(i) == enabled_transitions(net, m)
    assert verdicts == {"complete", "truncated", "unbounded"}


def test_graph_scans_only_unexpanded_states_once(n3, monkeypatch):
    from lucentnet import reachability
    scanned = []
    scan = reachability.enabled_transitions

    def counting(net, m):
        scanned.append(m)
        return scan(net, m)

    monkeypatch.setattr(reachability, "enabled_transitions", counting)
    full = explore(n3.net, n3.initial)
    for _ in range(2):
        for i in range(len(full.states)):
            full.enabled(i)
    assert scanned == []
    cut = explore(n3.net, n3.initial, ExplorationLimits(max_states=3))
    for _ in range(2):
        for i in range(len(cut.states)):
            cut.enabled(i)
    # the first state is expanded; the second stopped mid-way; the third
    # was never expanded
    assert scanned == [cut.states[1], cut.states[2]]


def test_strong_components_match_mutual_reachability():
    import random
    from lucentnet.reachability import strong_components
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 12)
        succ = [sorted(rng.sample(range(n), rng.randint(0, min(n, 3)))) for _ in range(n)]
        reach = []
        for s in range(n):
            seen, stack = {s}, [s]
            while stack:
                for w in succ[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            reach.append(seen)
        comp = strong_components(succ)
        assert sorted(set(comp)) == list(range(len(set(comp))))
        for a in range(n):
            for b in range(n):
                assert (comp[a] == comp[b]) == (b in reach[a] and a in reach[b])
                if b in succ[a]:
                    assert comp[a] <= comp[b]  # discovery order is topological


def test_exploration_limits_have_one_knob():
    from dataclasses import fields
    assert [f.name for f in fields(ExplorationLimits)] == ["max_states"]
    with pytest.raises(ValueError):
        ExplorationLimits(max_states=0)


def test_report_decides_liveness_and_bound_once(n1, monkeypatch):
    from lucentnet import reachability, report
    calls = []
    liveness = reachability.ReachabilityGraph._liveness
    monkeypatch.setattr(reachability.ReachabilityGraph, "_liveness",
                        lambda rg: calls.append("live") or liveness(rg))
    bound = reachability.bound_k

    def counting(*args, **kwargs):
        calls.append("bound")
        return bound(*args, **kwargs)

    monkeypatch.setattr(reachability, "bound_k", counting)
    monkeypatch.setattr(report, "bound_k", counting)
    built = report.build_report("n1", n1.net, n1.initial)
    assert sorted(calls) == ["bound", "live"]
    assert built["behavioral"]["live"]["value"] is False
    assert built["behavioral"]["safe"] == {"value": True}
