import pytest

from lucentnet import (CleanedNetInvalid, ClusterNotConnected, Marking,
                       NodeNotFound, PetriNet, RequiresSafeMarking, check_detection_equivalence,
                       classify_dead_end, clean, connectivity, explore, extended_cluster,
                       find_home_clusters, is_free_choice,
                       is_home_cluster_direct, short_circuit, support_closure)
from ring_oracle import (check_short_circuit_structure, check_strongly_connected_home_cluster,
                         conn, is_home_cluster_short_circuit)


def test_conn(n1, n3):
    assert conn(n1.net, n1.initial) == frozenset(n1.net.nodes())
    assert len(conn(n1.net, n1.initial)) == 9
    assert conn(n3.net, n3.initial) == frozenset(n3.net.nodes())
    # appendix not reachable from the marking is excluded
    net = PetriNet(["p", "q"], ["t1", "t2"],
                   [("p", "t1"), ("t1", "p"), ("q", "t2"), ("t2", "p")])
    assert conn(net, Marking.of("p")) == {"p", "t1"}
    with pytest.raises(NodeNotFound):  # a marked place outside the net
        conn(net, Marking.of("zzz"))


@pytest.mark.parametrize("method", ["direct", "short-circuit", "both"])
@pytest.mark.parametrize("ident", ["n1", "n2"])  # inside and outside the hypothesis
def test_every_method_rejects_a_marked_non_place(ident, method, request):
    ref = request.getfixturevalue(ident)
    for m0 in (Marking.of("zz"), ref.initial + Marking.of("zz")):
        with pytest.raises(NodeNotFound, match=r"non-places: \['zz'\]"):
            find_home_clusters(ref.net, m0, method=method)


def test_support_closure_drops_half_reachable_transition():
    # t0 is graph-reachable via p0 but its second input p1 never gets a
    # token, so t0 can never fire and must not survive cleaning
    net = PetriNet(
        ["p0", "p1", "p2", "p3"],
        ["t0", "t1", "t2"],
        [("p0", "t0"), ("p1", "t0"), ("t0", "p3"),
         ("p2", "t1"), ("p3", "t1"), ("t1", "p0"), ("t1", "p2"),
         ("p2", "t2"), ("p3", "t2"), ("t2", "p2"), ("t2", "p3")])
    m0 = Marking.of("p2", "p3")
    kept = support_closure(net, m0)
    assert "t0" in conn(net, m0)  # graph-reachable...
    assert "t0" not in kept       # ...but never fireable
    assert "p1" not in kept
    cleaned = clean(net, m0)
    # cleaning preserves behavior exactly
    assert set(explore(net, m0).states) == set(explore(cleaned, m0).states)


def test_clean(n1):
    assert clean(n1.net, n1.initial) == n1.net
    net = PetriNet(["p", "q"], ["t1", "t2"],
                   [("p", "t1"), ("t1", "p"), ("q", "t2"), ("t2", "p")])
    cleaned = clean(net, Marking.of("p"))
    assert cleaned.places == ("p",) and cleaned.transitions == ("t1",)


def test_clean_rejects_a_marked_transition():
    # kept, t1 would lose its input r and become a source of tokens on q:
    # the cleaned net would be unbounded from p, the net itself is not
    net = PetriNet(["p", "q", "r"], ["t0", "t1"],
                   [("p", "t0"), ("t0", "q"), ("r", "t1"), ("t1", "q")])
    with pytest.raises(NodeNotFound):
        clean(net, Marking.of("p", "t1"))
    assert explore(net, Marking.of("p")).verdict == "complete"


def test_clean_dead_start_is_invalid():
    # the marked place enables nothing, so no transition survives
    net = PetriNet(["a", "b"], ["t"], [("a", "t"), ("t", "b")])
    with pytest.raises(CleanedNetInvalid):
        clean(net, Marking.of("b"))


def test_short_circuit_n1(n1):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    sc = short_circuit(n1.net, c4, n1.initial)
    assert sc.net.preset(sc.fresh_transition) == {"p4"}
    assert sc.net.postset(sc.fresh_transition) == {"p1"}
    assert connectivity(sc.net) == "strong"
    assert set(sc.net.nodes()) == set(n1.net.nodes()) | {sc.fresh_transition}


def test_short_circuit_self_loop_when_marking_is_cluster():
    # the cluster holds the only marked place and M = Mrk(C)
    net = PetriNet(["p", "q"], ["t1", "t2"],
                   [("p", "t1"), ("t1", "q"), ("q", "t2"), ("t2", "p")])
    cluster_p = next(c for c in net.clusters() if "p" in c.places)
    sc = short_circuit(net, cluster_p, Marking.of("p"))
    assert sc.net.preset(sc.fresh_transition) == {"p"}
    assert sc.net.postset(sc.fresh_transition) == {"p"}


def test_short_circuit_preconditions(n1):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    with pytest.raises(RequiresSafeMarking):
        short_circuit(n1.net, c4, Marking.of("p1", "p1"))
    net = PetriNet(["p", "q"], ["t1", "t2"],
                   [("p", "t1"), ("t1", "p"), ("q", "t2"), ("t2", "p")])
    cluster_q = next(c for c in net.clusters() if "q" in c.places)
    with pytest.raises(ClusterNotConnected):
        short_circuit(net, cluster_q, Marking.of("p"))


def test_direct_detection(n1, n3):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    assert is_home_cluster_direct(n1.net, n1.initial, c4).value is True
    c1 = next(c for c in n1.net.clusters() if "p1" in c.places)
    assert is_home_cluster_direct(n1.net, n1.initial, c1).value is False
    for c in n3.net.clusters():
        assert is_home_cluster_direct(n3.net, n3.initial, c).value is False


def test_short_circuit_detection(n1, n3, n5):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    assert is_home_cluster_short_circuit(n1.net, n1.initial, c4).value is True
    for c in n3.net.clusters():
        assert is_home_cluster_short_circuit(n3.net, n3.initial, c).value is False
    for c in n5.net.clusters():
        expected = c.places in (("p5", "p6"), ("p7", "p8"))
        assert is_home_cluster_short_circuit(n5.net, n5.initial, c).value is expected


def test_short_circuit_detection_needs_free_choice(n2):
    with pytest.raises(ValueError):
        is_home_cluster_short_circuit(n2.net, n2.initial, n2.net.clusters()[0])


def test_find_home_clusters(n1, n3, n4, n5):
    assert [c.places for c in find_home_clusters(n1.net, n1.initial).home_clusters] \
        == [("p4",)]
    assert find_home_clusters(n3.net, n3.initial).home_clusters == ()
    assert find_home_clusters(n4.net, n4.initial).home_clusters == ()
    assert [c.places for c in find_home_clusters(n5.net, n5.initial).home_clusters] \
        == [("p5", "p6"), ("p7", "p8")]


def test_find_home_clusters_methods_agree(n1, n5):
    for ref in (n1, n5):
        report = find_home_clusters(ref.net, ref.initial, method="both")
        for d in report.details:
            assert d.direct is not None and d.short_circuit is not None
            assert d.direct == d.short_circuit


def test_find_home_clusters_direct_only_for_non_free_choice(n2):
    # n2 is not free-choice: the direct method still finds {p4} (its [p4]
    # is a home marking), the short-circuit method stands aside entirely
    report = find_home_clusters(n2.net, n2.initial, method="both")
    assert [c.places for c in report.home_clusters] == [("p4",)]
    assert all(d.short_circuit is None for d in report.details)
    assert all("not applicable" in d.note for d in report.details)


def test_classify_dead_end(n1, n3, n5):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    assert classify_dead_end(n1.net, n1.initial, c4) == "terminal"
    for c in find_home_clusters(n5.net, n5.initial).home_clusters:
        assert classify_dead_end(n5.net, n5.initial, c) == "regenerative"
    # n3 has no home cluster: its first cluster is no input for the dichotomy
    with pytest.raises(ValueError, match="not a home cluster"):
        classify_dead_end(n3.net, n3.initial, n3.net.clusters()[0])


def test_extended_cluster_is_cluster_of_ring(n1):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    sc = short_circuit(n1.net, c4, n1.initial)
    grown = extended_cluster(c4, sc.fresh_transition)
    assert grown in sc.net.clusters()


def test_check_short_circuit_structure(n1):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    res = check_short_circuit_structure(n1.net, c4, n1.initial)
    assert res.applicable and res.passed


def test_check_strongly_connected_home_cluster():
    cycle = PetriNet(["p", "q"], ["t1", "t2"],
                     [("p", "t1"), ("t1", "q"), ("q", "t2"), ("t2", "p")])
    res = check_strongly_connected_home_cluster(cycle, Marking.of("p"))
    assert res.applicable and res.passed


def test_check_detection_equivalence_n1(n1):
    for c in n1.net.clusters():
        res = check_detection_equivalence(n1.net, n1.initial, c)
        assert res.applicable and res.passed


def test_ring_preserves_reachable_markings(n1):
    # for a home cluster the ring transition adds no new markings
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    sc = short_circuit(n1.net, c4, n1.initial)
    assert set(explore(sc.net, n1.initial).states) == \
        set(explore(n1.net, n1.initial).states)
    assert is_free_choice(sc.net)
