"""Short-circuit verdicts read off the base reachability graph against the
from-scratch oracle, :func:`is_home_cluster_short_circuit`, which builds
and explores each cluster's ring (short-circuited net) on its own."""

import pytest

from lucentnet import (CleanedNetInvalid, ClusterNotConnected,
                       ExplorationLimits, Marking, PetriNet,
                       RequiresSafeMarking, TheoremViolation, explore,
                       find_home_clusters, is_home_cluster_short_circuit, mrk,
                       short_circuit, suite_nets)
from lucentnet import homecluster

CAPS = [None, 1, 2, 3, 4, 7]


def forkjoin(k):
    """p0 -> tf -> a_i; a_i -> {tx_i, ty_i} -> d_i; all d_i -> tj -> p0."""
    arcs = [("p0", "tf"), ("tj", "p0")]
    for i in range(k):
        arcs += [("tf", f"a{i}"), (f"a{i}", f"tx{i}"), (f"a{i}", f"ty{i}"),
                 (f"tx{i}", f"d{i}"), (f"ty{i}", f"d{i}"), (f"d{i}", "tj")]
    places = ["p0"] + [f"a{i}" for i in range(k)] + [f"d{i}" for i in range(k)]
    transitions = ["tf", "tj"] + [f"tx{i}" for i in range(k)] + [f"ty{i}" for i in range(k)]
    return PetriNet(places, transitions, arcs), Marking.of("p0")


def ring(length):
    """p_i -> t_i -> p_(i+1 mod L), one token on p0."""
    arcs = []
    for i in range(length):
        arcs += [(f"p{i}", f"t{i}"), (f"t{i}", f"p{(i + 1) % length}")]
    return (PetriNet([f"p{i}" for i in range(length)], [f"t{i}" for i in range(length)], arcs),
            Marking.of("p0"))


def oracle(net, m0, cluster, limits):
    try:
        return is_home_cluster_short_circuit(net, m0, cluster, limits).value
    except (ValueError, RequiresSafeMarking, ClusterNotConnected, CleanedNetInvalid):
        return None  # the short-circuit method does not apply


def assert_matches_oracle(net, m0, limits):
    """Both methods that compute a short-circuit verdict give the oracle's,
    cluster by cluster; ``both`` may only raise where the oracle contradicts
    the direct method.  Returns the oracle's verdicts."""
    expected = [oracle(net, m0, c, limits) for c in net.clusters()]
    sc = find_home_clusters(net, m0, limits, method="short-circuit")
    assert [d.short_circuit for d in sc.details] == expected
    try:
        both = find_home_clusters(net, m0, limits, method="both")
    except TheoremViolation:
        direct = find_home_clusters(net, m0, limits, method="direct")
        assert any(d.direct is not None and v is not None and d.direct != v
                   for d, v in zip(direct.details, expected))
        return expected
    assert [d.short_circuit for d in both.details] == expected
    return expected


@pytest.mark.parametrize("cap", CAPS)
def test_fast_verdicts_match_oracle(cap):
    limits = ExplorationLimits(cap) if cap else None
    nets = [(name, net, m0) for name, net, m0 in suite_nets(random_count=500, seed=4242)]
    nets += [(f"forkjoin({k})", *forkjoin(k)) for k in range(3, 7)]
    nets += [(f"ring({n})", *ring(n)) for n in range(2, 13)]
    fast = 0
    for name, net, m0 in nets:
        try:
            expected = assert_matches_oracle(net, m0, limits)
        except AssertionError as exc:
            raise AssertionError(f"{name}, max_states={cap}") from exc
        # the fast reading decided: a complete base graph, a ring to read
        fast += explore(net, m0, limits).complete and expected != [None] * len(expected)
    assert fast >= (250 if cap is None else 1)


# -- one hand-built net per branch of the reading ---------------------------


def test_strictly_larger_marking_makes_the_ring_unbounded():
    # {p} is the home marking, but {p, x} lies strictly above it
    net = PetriNet(["a", "p", "x"], ["t1", "t2"],
                   [("a", "t1"), ("t1", "p"), ("t1", "x"), ("x", "t2")])
    m0 = Marking.of("a")
    cluster = net.cluster_of("p")
    assert explore(net, m0).is_home(mrk(cluster))
    v = is_home_cluster_short_circuit(net, m0, cluster)
    assert (v.value, v.reason) == (False, "short-circuited net is unbounded")
    assert_matches_oracle(net, m0, None)


def test_unreachable_cluster_marking():
    # p and q are never marked together, so Mrk of tj's cluster is unreachable
    net = PetriNet(["a", "p", "q", "r"], ["t1", "t2", "tj"],
                   [("a", "t1"), ("a", "t2"), ("t1", "p"), ("t2", "q"),
                    ("p", "tj"), ("q", "tj"), ("tj", "r")])
    m0 = Marking.of("a")
    cluster = net.cluster_of("tj")
    assert not explore(net, m0).contains(mrk(cluster))
    assert is_home_cluster_short_circuit(net, m0, cluster).value is False
    assert_matches_oracle(net, m0, None)


def test_reachable_cluster_marking_that_is_not_home():
    # a choice between two sink places: {p} is reachable but not home
    net = PetriNet(["a", "p", "q"], ["t1", "t2"],
                   [("a", "t1"), ("a", "t2"), ("t1", "p"), ("t2", "q")])
    m0 = Marking.of("a")
    cluster = net.cluster_of("p")
    rg = explore(net, m0)
    assert rg.contains(mrk(cluster)) and not rg.is_home(mrk(cluster))
    assert is_home_cluster_short_circuit(net, m0, cluster).value is False
    assert_matches_oracle(net, m0, None)


def test_dead_cleaned_transition():
    # tj survives cleaning but never fires, as a and c are never marked
    # together; {b} is a home marking all the same.  In a free-choice net a
    # dead cleaned transition never decides alone (the places of its
    # cluster stay marked once marked, so no other Mrk(C) is home), hence
    # this net is not free-choice and the reading is checked directly.
    net = PetriNet(["a", "b", "c"], ["t1", "t2", "t3", "tj"],
                   [("a", "t1"), ("t1", "b"), ("b", "t2"), ("t2", "c"),
                    ("c", "t3"), ("t3", "a"), ("a", "tj"), ("c", "tj"), ("tj", "a")])
    m0 = Marking.of("a")
    rg = explore(net, m0)
    cleaned = homecluster.clean(net, m0)
    assert "tj" in cleaned.transitions
    read = homecluster._ring_reader(net, rg, cleaned, None)
    for cluster in net.clusters():
        verdict, _ = homecluster._ring_verdict(short_circuit(net, cluster, m0), m0, None)
        assert read(cluster, mrk(cluster)) is verdict.value is False, cluster
    b = net.cluster_of("b")
    assert rg.is_home(mrk(b))
    assert find_home_clusters(net, m0, method="direct").home_clusters == (b,)


def test_truncated_or_oversized_base_graph_falls_back():
    net, m0 = forkjoin(3)
    small = ExplorationLimits(4)
    assert not explore(net, m0, small).complete
    assert homecluster._ring_reader(net, explore(net, m0, small),
                                    homecluster.clean(net, m0), small) is None
    assert_matches_oracle(net, m0, small)
    # a complete graph larger than the cap would call p0's cluster home,
    # but its ring explored under the cap is truncated
    full = explore(net, m0)
    assert full.complete and len(full.states) > 4
    p0 = net.cluster_of("p0")
    assert homecluster._ring_reader(net, full, homecluster.clean(net, m0), None)(
        p0, mrk(p0)) is True
    assert homecluster._ring_reader(net, full, homecluster.clean(net, m0), small) is None
    report = find_home_clusters(net, m0, small, method="short-circuit", rg=full)
    assert [d.short_circuit for d in report.details] == [
        oracle(net, m0, c, small) for c in net.clusters()]
    home = next(d for d in report.details if d.cluster == net.cluster_of("p0"))
    assert home.short_circuit is None
