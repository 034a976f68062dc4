"""Rings derived from their cleaned net in one step, and cleaned nets that
keep every node, against full builds of the same nets (``ring_oracle``)."""

import pytest

from lucentnet import (CleanedNetInvalid, Marking, NetStructureError, PetriNet,
                       clean, explore, is_free_choice, is_proper, short_circuit,
                       suite_nets, support_closure)
from lucentnet.homecluster import _attach_ring
from lucentnet.net import compiled
import ring_oracle


def by_node(sets):
    """A preset or postset map as ``(node, sorted nodes)`` pairs, in node
    order: each set, with any repeat showing."""
    return [(x, sorted(s)) for x, s in sets.items()]


def assert_same_net(derived, built):
    assert derived == built and hash(derived) == hash(built)
    assert (derived.places, derived.transitions, derived.nodes()) == \
        (built.places, built.transitions, built.nodes())
    assert by_node(derived._pre) == by_node(built._pre)  # key order too
    assert by_node(derived._post) == by_node(built._post)
    assert derived._place_set == built._place_set
    assert derived._transition_set == built._transition_set
    assert derived.clusters() == built.clusters()
    assert list(derived._cluster_of.items()) == list(built._cluster_of.items())
    assert all(derived.cluster_of(x) == built.cluster_of(x) for x in built.nodes())
    d, b = compiled(derived), compiled(built)
    assert (d.outs, d.always, d.dsize) == (b.outs, b.always, b.dsize)


def _ring_or_error(build, *args):
    try:
        return build(*args).net
    except CleanedNetInvalid as exc:
        return str(exc)


def compare_rings(net, m0):
    """Compare the derived and the built ring of every cluster of ``net``
    that survives cleaning; return how many were compared."""
    keep = support_closure(net, m0)
    cleaned = clean(net, m0)
    assert_same_net(cleaned, ring_oracle.restrict(net, keep))
    lists = by_node(cleaned._pre), by_node(cleaned._post)
    compared = 0
    for cluster in net.clusters():
        if not set(cluster.nodes()) <= keep:
            continue
        derived = _ring_or_error(_attach_ring, cleaned, cluster, m0)
        built = _ring_or_error(ring_oracle.attach_ring, cleaned, cluster, m0)
        if isinstance(built, str):
            assert derived == built
        else:
            assert_same_net(derived, built)
        compared += 1
    assert (by_node(cleaned._pre), by_node(cleaned._post)) == lists  # rings share them
    return compared


@pytest.mark.parametrize("seed", [0, 1])
def test_derived_rings_match_full_builds_on_suite_nets(seed):
    compared = 0
    for name, net, m0 in suite_nets(random_count=500, seed=seed):
        if is_free_choice(net) and is_proper(net) and m0.is_safe():
            try:
                compared += compare_rings(net, m0)
            except CleanedNetInvalid:
                with pytest.raises(CleanedNetInvalid):
                    ring_oracle.restrict(net, support_closure(net, m0))
    assert compared > 1000


def _placeless():
    # t0 has no input place: {t0} is a cluster without places
    return PetriNet(["p"], ["t0", "t1"], [("t0", "p"), ("p", "t1")])


def test_a_placeless_cluster_gets_a_ring_of_its_own():
    net = _placeless()
    assert compare_rings(net, Marking.of("p")) == 2
    ring = short_circuit(net, net.cluster_of("t0"), Marking.of("p")).net
    assert ring.cluster_of("tC").nodes() == ("tC",)
    assert ring.cluster_of("t0").nodes() == ("t0",)


def test_a_placeless_cluster_on_an_empty_marking_raises_the_same_error():
    net, m0 = _placeless(), Marking()
    assert compare_rings(net, m0) == 2
    with pytest.raises(CleanedNetInvalid, match=r"short-circuited net is not a valid net: "
                                                r"net is not weakly connected; "
                                                r"unreachable from p: \['tC'\]"):
        short_circuit(net, net.cluster_of("t0"), m0)


def test_a_taken_name_moves_the_fresh_transition_to_tC1():
    net = PetriNet(["p", "q"], ["tC", "u"], [("p", "tC"), ("tC", "q"), ("q", "u"), ("u", "p")])
    assert compare_rings(net, Marking.of("p")) == 2
    assert short_circuit(net, net.cluster_of("q"), Marking.of("p")).fresh_transition == "tC1"


def test_transitions_sorting_after_tC_keep_node_order():
    net = PetriNet(["a", "b", "c"], ["t1", "x1", "x2"],
                   [("a", "t1"), ("t1", "b"), ("b", "x1"), ("x1", "c"), ("c", "x2"), ("x2", "a")])
    m0 = Marking.of("a")
    assert compare_rings(net, m0) == 3
    ring = short_circuit(net, net.cluster_of("b"), m0).net
    assert ring.transitions == ("t1", "tC", "x1", "x2")
    assert list(ring._pre)[3:] == ["t1", "tC", "x1", "x2"]
    assert explore(ring, m0).complete


def test_with_transition_checks_what_the_new_node_can_break():
    net = PetriNet(["p", "q"], ["t"], [("p", "t"), ("t", "q")])
    cases = [("1x", ["p"], [], "bad identifier: '1x'"),
             ("t", ["p"], [], "duplicate transition declarations"),
             ("p", ["q"], [], r"identifiers used as both place and transition: \['p'\]"),
             ("u", ["p", "p"], [], "duplicate arc p -> u"),
             ("u", ["z"], [], "arc endpoint 'z' is not a node"),
             ("u", [], ["t"], "arc u -> t must connect a place and a transition"),
             ("u", [], [], r"net is not weakly connected; unreachable from p: \['u'\]")]
    for fresh, inputs, outputs, message in cases:
        with pytest.raises(NetStructureError, match=message):
            net.with_transition(fresh, inputs, outputs)
        arcs = sorted(net.flow) + [(p, fresh) for p in inputs] + [(fresh, p) for p in outputs]
        with pytest.raises(NetStructureError, match=message):
            PetriNet(net.places, net.transitions + (fresh,), arcs)
    # inputs in two clusters merge them with the new transition
    both = net.with_transition("u", ["p", "q"], ["p"])
    assert_same_net(both, PetriNet(["p", "q"], ["t", "u"],
                                   sorted(net.flow) + [("p", "u"), ("q", "u"), ("u", "p")]))
    assert both.clusters()[0].nodes() == ("p", "q", "t", "u")


def test_cleaning_that_keeps_every_node_returns_the_net():
    net = _placeless()
    assert clean(net, Marking.of("p")) is net
    assert clean(net, Marking()) is net
