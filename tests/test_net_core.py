import random

import pytest

from lucentnet import (Cluster, Marking, NetStructureError, NodeNotFound,
                       NotEnabled, NotEnabledAt, PetriNet, connectivity,
                       enabled_transitions, fire, fire_sequence,
                       is_free_choice, is_proper, mrk, net_class)
from lucentnet.corpus import GeneratorParams, generate


def simple_net():
    return PetriNet(["a", "b"], ["t"], [("a", "t"), ("t", "b")])


# -- construction validation --------------------------------------------------

def test_rejects_bad_identifier():
    with pytest.raises(NetStructureError):
        PetriNet(["a-1"], ["t"], [("a-1", "t")])


def test_rejects_empty_node_sets():
    with pytest.raises(NetStructureError):
        PetriNet([], ["t"], [])
    with pytest.raises(NetStructureError):
        PetriNet(["a"], [], [])


def test_rejects_place_transition_overlap():
    with pytest.raises(NetStructureError):
        PetriNet(["x"], ["x"], [("x", "x")])


def test_rejects_duplicate_declarations():
    with pytest.raises(NetStructureError):
        PetriNet(["a", "a"], ["t"], [("a", "t")])


def test_rejects_duplicate_arcs():
    with pytest.raises(NetStructureError):
        PetriNet(["a"], ["t"], [("a", "t"), ("a", "t")])


def test_rejects_dangling_arc():
    with pytest.raises(NetStructureError):
        PetriNet(["a"], ["t"], [("a", "t"), ("t", "zzz")])


def test_rejects_place_to_place_arc():
    with pytest.raises(NetStructureError):
        PetriNet(["a", "b"], ["t"], [("a", "b"), ("a", "t")])


def test_rejects_disconnected_graph():
    with pytest.raises(NetStructureError) as err:
        PetriNet(["a", "b"], ["t", "u"], [("a", "t"), ("b", "u")])
    assert err.value.nodes == ("b", "u")  # the nodes the message lists


# -- marking multiset algebra --------------------------------------------------

def test_marking_normalizes_zero_counts():
    assert Marking.from_counts({"a": 0, "b": 2}) == Marking.of("b", "b")
    assert Marking.of("a", "b", "a").items == (("a", 2), ("b", 1))


def test_marking_rejects_negative_counts():
    with pytest.raises(ValueError):
        Marking.from_counts({"a": -1})


@pytest.mark.parametrize("count", [0.5, 1.5, "1", None, -1, True])
def test_marking_rejects_non_integer_counts(count):
    # 0.5 would be kept as an unmarked place, 1.5 truncated to one token
    with pytest.raises(ValueError, match=r"negative or not integers for \['p'\]"):
        Marking.from_counts({"a": 1, "p": count})


def test_multiset_difference_and_size():
    b5 = Marking.of("x", "x", "x", "y", "y", "z")
    b2 = Marking.of("x", "x", "y")
    assert b5 - b2 == Marking.of("x", "y", "z")
    assert len(b5) == 6
    assert b5.total({"x", "y"}) == 5


def test_multiset_order_relations():
    b3 = Marking.of("x", "y", "z")
    b4 = Marking.of("x", "x", "y", "x", "y", "z")
    b2 = Marking.of("x", "x", "y")
    assert b3.leq(b4) and b3.lt(b4)
    assert not b2.leq(b3)
    assert not b4.lt(b4)


def _random_marking(rng):
    return Marking.from_counts({p: rng.randint(0, 3) for p in "abcde"})


def test_multiset_laws_randomized():
    rng = random.Random(2024)
    for _ in range(200):
        a, b, c = (_random_marking(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        if a.leq(b) and b.leq(a):
            assert a == b
        # serialization round-trips through the canonical item list
        assert Marking(a.items) == a
        assert Marking.from_counts(dict(a.items)) == a


# -- presets and postsets -------------------------------------------------------

def test_preset_examples(n1, n2, n3):
    assert n2.net.preset("t3") == {"p2"}
    assert n2.net.preset("t4") == {"p3", "p5"}
    assert n3.net.preset("t2") == {"p2", "p3"}
    assert n1.net.preset("p1") == frozenset()  # source place


def test_preset_unknown_node(n1):
    with pytest.raises(NodeNotFound):
        n1.net.preset("nope")


def test_preset_of_set(n2):
    assert n2.net.preset_of_set({"t4", "t5"}) == {"p3", "p5", "p6"}


# -- enabling and firing ---------------------------------------------------------

def test_enabled_examples(n2, n3):
    assert enabled_transitions(n2.net, Marking.of("p2", "p5")) == {"t3"}
    assert enabled_transitions(n2.net, Marking()) == frozenset()
    assert enabled_transitions(n3.net, Marking.of("p1", "p3", "p6")) == {"t1", "t4"}


def test_fire_examples(n2, n3):
    assert fire(n2.net, Marking.of("p1"), "t1") == Marking.of("p2", "p5")
    assert fire(n3.net, Marking.of("p1", "p3", "p6"), "t1") == \
        Marking.of("p2", "p3", "p6")


def test_fire_leaves_input_untouched(n2):
    m = Marking.of("p1")
    fire(n2.net, m, "t1")
    assert m == Marking.of("p1")


def test_fire_disabled_raises(n2):
    with pytest.raises(NotEnabled):
        fire(n2.net, Marking.of("p1"), "t3")


def test_fire_token_conservation():
    # |result| = |m| - |preset| + |postset| on every call
    rng = random.Random(7)
    for seed in range(20):
        net, m0 = generate(GeneratorParams(seed=seed))
        m = m0
        for _ in range(30):
            en = sorted(enabled_transitions(net, m))
            if not en:
                break
            t = rng.choice(en)
            m2 = fire(net, m, t)
            assert len(m2) == len(m) - len(net.preset(t)) + len(net.postset(t))
            m = m2


def test_fire_sequence_examples(n2, n3):
    assert fire_sequence(n2.net, Marking.of("p1"), ("t1", "t3")) == \
        Marking.of("p3", "p5")
    assert fire_sequence(n2.net, Marking.of("p1"), ()) == Marking.of("p1")
    assert fire_sequence(n3.net, Marking.of("p1", "p3", "p6"), ("t1", "t2")) == \
        Marking.of("p1", "p4", "p6")


def test_fire_sequence_reports_failing_index(n2):
    with pytest.raises(NotEnabledAt) as err:
        fire_sequence(n2.net, Marking.of("p1"), ("t1", "t3", "t3"))
    assert err.value.index == 2
    assert err.value.transition == "t3"


def test_fire_sequence_concatenation_law(n3):
    m0 = Marking.of("p1", "p3", "p6")
    s1, s2 = ("t1", "t4"), ("t2",)
    assert fire_sequence(n3.net, m0, s1 + s2) == \
        fire_sequence(n3.net, fire_sequence(n3.net, m0, s1), s2)


# -- clusters ----------------------------------------------------------------------

def test_cluster_partition_examples(n1, n3):
    assert {c.nodes() for c in n1.net.clusters()} == {
        ("p1", "t1", "t2"), ("p2", "t3"), ("p3", "t4", "t5"), ("p4",)}
    assert {c.nodes() for c in n3.net.clusters()} == {
        ("p1", "t1"), ("p2", "p3", "t2"), ("p4", "p5", "t3"), ("p6", "t4")}


def test_cluster_of_self_loop():
    net = PetriNet(["p"], ["t"], [("p", "t"), ("t", "p")])
    assert [c.nodes() for c in net.clusters()] == [("p", "t")]


def test_cluster_partition_property():
    for seed in range(15):
        net, _ = generate(GeneratorParams(seed=seed))
        blocks = [set(c.nodes()) for c in net.clusters()]
        assert sum(len(b) for b in blocks) == len(net.nodes())
        union = set()
        for b in blocks:
            assert not (union & b)
            union |= b
        assert union == set(net.nodes())


def test_mrk_examples(n1, n3):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    assert mrk(c4) == Marking.of("p4")
    assert mrk(Cluster(("x",), ())) == Marking.of("x")
    c2 = next(c for c in n3.net.clusters() if "t2" in c.transitions)
    assert mrk(c2) == Marking.of("p2", "p3")


# -- structural predicates ------------------------------------------------------------

def test_free_choice_examples(n1, n2):
    assert is_free_choice(n1.net)
    assert not is_free_choice(n2.net)
    assert is_free_choice(simple_net())  # single transition, no pair to clash


def test_free_choice_cluster_law():
    # in a free-choice net every transition's preset is its whole cluster
    for seed in range(15):
        net, _ = generate(GeneratorParams(seed=seed))
        assert is_free_choice(net)
        for c in net.clusters():
            for t in c.transitions:
                assert net.preset(t) == frozenset(c.places)


def test_proper_examples(n1, n3):
    assert is_proper(n1.net)
    assert is_proper(n3.net)
    source = PetriNet(["a"], ["t"], [("t", "a")])
    assert not is_proper(source)


def test_connectivity_examples(n1, n3):
    assert connectivity(n3.net) == "strong"
    assert connectivity(n1.net) == "weak"
    both_ways = PetriNet(["p", "q"], ["t"],
                         [("p", "t"), ("t", "p"), ("q", "t"), ("t", "q")])
    assert connectivity(both_ways) == "strong"


def test_net_class_examples(n1, n2, n3, n4, n5):
    assert net_class(n3.net) == "marked-graph"
    assert net_class(n2.net) == "general"
    # every transition of n1 has exactly one input and one output place
    assert net_class(n1.net) == "state-machine"
    assert net_class(n4.net) == "free-choice"
    assert net_class(n5.net) == "free-choice"
    loop = PetriNet(["p"], ["t"], [("p", "t"), ("t", "p")])
    assert net_class(loop) == "marked-graph"
