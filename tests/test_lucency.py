import itertools

import pytest

from lucentnet import (Marking, PetriNet, RequiresSafeMarking, check_lucency,
                       check_no_dominating, check_pairwise_incomparable,
                       derive_conflict_pair, enabled_transitions, explore,
                       find_conflict_pairs, is_fully_transparent,
                       is_transparent_marking)
from scan_oracle import verify_conflict_pair


def test_footprint_examples(n2, n3):
    assert enabled_transitions(n2.net, Marking.of("p2", "p6")) == {"t3"}
    assert enabled_transitions(n2.net, Marking()) == frozenset()
    assert enabled_transitions(n3.net, Marking.of("p1", "p4", "p6")) == {"t1", "t4"}


def test_lucency_n1(n1):
    v = check_lucency(n1.net, n1.initial)
    assert v.lucent is True and v.witness is None
    rg = explore(n1.net, n1.initial)
    assert len({enabled_transitions(n1.net, m) for m in rg.states}) == 4


def test_lucency_n2_witness(n2):
    v = check_lucency(n2.net, n2.initial)
    assert v.lucent is False
    assert v.witness == (Marking.of("p2", "p5"), Marking.of("p2", "p6"))
    assert v.footprint == ("t3",)


def test_lucency_n3_witness(n3):
    v = check_lucency(n3.net, n3.initial)
    assert v.lucent is False
    assert v.witness == (Marking.of("p1", "p3", "p6"), Marking.of("p1", "p4", "p6"))
    assert v.footprint == ("t1", "t4")


def test_lucency_unbounded_net():
    net = PetriNet(["p", "q"], ["t"], [("p", "t"), ("t", "p"), ("t", "q")])
    v = check_lucency(net, Marking.of("p"))
    assert v.lucent is False
    assert v.witness is None
    assert v.unbounded is not None and v.unbounded.pump == ("t",)


def test_transparent_marking_examples(n1, n5):
    assert not is_transparent_marking(n5.net, Marking.of("p4", "p7"))
    assert is_transparent_marking(n1.net, Marking.of("p1"))
    # a net whose transitions all need tokens: the empty marking is
    # vacuously transparent
    assert is_transparent_marking(n1.net, Marking())


def test_fully_transparent(n1, n5):
    v5 = is_fully_transparent(n5.net, n5.initial)
    assert v5.value is False and v5.witness == Marking.of("p4", "p7")
    assert enabled_transitions(n5.net, v5.witness) == {"t5"}
    loop = PetriNet(["p"], ["t"], [("p", "t"), ("t", "p")])
    assert is_fully_transparent(loop, Marking.of("p")).value is True
    # the dead marking [p4] holds a token enabling nothing
    v1 = is_fully_transparent(n1.net, n1.initial)
    assert v1.value is False and v1.witness == Marking.of("p4")


def test_fully_transparent_implies_lucent(n1, n2, n3, n4, n5):
    for ref in (n1, n2, n3, n4, n5):
        if is_fully_transparent(ref.net, ref.initial).value:
            assert check_lucency(ref.net, ref.initial).lucent is True
    loop = PetriNet(["p"], ["t"], [("p", "t"), ("t", "p")])
    assert is_fully_transparent(loop, Marking.of("p")).value is True
    assert check_lucency(loop, Marking.of("p")).lucent is True


# -- conflict pairs --------------------------------------------------------------


def test_find_conflict_pairs_n3(n3):
    pairs = find_conflict_pairs(n3.net, n3.initial)
    wanted = (Marking.of("p2", "p3", "p5"), Marking.of("p2", "p4", "p5"))
    assert any((p.m1, p.m2) == wanted for p in pairs)
    assert enabled_transitions(n3.net, wanted[0]) == {"t2"}
    assert enabled_transitions(n3.net, wanted[1]) == {"t3"}
    rg = explore(n3.net, n3.initial)
    for p in pairs:
        assert verify_conflict_pair(n3.net, rg, p.m1, p.m2)


def test_no_conflict_pairs_in_n1(n1):
    assert find_conflict_pairs(n1.net, n1.initial) == ()


def test_no_conflict_pairs_with_single_live_state():
    loop = PetriNet(["p"], ["t"], [("p", "t"), ("t", "p")])
    assert find_conflict_pairs(loop, Marking.of("p")) == ()


def test_verifier_rejects_bad_pairs(n3):
    rg = explore(n3.net, n3.initial)
    # same footprint, not disjoint
    assert not verify_conflict_pair(n3.net, rg, Marking.of("p1", "p3", "p6"),
                                    Marking.of("p1", "p4", "p6"))
    # not reachable
    assert not verify_conflict_pair(n3.net, rg, Marking.of("p1"), Marking.of("p2"))


def test_derive_conflict_pair_greedy(n3):
    rg = explore(n3.net, n3.initial)
    pair, sigma = derive_conflict_pair(
        n3.net, Marking.of("p1", "p3", "p6"), Marking.of("p1", "p4", "p6"),
        mode="greedy", rg=rg)
    assert sigma == ("t1", "t4")
    assert (pair.m1, pair.m2) == (Marking.of("p2", "p3", "p5"),
                                  Marking.of("p2", "p4", "p5"))


def test_derive_conflict_pair_preconditions(n3):
    with pytest.raises(ValueError):
        derive_conflict_pair(n3.net, Marking.of("p1", "p3", "p6"),
                             Marking.of("p1", "p3", "p6"))
    with pytest.raises(ValueError):
        derive_conflict_pair(n3.net, Marking.of("p1", "p3", "p6"),
                             Marking.of("p2", "p3", "p6"))
    # both enable {t1, t4}, but the first puts two tokens on p1
    unsafe = Marking.of("p1", "p1", "p3", "p6")
    assert enabled_transitions(n3.net, unsafe) == {"t1", "t4"}
    with pytest.raises(RequiresSafeMarking):
        derive_conflict_pair(n3.net, unsafe, Marking.of("p1", "p4", "p6"))
    with pytest.raises(ValueError, match="unknown mode 'guided'"):
        derive_conflict_pair(n3.net, Marking.of("p1", "p3", "p6"),
                             Marking.of("p1", "p4", "p6"), mode="guided")


def test_n1_has_no_same_footprint_pair(n1):
    # exhaustive scan: the conversion to a conflict pair is untriggerable
    rg = explore(n1.net, n1.initial)
    for a, b in itertools.combinations(rg.states, 2):
        assert enabled_transitions(n1.net, a) != enabled_transitions(n1.net, b)


def test_check_no_dominating(n1, n5):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    assert check_no_dominating(n1.net, n1.initial, c4).value is True
    for c in (cl for cl in n5.net.clusters() if cl.places in (("p5", "p6"), ("p7", "p8"))):
        assert check_no_dominating(n5.net, n5.initial, c).value is True
    loop = PetriNet(["p"], ["t"], [("p", "t"), ("t", "p")])
    cluster = loop.clusters()[0]
    v = check_no_dominating(loop, Marking.of("p", "p"), cluster)
    assert v.value is False and v.witness == Marking.of("p", "p")


def test_check_pairwise_incomparable(n1, n3):
    assert check_pairwise_incomparable(n1.net, n1.initial).value is True
    assert check_pairwise_incomparable(n3.net, n3.initial).value is True
    pump = PetriNet(["p", "q"], ["t"], [("p", "t"), ("t", "p"), ("t", "q")])
    v = check_pairwise_incomparable(pump, Marking.of("p"))
    assert v.value is False
    bigger, smaller = v.witness
    assert smaller.lt(bigger)
