import random
from collections import Counter

import pytest

from lucentnet import (BadIndices, InvalidPath, Marking, NodeNotFound, Path,
                       PetriNet, disentangle, expedite, expedited_member,
                       find_rooted_path, fire_sequence, is_disentangled,
                       is_path, verify_expedite_safe, verify_path_safety)
from lucentnet import (ExplorationLimits, NetStructureError, UndecidedError, explore,
                       is_free_choice, suite_nets)
from lucentnet.corpus import GeneratorParams, generate
from lucentnet.paths import _moves
import rooted_oracle
from test_packed_explore import random_net

SIGMA5 = ("t2", "t5", "t6", "t8", "t8")


def test_path_predicates(n3, n5):
    assert is_path(n5.net, ("t8", "p7", "t8", "p8"))
    assert is_path(n3.net, ("p1", "t1", "p2", "t2"))
    assert not is_path(n3.net, ("p1", "p2"))
    assert not is_path(n3.net, ())


def test_disentangled_examples(n3):
    assert not is_disentangled(n3.net, ("p5", "t3", "p3", "t2", "p4"))
    assert is_disentangled(n3.net, ("p5", "t3", "p3", "t2", "p1"))
    assert is_disentangled(n3.net, ("p1",))


def test_q_rooted(n3):
    # rooted in a cluster: the path ends at one of the cluster's places
    rho2 = ("p5", "t3", "p3", "t2", "p1")
    cluster1 = next(c for c in n3.net.clusters() if "p1" in c.places)
    out = disentangle(n3.net, rho2, cluster1)
    assert out.nodes == rho2 and out.nodes[-1] in cluster1.places


def test_disentangle_worked_example(n3):
    cluster1 = next(c for c in n3.net.clusters() if "p1" in c.places)
    rho = ("p6", "t4", "p5", "t3", "p3", "t2", "p4", "t3", "p3", "t2", "p1")
    out = disentangle(n3.net, rho, cluster1)
    assert out.nodes == ("p6", "t4", "p5", "t3", "p3", "t2", "p1")


def test_disentangle_contract(n3):
    cluster1 = next(c for c in n3.net.clusters() if "p1" in c.places)
    rho = ("p6", "t4", "p5", "t3", "p3", "t2", "p4", "t3", "p3", "t2", "p1")
    out = disentangle(n3.net, rho, cluster1)
    assert is_disentangled(n3.net, out.nodes)
    assert out.nodes[-1] in cluster1.places
    assert out.nodes[0] == rho[0]
    transitions = {x for x in out.nodes if n3.net.is_transition(x)}
    assert transitions <= {x for x in rho if n3.net.is_transition(x)}


def test_disentangle_identity_and_truncation(n3):
    cluster1 = next(c for c in n3.net.clusters() if "p1" in c.places)
    already = ("p5", "t3", "p3", "t2", "p1")
    assert disentangle(n3.net, already, cluster1).nodes == already
    # starting inside the target cluster collapses to a single place
    assert disentangle(n3.net, ("p1", "t1", "p2", "t2", "p1"), cluster1).nodes == ("p1",)


def test_disentangle_accepts_a_path(n1, n3):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    path = find_rooted_path(n1.net, n1.initial, "p1", c4).path
    assert disentangle(n1.net, path, c4) == disentangle(n1.net, path.nodes, c4)
    cluster1 = next(c for c in n3.net.clusters() if "p1" in c.places)
    rho = Path.of(n3.net, ("p6", "t4", "p5", "t3", "p3", "t2", "p4", "t3", "p3", "t2", "p1"))
    assert disentangle(n3.net, rho, cluster1) == disentangle(n3.net, rho.nodes, cluster1)


def test_disentangle_rejects_bad_input(n3):
    cluster1 = next(c for c in n3.net.clusters() if "p1" in c.places)
    with pytest.raises(InvalidPath):
        disentangle(n3.net, ("p5", "t3", "p3"), cluster1)  # ends outside cluster
    with pytest.raises(InvalidPath):
        disentangle(n3.net, ("t1", "p2"), cluster1)  # starts at a transition


def test_find_rooted_path(n1):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    res = find_rooted_path(n1.net, n1.initial, "p1", c4)
    assert res.path.nodes == ("p1", "t1", "p2", "t3", "p3", "t4", "p4")
    # a place already in the cluster roots trivially
    res = find_rooted_path(n1.net, n1.initial, "p4", c4)
    assert res.path.nodes == ("p4",)


def test_find_rooted_path_dead_place():
    net = PetriNet(["p", "q", "r"], ["t1", "t2"],
                   [("p", "t1"), ("t1", "p"), ("q", "t2"), ("t2", "r"), ("t2", "p")])
    cluster_p = next(c for c in net.clusters() if "p" in c.places)
    res = find_rooted_path(net, Marking.of("p"), "q", cluster_p)
    assert not res.found and res.reason == "dead-place"


def test_paths_reject_nodes_outside_the_net(n1):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    with pytest.raises(NodeNotFound):
        find_rooted_path(n1.net, n1.initial, "zzz", c4)
    with pytest.raises(InvalidPath):  # a transition is no start
        find_rooted_path(n1.net, n1.initial, "t1", c4)
    for nodes in (["zzz"], ("p1", "p2"), ()):
        with pytest.raises(InvalidPath):
            verify_path_safety(n1.net, n1.initial, nodes)


def test_verify_path_safety(n1, n3):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))
    for p in n1.net.places:
        res = find_rooted_path(n1.net, n1.initial, p, c4)
        assert verify_path_safety(n1.net, n1.initial, res.path).value is True
    assert verify_path_safety(n1.net, n1.initial, ("p2",)).value is True
    # a non-rooted disentangled path over two concurrently marked places
    bad = ("p3", "t2", "p1")
    assert is_disentangled(n3.net, bad)
    v = verify_path_safety(n3.net, n3.initial, bad)
    assert v.value is False and v.witness == Marking.of("p1", "p3", "p6")


# -- expediting -----------------------------------------------------------------


def test_expedite_formula():
    assert expedite(("a", "b", "c", "d"), 1, 3) == ("c", "a", "b", "d")
    assert expedite(("a", "b", "c", "d"), 2, 3) == ("a", "c", "b", "d")
    assert expedite(SIGMA5, 2, 3) == ("t2", "t6", "t5", "t8", "t8")
    assert expedite(SIGMA5, 2, 4) == ("t2", "t8", "t5", "t6", "t8")


def test_expedite_rejects_bad_indices():
    with pytest.raises(BadIndices):
        expedite(("a", "b"), 2, 2)
    with pytest.raises(BadIndices):
        expedite(("a", "b"), 0, 1)
    with pytest.raises(BadIndices):
        expedite(("a", "b"), 1, 3)


def test_expedited_member(n5):
    assert expedited_member(n5.net, n5.initial, SIGMA5, SIGMA5).value is True
    assert expedited_member(n5.net, n5.initial, SIGMA5,
                            ("t2", "t6", "t5", "t8", "t8")).value is True
    assert expedited_member(n5.net, n5.initial, SIGMA5,
                            ("t2", "t8", "t5", "t6", "t8")).value is False
    assert expedited_member(n5.net, n5.initial, SIGMA5,
                            ("t2", "t5", "t6", "t8")).value is False  # not a permutation


def test_expedited_variants_invariants(n5):
    # every sequence reachable by moves is a permutation with per-cluster
    # order preserved, stays enabled, and reaches the same final marking
    base = SIGMA5
    expected = fire_sequence(n5.net, n5.initial, base)
    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for seq in frontier:
            for _, rewritten in _moves(n5.net, n5.initial, seq):
                if rewritten in seen:
                    continue
                seen.add(rewritten)
                nxt.append(rewritten)
        frontier = nxt
    assert len(seen) > 1
    for seq in seen:
        assert Counter(seq) == Counter(base)
        assert fire_sequence(n5.net, n5.initial, seq) == expected
        for cluster in n5.net.clusters():
            trans = set(cluster.transitions)
            assert tuple(t for t in seq if t in trans) == \
                tuple(t for t in base if t in trans)


def test_verify_expedite_safe(n5):
    assert verify_expedite_safe(n5.net, n5.initial, SIGMA5).value is True
    assert verify_expedite_safe(n5.net, n5.initial, ()).value is True


def test_expedite_replays_on_random_nets():
    # replay oracle: every single legal move preserves enabledness and the
    # final marking, on randomly generated free-choice nets
    rng = random.Random(11)
    nets = 0
    for seed in range(30):
        # single-place clusters with single outputs keep tokens circulating,
        # so the sampled walks are long enough to admit moves
        net, m0 = generate(GeneratorParams(seed=seed, places_per_cluster=(1, 1),
                                           transitions_per_cluster=(1, 2),
                                           outputs_per_transition=(1, 1)))
        walk = []
        m = m0
        for _ in range(8):
            en = sorted(t for t in net.transitions
                        if all(m.count(p) for p in net.preset(t)))
            if not en:
                break
            t = rng.choice(en)
            walk.append(t)
            m = fire_sequence(net, m, (t,))
        if len(walk) < 2:
            continue
        nets += 1
        expected = fire_sequence(net, m0, walk)
        for _, variant in _moves(net, m0, tuple(walk)):
            assert fire_sequence(net, m0, variant) == expected
    assert nets >= 10


def _rooted_outcome(find, net, m0, place, cluster, rg):
    try:
        res = find(net, m0, place, cluster, rg=rg)
    except (InvalidPath, UndecidedError) as exc:
        return type(exc)
    return res


def _compare_rooted(net, m0, limits):
    """``find_rooted_path`` against the BFS-then-disentangle oracle on every
    (cluster, place) of ``net``; returns the outcomes."""
    rg = explore(net, m0, limits)
    outcomes = []
    for cluster in net.clusters():
        for p in net.places:
            got = _rooted_outcome(find_rooted_path, net, m0, p, cluster, rg)
            assert got == _rooted_outcome(rooted_oracle.find_rooted_path,
                                          net, m0, p, cluster, rg)
            outcomes.append(got)
    return outcomes


def test_rooted_paths_match_bfs_then_disentangle():
    # free-choice nets: the breadth-first chain is already disentangled
    limits = ExplorationLimits(max_states=200)
    fc = []
    for _, net, m0 in suite_nets(random_count=300, seed=99):
        if is_free_choice(net):
            fc += _compare_rooted(net, m0, limits)
    assert InvalidPath not in fc
    assert sum(1 for o in fc if not isinstance(o, type) and o.found) > 2000
    # any class: a chain through two places of one cluster raises on both sides
    rng = random.Random(17)
    general, made = [], 0
    while made < 600:
        try:
            net, m0 = random_net(rng)
        except NetStructureError:
            continue
        made += 1
        general += _compare_rooted(net, m0, limits)
    assert {InvalidPath, UndecidedError} <= set(general)
    assert {o.reason for o in general if not isinstance(o, type)} == \
        {"", "dead-place", "no-graph-path"}
