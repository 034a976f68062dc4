"""The cluster partition, free choice and the support closure against the
routines they replaced (``net_oracle``): on random general nets, on
generated free-choice nets and on rings derived by ``with_transition``."""

import random
import string

import pytest

from lucentnet import (CleanedNetInvalid, ClusterNotConnected, Marking, NetStructureError,
                       NodeNotFound, PetriNet, is_free_choice, short_circuit, suite_nets,
                       support_closure)
from lucentnet.corpus import GeneratorParams, generate
import net_oracle


def random_net(rng):
    """A random net over shuffled one-letter names, so places and
    transitions interleave in identifier order; transitions may have an
    empty preset or postset and places may have no output transition."""
    names = rng.sample(string.ascii_lowercase, rng.randint(2, 12))
    cut = rng.randint(1, len(names) - 1)
    places, transitions = names[:cut], names[cut:]
    arcs = set()
    for t in transitions:
        for p in rng.sample(places, rng.randint(0, min(3, len(places)))):
            arcs.add((p, t))
        for p in rng.sample(places, rng.randint(0, min(3, len(places)))):
            arcs.add((t, p))
    return PetriNet(places, transitions, sorted(arcs))


def random_nets(rng, count):
    while count:
        try:
            net = random_net(rng)
        except NetStructureError:  # not weakly connected
            continue
        count -= 1
        yield net


def assert_same_clusters(net):
    want = net_oracle.clusters(net)
    assert net.clusters() == want
    assert all(net.cluster_of(x) in want for x in net.nodes())


def test_clusters_and_free_choice_match_the_oracles_on_random_nets():
    seen = set()
    for net in random_nets(random.Random(2020), 3000):
        assert_same_clusters(net)
        fc = is_free_choice(net)
        assert fc == net_oracle.is_free_choice(net)
        seen.add(fc)
        if any(not net.preset(t) for t in net.transitions):
            seen.add("empty preset")
        if any(not net.postset(p) for p in net.places):
            seen.add("place without outputs")
        first = net.clusters()[0]
        if not first.places and first.transitions[0] < net.places[0]:
            seen.add("presetless transition sorts first")
    assert seen == {True, False, "empty preset", "place without outputs",
                    "presetless transition sorts first"}


def test_clusters_and_free_choice_match_the_oracles_on_generated_nets():
    profiles = [{}, dict(transitions_per_cluster=(0, 1)), dict(cluster_count=(5, 9)),
                dict(places_per_cluster=(2, 4), force_strongly_connected=True)]
    for seed in range(200):
        net, _ = generate(GeneratorParams(seed=seed, **profiles[seed % len(profiles)]))
        assert_same_clusters(net)
        assert is_free_choice(net) and net_oracle.is_free_choice(net)


def test_derived_transitions_keep_the_partition_of_a_full_build():
    rng = random.Random(33)
    for net in random_nets(rng, 1500):
        inputs = rng.sample(net.places, rng.randint(0, min(3, len(net.places))))
        outputs = rng.sample(net.places, rng.randint(0 if inputs else 1, len(net.places)))
        derived = net.with_transition("fresh", inputs, outputs)
        assert_same_clusters(derived)
        assert is_free_choice(derived) == net_oracle.is_free_choice(derived)


def test_rings_keep_the_partition_of_a_full_build():
    rings = 0
    for _, net, m0 in suite_nets(random_count=60, seed=3):
        if not m0.is_safe():
            continue
        for cluster in net.clusters():
            try:
                ring = short_circuit(net, cluster, m0).net
            except (CleanedNetInvalid, ClusterNotConnected):
                continue
            assert_same_clusters(ring)
            assert is_free_choice(ring) == net_oracle.is_free_choice(ring)
            rings += 1
    assert rings > 100


def test_support_closure_matches_the_fixpoint():
    rng = random.Random(404)
    pairs = rejected = 0
    for net in random_nets(rng, 2000):
        for _ in range(2):
            # marked names may be places, transitions, or no node of the net;
            # a marking that names anything but places is refused, and its
            # places alone are compared
            pool = list(net.places) + ["zz", "yy"] + list(net.transitions[:1])
            m0 = Marking.of(*rng.sample(pool, rng.randint(0, min(4, len(pool)))))
            places = Marking(tuple(item for item in m0.items if net.is_place(item[0])))
            if places != m0:
                with pytest.raises(NodeNotFound):
                    support_closure(net, m0)
                rejected += 1
            assert support_closure(net, places) == net_oracle.support_closure(net, places)
            pairs += 1
    for _, net, m0 in suite_nets(random_count=100, seed=9):
        assert support_closure(net, m0) == net_oracle.support_closure(net, m0)
        pairs += 1
    assert pairs > 4000 and rejected > 1000
