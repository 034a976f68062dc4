"""The theorem suite short-circuits each cluster once and reads that one ring
for every check; the public per-cluster functions, which build their own
ring, are the oracle for what it reads.  Home-cluster detection alone
explores no ring unless the base graph is incomplete."""

import pathlib
import sys
from collections import Counter

import pytest

from lucentnet import (CleanedNetInvalid, ClusterNotConnected,
                       ExplorationLimits, Marking, PetriNet, TheoremViolation,
                       all_reference_nets, check_detection_equivalence,
                       check_short_circuit_structure, explore,
                       find_home_clusters, is_free_choice, is_proper,
                       reference_net, run_theorem_suite, short_circuit,
                       suite_nets)
from lucentnet import homecluster, reachability
from lucentnet.cli import main
from test_fast_short_circuit import forkjoin, ring

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _key(net, m0):
    return net.places, net.transitions, net.flow, m0


@pytest.fixture
def explorations(monkeypatch):
    """Count explorations per (net, m0), wrapping ``explore`` in every
    lucentnet module that binds it."""
    counts = Counter()
    original = reachability.explore

    def counting(net, m0, *args, **kwargs):
        counts[_key(net, m0)] += 1
        return original(net, m0, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "lucentnet" or name.startswith("lucentnet.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return counts


def test_suite_explores_each_net_and_each_ring_once(explorations):
    nets = suite_nets(random_count=12, seed=3)
    assert any(name.endswith("-ring") for name, _, _ in nets)
    rings_seen = 0
    for name, net, m0 in nets:
        explorations.clear()
        run_theorem_suite([(name, net, m0)])
        assert explorations.pop(_key(net, m0)) == 1, name
        assert all(n == 1 for n in explorations.values()), name
        rings_seen += len(explorations)
    assert rings_seen > 0


def _family_nets():
    yield from ((ref.ident, ref.net, ref.initial) for ref in all_reference_nets())
    yield ("forkjoin(4)", *forkjoin(4))
    yield ("ring(9)", *ring(9))


def _applicable_rings(net, m0):
    count = 0
    for cluster in net.clusters():
        try:
            short_circuit(net, cluster, m0)
            count += 1
        except (ClusterNotConnected, CleanedNetInvalid):
            pass
    return count


def test_home_clusters_explore_a_complete_net_once(explorations, capsys):
    for name, net, m0 in _family_nets():
        applies = is_free_choice(net) and m0.is_safe()
        for method in ("both", "short-circuit"):
            explorations.clear()
            find_home_clusters(net, m0, method=method)
            runs = 1 if method == "both" or applies else 0
            assert explorations[_key(net, m0)] == runs, (name, method)
            assert sum(explorations.values()) == runs, (name, method)
    for ident in ("n1", "n2", "n3", "n4", "n5"):
        explorations.clear()
        main(["home-clusters", str(CORPUS / f"{ident}.net"), "--method", "both"])
        assert list(explorations.values()) == [1], ident


def test_home_clusters_explore_each_ring_on_a_truncated_net(explorations, capsys):
    small = ExplorationLimits(max_states=3)
    truncated = 0
    for name, net, m0 in _family_nets():
        if explore(net, m0, small).complete or not is_free_choice(net):
            continue
        truncated += 1
        rings = _applicable_rings(net, m0)
        explorations.clear()
        find_home_clusters(net, m0, small, method="both")
        assert explorations.pop(_key(net, m0)) == 1, name
        assert len(explorations) == rings and set(explorations.values()) == {1}, name
    assert truncated >= 4
    explorations.clear()
    main(["home-clusters", str(CORPUS / "n3.net"), "--method", "both", "--max-states", "3"])
    n3 = reference_net("n3")
    assert sum(explorations.values()) == 1 + _applicable_rings(n3.net, n3.initial)


def test_widening_restarts_stay_inside_one_exploration(explorations, monkeypatch):
    # a safe start that later puts two tokens on c: explore restarts with
    # wider fields, still as one call
    net = PetriNet(["a", "b", "c"], ["t1", "t2", "t3"],
                   [("a", "t1"), ("t1", "b"), ("t1", "c"),
                    ("b", "t2"), ("t2", "c"), ("c", "t3")])
    m0 = Marking.of("a")
    searches = []
    original = reachability._search
    monkeypatch.setattr(reachability, "_search",
                        lambda form, layout, *args: searches.append(layout.width)
                        or original(form, layout, *args))
    run_theorem_suite([("widening", net, m0)])
    assert explorations[_key(net, m0)] == 1
    assert set(explorations.values()) == {1}
    # every exploration starts at width 1 and restarts once, inside its call
    assert searches == [1, 2] * len(explorations)


def test_find_home_clusters_builds_each_cluster_marking_once(n5, monkeypatch):
    built = []
    original = homecluster.mrk
    monkeypatch.setattr(homecluster, "mrk", lambda c: built.append(c) or original(c))
    report = find_home_clusters(n5.net, n5.initial, method="both")
    assert built == list(n5.net.clusters())
    assert [d.marking for d in report.details] == [original(c) for c in built]


def test_find_home_clusters_closes_support_once(n5, monkeypatch):
    calls = []
    original = homecluster.support_closure
    monkeypatch.setattr(homecluster, "support_closure",
                        lambda net, m0: calls.append(1) or original(net, m0))
    find_home_clusters(n5.net, n5.initial, method="both")
    assert len(calls) == 1


def _rings_read_by_suite(monkeypatch, name, net, m0, limits):
    """The structure and equivalence results the suite computes on its
    shared rings, in cluster order."""
    seen = {"short-circuit-structure": [], "detection-equivalence": []}
    for judge in ("_judge_structure", "_judge_equivalence"):
        original = getattr(homecluster, judge)

        def capture(*args, _original=original):
            result = _original(*args)
            seen[result.name].append(result)
            return result

        monkeypatch.setattr(homecluster, judge, capture)
    report = run_theorem_suite([(name, net, m0)], limits)
    monkeypatch.undo()
    return seen, report


def _public_results(net, m0, limits):
    """The same checks through the public functions, each cluster on its own
    ring, over the clusters the suite reads: the clusters that have a ring
    (for the structure check, only the home clusters)."""
    expected = {"short-circuit-structure": [], "detection-equivalence": []}
    if not (is_free_choice(net) and is_proper(net) and m0.is_safe()):
        return expected
    try:
        homes = find_home_clusters(net, m0, limits, method="both").home_clusters
    except TheoremViolation:
        homes = find_home_clusters(net, m0, limits, method="direct").home_clusters
    for cluster in net.clusters():
        try:
            short_circuit(net, cluster, m0)
        except (ClusterNotConnected, CleanedNetInvalid):
            continue
        expected["detection-equivalence"].append(
            check_detection_equivalence(net, m0, cluster, limits))
        if cluster in homes:
            expected["short-circuit-structure"].append(
                check_short_circuit_structure(net, cluster, m0))
    return expected


@pytest.mark.parametrize("limits", [None, ExplorationLimits(max_states=4)])
def test_shared_rings_match_public_checks(monkeypatch, limits):
    nets = suite_nets(random_count=200, seed=20240)
    judged = 0
    for name, net, m0 in nets:
        seen, report = _rings_read_by_suite(monkeypatch, name, net, m0, limits)
        expected = _public_results(net, m0, limits)
        assert seen == expected, name
        for check, results in expected.items():
            applicable = [r for r in results if r.applicable]
            status = ("skip" if not applicable else
                      "pass" if all(r.passed for r in applicable) else "fail")
            assert report.counts[check][status] == 1, (name, check)
        judged += len(seen["detection-equivalence"])
    assert judged > 200

