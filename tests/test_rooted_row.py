"""The theorem suite's rooted-path row reads packed states: a dead place is
a zero field of one OR over them, and path safety is a masked popcount per
state at width 1, so only a violating state is decoded.  The decoded row in
``tests/rooted_oracle.py`` is its oracle."""

import pytest

from lucentnet import (ExplorationLimits, InvalidPath, Marking, PetriNet, UndecidedError,
                       explore, find_home_clusters, is_free_choice, suite_nets,
                       verify_path_safety)
from lucentnet import reachability
from lucentnet.corpus import _rooted_path_faults
import rooted_oracle


def _decodes(monkeypatch):
    decoded = []
    decode = reachability._Layout.marking
    monkeypatch.setattr(reachability._Layout, "marking",
                        lambda layout, s: decoded.append(s) or decode(layout, s))
    return decoded


def test_packed_row_matches_the_decoded_row(monkeypatch):
    # every cluster of every free-choice suite net, not only the home
    # clusters the suite passes: other clusters give unsafe paths and places
    # with no path
    decoded = _decodes(monkeypatch)
    rows = unsafe = unrooted = 0
    for name, net, m0 in suite_nets(300):
        if not is_free_choice(net):
            continue
        rg = explore(net, m0)
        if not rg.complete:  # the row needs a complete graph
            continue
        clusters = net.clusters()
        decoded.clear()
        got = _rooted_path_faults(net, m0, clusters, None, rg)
        assert len(decoded) == sum("unsafe path" in fault for fault in got), name
        assert got == rooted_oracle.rooted_path_faults(net, m0, clusters, rg=rg), name
        rows += 1
        unsafe += any("unsafe path" in fault for fault in got)
        unrooted += any("no path" in fault for fault in got)
    assert rows > 250 and unsafe > 40 and unrooted > 100


def test_row_of_the_suite_homes_matches_the_decoded_row():
    faults = 0
    for name, net, m0 in suite_nets(300):
        if not is_free_choice(net):
            continue
        rg = explore(net, m0)
        if not rg.complete:
            continue
        homes = find_home_clusters(net, m0, method="direct", rg=rg).home_clusters
        got = _rooted_path_faults(net, m0, homes, None, rg)
        assert got == rooted_oracle.rooted_path_faults(net, m0, homes, rg=rg), name
        faults += len(got)
    assert faults == 0  # the theorem: rooted paths to a home cluster carry one token


def test_witness_is_the_first_violating_state_at_wider_fields():
    # a three-place cycle with two tokens: fields are 2 bits wide, and the
    # states in order are [p^2], [p, q], [q^2], [p, r], ...
    net = PetriNet(["p", "q", "r"], ["t1", "t2", "t3"],
                   [("p", "t1"), ("t1", "q"), ("q", "t2"), ("t2", "r"), ("r", "t3"),
                    ("t3", "p")])
    m0 = Marking.from_counts({"p": 2})
    rg = explore(net, m0)
    assert rg._layout.width == 2
    assert rg.states[:3] == (m0, Marking.of("p", "q"), Marking.of("q", "q"))
    witnesses = set()
    for path in (("q", "t2", "r"), ("q",), ("r", "t3", "p"), ("p", "t1", "q", "t2", "r"),
                 ("t1", "q")):
        got = verify_path_safety(net, m0, path, rg=rg)
        assert got == rooted_oracle.verify_path_safety(net, m0, path, rg=rg), path
        places = [x for x in path if net.is_place(x)]
        first = next(i for i, m in enumerate(rg.states) if m.total(places) > 1)
        assert got.value is False and got.witness == rg.states[first], path
        witnesses.add(first)
    assert verify_path_safety(net, m0, ("q", "t2", "r"), rg=rg).witness == Marking.of("q", "q")
    assert witnesses > {0}
    # one token on the cycle: every path is safe
    assert verify_path_safety(net, Marking.of("p"), ("p", "t1", "q")).value is True


def test_row_needs_a_complete_graph(n5):
    homes = find_home_clusters(n5.net, n5.initial).home_clusters
    assert homes
    limits = ExplorationLimits(max_states=3)
    rg = explore(n5.net, n5.initial, limits)
    assert rg.verdict == "truncated"
    with pytest.raises(UndecidedError):
        _rooted_path_faults(n5.net, n5.initial, homes, limits, rg)


def test_row_rejects_a_path_a_net_that_is_not_free_choice_makes():
    # u takes from a, w from a and b: one cluster {a, b, u, w}.  The only
    # path from b to c runs b w d t a u c, through two places of that cluster
    net = PetriNet(["a", "b", "c", "d"], ["t", "u", "w"],
                   [("a", "u"), ("a", "w"), ("b", "w"), ("w", "d"), ("d", "t"), ("t", "a"),
                    ("u", "c")])
    assert not is_free_choice(net)
    m0 = Marking.of("b")
    target = [c for c in net.clusters() if c.places == ("c",)]
    rg = explore(net, m0)
    for row in (_rooted_path_faults, rooted_oracle.rooted_path_faults):
        with pytest.raises(InvalidPath):
            row(net, m0, target, None, rg)
