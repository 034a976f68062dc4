"""The theorem suite computes each verdict of a distinct net once, and every
row reads it: ``paper-suite`` checks each distinct ``(net, m0)`` once, its
reference expectations read the suite's verdicts, and the structural facts
stay on the net or graph they were computed on.  The strongly-connected and
perpetual rows read the suite's own verdicts; the from-scratch check in
``tests/ring_oracle.py`` and the public :func:`is_perpetual` are their
oracles."""

import sys
from collections import Counter

import pytest

from lucentnet import (ExplorationLimits, all_reference_nets, bound_k, check_lucency,
                       is_deadlock_free, is_free_choice, is_fully_transparent,
                       is_perpetual, is_proper, run_theorem_suite, suite_nets,
                       support_closure, verify_reference_net)
from lucentnet import homecluster
from lucentnet.cli import main
from ring_oracle import check_strongly_connected_home_cluster


def _key(net, m0=None):
    return net.places, net.transitions, net.flow, m0


def _count_calls(monkeypatch, *functions):
    """Count calls per (function name, net, m0), wrapping each function in
    every lucentnet module that binds it."""
    return _count_computations(monkeypatch, *((f, _key, None) for f in functions))


def _count_computations(monkeypatch, *counted):
    """Count per (function name, key) the calls that compute: each entry is
    ``(function, key of its arguments, kept)``, and a call counts unless
    ``kept(*args)`` says its net or graph holds the fact already.  Each
    function is wrapped in every lucentnet module that binds it."""
    counts = Counter()
    for original, key, kept in counted:
        def counting(*args, _original=original, _key=key, _kept=kept, **kwargs):
            if _kept is None or not _kept(*args, **kwargs):
                counts[_original.__name__, _key(*args[:2])] += 1
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "lucentnet" or name.startswith("lucentnet.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    return counts


def _kept(holder, slot):
    """``holder`` (a net or graph) keeps the fact in ``slot`` already."""
    return getattr(holder, slot, None) is not None


def _graph_key(net, rg):
    return _key(net, rg.marking(0))


def test_paper_suite_computes_each_verdict_once_per_net(monkeypatch, capsys):
    all_reference_nets()  # built once, before counting: their checkpoints are not the suite's
    nets = suite_nets(60, seed=0)
    distinct = {_key(net, m0) for _, net, m0 in nets}
    assert len(distinct) < len(nets)  # rand-1-narrow-ring and rand-5-narrow-ring are one net
    # a fact of the net alone (m0 None) is computed at most once per initial
    # marking the suite gives that net, and once for a net it only judges
    markings = Counter(key[:3] for key in distinct)

    def allowed(key):
        return max(1, markings[key[:3]]) if key[3] is None else 1

    counts = _count_computations(
        monkeypatch,
        (check_lucency, _key, None),
        (homecluster._cluster_walk, _key, None),
        (support_closure, _key, None),
        (bound_k, _key, lambda net, m0, limits=None, rg=None: _kept(rg, "_bound")),
        (is_deadlock_free, _graph_key, lambda net, rg: _kept(rg, "_deadlock")),
        (is_free_choice, _key, lambda net: _kept(net, "_free_choice")),
        (is_proper, _key, lambda net: _kept(net, "_proper")))
    assert main(["paper-suite", "--random", "60", "--seed", "0", "--format", "json"]) == 0
    capsys.readouterr()
    assert [(name, key) for (name, key), n in counts.items() if n > allowed(key)] == []
    for name in ("check_lucency", "_cluster_walk"):
        assert {key for (f, key) in counts if f == name} == distinct, name
    assert {f for f, _ in counts} == {"check_lucency", "_cluster_walk", "support_closure",
                                      "bound_k", "is_deadlock_free", "is_free_choice",
                                      "is_proper"}


def test_reference_check_computes_each_verdict_once(monkeypatch):
    counts = _count_calls(monkeypatch, bound_k, is_fully_transparent)
    for ref in all_reference_nets():
        verify_reference_net(ref)
    # n1 and n3 expect bounded_k and safe, n5 fully_transparent and non_transparent_marking
    assert set(counts.values()) == {1}
    assert len(counts) >= 3


def _status(report, check):
    (status,) = [s for s, n in report.counts[check].items() if n]
    return status


@pytest.mark.parametrize("cap", [None, 4, 50])
def test_rewritten_rows_match_their_oracles(cap):
    limits = ExplorationLimits(max_states=cap) if cap else None
    nets = suite_nets(300)
    assert {"loop1", "cycle2"} <= {name for name, _, _ in nets}
    applied = Counter()
    for name, net, m0 in nets:
        report = run_theorem_suite([(name, net, m0)], limits)

        oracle = check_strongly_connected_home_cluster(net, m0, limits)
        want = ("pass" if oracle.passed else "fail") if oracle.applicable else "skip"
        assert _status(report, "strongly-connected-home-cluster-live") == want, name
        applied["strongly-connected", want] += 1

        perpetual = is_free_choice(net) and is_perpetual(net, m0, limits).value is True
        got = _status(report, "perpetual-implies-proper")
        assert (got == "skip") == (not perpetual), name
        applied["perpetual", got] += 1
    # neither row runs vacuously
    assert applied["strongly-connected", "pass"] > 0
    assert applied["perpetual", "pass"] > 0
