"""The theorem suite computes each verdict of a net once, and every row
reads it.  The strongly-connected and perpetual rows read the suite's own
verdicts; the from-scratch check in ``tests/ring_oracle.py`` and the public
:func:`is_perpetual` are their oracles."""

import sys
from collections import Counter

import pytest

from lucentnet import (ExplorationLimits, all_reference_nets, bound_k, check_lucency,
                       is_free_choice, is_fully_transparent, is_perpetual,
                       run_theorem_suite, suite_nets, verify_reference_net)
from ring_oracle import check_strongly_connected_home_cluster


def _key(net, m0):
    return net.places, net.transitions, net.flow, m0


def _count_calls(monkeypatch, *functions):
    """Count calls per (function name, net, m0), wrapping each function in
    every lucentnet module that binds it."""
    counts = Counter()
    for original in functions:
        def counting(net, m0, *args, _original=original, **kwargs):
            counts[_original.__name__, _key(net, m0)] += 1
            return _original(net, m0, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "lucentnet" or name.startswith("lucentnet.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    return counts


def test_paper_suite_computes_each_verdict_once_per_net(monkeypatch):
    nets = suite_nets(60, seed=0)
    # two suite nets with different names may be the same net; each is checked
    entries = Counter(_key(net, m0) for _, net, m0 in nets)
    counts = _count_calls(monkeypatch, check_lucency, bound_k)
    run_theorem_suite(nets)
    assert sum(n for (name, _), n in counts.items() if name == "check_lucency") == len(nets)
    assert any(name == "bound_k" for name, _ in counts)
    assert [(name, key) for (name, key), n in counts.items() if n > entries[key]] == []


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
