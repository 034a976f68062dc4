"""The expediting in ``paths`` against its reference (``expedite_oracle``)
on reference nets, random free-choice and non-free-choice nets, and seeded
random walks fired on each."""

import random

import pytest

from lucentnet import (NetStructureError, NodeNotFound, NotEnabled, NotEnabledAt,
                       all_reference_nets, is_free_choice, suite_nets)
from lucentnet import paths
import expedite_oracle
from test_fast_short_circuit import forkjoin, ring
from test_packed_explore import random_net

SIGMA5 = ("t2", "t5", "t6", "t8", "t8")


def walks(net, m0, seed, count=10, max_len=8):
    """Seeded random walks of ``net`` from ``m0`` with at least two steps."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        walk = expedite_oracle.sample_walk(net, m0, rng, max_len)
        if len(walk) >= 2:
            out.append(walk)
    return out


def assert_same(net, m0, walk, deep=True):
    """Moves (so the legality of each) and verdicts agree with the oracle
    on one walk."""
    assert (list(paths._moves(net, m0, walk))
            == list(expedite_oracle.closure_neighbors(net, m0, walk)))
    for samples in (0, 1, 5, 50) if deep else (0, 1, 5):
        assert (paths.verify_expedite_safe(net, m0, walk, samples)
                == expedite_oracle.verify_expedite_safe(net, m0, walk, samples))


def non_free_choice_nets(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            net, m0 = random_net(rng)
        except NetStructureError:
            continue
        if not is_free_choice(net):
            out.append((net, m0))
    return out


def test_reference_nets_match_oracle():
    for ref in all_reference_nets():
        for walk in walks(ref.net, ref.initial, ref.ident, count=20):
            assert_same(ref.net, ref.initial, walk)
    n5 = next(ref for ref in all_reference_nets() if ref.ident == "n5")
    assert_same(n5.net, n5.initial, SIGMA5)
    # long concurrent walks: most pairs of positions can swap
    for k in (3, 5):
        net, m0 = forkjoin(k)
        for walk in walks(net, m0, k, count=5, max_len=3 * k):
            assert_same(net, m0, walk)


@pytest.mark.parametrize("seed", [0, 31337])
def test_suite_nets_match_oracle(seed):
    moved = 0
    for k, (name, net, m0) in enumerate(suite_nets(random_count=300, seed=seed)):
        for walk in walks(net, m0, name, count=4):
            assert_same(net, m0, walk, deep=k % 4 == 0)
            moved += paths.verify_expedite_safe(net, m0, walk, 5).witness > 0
    assert moved > 100


def test_non_free_choice_nets_match_oracle():
    moved = 0
    for net, m0 in non_free_choice_nets(300, seed=77):
        for walk in walks(net, m0, repr(sorted(net.flow)), count=3):
            assert_same(net, m0, walk)
            moved += paths.verify_expedite_safe(net, m0, walk, 5).witness > 0
    assert moved > 100


def _careless_moves(net, m, seq):
    """Expedite moves without the cluster rule."""
    for j in range(2, len(seq) + 1):
        for i in range(j - 1, 0, -1):
            if paths.sequence_enabled(net, m, seq[:i - 1] + (seq[j - 1],)):
                yield (i, j), paths.expedite(seq, i, j)


def test_failing_branch_matches_oracle(monkeypatch):
    # a legal move never disables a sequence or changes its final marking
    # (the mover's preset is disjoint from those it overtakes), so only moves
    # that break the cluster rule reach the "variant not enabled" branch
    monkeypatch.setattr(paths, "_moves", _careless_moves)
    reasons = set()
    nets = non_free_choice_nets(100, seed=5)
    nets += [(ref.net, ref.initial) for ref in all_reference_nets()]
    for net, m0 in nets:
        for walk in walks(net, m0, repr(sorted(net.flow)), count=3):
            for samples in (0, 1, 5, 50):
                got = paths.verify_expedite_safe(net, m0, walk, samples)
                want = expedite_oracle.verify_expedite_safe(net, m0, walk, samples,
                                                            neighbors=_careless_moves)
                assert got == want
                reasons.add(got.reason)
    assert reasons == {"", "variant not enabled"}


def test_expedited_member_matches_oracle(n5):
    cases = [(SIGMA5, SIGMA5), (SIGMA5, ("t2", "t6", "t5", "t8", "t8")),
             (SIGMA5, ("t2", "t8", "t5", "t6", "t8")), (SIGMA5, ("t2", "t5", "t6", "t8")),
             (SIGMA5, ("t5", "t2", "t6", "t8", "t8"))]
    for base, candidate in cases:
        assert (paths.expedited_member(n5.net, n5.initial, base, candidate)
                == expedite_oracle.expedited_member(n5.net, n5.initial, base, candidate))
    rng = random.Random(3)
    reasons = set()
    nets = [(ref.net, ref.initial) for ref in all_reference_nets()]
    nets += [forkjoin(3), ring(5)] + non_free_choice_nets(60, seed=9)
    for net, m0 in nets:
        for base in walks(net, m0, repr(sorted(net.flow)), count=3):
            variants = [r for _, r in expedite_oracle.closure_neighbors(net, m0, base)]
            shuffled = list(base)
            rng.shuffle(shuffled)
            for candidate in variants[:3] + [tuple(shuffled), base[::-1], base[1:]]:
                for budget in (1, 3, 10_000):
                    got = paths.expedited_member(net, m0, base, candidate, budget)
                    assert got == expedite_oracle.expedited_member(net, m0, base, candidate,
                                                                   budget)
                    reasons.add((got.value, got.reason))
    assert {r for _, r in reasons} >= {"", "not a permutation of the base",
                                       "candidate is not enabled", "closure exhausted",
                                       "search budget exceeded"}


def test_base_errors_match_fire_sequence(n5):
    with pytest.raises(NotEnabledAt) as err:
        paths.verify_expedite_safe(n5.net, n5.initial, ("t2", "t6", "t1"))
    assert (err.value.index, err.value.transition) == (2, "t1")
    with pytest.raises(NodeNotFound):
        paths.verify_expedite_safe(n5.net, n5.initial, ("t2", "zz"))
    with pytest.raises(NotEnabled):
        paths.expedited_member(n5.net, n5.initial, ("t5",), ("t5",))
