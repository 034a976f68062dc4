import pathlib

import pytest

from lucentnet import (ExplorationLimits, GeneratorParams, Marking, PetriNet,
                       all_reference_nets, connectivity, explore, generate,
                       is_free_choice, is_proper, run_theorem_suite,
                       suite_nets, verify_reference_net)
from lucentnet import parse_net, paths

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_reference_nets_load():
    idents = [ref.ident for ref in all_reference_nets()]
    assert idents == ["n1", "n2", "n3", "n4", "n5"]


def test_reference_structural_checkpoints(n1, n3):
    assert len(n1.net.places) == 4
    assert len(n1.net.transitions) == 5
    assert len(n1.net.flow) == 10
    assert len(n3.net.flow) == 12
    assert n3.initial == Marking.of("p1", "p3", "p6")


@pytest.mark.parametrize("ident", ["n1", "n2", "n3", "n4", "n5"])
def test_reference_expectations_hold(ident, request):
    ref = request.getfixturevalue(ident)
    # the bundled file is the same net: the goldens run on it
    doc = parse_net((ROOT / "corpus" / f"{ident}.net").read_text())
    assert doc.to_net() == (ref.net, ref.initial)
    rows = verify_reference_net(ref)
    failures = [(prop, expected, got) for prop, expected, got, ok in rows if not ok]
    assert not failures, failures


def test_truncated_graphs_leave_reference_values_undecided():
    # every cap that cuts a reference net short: a row the capped graph
    # cannot decide reads None, never a value that looks decided
    for ref in all_reference_nets():
        cap = 1
        while not (rg := explore(ref.net, ref.initial, ExplorationLimits(cap))).complete:
            for prop, _, got, ok in verify_reference_net(ref, ExplorationLimits(cap), rg):
                assert ok or got is None, (ref.ident, cap, prop, got)
            cap += 1
        assert cap > 2, ref.ident


def test_generator_determinism():
    params = GeneratorParams(seed=424242)
    net_a, m_a = generate(params)
    net_b, m_b = generate(params)
    assert net_a == net_b and m_a == m_b
    net_c, _ = generate(GeneratorParams(seed=424243))
    assert net_c != net_a


def test_generator_soundness():
    for seed in range(60):
        net, m0 = generate(GeneratorParams(seed=seed))
        assert is_proper(net)
        assert is_free_choice(net)
        assert len(net.places) <= 12
        assert m0.is_safe() and len(m0) >= 1
        assert set(m0.support()) <= set(net.places)


def test_generator_forced_strong_connectivity():
    for seed in range(30):
        net, _ = generate(GeneratorParams(seed=seed, force_strongly_connected=True))
        assert connectivity(net) == "strong"
        assert is_proper(net) and is_free_choice(net)


def test_generator_builds_each_net_once(monkeypatch):
    builds = []
    init = PetriNet.__init__
    monkeypatch.setattr(PetriNet, "__init__",
                        lambda self, *a: builds.append(1) or init(self, *a))
    for seed in range(30):
        generate(GeneratorParams(seed=seed, force_strongly_connected=True))
    assert len(builds) == 30


def test_generator_rejects_bad_ranges():
    with pytest.raises(ValueError):
        GeneratorParams(cluster_count=(3, 2))
    with pytest.raises(ValueError):
        GeneratorParams(outputs_per_transition=(0, 2))


def test_suite_empty():
    report = run_theorem_suite([])
    assert report.nets == 0
    assert report.counts == {}
    assert report.ok


def test_suite_reference_nets_zero_anomalies():
    nets = suite_nets()
    report = run_theorem_suite(nets)
    assert report.ok, report.anomalies
    # every check has at least one applicable net even in the default run
    for check, slot in report.counts.items():
        assert slot["pass"] >= 1, check
    # and the negative branches are exercised: several nets skip the
    # home-cluster checks because they have none
    assert report.counts["home-cluster-implies-lucent"]["skip"] >= 2
    assert report.counts["home-cluster-implies-lucent"]["pass"] >= 2


def test_suite_randomized_zero_anomalies():
    limits = ExplorationLimits(max_states=4000)
    nets = suite_nets(random_count=60, seed=7, limits=limits)
    report = run_theorem_suite(nets, limits)
    assert report.ok, report.anomalies
    counts = report.counts
    # every check has at least one applicable net in the default run
    for check, slot in counts.items():
        assert slot["pass"] >= 1, check
    assert counts["detection-methods-agree"]["fail"] == 0


def test_suite_replays_no_expedited_sequence(monkeypatch):
    # replaying an expedited variant cannot fail (a legal move's mover has a
    # preset disjoint from those it overtakes), so the suite replays none
    def forbidden(*args, **kwargs):
        raise AssertionError("the suite replayed an expedited sequence")

    monkeypatch.setattr(paths, "_variants", forbidden)
    monkeypatch.setattr(paths, "verify_expedite_safe", forbidden)
    report = run_theorem_suite(suite_nets(random_count=30, seed=1))
    assert report.ok, report.anomalies
    assert "expedite-replay-equality" not in report.counts


def test_suite_includes_ring_variants():
    limits = ExplorationLimits(max_states=4000)
    nets = suite_nets(random_count=40, seed=0, limits=limits)
    names = [name for name, _, _ in nets]
    assert any(name.endswith("-ring") for name in names)
    assert any(name.endswith("-sc") for name in names)
