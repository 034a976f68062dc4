"""Acceptance suite: one test per criterion, each printing a PASS line.

Timing bounds are asserted as best-of-N wall-clock after a warm-up run, so
scheduler noise cannot fail a criterion that the code meets.
"""

import time

from lucentnet import (ExplorationLimits, Marking, build_report,
                       check_detection_equivalence, check_lucency,
                       classify_dead_end, derive_conflict_pair, disentangle,
                       emit_report, enabled_transitions, expedited_member,
                       explore, find_conflict_pairs, find_home_clusters,
                       home_markings, is_disentangled, is_fully_transparent,
                       is_live, is_perpetual, is_safe, net_class,
                       run_theorem_suite, suite_nets)


def best_of(fn, repeat=10):
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_n2_state_space(n2):
    expected = {Marking.of("p1"), Marking.of("p2", "p5"), Marking.of("p2", "p6"),
                Marking.of("p3", "p5"), Marking.of("p3", "p6"), Marking.of("p4")}
    rg = explore(n2.net, n2.initial)
    assert rg.verdict == "complete"
    assert set(rg.states) == expected
    dt = best_of(lambda: explore(n2.net, n2.initial))
    assert dt < 0.001, f"{dt * 1e3:.3f} ms"
    report(1, f"n2 state space is the exact six-marking set ({dt * 1e6:.0f} us)")


def test_criterion_02_n2_lucency_witness(n2):
    v = check_lucency(n2.net, n2.initial)
    assert v.lucent is False
    assert v.witness == (Marking.of("p2", "p5"), Marking.of("p2", "p6"))
    assert v.footprint == ("t3",)
    dt = best_of(lambda: check_lucency(n2.net, n2.initial))
    assert dt < 0.001, f"{dt * 1e3:.3f} ms"
    report(2, f"n2 not lucent with exact witness pair and footprint t3 ({dt * 1e6:.0f} us)")


def _n1_bundle(n1):
    rg = explore(n1.net, n1.initial)
    luc = check_lucency(n1.net, n1.initial, rg=rg)
    homes = home_markings(n1.net, rg)
    hc = find_home_clusters(n1.net, n1.initial, rg=rg)
    kind = classify_dead_end(n1.net, n1.initial, hc.home_clusters[0], rg=rg)
    live = is_live(n1.net, n1.initial, rg=rg)
    perp = is_perpetual(n1.net, n1.initial, rg=rg)
    return rg, luc, homes, hc, kind, live, perp


def test_criterion_03_n1_bundle(n1):
    rg, luc, homes, hc, kind, live, perp = _n1_bundle(n1)
    assert luc.lucent is True
    assert len(rg.states) == 4
    assert len({enabled_transitions(n1.net, m) for m in rg.states}) == 4
    assert set(homes) == {Marking.of("p4")}
    assert [c.places for c in hc.home_clusters] == [("p4",)]
    assert kind == "terminal"
    assert live.value is False
    assert perp.value is False
    dt = best_of(lambda: _n1_bundle(n1))
    assert dt < 0.001, f"{dt * 1e3:.3f} ms"
    report(3, f"n1 lucent, 4 markings/footprints, home cluster p4, terminal, "
              f"not live, not perpetual ({dt * 1e6:.0f} us)")


def _n3_bundle(n3):
    rg = explore(n3.net, n3.initial)
    luc = check_lucency(n3.net, n3.initial, rg=rg)
    return (rg, luc,
            is_live(n3.net, n3.initial, rg=rg),
            is_safe(n3.net, n3.initial, rg=rg),
            home_markings(n3.net, rg),
            find_home_clusters(n3.net, n3.initial, rg=rg))


def test_criterion_04_n3_bundle(n3):
    from lucentnet import is_deadlock_free
    rg, luc, live, safe, homes, hc = _n3_bundle(n3)
    assert luc.lucent is False
    assert luc.footprint == ("t1", "t4")
    assert luc.witness == (Marking.of("p1", "p3", "p6"), Marking.of("p1", "p4", "p6"))
    assert live.value is True
    assert safe.value is True
    assert is_deadlock_free(n3.net, rg).value is True
    assert len(rg.states) == 8
    assert set(homes) == set(rg.states)
    assert hc.home_clusters == ()
    assert net_class(n3.net) == "marked-graph"
    dt = best_of(lambda: _n3_bundle(n3))
    assert dt < 0.001, f"{dt * 1e3:.3f} ms"
    report(4, f"n3 live safe marked graph, 8 home markings, no home cluster, "
              f"witness footprint t1 t4 ({dt * 1e6:.0f} us)")


def test_criterion_05_n4(n4):
    v = check_lucency(n4.net, n4.initial)
    assert v.lucent is False
    assert v.witness == (Marking.of("p3", "p5", "p7"), Marking.of("p3", "p7", "p8"))
    assert v.footprint == ("t1", "t4")
    assert find_home_clusters(n4.net, n4.initial).home_clusters == ()
    report(5, "n4 not lucent with exact colliding pair, no home clusters")


def test_criterion_06_n5(n5):
    assert check_lucency(n5.net, n5.initial).lucent is True
    v = is_fully_transparent(n5.net, n5.initial)
    assert v.value is False
    assert v.witness == Marking.of("p4", "p7")
    assert enabled_transitions(n5.net, v.witness) == {"t5"}
    sigma = ("t2", "t5", "t6", "t8", "t8")
    assert expedited_member(n5.net, n5.initial, sigma,
                            ("t2", "t6", "t5", "t8", "t8")).value is True
    assert expedited_member(n5.net, n5.initial, sigma,
                            ("t2", "t8", "t5", "t6", "t8")).value is False
    report(6, "n5 lucent, [p4, p7] hides a token, expedited membership as stated")


def test_criterion_07_disentangling(n3):
    cluster1 = next(c for c in n3.net.clusters() if "p1" in c.places)
    rho = ("p6", "t4", "p5", "t3", "p3", "t2", "p4", "t3", "p3", "t2", "p1")
    assert disentangle(n3.net, rho, cluster1).nodes == \
        ("p6", "t4", "p5", "t3", "p3", "t2", "p1")
    assert not is_disentangled(n3.net, ("p5", "t3", "p3", "t2", "p4"))
    assert is_disentangled(n3.net, ("p5", "t3", "p3", "t2", "p1"))
    report(7, "disentangling worked example and path classifications exact")


def test_criterion_08_conflict_pairs(n3):
    pairs = find_conflict_pairs(n3.net, n3.initial)
    wanted = (Marking.of("p2", "p3", "p5"), Marking.of("p2", "p4", "p5"))
    assert any((p.m1, p.m2) == wanted for p in pairs)
    assert enabled_transitions(n3.net, wanted[0]) == {"t2"}
    assert enabled_transitions(n3.net, wanted[1]) == {"t3"}
    pair, sigma = derive_conflict_pair(
        n3.net, Marking.of("p1", "p3", "p6"), Marking.of("p1", "p4", "p6"),
        mode="greedy", rg=explore(n3.net, n3.initial))
    assert sigma == ("t1", "t4")
    assert (pair.m1, pair.m2) == wanted
    report(8, "conflict pair found and greedily re-derived via t1 t4")


def test_criterion_09_detection_triangle(n1):
    c4 = next(c for c in n1.net.clusters() if c.places == ("p4",))

    def run():
        res = check_detection_equivalence(n1.net, n1.initial, c4)
        assert res.applicable and res.passed
        return res

    res = run()
    assert "direct=True" in res.details and "live_and_bounded=True" in res.details
    dt = best_of(run)
    assert dt < 0.005, f"{dt * 1e3:.3f} ms"
    report(9, f"detection triangle on n1/p4 agrees, reachable sets equal "
              f"({dt * 1e6:.0f} us)")


def test_criterion_10_randomized_suite():
    limits = ExplorationLimits(max_states=4000)
    t0 = time.perf_counter()
    nets = suite_nets(random_count=500, seed=0, limits=limits)
    suite = run_theorem_suite(nets, limits)
    dt = time.perf_counter() - t0
    assert sum(1 for name, _, _ in nets if name.startswith("rand-")) >= 500
    assert suite.ok, suite.anomalies
    for check in ("home-cluster-implies-lucent", "home-cluster-implies-safe",
                  "home-cluster-no-conflict-pairs",
                  "home-cluster-no-dominating-marking",
                  "home-cluster-markings-incomparable",
                  "home-cluster-rooted-paths-safe",
                  "strongly-connected-home-cluster-live",
                  "fully-transparent-implies-lucent",
                  "lucent-implies-bounded"):
        assert suite.counts[check]["fail"] == 0, check
        assert suite.counts[check]["pass"] >= 1, check
    assert dt < 60.0, f"{dt:.1f} s"
    report(10, f"{suite.nets} nets, zero anomalies across all checks ({dt:.1f} s)")


def test_criterion_11_report_determinism():
    from lucentnet import all_reference_nets
    for ref in all_reference_nets():
        a = emit_report(build_report(ref.ident, ref.net, ref.initial), "json")
        b = emit_report(build_report(ref.ident, ref.net, ref.initial), "json")
        assert a == b
        assert a.encode() == b.encode()
    report(11, "json reports byte-identical across repeated analyses")
