"""Bundled reference nets, a random proper free-choice net generator, and a
suite runner that turns the documented implications between properties into
executable checks.

Each reference net carries an expectation table of known property values
(`provenance` is ``"published"`` for documented values and ``"derived"``
for values reconstructed by independent hand analysis).  Structural
checkpoints are asserted at load time so a transcription slip cannot
silently poison the tests built on top.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (CleanedNetInvalid, ClusterNotConnected,
                     CorpusIntegrityError, TheoremViolation, UndecidedError)
from .net import (Marking, PetriNet, _reachable, connectivity, enabled_transitions,
                  is_free_choice, is_proper, mrk, net_class, sequence_enabled)
from .reachability import (ExplorationLimits, ReachabilityGraph, explore, bound_k,
                           dead_places, dead_transitions, is_deadlock_free,
                           is_live, is_perpetual, is_safe, home_markings,
                           strong_components)
from . import homecluster, lucency, paths

Expectation = Tuple[str, object, str]


@dataclass(frozen=True)
class ReferenceNet:
    ident: str
    net: PetriNet
    initial: Marking
    expected: Tuple[Expectation, ...]


def _gate(ok: bool, ident: str, what: str):
    if not ok:
        raise CorpusIntegrityError(f"{ident}: checkpoint failed: {what}")


def _cluster_sets(net: PetriNet):
    return {c.nodes() for c in net.clusters()}


def _n1() -> ReferenceNet:
    # A start place with a binary choice, a middle stage, a second binary
    # choice, and a sink place: lucent, one home cluster, terminating.
    net = PetriNet(
        ["p1", "p2", "p3", "p4"],
        ["t1", "t2", "t3", "t4", "t5"],
        [("p1", "t1"), ("p1", "t2"), ("t1", "p2"), ("t2", "p2"),
         ("p2", "t3"), ("t3", "p3"), ("p3", "t4"), ("p3", "t5"),
         ("t4", "p4"), ("t5", "p4")])
    m0 = Marking.of("p1")
    _gate(len(net.places) == 4 and len(net.transitions) == 5 and len(net.flow) == 10,
          "n1", "4 places, 5 transitions, 10 arcs")
    _gate(_cluster_sets(net) == {("p1", "t1", "t2"), ("p2", "t3"),
                                 ("p3", "t4", "t5"), ("p4",)},
          "n1", "cluster partition")
    _gate(enabled_transitions(net, m0) == {"t1", "t2"}, "n1", "initial enabled set")
    expected: Tuple[Expectation, ...] = (
        ("free_choice", True, "published"),
        ("proper", True, "published"),
        ("connectivity", "weak", "derived"),
        ("net_class", "state-machine", "derived"),
        ("reachable_count", 4, "published"),
        ("distinct_footprints", 4, "published"),
        ("lucent", True, "published"),
        ("bounded_k", 1, "published"),
        ("safe", True, "published"),
        ("live", False, "published"),
        ("deadlock_free", False, "published"),
        ("home_markings", (Marking.of("p4"),), "published"),
        ("home_cluster_places", (("p4",),), "published"),
        ("dead_end", "terminal", "published"),
        ("perpetual", False, "published"),
        ("fully_transparent", False, "derived"),
        ("dead_places", (), "derived"),
        ("dead_transitions", (), "derived"),
    )
    return ReferenceNet("n1", net, m0, expected)


def _n2() -> ReferenceNet:
    # Two initial alternatives that mark the same control place but
    # different side places; the side places steer the final choice, which
    # is what breaks both free-choiceness and lucency.
    net = PetriNet(
        ["p1", "p2", "p3", "p4", "p5", "p6"],
        ["t1", "t2", "t3", "t4", "t5"],
        [("p1", "t1"), ("p1", "t2"),
         ("t1", "p2"), ("t1", "p5"), ("t2", "p2"), ("t2", "p6"),
         ("p2", "t3"), ("t3", "p3"),
         ("p3", "t4"), ("p5", "t4"), ("p3", "t5"), ("p6", "t5"),
         ("t4", "p4"), ("t5", "p4")])
    m0 = Marking.of("p1")
    _gate(net.preset("t4") == {"p3", "p5"} and net.preset("t5") == {"p3", "p6"},
          "n2", "final choice controlled by the side places")
    _gate(enabled_transitions(net, Marking.of("p2", "p5")) == {"t3"}
          and enabled_transitions(net, Marking.of("p2", "p6")) == {"t3"},
          "n2", "colliding footprint {t3}")
    _gate(not is_free_choice(net), "n2", "not free-choice")
    expected: Tuple[Expectation, ...] = (
        ("free_choice", False, "published"),
        ("proper", True, "published"),
        ("net_class", "general", "published"),
        ("reachable_markings",
         (Marking.of("p1"), Marking.of("p2", "p5"), Marking.of("p2", "p6"),
          Marking.of("p3", "p5"), Marking.of("p3", "p6"), Marking.of("p4")),
         "published"),
        ("lucent", False, "published"),
        ("lucency_witness",
         (Marking.of("p2", "p5"), Marking.of("p2", "p6"), ("t3",)), "published"),
        ("safe", True, "derived"),
        ("live", False, "derived"),
        ("deadlock_free", False, "derived"),
        ("home_markings", (Marking.of("p4"),), "derived"),
        ("dead_places", (), "derived"),
        ("dead_transitions", (), "derived"),
    )
    return ReferenceNet("n2", net, m0, expected)


def _n3() -> ReferenceNet:
    # Three token-conserving circuits glued at two synchronizing
    # transitions: a live, safe marked graph that still hides state.
    net = PetriNet(
        ["p1", "p2", "p3", "p4", "p5", "p6"],
        ["t1", "t2", "t3", "t4"],
        [("p1", "t1"), ("t1", "p2"),
         ("p2", "t2"), ("p3", "t2"), ("t2", "p1"), ("t2", "p4"),
         ("p4", "t3"), ("p5", "t3"), ("t3", "p3"), ("t3", "p6"),
         ("p6", "t4"), ("t4", "p5")])
    m0 = Marking.of("p1", "p3", "p6")
    _gate(len(net.flow) == 12, "n3", "12 arcs")
    _gate(_cluster_sets(net) == {("p1", "t1"), ("p2", "p3", "t2"),
                                 ("p4", "p5", "t3"), ("p6", "t4")},
          "n3", "cluster partition")
    _gate(enabled_transitions(net, m0) == {"t1", "t4"}, "n3", "initial enabled set")
    _gate(net_class(net) == "marked-graph", "n3", "marked graph")
    expected: Tuple[Expectation, ...] = (
        ("free_choice", True, "published"),
        ("proper", True, "derived"),
        ("net_class", "marked-graph", "published"),
        ("connectivity", "strong", "published"),
        ("reachable_count", 8, "derived"),
        ("lucent", False, "published"),
        ("lucency_witness",
         (Marking.of("p1", "p3", "p6"), Marking.of("p1", "p4", "p6"),
          ("t1", "t4")), "published"),
        ("live", True, "published"),
        ("bounded_k", 1, "published"),
        ("safe", True, "published"),
        ("deadlock_free", True, "published"),
        ("all_markings_home", True, "published"),
        ("home_cluster_places", (), "derived"),
        ("conflict_pair",
         (Marking.of("p2", "p3", "p5"), Marking.of("p2", "p4", "p5")), "published"),
        ("perpetual", False, "derived"),
    )
    return ReferenceNet("n3", net, m0, expected)


def _n4() -> ReferenceNet:
    # Free-choice, but a choice inside one of two concurrent branches
    # leaves a dead-end side place whose token never influences enabling:
    # two reachable markings share the footprint {t1, t4}.
    net = PetriNet(
        ["p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"],
        ["t1", "t2", "t3", "t4", "t5"],
        [("p1", "t5"), ("t5", "p2"), ("t5", "p7"),
         ("p2", "t2"), ("t2", "p3"), ("t2", "p5"),
         ("p2", "t3"), ("t3", "p3"), ("t3", "p8"),
         ("p3", "t1"), ("t1", "p4"),
         ("p7", "t4"), ("t4", "p6")])
    m0 = Marking.of("p1")
    _gate(is_free_choice(net) and is_proper(net), "n4", "proper free-choice")
    _gate(enabled_transitions(net, Marking.of("p3", "p5", "p7")) == {"t1", "t4"}
          and enabled_transitions(net, Marking.of("p3", "p7", "p8")) == {"t1", "t4"},
          "n4", "colliding footprint {t1, t4}")
    expected: Tuple[Expectation, ...] = (
        ("free_choice", True, "published"),
        ("proper", True, "published"),
        ("net_class", "free-choice", "derived"),
        ("lucent", False, "published"),
        ("lucency_witness",
         (Marking.of("p3", "p5", "p7"), Marking.of("p3", "p7", "p8"),
          ("t1", "t4")), "published"),
        ("home_cluster_places", (), "published"),
        ("safe", True, "derived"),
        ("live", False, "derived"),
        ("deadlock_free", False, "derived"),
        ("perpetual", False, "derived"),
    )
    return ReferenceNet("n4", net, m0, expected)


def _n5() -> ReferenceNet:
    # An initialization choice feeding a recurring phase with two home
    # clusters; the self-loop transition t8 keeps {p7, p8} marked without
    # moving tokens.  Lucent, yet the token in p7 is hidden at [p4, p7].
    net = PetriNet(
        ["p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"],
        ["t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"],
        [("p1", "t1"), ("p1", "t2"),
         ("t1", "p3"), ("t1", "p4"), ("t2", "p2"), ("t2", "p4"),
         ("p2", "t6"), ("t6", "p7"),
         ("p3", "t4"), ("t4", "p7"),
         ("p4", "t5"), ("t5", "p8"),
         ("p5", "t3"), ("p6", "t3"), ("t3", "p3"), ("t3", "p4"),
         ("p7", "t7"), ("p8", "t7"), ("t7", "p5"), ("t7", "p6"),
         ("p7", "t8"), ("p8", "t8"), ("t8", "p7"), ("t8", "p8")])
    m0 = Marking.of("p1")
    _gate(is_free_choice(net) and is_proper(net), "n5", "proper free-choice")
    _gate(enabled_transitions(net, Marking.of("p4", "p7")) == {"t5"},
          "n5", "[p4, p7] enables exactly t5")
    _gate(paths.is_path(net, ("p1", "t1", "p3", "t4", "p7")), "n5",
          "path p1 t1 p3 t4 p7")
    _gate(paths.is_path(net, ("t8", "p7", "t8", "p8")), "n5", "self-loop path on t8")
    _gate(sequence_enabled(net, m0, ("t2", "t5", "t6", "t8", "t8")),
          "n5", "reference firing sequence enabled")
    expected: Tuple[Expectation, ...] = (
        ("free_choice", True, "published"),
        ("proper", True, "published"),
        ("net_class", "free-choice", "derived"),
        ("lucent", True, "published"),
        ("fully_transparent", False, "published"),
        ("non_transparent_marking", (Marking.of("p4", "p7"), ("t5",)), "published"),
        ("has_home_cluster", True, "published"),
        ("home_cluster_places", (("p5", "p6"), ("p7", "p8")), "derived"),
        ("live", False, "derived"),
        ("perpetual", False, "published"),
        ("safe", True, "derived"),
        ("deadlock_free", True, "derived"),
        ("dead_end", "regenerative", "derived"),
        ("reachable_count", 8, "derived"),
    )
    return ReferenceNet("n5", net, m0, expected)


_BUILDERS = {"n1": _n1, "n2": _n2, "n3": _n3, "n4": _n4, "n5": _n5}


@functools.cache  # the nets are immutable: build and check them once
def all_reference_nets() -> Tuple[ReferenceNet, ...]:
    """The five bundled reference nets, ``n1`` .. ``n5`` in that order."""
    return tuple(_BUILDERS[k]() for k in sorted(_BUILDERS))


# -- expectation verification -------------------------------------------------


def verify_reference_net(ref: ReferenceNet,
                         limits: Optional[ExplorationLimits] = None,
                         rg: Optional[ReachabilityGraph] = None,
                         luc: Optional[lucency.LucencyVerdict] = None,
                         hc: Optional[homecluster.HomeClusterReport] = None):
    """Evaluate every expected property, on ``rg`` when the net's graph is
    given, reading the lucency verdict ``luc`` and the home-cluster report
    ``hc`` (method ``"both"``) when they were computed on it already;
    returns rows of (property, expected, actual, ok).  An actual value the
    graph does not decide reads ``None``, as an undecided verdict does: the
    counts and dead nodes of an incomplete graph, and the home clusters
    while some cluster's verdict is undecided."""
    net, m0 = ref.net, ref.initial
    rg = rg or explore(net, m0, limits)
    luc = luc or lucency.check_lucency(net, m0, limits, rg=rg)
    hc = hc or homecluster.find_home_clusters(net, m0, limits, method="both", rg=rg)
    bound = functools.cache(lambda: bound_k(net, m0, limits, rg=rg))
    transparent = functools.cache(lambda: lucency.is_fully_transparent(net, m0, limits, rg=rg))
    undecided = set() if rg.complete else {"reachable_count", "reachable_markings",
                                           "distinct_footprints", "dead_places",
                                           "dead_transitions"}
    if any(d.is_home is None for d in hc.details):
        undecided |= {"has_home_cluster", "home_cluster_places", "dead_end"}

    def actual(prop):
        if prop == "free_choice":
            return is_free_choice(net)
        if prop == "proper":
            return is_proper(net)
        if prop == "connectivity":
            return connectivity(net)
        if prop == "net_class":
            return net_class(net)
        if prop == "reachable_count":
            return len(rg.states)
        if prop == "reachable_markings":
            return set(rg.states)
        if prop == "distinct_footprints":
            return len(set(rg.masks()))
        if prop == "lucent":
            return luc.lucent
        if prop == "lucency_witness":
            if luc.witness is None:
                return None
            return (luc.witness[0], luc.witness[1], luc.footprint)
        if prop == "bounded_k":
            return bound().k
        if prop == "safe":
            return bound().safe().value
        if prop == "live":
            return is_live(net, m0, limits, rg=rg).value
        if prop == "deadlock_free":
            return is_deadlock_free(net, rg).value
        if prop == "home_markings":
            return set(home_markings(net, rg))
        if prop == "all_markings_home":
            return set(home_markings(net, rg)) == set(rg.states)
        if prop == "home_cluster_places":
            return tuple(c.places for c in hc.home_clusters)
        if prop == "has_home_cluster":
            return bool(hc.home_clusters)
        if prop == "dead_end":
            kinds = {homecluster.classify_dead_end(net, m0, c, limits, rg=rg)
                     for c in hc.home_clusters}
            return kinds.pop() if len(kinds) == 1 else tuple(sorted(kinds))
        if prop == "perpetual":
            return is_perpetual(net, m0, limits, rg=rg).value
        if prop == "fully_transparent":
            return transparent().value
        if prop == "non_transparent_marking":
            v = transparent()
            if v.witness is None:
                return None
            return (v.witness, tuple(sorted(enabled_transitions(net, v.witness))))
        if prop == "conflict_pair":
            pairs = lucency.find_conflict_pairs(net, m0, limits, rg=rg)
            return {(p.m1, p.m2) for p in pairs}
        if prop == "dead_places":
            return dead_places(net, rg)
        if prop == "dead_transitions":
            return dead_transitions(net, rg)
        raise KeyError(f"unknown expectation property {prop!r}")

    rows = []
    for prop, expected, provenance in ref.expected:
        try:
            got = None if prop in undecided else actual(prop)
        except UndecidedError:
            got = None
        if prop == "reachable_markings" or prop == "home_markings":
            ok = got == set(expected)
        elif prop == "conflict_pair":
            ok = got is not None and tuple(expected) in got
        else:
            ok = got == expected
        rows.append((prop, expected, got, ok))
    return rows


# -- random proper free-choice nets -------------------------------------------


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for the cluster-based random net construction; everything is
    determined by the seed."""

    seed: int = 0
    cluster_count: Tuple[int, int] = (2, 4)
    places_per_cluster: Tuple[int, int] = (1, 3)
    transitions_per_cluster: Tuple[int, int] = (0, 3)
    outputs_per_transition: Tuple[int, int] = (1, 3)
    force_strongly_connected: bool = False

    def __post_init__(self):
        for name, (lo, hi), least in (
                ("cluster_count", self.cluster_count, 1),
                ("places_per_cluster", self.places_per_cluster, 1),
                ("transitions_per_cluster", self.transitions_per_cluster, 0),
                ("outputs_per_transition", self.outputs_per_transition, 1)):
            if lo > hi or lo < least:
                raise ValueError(f"bad range for {name}: ({lo}, {hi})")


def generate(params: GeneratorParams) -> Tuple[PetriNet, Marking]:
    """A random proper free-choice net plus an initial marking.

    Clusters are built first; within a cluster every transition consumes
    exactly the cluster's places, which guarantees free-choiceness no
    matter how transition outputs are wired afterwards.  Patches (weak or
    strong connectivity) only ever add transition->place arcs, so they
    cannot break it.  The initial marking fully marks one random cluster.
    """
    rng = random.Random(params.seed)
    n_clusters = rng.randint(*params.cluster_count)
    t_lo, t_hi = params.transitions_per_cluster
    if params.force_strongly_connected:
        t_lo = max(1, t_lo)
        t_hi = max(t_lo, t_hi)

    blueprint = []
    p_idx = t_idx = 0
    for _ in range(n_clusters):
        n_p = rng.randint(*params.places_per_cluster)
        n_t = rng.randint(t_lo, t_hi)
        places = [f"p{p_idx + i:02d}" for i in range(n_p)]
        trans = [f"t{t_idx + i:02d}" for i in range(n_t)]
        p_idx += n_p
        t_idx += n_t
        blueprint.append((places, trans))
    if all(not trans for _, trans in blueprint):
        blueprint[0] = (blueprint[0][0], [f"t{t_idx:02d}"])

    all_places = sorted(p for ps, _ in blueprint for p in ps)
    all_trans = sorted(t for _, ts in blueprint for t in ts)
    arcs = []
    for places, trans in blueprint:
        for t in trans:
            for p in places:
                arcs.append((p, t))
    for t in all_trans:
        n_out = min(rng.randint(*params.outputs_per_transition), len(all_places))
        for p in rng.sample(all_places, n_out):
            arcs.append((t, p))

    # weak-connectivity patch: hang every stray component off one transition,
    # taking the components in order of their smallest node
    adj: Dict[str, set] = {x: set() for x in all_places + all_trans}
    for a, b in arcs:
        adj[a].add(b)
        adj[b].add(a)
    hub_t = all_trans[0]
    rest = set(adj) - _reachable([hub_t], adj)
    while rest:
        comp = _reachable([min(rest)], adj)
        arcs.append((hub_t, min(comp.intersection(all_places))))
        rest -= comp

    if params.force_strongly_connected:
        nodes = all_places + all_trans  # PetriNet's node order: places first
        pos = {x: k for k, x in enumerate(nodes)}
        post = [set() for _ in nodes]
        for a, b in arcs:
            post[pos[a]].add(pos[b])
        for _ in range(100):
            comp, closed = strong_components([k for ks in post for k in sorted(ks)],
                                             list(accumulate(map(len, post), initial=0)))
            if len(closed) == 1:
                break
            # join the first component no edge leaves to the first none enters:
            # labels are topological, so none enters 0, nor 1 when 0 is closed
            sink = closed.index(True)
            source = int(sink == 0)
            t = min(k for k in range(len(all_places), len(nodes)) if comp[k] == sink)
            p = min(k for k in range(len(all_places)) if comp[k] == source)
            post[t].add(p)
            arcs.append((nodes[t], nodes[p]))

    net = PetriNet(all_places, all_trans, arcs)
    cluster = rng.choice(net.clusters())
    return net, mrk(cluster)


# -- the suite ----------------------------------------------------------------


@dataclass
class SuiteReport:
    nets: int = 0
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    anomalies: List[Tuple[str, str, str]] = field(default_factory=list)

    def record(self, net_name: str, check: str, applies: bool,
               holds: Optional[bool] = None, detail: str = ""):
        """Count one row: a skip unless the hypothesis ``applies``, else a
        pass if the conclusion ``holds`` and an anomaly with ``detail`` if not."""
        status = ("pass" if holds else "fail") if applies else "skip"
        slot = self.counts.get(check)
        if slot is None:
            slot = self.counts[check] = {"pass": 0, "fail": 0, "skip": 0}
        slot[status] += 1
        if status == "fail":
            self.anomalies.append((net_name, check, detail))

    @property
    def ok(self) -> bool:
        return not self.anomalies


def run_theorem_suite(nets: Sequence[Tuple[str, PetriNet, Marking]],
                      limits: Optional[ExplorationLimits] = None,
                      graphs: Optional[Dict[tuple, ReachabilityGraph]] = None,
                      verdicts: Optional[Dict[tuple, tuple]] = None) -> SuiteReport:
    """Evaluate every documented implication on every net, checking each
    distinct ``(net, m0)`` once: a suite net equal to an earlier one records
    that net's rows again under its own name.

    ``graphs`` maps ``(net, m0)`` to explorations under ``limits`` made
    already; each is popped when its net is checked, which runs on the
    graph's own net (equal to the suite net, with the facts kept on it).
    The graph of a ring that is also a later suite net (a ring variant of
    :func:`suite_nets`, which follows its source net) is kept there until
    then, so at most one such graph is alive at a time.  ``verdicts``, when
    given, receives each net's lucency verdict and home-cluster report
    (``None`` where the two methods disagree) for :func:`verify_reference_net`.

    A check whose hypotheses do not hold (or whose exploration was
    truncated) counts as a skip, so vacuous runs stay visible; any failed
    conclusion is an anomaly with full witness detail and fails the suite.
    """
    report = SuiteReport(nets=len(nets))
    graphs = {} if graphs is None else graphs
    todo = {(net, m0) for _, net, m0 in nets}  # distinct suite nets not yet checked
    checked: Dict[tuple, tuple] = {}  # (net, m0) -> (the net object checked, its rows)
    for name, net, m0 in nets:
        done = checked.get((net, m0))
        if done is None:
            todo.discard((net, m0))
            rg = graphs.pop((net, m0), None)
            done = checked[net, m0] = (net if rg is None else rg.net), []
            _run_net_checks(*done, m0, limits, rg, graphs, todo, checked, verdicts)
        for row in done[1]:
            report.record(name, *row)
    return report


def _run_net_checks(net, rows, m0, limits, rg, graphs, todo, checked, verdicts):
    """Append the net's rows ``(check, applies, holds, detail)`` to ``rows``.
    Each fact of the net is computed once and every row reads it; safety
    and liveness just before their first row, and only where a row needs them."""
    def row(check, applies, holds=None, detail=""):
        rows.append((check, applies, holds, detail))

    rg = rg or explore(net, m0, limits)
    fc = is_free_choice(net)
    proper = is_proper(net)
    luc = lucency.check_lucency(net, m0, limits, rg=rg)

    # the short-circuit verdicts are read off rg, but every ring is still
    # explored once: the detection equivalence judges the ring's own
    # live-and-bounded verdict, so a fast verdict that differs from it shows
    # as a methods-agree or equivalence anomaly.  For home clusters the
    # ring's structure is judged too (a sink place reachable besides a
    # non-home cluster refutes its strong connectivity)
    details, homes, conflict, struct_results, equiv_results = [], [], "", [], []
    for d, ring, ring_v, graph in homecluster._cluster_walk(net, m0, limits, "both", rg,
                                                          rings=True):
        conflict = conflict or homecluster._disagreement(d)
        details.append(d)
        if d.is_home:
            homes.append(d.cluster)
        if ring is not None:
            equiv_results.append(homecluster._judge_equivalence(
                rg, d.cluster, ring, graph, d.direct, ring_v.value))
            if d.is_home:  # on the suite's own copy of a ring it checked, which keeps its facts
                twin = checked.get((ring.net, m0))
                struct_results.append(homecluster._judge_structure(
                    d.cluster, ring if twin is None else replace(ring, net=twin[0])))
        if graph is not None and (ring.net, m0) in todo:
            graphs.setdefault((ring.net, m0), graph)
        del ring, graph  # two live ring graphs would double peak memory
    if verdicts is not None:
        verdicts[net, m0] = luc, None if conflict else homecluster.HomeClusterReport(
            tuple(homes), "both", tuple(details))
    row("detection-methods-agree",
        bool(conflict) or (homecluster._short_circuit_applies(net, m0) and rg.complete),
        not conflict, conflict)

    # lucency forces a finite, bounded state space
    row("lucent-implies-bounded", luc.lucent is True,
        rg.complete and len(rg.states) <= 2 ** len(net.transitions),
        f"verdict={rg.verdict} states={len(rg.states)}")
    ft = lucency.is_fully_transparent(net, m0, limits, rg=rg)
    row("fully-transparent-implies-lucent", ft.value is True, luc.lucent is True,
        f"lucent={luc.lucent}")

    home_class = proper and fc and bool(homes)
    safe = is_safe(net, m0, limits, rg=rg).value if home_class else None
    if home_class:
        row("home-cluster-implies-lucent", True, luc.lucent is True, _lucency_detail(luc))
        row("home-cluster-implies-safe", True, safe is True, f"safe={safe}")
        try:
            pairs = lucency.find_conflict_pairs(net, m0, limits, rg=rg)
            row("home-cluster-no-conflict-pairs", True, not pairs, f"{len(pairs)} conflict pairs")
        except UndecidedError:
            row("home-cluster-no-conflict-pairs", False)
        bad_dom = [c for c in homes
                   if lucency.check_no_dominating(net, m0, c, limits, rg=rg).value is not True]
        row("home-cluster-no-dominating-marking", True, not bad_dom,
            ", ".join(c.pretty() for c in bad_dom))
        inc = lucency.check_pairwise_incomparable(net, m0, limits, rg=rg)
        row("home-cluster-markings-incomparable", True, inc.value is True,
            f"witness={inc.witness}")
        bad = _rooted_path_faults(net, m0, homes, limits, rg)  # home clusters need a complete rg
        row("home-cluster-rooted-paths-safe", True, not bad, "; ".join(bad))
        try:
            for c in homes:
                homecluster.classify_dead_end(net, m0, c, limits, rg=rg)
            row("dead-end-dichotomy", True, True)
        except UndecidedError:
            row("dead-end-dichotomy", False)
        except TheoremViolation as exc:
            row("dead-end-dichotomy", True, False, str(exc))
    else:
        for check in ("home-cluster-implies-lucent", "home-cluster-implies-safe",
                      "home-cluster-no-conflict-pairs",
                      "home-cluster-no-dominating-marking",
                      "home-cluster-markings-incomparable",
                      "home-cluster-rooted-paths-safe", "dead-end-dichotomy"):
            row(check, False)

    # a strongly connected net is proper, and on a complete graph the
    # walk's home clusters are the direct ones
    live = rg.live().value if fc else None
    row("strongly-connected-home-cluster-live",
        home_class and rg.complete and connectivity(net) == "strong",
        live is True and safe is True and luc.lucent is True,
        f"live={live} safe={safe} lucent={luc.lucent}")
    for check, results in (("short-circuit-structure", struct_results),
                           ("detection-equivalence", equiv_results)):
        applicable = [r for r in results if r.applicable]
        row(check, bool(applicable), all(r.passed for r in applicable),
            "; ".join(r.details for r in applicable if not r.passed))

    # a live net's graph is complete, so it is bounded: perpetual with a home cluster
    row("perpetual-implies-proper", live is True and bool(homes), proper, f"proper={proper}")


def _lucency_detail(luc):
    if luc.witness:
        return (f"witness {luc.witness[0].pretty()} / {luc.witness[1].pretty()} "
                f"footprint {{{', '.join(luc.footprint or ())}}}")
    return f"status={luc.status}"


def _rooted_path_faults(net, m0, homes, limits, rg) -> List[str]:
    """For each home cluster and each place some state marks: no rooted
    disentangled path, or one whose places hold two tokens at once.  Needs
    a complete graph; in a net that is not free-choice a path may not be
    disentangled, which raises :class:`InvalidPath`."""
    if not rg.complete:
        raise UndecidedError(f"rooted-path safety needs a complete exploration ({rg.verdict})")
    bad = []
    marked = [p for p in net.places if p in rg.marked_places()]  # a dead place starts no path
    for cluster in homes:
        for p in marked:
            result = paths.find_rooted_path(net, m0, p, cluster, limits, rg=rg)
            if not result.found:
                bad.append(f"{p}: no path to {cluster.pretty()}")
                continue
            v = paths.verify_path_safety(net, m0, result.path, limits, rg=rg)
            if not v.value:
                bad.append(f"{p}: unsafe path {list(result.path.nodes)} at {v.witness.pretty()}")
    return bad


def _tiny_cyclic_nets() -> List[Tuple[str, PetriNet, Marking]]:
    """Minimal strongly connected fully transparent nets; they keep the
    transparency and liveness implications from running vacuously."""
    loop1 = PetriNet(["p1"], ["t1"], [("p1", "t1"), ("t1", "p1")])
    cycle2 = PetriNet(["p1", "p2"], ["t1", "t2"],
                      [("p1", "t1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p1")])
    return [("loop1", loop1, Marking.of("p1")),
            ("cycle2", cycle2, Marking.of("p1"))]


def suite_nets(random_count: int = 0, seed: int = 0,
               limits: Optional[ExplorationLimits] = None,
               graphs: Optional[Dict[tuple, ReachabilityGraph]] = None
               ) -> List[Tuple[str, PetriNet, Marking]]:
    """The reference nets, two minimal cyclic nets, and ``random_count``
    generated ones.

    Every generated net found to have a home cluster contributes its
    short-circuited variant as well, right after it: those are strongly
    connected free-choice nets with a home cluster, the hypothesis class
    that random wiring alone almost never hits.  With ``graphs``, the
    probe's exploration of each net (under ``limits``) is recorded there
    under ``(net, m0)``, for :func:`run_theorem_suite` to read.
    """
    profiles = (
        ("sc", dict(force_strongly_connected=True)),
        # mostly single-place clusters and single outputs: convergent
        # dynamics, the profile where nontrivial home clusters are common
        ("narrow", dict(places_per_cluster=(1, 1),
                        transitions_per_cluster=(1, 2),
                        outputs_per_transition=(1, 1))),
        ("wide", {}),
        ("mid", dict(cluster_count=(2, 3), places_per_cluster=(1, 2),
                     transitions_per_cluster=(1, 2),
                     outputs_per_transition=(1, 2))),
    )
    out: List[Tuple[str, PetriNet, Marking]] = []
    for ref in all_reference_nets():
        out.append((ref.ident, ref.net, ref.initial))
    out.extend(_tiny_cyclic_nets())
    for i in range(random_count):
        label, kw = profiles[i % len(profiles)]
        net, m0 = generate(GeneratorParams(seed=seed + i, **kw))
        name = f"rand-{seed + i}-{label}"
        out.append((name, net, m0))
        if label != "sc" and is_proper(net) and m0.is_safe():
            rg = explore(net, m0, limits)
            if graphs is not None:
                graphs[net, m0] = rg
            # the first home cluster, as the direct method reads it off rg
            home = next((c for c in net.clusters() if rg.is_home(mrk(c))),
                        None) if rg.complete else None
            if home is not None:
                try:  # the cleaned net stays on net, for the suite's cluster walk
                    ring = homecluster.short_circuit(net, home, m0)
                except (CleanedNetInvalid, ClusterNotConnected):
                    continue
                out.append((f"{name}-ring", ring.net, m0))
    return out
