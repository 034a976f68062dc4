"""Home-cluster detection and the short-circuiting constructions.

A cluster C is a home cluster when its marking Mrk(C) (one token per
cluster place) is a home marking.  Two independent decision procedures
are provided: the direct one reads home markings off the reachability
graph; the short-circuit one adds a fresh transition consuming Pl(C) and
reproducing the initial marking, restricts the net to the nodes reachable
from the initially marked places, and decides liveness + boundedness of
the result.  For safely marked proper free-choice nets (the one predicate
:func:`_short_circuit_applies`) the two provably agree, so a disagreement
is reported as a hard error, never resolved silently.

:func:`find_home_clusters` reads each short-circuit verdict off the one
exploration of the net itself (:func:`_ring_reader`), and builds and
explores a short-circuited net only when that exploration cannot decide.
:func:`check_detection_equivalence` always builds and explores it from
scratch.  The theorem suite explores every short-circuited net too, so
each suite run cross-checks the fast verdicts.

A short-circuited net differs from the cleaned net by tC alone, so it is
derived from it (:meth:`PetriNet.with_transition`); cleaning that drops
nothing returns the net itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Optional, Tuple

from .errors import (CleanedNetInvalid, ClusterNotConnected, NetStructureError,
                     NodeNotFound, RequiresSafeMarking, TheoremViolation, UndecidedError)
from .net import Cluster, Marking, PetriNet, connectivity, is_free_choice, is_proper, mrk
from .reachability import (ExplorationLimits, ReachabilityGraph, Verdict,
                           dead_transitions, explore, is_deadlock_free,
                           is_live_and_bounded)


def _require_places(net: PetriNet, m0: Marking) -> None:
    """Raise :class:`NodeNotFound`, as :func:`explore` does, if ``m0``
    marks a node that is not a place of ``net``."""
    bad = [p for p in m0.support() if p not in net._place_set]
    if bad:
        raise NodeNotFound(f"initial marking marks non-places: {bad}")


def support_closure(net: PetriNet, m0: Marking) -> FrozenSet[str]:
    """Nodes that can ever carry a token or fire: the marked places,
    every transition whose whole preset is already in the set, and that
    transition's output places, iterated to a fixpoint.

    This refines plain graph reachability: a transition can be
    graph-reachable while one of its input places never gets marked, and
    such a transition never fires.  A worklist counts each transition's
    inputs not yet in the set, so every arc is read once.  As for
    :func:`explore`, a marked non-place raises :class:`NodeNotFound`.
    """
    _require_places(net, m0)
    pre, post, places = net._pre, net._post, set(m0.support())
    waiting = {t: len(pre[t]) for t in net.transitions}
    todo = [*places, *(t for t, n in waiting.items() if not n)]
    for x in todo:  # grows while it is read
        for y in post[x]:
            if y in waiting:  # x is a place in the set, y one of its output transitions
                waiting[y] -= 1
                if not waiting[y]:
                    todo.append(y)
            elif y not in places:  # x fires and marks its output place y
                places.add(y)
                todo.append(y)
    return frozenset(places.union(t for t, n in waiting.items() if not n))


def clean(net: PetriNet, m0: Marking) -> PetriNet:
    """Drop everything that can never carry a token or fire.

    Keeping a graph-reachable transition after one of its input places was
    dropped would shrink its preset and *add* behavior, so the restriction
    is to :func:`support_closure`, where every kept transition keeps its
    whole preset.  Returns ``net`` itself when nothing is dropped; raises
    when the leftovers no longer form a valid net.  The result is kept on
    ``net`` for the last ``m0`` it was cleaned with (a failure as its message).
    """
    last = net._cleaned
    if last is None or last[0] != m0:
        try:
            cleaned = _restrict(net, support_closure(net, m0))
        except CleanedNetInvalid as exc:
            net._cleaned = (m0, str(exc))
            raise
        net._cleaned = last = (m0, None if cleaned is net else cleaned)  # no cycle through net
    elif isinstance(last[1], str):
        raise CleanedNetInvalid(last[1])
    return last[1] or net


def _restrict(net: PetriNet, keep: FrozenSet[str]) -> PetriNet:
    if keep.issuperset(net.nodes()):
        return net
    places = [p for p in net.places if p in keep]
    transitions = [t for t in net.transitions if t in keep]
    arcs = [(a, b) for a, b in sorted(net.flow) if a in keep and b in keep]
    try:
        return PetriNet(places, transitions, arcs)
    except NetStructureError as exc:
        raise CleanedNetInvalid(f"cleaned net is not a valid net: {exc}") from exc


@dataclass(frozen=True)
class ShortCircuitResult:
    net: PetriNet
    fresh_transition: str


def _fresh_transition_name(net: PetriNet) -> str:
    name = "tC"
    k = 0
    while net.has_node(name):
        k += 1
        name = f"tC{k}"
    return name


def _attach_ring(cleaned: PetriNet, cluster: Cluster, m0: Marking) -> ShortCircuitResult:
    """The ring of ``cluster``: ``cleaned`` plus tC, derived from it in one step."""
    fresh = _fresh_transition_name(cleaned)
    try:
        built = cleaned.with_transition(fresh, cluster.places, m0.support())
    except NetStructureError as exc:
        # a cluster without places on an empty initial marking: tC has no arcs
        raise CleanedNetInvalid(f"short-circuited net is not a valid net: {exc}") from exc
    return ShortCircuitResult(built, fresh)


def short_circuit(net: PetriNet, cluster: Cluster, m0: Marking) -> ShortCircuitResult:
    """Clean the net (:func:`clean`, which keeps the result on ``net``),
    then add a fresh transition consuming the cluster's places and
    reproducing the initial marking."""
    if not m0.is_safe():
        raise RequiresSafeMarking("short-circuiting needs a safe initial marking")
    cleaned = clean(net, m0)
    missing = sorted(set(cluster.nodes()).difference(cleaned.nodes()))
    if missing:
        raise ClusterNotConnected(
            f"cluster does not survive cleaning; dropped nodes: {missing}")
    return _attach_ring(cleaned, cluster, m0)


def _short_circuit_applies(net: PetriNet, m0: Marking) -> bool:
    """The short-circuit hypothesis: a safely marked proper free-choice net."""
    return m0.is_safe() and is_proper(net) and is_free_choice(net)


def extended_cluster(cluster: Cluster, fresh_transition: str) -> Cluster:
    """The input cluster grown by the short-circuiting transition."""
    return Cluster(cluster.places,
                   tuple(sorted(cluster.transitions + (fresh_transition,))))


def is_home_cluster_direct(net: PetriNet, m0: Marking, cluster: Cluster,
                           limits: Optional[ExplorationLimits] = None,
                           rg: Optional[ReachabilityGraph] = None) -> Verdict:
    """Mrk(C) is one of the net's home markings."""
    rg = rg or explore(net, m0, limits)
    if not rg.complete:
        return Verdict(None, reason=rg.verdict)
    return Verdict(rg.is_home(mrk(cluster)))


def _ring_verdict(sc, m0, limits) -> Tuple[Verdict, ReachabilityGraph]:
    """Live and bounded, read off the ring's one exploration, which is
    returned with the verdict."""
    graph = explore(sc.net, m0, limits)
    v = is_live_and_bounded(sc.net, m0, limits, rg=graph)
    if v.value is False:
        v = Verdict(False, reason="short-circuited net is " + v.reason, witness=v.witness)
    elif v.value is None:
        v = Verdict(None, reason="exploration of the short-circuited net incomplete")
    return v, graph


@dataclass(frozen=True)
class ClusterDetail:
    cluster: Cluster
    marking: Marking
    is_home: Optional[bool]
    direct: Optional[bool]
    short_circuit: Optional[bool]
    note: str = ""


@dataclass(frozen=True)
class HomeClusterReport:
    home_clusters: Tuple[Cluster, ...]
    method: str  # "direct" | "short-circuit" | "both"
    details: Tuple[ClusterDetail, ...]


def find_home_clusters(net: PetriNet, m0: Marking,
                       limits: Optional[ExplorationLimits] = None,
                       method: str = "both",
                       rg: Optional[ReachabilityGraph] = None) -> HomeClusterReport:
    """Run the selected detection method(s) over every cluster.

    With ``method="both"`` the two procedures are cross-checked wherever
    both apply and both decide; a disagreement raises
    :class:`TheoremViolation`.  The short-circuit method silently steps
    aside for clusters (or nets) outside its preconditions: non-free-choice
    nets, non-proper nets, multiset initial markings, clusters not fully
    reachable from the marking.  Every method raises :class:`NodeNotFound`
    for an ``m0`` that marks a non-place.
    """
    if method not in ("direct", "short-circuit", "both"):
        raise ValueError(f"unknown method {method!r}")
    details = []
    for detail, *ring in _cluster_walk(net, m0, limits, method, rg):
        del ring  # two live ring graphs would double peak memory
        reason = _disagreement(detail)
        if reason:
            raise TheoremViolation(reason)
        details.append(detail)
    return HomeClusterReport(tuple(d.cluster for d in details if d.is_home),
                             method, tuple(details))


def _cluster_walk(net, m0, limits, method, rg, rings=False) -> Iterator[tuple]:
    """Clean the net once, then yield ``(detail, ring, ring verdict, ring
    graph)`` for each cluster in turn.  Each ring is the cleaned net plus
    tC, derived from it (:func:`_attach_ring`).

    Short-circuit verdicts are read off the base graph ``rg`` whenever
    :func:`_ring_reader` can; a ring is built and explored only where it
    cannot, or, with ``rings``, for every cluster that has one (the theorem
    suite reads those rings and cross-checks the fast verdicts against
    them).  Ring, verdict and graph are ``None`` where no ring was explored.
    A reader must drop the ring before the next step: two live ring graphs
    double peak memory.
    """
    _require_places(net, m0)  # on every route, explored or not
    want_direct = method in ("direct", "both")
    want_sc = method in ("short-circuit", "both")
    cleaned = kept = read = None
    if want_sc and _short_circuit_applies(net, m0):
        try:
            cleaned = clean(net, m0)  # shared by every cluster's ring
            kept = set(cleaned.nodes())
        except CleanedNetInvalid:
            pass
    if want_direct or cleaned is not None:
        rg = rg or explore(net, m0, limits)
    if cleaned is not None:
        read = _ring_reader(rg, cleaned, limits)

    for cluster in net.clusters():
        marking = mrk(cluster)
        direct_v = sc_v = ring = ring_v = graph = None
        # is_home_cluster_direct, probed once per cluster for both readings
        home = rg.is_home(marking) if (want_direct or read) and rg.complete else None
        notes = []
        if want_direct:
            direct_v = home
            if direct_v is None:
                notes.append("direct: exploration incomplete")
        if want_sc:
            if cleaned is None:
                notes.append("short-circuit: not applicable to this net")
            elif not (kept.issuperset(cluster.places) and kept.issuperset(cluster.transitions)):
                notes.append("short-circuit: cluster does not survive cleaning")
            else:
                try:
                    if rings or read is None:
                        ring = _attach_ring(cleaned, cluster, m0)
                        ring_v, graph = _ring_verdict(ring, m0, limits)
                    sc_v = read(marking, home) if read else ring_v.value
                    if sc_v is None:
                        notes.append("short-circuit: exploration incomplete")
                except CleanedNetInvalid:
                    notes.append("short-circuit: not applicable to this cluster")
        is_home = direct_v if direct_v is not None else sc_v
        yield (ClusterDetail(cluster, marking, is_home, direct_v, sc_v, "; ".join(notes)),
               ring, ring_v, graph)


def _ring_reader(rg, cleaned, limits):
    """The short-circuit verdict of a cluster, given its marking Mrk(C) and
    whether ``rg`` holds it as a home marking, read off the complete base
    graph ``rg`` without exploring its ring; ``None`` when ``rg`` is not
    complete within the cap.

    The ring is the cleaned net, whose reachable markings are ``rg``'s, plus
    tC, and tC fired at M >= Mrk(C) gives M - Mrk(C) + m0.  So when some
    M in ``rg`` lies strictly above Mrk(C) the ring is unbounded, and its
    exploration says so, not ``truncated``: the first marking outside
    ``rg`` strictly dominates the root.  Otherwise tC fires only at Mrk(C),
    the ring's graph is ``rg`` plus the edge Mrk(C) -> m0, and it is live
    exactly when Mrk(C) is a home marking and every cleaned transition
    labels an edge of ``rg``.  The verdict is therefore the conjunction of
    :func:`dead_transitions` (empty), :meth:`ReachabilityGraph.is_home` and
    no state :meth:`ReachabilityGraph.above` Mrk(C) (:func:`check_no_dominating`).
    """
    if not (rg.complete and len(rg.states) <= (limits or ExplorationLimits()).max_states):
        return None
    all_fire = not dead_transitions(cleaned, rg)
    # a marking strictly above Mrk(C) holds more tokens than Mrk(C), which
    # holds one per item
    fullest = max(rg.sizes)
    return lambda marking, home: (
        all_fire and home
        and (len(marking.items) >= fullest or rg.above(marking) is None))


def _disagreement(d: ClusterDetail) -> str:
    """Why the two methods contradict each other on ``d``'s cluster, or ''."""
    if d.direct is None or d.short_circuit is None or d.direct == d.short_circuit:
        return ""
    return (f"home-cluster methods disagree on {d.cluster.pretty()}: "
            f"direct={d.direct}, short-circuit={d.short_circuit}")


TERMINAL = "terminal"
REGENERATIVE = "regenerative"


def classify_dead_end(net: PetriNet, m0: Marking, cluster: Cluster,
                      limits: Optional[ExplorationLimits] = None,
                      rg: Optional[ReachabilityGraph] = None) -> str:
    """A home cluster is either a terminal point (a lone place whose
    marking is the unique dead marking) or regenerative (the net is
    deadlock-free and the cluster has transitions).  Any other shape
    contradicts the dichotomy and raises :class:`TheoremViolation`; a
    cluster that is not a home cluster raises ``ValueError``."""
    rg = rg or explore(net, m0, limits)
    if not rg.complete:
        raise UndecidedError(f"dead-end classification needs a complete exploration ({rg.verdict})")
    if not rg.is_home(mrk(cluster)):
        raise ValueError(f"{cluster.pretty()} is not a home cluster")
    df = is_deadlock_free(net, rg)
    if df.value:
        if not cluster.transitions:
            raise TheoremViolation(
                f"deadlock-free net but home cluster {cluster.pretty()} has no transitions")
        return REGENERATIVE
    dead = set(df.witness)
    if dead != {mrk(cluster)} or len(cluster.places) != 1 or cluster.transitions:
        raise TheoremViolation(
            f"dead markings {sorted(m.pretty() for m in dead)} do not match the "
            f"terminal home cluster shape for {cluster.pretty()}")
    return TERMINAL


# -- structural / equivalence checks ----------------------------------------
# Judgements of one cluster's ring, which the theorem suite applies to the
# rings its walk explores; :func:`check_detection_equivalence` builds its own.


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    passed: Optional[bool]
    details: str = ""


def _judge_structure(cluster: Cluster, sc: ShortCircuitResult) -> CheckResult:
    strong = connectivity(sc.net) == "strong"
    fc = is_free_choice(sc.net)
    is_cluster = extended_cluster(cluster, sc.fresh_transition) in sc.net.clusters()
    return CheckResult("short-circuit-structure", True, strong and fc and is_cluster,
                       f"strongly_connected={strong} free_choice={fc} extended_cluster={is_cluster}")


def check_detection_equivalence(net: PetriNet, m0: Marking, cluster: Cluster,
                                limits: Optional[ExplorationLimits] = None,
                                rg: Optional[ReachabilityGraph] = None
                                ) -> CheckResult:
    """Triangle equivalence of the three home-cluster characterizations,
    plus, for actual home clusters, equality of the reachable marking sets
    of the original and the short-circuited net."""
    name = "detection-equivalence"
    if not _short_circuit_applies(net, m0):
        return CheckResult(name, False, None, "needs a safely marked proper free-choice net")
    try:
        sc = short_circuit(net, cluster, m0)
    except ClusterNotConnected:
        return CheckResult(name, False, None, "cluster does not survive cleaning")
    except CleanedNetInvalid as exc:
        return CheckResult(name, False, None, str(exc))
    rg = rg or explore(net, m0, limits)
    direct = is_home_cluster_direct(net, m0, cluster, limits, rg=rg).value
    verdict, graph = _ring_verdict(sc, m0, limits)
    return _judge_equivalence(rg, cluster, sc, graph, direct, verdict.value)


def _judge_equivalence(rg, cluster, sc, graph, direct, live_and_bounded) -> CheckResult:
    """The equivalence check on ring ``sc`` and its exploration ``graph``."""
    name = "detection-equivalence"
    grown = extended_cluster(cluster, sc.fresh_transition)
    sc_direct = (graph.is_home(mrk(grown))
                 if grown in sc.net.clusters() and graph.complete else None)

    values = [v for v in (direct, sc_direct, live_and_bounded) if v is not None]
    if not values:
        return CheckResult(name, False, None, "all three checks undecided")
    detail = (f"direct={direct} extended_direct={sc_direct} "
              f"live_and_bounded={live_and_bounded}")
    if any(v != values[0] for v in values):
        return CheckResult(name, True, False, detail)
    if values[0] and rg.complete and graph.complete and not rg.same_states(graph):
        return CheckResult(name, True, False, detail + " reachable_sets_differ")
    return CheckResult(name, True, True, detail)
