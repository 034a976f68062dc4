"""The short-circuited net and the cleaned net as they were built before
they were derived from their source net: each is a full ``PetriNet`` build
from arc lists, kept as the oracle for ``PetriNet.with_transition`` and
``homecluster._restrict``.

Also the from-scratch home-cluster checks: :func:`is_home_cluster_short_circuit`
and :func:`check_short_circuit_structure` build and explore one cluster's
ring on its own, the oracle for the verdicts read off the base graph and
off the theorem suite's shared rings; :func:`check_strongly_connected_home_cluster`
works out every fact it needs again, the oracle for the suite row that reads
the suite's own verdicts; :func:`conn` is plain graph reachability, the
oracle that ``homecluster.support_closure`` refines."""

from lucentnet import (CleanedNetInvalid, ClusterNotConnected, NetStructureError,
                       NodeNotFound, PetriNet, check_lucency, connectivity, explore,
                       is_free_choice, is_live, is_proper, is_safe, mrk, short_circuit)
from lucentnet.homecluster import (CheckResult, ShortCircuitResult, _fresh_transition_name,
                                   _judge_structure, _ring_verdict, _short_circuit_applies)
from lucentnet.net import _reachable


def restrict(net, keep):
    places = [p for p in net.places if p in keep]
    transitions = [t for t in net.transitions if t in keep]
    arcs = [(a, b) for a, b in sorted(net.flow) if a in keep and b in keep]
    try:
        return PetriNet(places, transitions, arcs)
    except NetStructureError as exc:
        raise CleanedNetInvalid(f"cleaned net is not a valid net: {exc}") from exc


def attach_ring(cleaned, cluster, m0):
    fresh = _fresh_transition_name(cleaned)
    arcs = sorted(cleaned.flow)
    arcs += [(p, fresh) for p in cluster.places]
    arcs += [(fresh, p) for p in m0.support()]
    try:
        built = PetriNet(cleaned.places, cleaned.transitions + (fresh,), arcs)
    except NetStructureError as exc:
        # a cluster without places on an empty initial marking: tC has no arcs
        raise CleanedNetInvalid(f"short-circuited net is not a valid net: {exc}") from exc
    return ShortCircuitResult(built, fresh)


def conn(net, m0):
    """All nodes on a directed path starting in an initially marked place,
    the marked places included."""
    try:
        return frozenset(_reachable(m0.support(), net._post))
    except KeyError as exc:  # a marked place outside the net
        raise NodeNotFound(f"unknown node {exc.args[0]!r}") from None


def is_home_cluster_short_circuit(net, m0, cluster, limits=None):
    """Liveness + boundedness of the short-circuited cleaned net, built and
    explored on its own.

    Only meaningful for safely marked proper free-choice nets, where it is
    provably equivalent to the direct check.
    """
    if not is_free_choice(net):
        raise ValueError("short-circuit detection requires a free-choice net")
    if not is_proper(net):
        raise ValueError("short-circuit detection requires a proper net")
    return _ring_verdict(short_circuit(net, cluster, m0), m0, limits)[0]


def check_short_circuit_structure(net, cluster, m0):
    """The short-circuited cleaned net must be strongly connected and
    free-choice, and the extended cluster must be one of its clusters."""
    name = "short-circuit-structure"
    if not _short_circuit_applies(net, m0):
        return CheckResult(name, False, None, "needs a safely marked proper free-choice net")
    try:
        sc = short_circuit(net, cluster, m0)
    except (ClusterNotConnected, CleanedNetInvalid) as exc:
        return CheckResult(name, False, None, str(exc))
    return _judge_structure(cluster, sc)


def check_strongly_connected_home_cluster(net, m0, limits=None, rg=None):
    """Strongly connected free-choice net with a home cluster: must be
    live, safe, and lucent."""
    name = "strongly-connected-home-cluster"
    if connectivity(net) != "strong" or not is_free_choice(net):
        return CheckResult(name, False, None, "net not strongly connected free-choice")
    rg = rg or explore(net, m0, limits)
    if not (rg.complete and any(rg.is_home(mrk(c)) for c in net.clusters())):
        return CheckResult(name, False, None, "no home cluster")
    live = is_live(net, m0, limits, rg=rg)
    safe = is_safe(net, m0, limits, rg=rg)
    lucent = check_lucency(net, m0, limits, rg=rg)
    ok = live.value is True and safe.value is True and lucent.lucent is True
    return CheckResult(name, True, ok,
                       f"live={live.value} safe={safe.value} lucent={lucent.lucent}")
