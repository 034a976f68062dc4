"""The short-circuited net and the cleaned net as they were built before
they were derived from their source net: each is a full ``PetriNet`` build
from arc lists, kept as the oracle for ``PetriNet.with_transition`` and
``homecluster._restrict``."""

from lucentnet import CleanedNetInvalid, NetStructureError, PetriNet
from lucentnet.homecluster import ShortCircuitResult, _fresh_transition_name


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
