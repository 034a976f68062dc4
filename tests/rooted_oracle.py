"""The rooted-path search as it was before it returned its breadth-first
chain unchanged: the chain is passed through ``disentangle``, kept as the
oracle for ``paths.find_rooted_path``."""

from lucentnet.errors import InvalidPath, UndecidedError
from lucentnet.paths import RootedPathResult, disentangle
from lucentnet.reachability import explore


def find_rooted_path(net, m0, place, cluster, limits=None, rg=None):
    if not net.is_place(place):
        net.postset(place)  # NodeNotFound for a node outside the net
        raise InvalidPath("path must start at a place")
    rg = rg or explore(net, m0, limits)
    if not any(place in m for m in rg.states):
        if not rg.complete:
            raise UndecidedError("deadness of the start place is unknown (exploration incomplete)")
        return RootedPathResult(None, reason="dead-place")

    target_places = set(cluster.places)
    prev = {place: None}
    frontier = [place]
    hit = place if place in target_places else None
    while frontier and hit is None:
        nxt = []
        for x in frontier:
            for y in sorted(net.postset(x)):
                if y in prev:
                    continue
                prev[y] = x
                if y in target_places:
                    hit = y
                    break
                nxt.append(y)
            if hit is not None:
                break
        frontier = nxt
    if hit is None:
        return RootedPathResult(None, reason="no-graph-path")
    chain = [hit]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    chain.reverse()
    return RootedPathResult(disentangle(net, chain, cluster))
