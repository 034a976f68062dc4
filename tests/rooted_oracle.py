"""The rooted-path checks as they were before they read packed states, kept
as oracles: :func:`find_rooted_path` passes its breadth-first chain through
``disentangle`` and finds a dead place by decoding every state, the oracle
for ``paths.find_rooted_path``; :func:`verify_path_safety` counts the tokens
of every decoded state, the oracle for ``paths.verify_path_safety``; and
:func:`rooted_path_faults`, the theorem suite's rooted-path row built from
these two, is the oracle for ``corpus._rooted_path_faults``."""

from lucentnet.errors import InvalidPath, UndecidedError
from lucentnet.paths import Path, RootedPathResult, disentangle
from lucentnet.reachability import Verdict, explore


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


def verify_path_safety(net, m0, path, limits=None, rg=None):
    nodes = (path if isinstance(path, Path) else Path.of(net, path)).nodes
    places = {x for x in nodes if net.is_place(x)}
    rg = rg or explore(net, m0, limits)
    for m in rg.states:
        if m.total(places) > 1:
            return Verdict(False, witness=m)
    if not rg.complete:
        return Verdict(None, reason=rg.verdict)
    return Verdict(True)


def rooted_path_faults(net, m0, clusters, limits=None, rg=None):
    rg = rg or explore(net, m0, limits)
    bad = []
    for cluster in clusters:
        for p in net.places:
            result = find_rooted_path(net, m0, p, cluster, limits, rg=rg)
            if result.reason == "dead-place":
                continue
            if not result.found:
                bad.append(f"{p}: no path to {cluster.pretty()}")
                continue
            v = verify_path_safety(net, m0, result.path, limits, rg=rg)
            if v.value is not True:
                bad.append(f"{p}: unsafe path {list(result.path.nodes)} at "
                           f"{v.witness.pretty() if v.witness else '?'}")
    return bad
