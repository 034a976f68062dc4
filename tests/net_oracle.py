"""The structural routines that ``net`` and ``homecluster`` replaced, kept
as test oracles: the cluster partition by union-find over the
place->transition arcs, free choice by comparing the presets of each
place's output transitions, and the support closure as a fixpoint that
rescans every transition once per round."""

from typing import Dict, FrozenSet, Tuple

from lucentnet.net import Cluster, Marking, PetriNet


def clusters(net: PetriNet) -> Tuple[Cluster, ...]:
    """The connected components of the place->transition arcs, sorted by
    smallest place."""
    parent = {x: x for x in net.nodes()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, dst in net.flow:
        if net.is_place(src):  # only place->transition arcs bind a cluster
            ra, rb = find(src), find(dst)
            if ra != rb:
                parent[ra] = rb

    blocks: Dict[str, list] = {}
    for x in net.nodes():
        blocks.setdefault(find(x), []).append(x)
    found = []
    for members in blocks.values():
        ps = tuple(sorted(m for m in members if net.is_place(m)))
        ts = tuple(sorted(m for m in members if not net.is_place(m)))
        found.append(Cluster(ps, ts))
    return tuple(sorted(found, key=Cluster.sort_key))


def is_free_choice(net: PetriNet) -> bool:
    """All output transitions of any single place have the same preset."""
    for p in net.places:
        ts = sorted(net.postset(p))
        if any(net.preset(t) != net.preset(ts[0]) for t in ts[1:]):
            return False
    return True


def support_closure(net: PetriNet, m0: Marking) -> FrozenSet[str]:
    """The marked places, every transition whose whole preset is in the
    set, and its output places, iterated to a fixpoint."""
    places = set(m0.support())
    transitions: set = set()
    changed = True
    while changed:
        changed = False
        for t in net.transitions:
            if t not in transitions and places.issuperset(net.preset(t)):
                transitions.add(t)
                places.update(net.postset(t))
                changed = True
    return frozenset(places | transitions)
