"""The explorer that the packed-integer ``reachability.explore`` replaced,
kept as its test oracle: a breadth-first search on ``Marking`` values that
tests every transition at every state and walks the whole root path of
each new marking for a dominated ancestor."""

from typing import Dict, List, Optional, Tuple

from lucentnet.net import Marking, PetriNet, _fire_unchecked
from lucentnet.reachability import (COMPLETE, TRUNCATED, UNBOUNDED,
                                    ExplorationLimits, ReachabilityGraph,
                                    UnboundednessWitness)


def scan_enabled(net: PetriNet, m: Marking) -> list:
    """Enabled transitions in identifier order, by testing every one."""
    return [t for t in net.transitions if all(p in m for p in net.preset(t))]


def explore(net: PetriNet, m0: Marking,
            limits: Optional[ExplorationLimits] = None) -> ReachabilityGraph:
    limits = limits or ExplorationLimits()
    states: List[Marking] = [m0]
    index: Dict[Marking, int] = {m0: 0}
    parent: List[Tuple[int, Optional[str]]] = [(-1, None)]
    sizes: List[int] = [len(m0)]
    edges: List[Tuple[int, str, int]] = []
    verdict = COMPLETE
    witness = None

    def path_from_root(k: int) -> Tuple[str, ...]:
        out = []
        while k != 0:
            k, t = parent[k][0], parent[k][1]
            out.append(t)
        return tuple(reversed(out))

    pos = 0
    while pos < len(states):
        m = states[pos]
        stop = False
        for t in scan_enabled(net, m):
            m2 = _fire_unchecked(net, m, t)
            j = index.get(m2)
            if j is None:
                size2 = len(m2)
                k = pos
                dominated = -1
                while k != -1:
                    if sizes[k] < size2 and states[k].lt(m2):
                        dominated = k
                        break
                    k = parent[k][0]
                if dominated >= 0:
                    stem = path_from_root(dominated)
                    full = path_from_root(pos) + (t,)
                    witness = UnboundednessWitness(stem=stem, pump=full[len(stem):])
                    verdict = UNBOUNDED
                    stop = True
                    break
                if len(states) >= limits.max_states:
                    verdict = TRUNCATED
                    stop = True
                    break
                j = len(states)
                states.append(m2)
                index[m2] = j
                parent.append((pos, t))
                sizes.append(size2)
            edges.append((pos, t, j))
        if stop:
            break
        pos += 1

    return ReachabilityGraph(net, states, edges, verdict,
                             unbounded_witness=witness, index=index, expanded=pos)
