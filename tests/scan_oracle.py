"""The graph-wide scans as they were written on ``Marking`` values, before
they moved onto the packed states; kept as the oracle for the packed
versions.  Each takes the net and a record from ``explore_oracle.explore``
(``states``, ``edges``, ``verdict``), so nothing here reads a packed state."""

from typing import Dict, FrozenSet, List

from lucentnet.net import Marking, enabled_transitions, mrk


def bound(g) -> int:
    return max((n for m in g.states for _, n in m.items), default=0)


def fullest(g) -> int:
    return max(map(len, g.states))


def dead_places(net, g):
    marked = set()
    for m in g.states:
        marked.update(m.support())
    return tuple(sorted(set(net.places) - marked))


def dead_transitions(net, g):
    fired = {t for _, t, _ in g.edges}
    return tuple(sorted(set(net.transitions) - fired))


def dead_markings(net, g):
    return tuple(m for m in g.states if not enabled_transitions(net, m))


def no_dominating_witness(g, cluster):
    target = mrk(cluster)
    return next((m for m in g.states if target.lt(m)), None)


def incomparable_witness(g):
    by_size: Dict[int, List[Marking]] = {}
    for m in g.states:
        by_size.setdefault(len(m), []).append(m)
    sizes = sorted(by_size)
    for a_idx, sa in enumerate(sizes):
        for sb in sizes[a_idx + 1:]:
            for small in by_size[sa]:
                for big in by_size[sb]:
                    if small.lt(big):
                        return big, small
    return None


def lucency_witness(net, g):
    seen: Dict[FrozenSet[str], Marking] = {}
    for m in g.states:
        fp = enabled_transitions(net, m)
        if fp in seen:
            return (seen[fp], m), tuple(sorted(fp))
        seen[fp] = m
    return None


def transparency_witness(net, g):
    for m in g.states:
        required = set()
        for t in enabled_transitions(net, m):
            required |= net.preset(t)
        if m != Marking.of(*required):
            return m
    return None


def home_markings(g):
    """The states reachable from every state, by one search per state."""
    succ: Dict[int, List[int]] = {}
    for i, _, j in g.edges:
        succ.setdefault(i, []).append(j)
    homes = set(range(len(g.states)))
    for start in range(len(g.states)):
        seen, stack = {start}, [start]
        while stack:
            for j in succ.get(stack.pop(), ()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        homes &= seen
    return tuple(g.states[h] for h in sorted(homes))


def strings(g):
    return [list(m.as_strings()) for m in g.states]
