"""The graph-wide scans as they were written on ``Marking`` values, before
they moved onto the packed states; kept as the oracle for the packed
versions.  Each takes the net and a record from ``explore_oracle.explore``
(``states``, ``edges``, ``verdict``), so nothing here reads a packed state;
:func:`verify_conflict_pair` asks its graph only whether it holds a marking."""

from typing import Dict, FrozenSet, List

from lucentnet.lucency import _pair_conditions
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


def _reach(g):
    """The states each state reaches, by one search per state."""
    succ: Dict[int, List[int]] = {}
    for i, _, j in g.edges:
        succ.setdefault(i, []).append(j)
    out = []
    for start in range(len(g.states)):
        seen, stack = {start}, [start]
        while stack:
            for j in succ.get(stack.pop(), ()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        out.append(seen)
    return out


def home_markings(g):
    """The states reachable from every state."""
    homes = set.intersection(*_reach(g))
    return tuple(g.states[h] for h in sorted(homes))


def sccs(g):
    """The SCCs (by mutual reachability, in order of their first state) and
    the terminal ones (their first state reaches only members)."""
    reach = _reach(g)
    members: Dict[FrozenSet[int], List[int]] = {}
    for i in range(len(g.states)):
        members.setdefault(frozenset(j for j in reach[i] if i in reach[j]), []).append(i)
    comps = tuple(map(tuple, members.values()))
    return comps, tuple(c for c in comps if reach[c[0]] == set(c))


def conflict_pairs(net, g):
    """The state pairs i < j, in exploration order, with non-empty disjoint
    enabled sets where each keeps an input place of every transition the
    other enables marked."""
    def keeps(m, enabled):
        return all(net.preset(t) & set(m.support()) for t in enabled)

    found = []
    for i, m1 in enumerate(g.states):
        for m2 in g.states[i + 1:]:
            en1, en2 = enabled_transitions(net, m1), enabled_transitions(net, m2)
            if en1 and en2 and en1.isdisjoint(en2) and keeps(m2, en1) and keeps(m1, en2):
                found.append((m1, m2))
    return found


def verify_conflict_pair(net, rg, m1, m2) -> bool:
    """The five conflict-pair conditions on one pair of markings, by name:
    both reachable, both non-dead, disjoint enabled sets, and each marking
    keeps at least one input place of every transition the other enables
    marked.  The last four are the ones ``derive_conflict_pair`` checks."""
    if not (rg.contains(m1) and rg.contains(m2)):
        return False
    return _pair_conditions(net, enabled_transitions(net, m1), frozenset(m1.support()),
                            enabled_transitions(net, m2), frozenset(m2.support()))


def strings(g):
    return [list(m.as_strings()) for m in g.states]
