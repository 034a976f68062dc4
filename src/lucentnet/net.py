"""Core net structure, marking algebra, firing semantics, and clusters.

A Petri net is a bipartite directed graph over places and transitions; a
marking (multiset of places) is its state.  Everything here is immutable
and pure: nodes are stored sorted so that iteration order, and therefore
every witness produced downstream, is reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import NetStructureError, NodeNotFound, NotEnabled, NotEnabledAt

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Arc = Tuple[str, str]


@dataclass(frozen=True)
class Marking:
    """A multiset of places.

    Only positive counts are stored, sorted by place identifier, so equal
    multisets compare equal and the value doubles as a state-space key.
    """

    items: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_counts", dict(self.items))

    @staticmethod
    def of(*places: str) -> "Marking":
        """Build a marking from place names; repeats mean extra tokens."""
        counts: Dict[str, int] = {}
        for p in places:
            counts[p] = counts.get(p, 0) + 1
        return Marking.from_counts(counts)

    @staticmethod
    def from_counts(counts: Mapping[str, int]) -> "Marking":
        negative = sorted(p for p, n in counts.items() if n < 0)
        if negative:
            raise ValueError(f"negative token counts for {negative}")
        return Marking(tuple(sorted((p, int(n)) for p, n in counts.items() if n > 0)))

    def count(self, place: str) -> int:
        return self._counts.get(place, 0)

    def __getitem__(self, place: str) -> int:
        return self.count(place)

    def __contains__(self, place: str) -> bool:
        return self.count(place) > 0

    def __len__(self) -> int:
        """Total number of tokens."""
        return sum(n for _, n in self.items)

    def total(self, places: Iterable[str]) -> int:
        """Number of tokens sitting on the given set of places."""
        return sum(self.count(p) for p in set(places))

    def support(self) -> Tuple[str, ...]:
        """The marked places, sorted."""
        return tuple(p for p, _ in self.items)

    def __add__(self, other: "Marking") -> "Marking":
        counts = dict(self._counts)
        for p, n in other.items:
            counts[p] = counts.get(p, 0) + n
        return Marking.from_counts(counts)

    def __sub__(self, other: "Marking") -> "Marking":
        """Multiset difference; counts never go below zero."""
        counts = dict(self._counts)
        for p, n in other.items:
            counts[p] = max(0, counts.get(p, 0) - n)
        return Marking.from_counts(counts)

    def leq(self, other: "Marking") -> bool:
        """Pointwise multiset inclusion (every count at most other's)."""
        return all(n <= other.count(p) for p, n in self.items)

    def lt(self, other: "Marking") -> bool:
        """Strict multiset domination by ``other``."""
        return self != other and self.leq(other)

    def is_safe(self) -> bool:
        """At most one token per place (set-like)."""
        return all(n <= 1 for _, n in self.items)

    def pretty(self) -> str:
        inner = ", ".join(p if n == 1 else f"{p}^{n}" for p, n in self.items)
        return f"[{inner}]"

    def as_strings(self) -> Tuple[str, ...]:
        """Canonical ``place:count`` serialization, sorted by place."""
        return tuple(f"{p}:{n}" for p, n in self.items)


def sequence_to_multiset(seq: Sequence[str]) -> Marking:
    """Forget the order of a sequence, keeping multiplicities."""
    return Marking.of(*seq)


@dataclass(frozen=True)
class Cluster:
    """One block of the cluster partition: places that share their output
    transitions, closed with those transitions' input places."""

    places: Tuple[str, ...]
    transitions: Tuple[str, ...]

    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self.places + self.transitions))

    def sort_key(self) -> str:
        return self.places[0] if self.places else self.transitions[0]

    def pretty(self) -> str:
        return "{" + ", ".join(self.nodes()) + "}"


class PetriNet:
    """An immutable Petri net: places, transitions, and a flow relation.

    Construction validates identifiers, endpoint existence, arc direction
    (place<->transition only), duplicate arcs, and weak connectedness of
    the underlying graph.  Arc multiplicities are not supported.
    """

    __slots__ = ("places", "transitions", "flow", "_pre", "_post", "_nodes",
                 "_place_set", "_transition_set", "_compiled",
                 "_clusters", "_cluster_of")

    def __init__(self, places: Iterable[str], transitions: Iterable[str],
                 arcs: Iterable[Arc]):
        place_list = list(places)
        transition_list = list(transitions)
        arc_list = [tuple(a) for a in arcs]

        for name in place_list + transition_list:
            if not isinstance(name, str) or not _IDENT.match(name):
                raise NetStructureError(f"bad identifier: {name!r}")
        if not place_list or not transition_list:
            raise NetStructureError("a net needs at least one place and one transition")
        if len(set(place_list)) != len(place_list):
            raise NetStructureError("duplicate place declarations")
        if len(set(transition_list)) != len(transition_list):
            raise NetStructureError("duplicate transition declarations")
        place_set = set(place_list)
        transition_set = set(transition_list)
        overlap = place_set & transition_set
        if overlap:
            raise NetStructureError(f"identifiers used as both place and transition: {sorted(overlap)}")

        seen = set()
        for src, dst in arc_list:
            if (src, dst) in seen:
                raise NetStructureError(f"duplicate arc {src} -> {dst}")
            seen.add((src, dst))
            src_place = src in place_set
            dst_place = dst in place_set
            if src not in place_set and src not in transition_set:
                raise NetStructureError(f"arc endpoint {src!r} is not a node")
            if dst not in place_set and dst not in transition_set:
                raise NetStructureError(f"arc endpoint {dst!r} is not a node")
            if src_place == dst_place:
                raise NetStructureError(f"arc {src} -> {dst} must connect a place and a transition")

        self.places: Tuple[str, ...] = tuple(sorted(place_list))
        self.transitions: Tuple[str, ...] = tuple(sorted(transition_list))
        self.flow: FrozenSet[Arc] = frozenset(seen)

        pre: Dict[str, set] = {x: set() for x in self.places + self.transitions}
        post: Dict[str, set] = {x: set() for x in self.places + self.transitions}
        for src, dst in self.flow:
            post[src].add(dst)
            pre[dst].add(src)
        self._pre = {x: frozenset(s) for x, s in pre.items()}
        self._post = {x: frozenset(s) for x, s in post.items()}
        self._nodes = self.places + self.transitions
        self._place_set = frozenset(self.places)
        self._transition_set = frozenset(self.transitions)
        self._compiled: Optional[Compiled] = None  # built on first use
        self._clusters: Optional[Tuple[Cluster, ...]] = None
        self._cluster_of: Optional[Dict[str, Cluster]] = None

        self._check_weakly_connected()

    def _check_weakly_connected(self):
        start = self._nodes[0]
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in self._pre[x] | self._post[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(self._nodes):
            missing = sorted(set(self._nodes) - seen)
            raise NetStructureError(f"net is not weakly connected; unreachable from {start}: {missing}")

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, PetriNet)
                and self.places == other.places
                and self.transitions == other.transitions
                and self.flow == other.flow)

    def __hash__(self):
        return hash((self.places, self.transitions, self.flow))

    def __repr__(self):
        return (f"PetriNet({len(self.places)} places, {len(self.transitions)} "
                f"transitions, {len(self.flow)} arcs)")

    # -- basic structure --------------------------------------------------

    def nodes(self) -> Tuple[str, ...]:
        return self._nodes

    def is_place(self, x: str) -> bool:
        return x in self._place_set

    def is_transition(self, x: str) -> bool:
        return x in self._transition_set

    def has_node(self, x: str) -> bool:
        return x in self._pre

    def preset(self, node: str) -> FrozenSet[str]:
        """Input nodes of ``node`` under the flow relation."""
        try:
            return self._pre[node]
        except KeyError:
            raise NodeNotFound(f"unknown node {node!r}") from None

    def postset(self, node: str) -> FrozenSet[str]:
        """Output nodes of ``node`` under the flow relation."""
        try:
            return self._post[node]
        except KeyError:
            raise NodeNotFound(f"unknown node {node!r}") from None

    def preset_of_set(self, nodes: Iterable[str]) -> FrozenSet[str]:
        out: set = set()
        for x in nodes:
            out |= self.preset(x)
        return frozenset(out)

    def postset_of_set(self, nodes: Iterable[str]) -> FrozenSet[str]:
        out: set = set()
        for x in nodes:
            out |= self.postset(x)
        return frozenset(out)

    # -- clusters ---------------------------------------------------------

    def clusters(self) -> Tuple[Cluster, ...]:
        """The cluster partition of all nodes, sorted by smallest place.

        Clusters are the connected components of the graph restricted to
        place->transition arcs: a place drags in its output transitions,
        a transition drags in its input places.
        """
        if self._clusters is None:
            parent = {x: x for x in self._nodes}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for src, dst in self.flow:
                if src in self._place_set:  # only place->transition arcs bind a cluster
                    ra, rb = find(src), find(dst)
                    if ra != rb:
                        parent[ra] = rb

            blocks: Dict[str, list] = {}
            for x in self._nodes:
                blocks.setdefault(find(x), []).append(x)
            clusters = []
            for members in blocks.values():
                ps = tuple(sorted(m for m in members if m in self._place_set))
                ts = tuple(sorted(m for m in members if m not in self._place_set))
                clusters.append(Cluster(ps, ts))
            clusters.sort(key=Cluster.sort_key)
            self._clusters = tuple(clusters)
            self._cluster_of = {}
            for c in self._clusters:
                for x in c.places + c.transitions:
                    self._cluster_of[x] = c
        return self._clusters

    def cluster_of(self, node: str) -> Cluster:
        """The cluster containing ``node``."""
        self.clusters()
        try:
            return self._cluster_of[node]
        except KeyError:
            raise NodeNotFound(f"unknown node {node!r}") from None

    def same_cluster(self, a: str, b: str) -> bool:
        return self.cluster_of(a) is self.cluster_of(b)


def mrk(cluster: Cluster) -> Marking:
    """The smallest marking that fully enables a cluster: one token per place."""
    return Marking.of(*cluster.places)


# -- firing semantics -----------------------------------------------------


class Compiled:
    """A net numbered for the firing kernels: places and transitions are
    indexed in identifier order, and a set of transitions is an int with
    bit ``i`` for transition ``i``.

    ``outs[i]`` holds the output transitions of place ``i``, and ``always``
    the transitions with an empty preset, so the transitions a marking may
    enable are ``always`` plus the outputs of its marked places.
    ``dsize[t]`` is how many tokens firing t adds.  ``pre`` and ``post`` are
    the net's own preset and postset maps; the form holds no reference to
    the net, so the net and its form are freed together without waiting
    for the cycle collector.
    """

    __slots__ = ("transitions", "pre", "post", "place_index", "outs",
                 "outs_of", "always", "dsize")

    def __init__(self, net: PetriNet):
        self.transitions = net.transitions
        self.pre = pre = net._pre
        self.post = post = net._post
        self.place_index = index = {p: i for i, p in enumerate(net.places)}
        outs = [0] * len(net.places)
        always = 0
        self.dsize = dsize = []
        for t, name in enumerate(net.transitions):
            ins = pre[name]
            bit = 1 << t
            for p in ins:
                outs[index[p]] |= bit
            if not ins:
                always |= bit
            dsize.append(len(post[name]) - len(ins))
        self.outs = outs
        self.outs_of = dict(zip(net.places, outs))
        self.always = always


def compiled(net: PetriNet) -> Compiled:
    """The net's :class:`Compiled` form, built once and cached on the net."""
    form = net._compiled
    if form is None:
        form = net._compiled = Compiled(net)
    return form


def enabled_list(net: PetriNet, m: Marking) -> list:
    """Enabled transitions in identifier order.

    Only the outputs of marked places, and transitions with an empty
    preset, are tested; the rest cannot be enabled.
    """
    form = net._compiled or compiled(net)
    counts = m._counts
    outs_of = form.outs_of
    candidates = form.always
    for p in counts:
        candidates |= outs_of.get(p, 0)
    names = net.transitions
    pre = net._pre
    out = []
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        t = names[bit.bit_length() - 1]
        for p in pre[t]:
            if p not in counts:
                break
        else:
            out.append(t)
    return out


def enabled_transitions(net: PetriNet, m: Marking) -> FrozenSet[str]:
    """Transitions whose every input place holds at least one token."""
    return frozenset(enabled_list(net, m))


def is_enabled(net: PetriNet, m: Marking, t: str) -> bool:
    if t not in net._transition_set:
        raise NodeNotFound(f"unknown transition {t!r}")
    counts = m._counts  # positive counts only
    for p in net._pre[t]:
        if p not in counts:
            return False
    return True


def _fire_unchecked(net: PetriNet, m: Marking, t: str) -> Marking:
    counts = dict(m.items)
    for p in net._pre[t]:
        n = counts[p] - 1
        if n:
            counts[p] = n
        else:
            del counts[p]
    for p in net._post[t]:
        counts[p] = counts.get(p, 0) + 1
    return Marking(tuple(sorted(counts.items())))


def fire(net: PetriNet, m: Marking, t: str) -> Marking:
    """Fire ``t``: one token off each input place, one onto each output place."""
    if not is_enabled(net, m, t):
        raise NotEnabled(f"{t} is not enabled in {m.pretty()}")
    return _fire_unchecked(net, m, t)


def fire_sequence(net: PetriNet, m: Marking, seq: Sequence[str]) -> Marking:
    """Fold :func:`fire` over the sequence; fails at the first disabled step."""
    cur = m
    for i, t in enumerate(seq):
        try:
            cur = fire(net, cur, t)
        except NotEnabled:
            raise NotEnabledAt(i, t) from None
    return cur


def sequence_enabled(net: PetriNet, m: Marking, seq: Sequence[str]) -> bool:
    """True iff the whole sequence can fire from ``m``."""
    try:
        fire_sequence(net, m, seq)
        return True
    except NotEnabled:
        return False


# -- structural predicates -------------------------------------------------


def is_free_choice(net: PetriNet) -> bool:
    """Any two transitions have equal or disjoint presets.

    Equivalent formulation used here: all output transitions of any single
    place share exactly the same preset.
    """
    for p in net.places:
        ts = sorted(net.postset(p))
        if len(ts) > 1:
            first = net.preset(ts[0])
            if any(net.preset(t) != first for t in ts[1:]):
                return False
    return True


def is_proper(net: PetriNet) -> bool:
    """Every transition has at least one input and one output place."""
    return all(net.preset(t) and net.postset(t) for t in net.transitions)


def _reachable(net: PetriNet, start: str, forward: bool) -> set:
    seen = {start}
    stack = [start]
    step = net._post if forward else net._pre
    while stack:
        x = stack.pop()
        for y in step[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def connectivity(net: PetriNet) -> str:
    """``"strong"`` iff every ordered node pair is path-connected, else ``"weak"``.

    Weak connectedness is a construction invariant, so those are the only
    two possible answers.
    """
    start = net.nodes()[0]
    n = len(net.nodes())
    if len(_reachable(net, start, True)) == n and len(_reachable(net, start, False)) == n:
        return "strong"
    return "weak"


def net_class(net: PetriNet) -> str:
    """Most specific structural class of the net.

    marked-graph: every place has at most one input and one output transition;
    state-machine: every transition has exactly one input and one output place;
    free-choice / general otherwise.
    """
    if all(len(net.preset(p)) <= 1 and len(net.postset(p)) <= 1 for p in net.places):
        return "marked-graph"
    if all(len(net.preset(t)) == 1 and len(net.postset(t)) == 1 for t in net.transitions):
        return "state-machine"
    if is_free_choice(net):
        return "free-choice"
    return "general"
