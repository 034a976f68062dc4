"""Core net structure, marking algebra, firing semantics, and clusters.

A Petri net is a bipartite directed graph over places and transitions; a
marking (multiset of places) is its state.  Everything here is immutable
and pure: nodes are stored sorted so that iteration order, and therefore
every witness produced downstream, is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import NetStructureError, NodeNotFound, NotEnabled, NotEnabledAt

Arc = Tuple[str, str]


def is_identifier(name: str) -> bool:
    """An ASCII letter or underscore, then ASCII letters, digits and
    underscores: ``str.isidentifier`` on ASCII text."""
    return isinstance(name, str) and name.isascii() and name.isidentifier()


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
        """Zero counts are dropped; a count that is not an int >= 0 (a bool
        is not) raises ValueError."""
        bad = sorted(p for p, n in counts.items() if type(n) is not int or n < 0)
        if bad:
            raise ValueError(f"token counts that are negative or not integers for {bad}")
        return Marking(tuple(sorted((p, n) for p, n in counts.items() if n > 0)))

    def count(self, place: str) -> int:
        return self._counts.get(place, 0)

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
    the underlying graph, each in bulk; only a failed check loops over the
    items, to name the first offender.  Arc multiplicities are not supported.

    Each node's preset and postset are kept as the lists construction
    appends to, in arc order, and no list is changed afterwards: the
    readers in this package iterate them or test them as sets, and
    :meth:`preset`/:meth:`postset` build a frozenset per call.

    Derived facts are computed on first use and kept on the net: clusters,
    the :class:`Compiled` form, :func:`is_free_choice`, :func:`is_proper`,
    :func:`connectivity` and the last ``homecluster.clean`` result.
    """

    __slots__ = ("places", "transitions", "flow", "_pre", "_post", "_nodes",
                 "_place_set", "_transition_set", "_compiled",
                 "_clusters", "_cluster_of", "_free_choice", "_proper",
                 "_connectivity", "_cleaned")

    def __init__(self, places: Iterable[str], transitions: Iterable[str],
                 arcs: Iterable[Arc]):
        place_list = list(places)
        transition_list = list(transitions)
        arc_list = list(map(tuple, arcs))

        names = place_list + transition_list
        try:  # is_identifier on every name at once
            named = "".join(names).isascii() and all(map(str.isidentifier, names))
        except TypeError:  # a name that is not a str
            named = False
        for name in [] if named else names:
            if not is_identifier(name):
                raise NetStructureError(f"bad identifier: {name!r}")
        if not place_list or not transition_list:
            raise NetStructureError("a net needs at least one place and one transition")
        place_set = set(place_list)
        transition_set = set(transition_list)
        if len(place_set) != len(place_list):
            raise NetStructureError("duplicate place declarations")
        if len(transition_set) != len(transition_list):
            raise NetStructureError("duplicate transition declarations")
        overlap = place_set & transition_set
        if overlap:
            raise NetStructureError(f"identifiers used as both place and transition: {sorted(overlap)}")

        self.places: Tuple[str, ...] = tuple(sorted(place_list))
        self.transitions: Tuple[str, ...] = tuple(sorted(transition_list))
        self._nodes = nodes = self.places + self.transitions
        pre: Dict[str, list] = {x: [] for x in nodes}
        post: Dict[str, list] = {x: [] for x in nodes}
        try:
            self.flow: FrozenSet[Arc] = frozenset(arc_list)
            for src, dst in arc_list:
                post[src].append(dst)
                pre[dst].append(src)
            sound = (len(self.flow) == len(arc_list)  # no repeated arc, none within a kind
                     and place_set.isdisjoint(chain(*map(post.get, place_list)))
                     and transition_set.isdisjoint(chain(*map(post.get, transition_list))))
        except (KeyError, TypeError, ValueError):  # not a pair, or an endpoint not a node
            sound = False
        seen = set()
        for src, dst in [] if sound else arc_list:
            if (src, dst) in seen:
                raise NetStructureError(f"duplicate arc {src} -> {dst}")
            seen.add((src, dst))
            for end in (src, dst):
                if end not in place_set and end not in transition_set:
                    raise NetStructureError(f"arc endpoint {end!r} is not a node")
            if (src in place_set) == (dst in place_set):
                raise NetStructureError(f"arc {src} -> {dst} must connect a place and a transition")

        reached = _reachable([nodes[0]], pre, post)
        if len(reached) != len(nodes):
            unreached = sorted(set(nodes) - reached)
            raise NetStructureError(f"net is not weakly connected; unreachable from {nodes[0]}: "
                                    f"{unreached}", unreached)

        self._pre, self._post = pre, post
        self._place_set = frozenset(place_set)
        self._transition_set = frozenset(transition_set)
        self._compiled: Optional[Compiled] = None  # built on first use
        self._clusters: Optional[Tuple[Cluster, ...]] = None
        self._cluster_of: Optional[Dict[str, Cluster]] = None
        self._free_choice = self._proper = self._connectivity = self._cleaned = None

    def with_transition(self, fresh: str, inputs: Sequence[str],
                        outputs: Sequence[str]) -> "PetriNet":
        """This net plus a transition ``fresh`` with arcs from the places
        ``inputs`` and to the places ``outputs``, derived from this one.

        Only what the new node can break is checked (a fresh valid name,
        arcs to places, at least one arc); on a fault the full build runs
        and raises its :class:`NetStructureError`.  The new net shares this
        one's preset and postset lists, except the new ones of ``fresh`` and
        of the places it touches; its clusters come from :meth:`clusters`
        on first use, as a built net's do.
        """
        arcs = [(p, fresh) for p in inputs] + [(fresh, p) for p in outputs]
        flow = self.flow.union(arcs)
        if not (arcs and is_identifier(fresh)
                and fresh not in self._pre and len(flow) == len(self.flow) + len(arcs)
                and self._place_set.issuperset(chain(inputs, outputs))):
            return PetriNet(self.places, self.transitions + (fresh,), sorted(self.flow) + arcs)
        net = PetriNet.__new__(PetriNet)
        net.places, net.flow, net._place_set = self.places, flow, self._place_set
        net.transitions = tuple(sorted(self.transitions + (fresh,)))
        net._transition_set = self._transition_set | {fresh}
        net._nodes = nodes = self.places + net.transitions
        ins, outs = list(inputs), list(outputs)
        net._pre = pre = {x: self._pre.get(x, ins) for x in nodes}  # in node order
        net._post = post = {x: self._post.get(x, outs) for x in nodes}
        for p in inputs:
            post[p] = post[p] + [fresh]
        for p in outputs:
            pre[p] = pre[p] + [fresh]
        net._compiled = net._clusters = net._cluster_of = None
        net._free_choice = net._proper = net._connectivity = net._cleaned = None
        return net

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
        """Input nodes of ``node`` under the flow relation, as a frozenset
        built on each call."""
        try:
            return frozenset(self._pre[node])
        except KeyError:
            raise NodeNotFound(f"unknown node {node!r}") from None

    def postset(self, node: str) -> FrozenSet[str]:
        """Output nodes of ``node`` under the flow relation, as a frozenset
        built on each call."""
        try:
            return frozenset(self._post[node])
        except KeyError:
            raise NodeNotFound(f"unknown node {node!r}") from None

    def preset_of_set(self, nodes: Iterable[str]) -> FrozenSet[str]:
        return frozenset().union(*map(self.preset, nodes))

    # -- clusters ---------------------------------------------------------

    def clusters(self) -> Tuple[Cluster, ...]:
        """The cluster partition of all nodes, sorted by smallest place (a
        transition with no input place is a cluster sorted by its name).

        One labelling pass: a place binds its output transitions and a
        transition its input places, transitively.
        """
        if self._clusters is None:
            pre, post, places = self._pre, self._post, self._place_set
            seen = set()
            clusters = []
            for x in self._nodes:
                if x not in seen:
                    seen.add(x)
                    block = [x]
                    for y in block:  # grows while it is read
                        for z in post[y] if y in places else pre[y]:
                            if z not in seen:
                                seen.add(z)
                                block.append(z)
                    clusters.append(Cluster(tuple(sorted(filter(places.__contains__, block))),
                                            tuple(sorted(z for z in block if z not in places))))
            self._clusters = tuple(sorted(clusters, key=Cluster.sort_key))
            self._cluster_of = {x: c for c in self._clusters for x in c.places + c.transitions}
        return self._clusters

    def cluster_of(self, node: str) -> Cluster:
        """The cluster containing ``node``."""
        self.clusters()
        try:
            return self._cluster_of[node]
        except KeyError:
            raise NodeNotFound(f"unknown node {node!r}") from None


def mrk(cluster: Cluster) -> Marking:
    """The smallest marking that fully enables a cluster: one token per
    place.  A cluster's places are sorted and distinct, so its items are
    built directly."""
    return Marking(tuple((p, 1) for p in cluster.places))


# -- firing semantics -----------------------------------------------------


class Compiled:
    """A net numbered for the firing kernels: places and transitions are
    indexed in identifier order, and a set of transitions is an int with
    bit ``i`` for transition ``i``.

    ``outs[i]`` holds the output transitions of place ``i``, and ``always``
    the transitions with an empty preset, so the transitions a marking may
    enable are ``always`` plus the outputs of its marked places.
    ``dsize[t]`` is how many tokens firing t adds.  ``pre`` and ``post`` are
    the net's own preset and postset maps, one list per node (never
    changed); the form holds no reference to the net, so the net and its
    form are freed together without waiting for the cycle collector.
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
    counts = m._counts
    for p in net._pre[t]:
        if p not in counts:
            return False
    return True


def _fire_unchecked(net: PetriNet, m: Marking, t: str) -> Marking:
    out = dict(m._counts)
    for p in net._pre[t]:
        n = out[p] - 1
        if n:
            out[p] = n
        else:
            del out[p]
    for p in net._post[t]:
        out[p] = out.get(p, 0) + 1
    return Marking(tuple(sorted(out.items())))


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

    Read off the clusters: a net is free-choice exactly when each
    transition takes from every place of its cluster (Desel & Esparza,
    *Free Choice Petri Nets*, 1995).  A transition's inputs lie in its
    cluster and a preset holds no repeat, so the sizes decide.  Computed
    once per net and kept on it.
    """
    if net._free_choice is None:
        pre = net._pre
        net._free_choice = all(len(pre[t]) == len(c.places)
                               for c in net.clusters() for t in c.transitions)
    return net._free_choice


def is_proper(net: PetriNet) -> bool:
    """Every transition has at least one input and one output place.
    Computed once per net and kept on it."""
    if net._proper is None:
        pre, post = net._pre, net._post
        net._proper = all(pre[t] and post[t] for t in net.transitions)
    return net._proper


def _reachable(starts: Iterable[str], *steps: Mapping[str, Iterable[str]]) -> set:
    """The nodes reachable from ``starts`` along any of the adjacency maps."""
    seen = set()
    stack = list(starts)
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            for step in steps:
                stack += step[x]
    return seen


def connectivity(net: PetriNet) -> str:
    """``"strong"`` iff every ordered node pair is path-connected, else ``"weak"``.

    Weak connectedness is a construction invariant, so those are the only
    two possible answers.  Computed once per net and kept on it.
    """
    if net._connectivity is None:
        start, n = net._nodes[0], len(net._nodes)
        strong = (len(_reachable([start], net._post)) == n
                  and len(_reachable([start], net._pre)) == n)
        net._connectivity = "strong" if strong else "weak"
    return net._connectivity


def net_class(net: PetriNet) -> str:
    """Most specific structural class of the net.

    marked-graph: every place has at most one input and one output transition;
    state-machine: every transition has exactly one input and one output place;
    free-choice / general otherwise.
    """
    pre, post = net._pre, net._post
    if all(len(pre[p]) <= 1 and len(post[p]) <= 1 for p in net.places):
        return "marked-graph"
    if all(len(pre[t]) == 1 and len(post[t]) == 1 for t in net.transitions):
        return "state-machine"
    if is_free_choice(net):
        return "free-choice"
    return "general"
