"""Bounded exhaustive exploration of reachable markings and the behavioral
properties defined over them: boundedness, safeness, liveness, deadlock
freedom, dead nodes, and home markings.

Exploration is a deterministic breadth-first search (lexicographic
transition order), so state indexing, edges, and every witness are
identical across runs.  Unboundedness is detected by strict multiset
domination of an ancestor on the exploration path: if firing ``pump``
from some reached marking strictly grows it, the pump can repeat forever.

Inside :func:`explore` a marking is one packed ``int``.  Place ``i``, in
identifier order, owns a field of ``w`` value bits and one guard bit above
them; stored markings keep every guard bit clear.  With ``G`` the guard
bits, ``ONES`` the low bit of every field, and ``pre1[t]``/``post1[t]``
the low bits of t's preset and postset (``preg[t] = pre1[t] << w``):

- the marked places are the guard bits of ``((s | G) - ONES) & G``: a field
  holding ``c`` borrows from its guard exactly when ``c`` is 0;
- the candidate transitions are the outputs of the marked places (plus
  those with an empty preset), taken lowest index first, so edges keep
  identifier order; t is enabled when ``marked & preg[t] == preg[t]``;
- firing t gives ``s - pre1[t] + post1[t]``; a count that outgrows its
  field sets a guard bit, and the search then starts over at width ``2w``;
- ``s2`` strictly dominates ancestor ``k`` when ``sizes[k] < size2`` and
  ``((s2 | G) - states[k]) & G == G`` (no field of ``s2`` is below ``k``'s).

Each state also keeps the smallest token count on its root path.  Only an
ancestor with fewer tokens can be strictly dominated, so the ancestor walk
stops as soon as none is left above (Karp & Miller 1969); a net that
conserves tokens never walks.  The graph keeps the packed states, and a
state becomes a :class:`Marking` only where one is asked for.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import or_
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import UndecidedError
from .net import Marking, PetriNet, compiled, enabled_transitions, mrk

COMPLETE = "complete"
TRUNCATED = "truncated"
UNBOUNDED = "unbounded"

DEFAULT_MAX_STATES = 100_000


@dataclass(frozen=True)
class ExplorationLimits:
    """Caps for the exploration."""

    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be positive")


@dataclass(frozen=True)
class UnboundednessWitness:
    """Firing ``stem`` from the initial marking reaches a marking that the
    additional ``pump`` sequence strictly grows."""

    stem: Tuple[str, ...]
    pump: Tuple[str, ...]


@dataclass(frozen=True)
class Verdict:
    """A three-valued answer: True, False, or None for undecided."""

    value: Optional[bool]
    reason: str = ""
    witness: Any = None


class ReachabilityGraph:
    """Explored markings plus transition-labeled edges, and the facts
    derived from them: enabled sets, SCCs and home markings, each computed
    at most once.

    The graph keeps the search's packed states, index dict, token counts
    (``sizes``) and out-edges; :meth:`marking` decodes one state, and
    ``states`` and ``edges`` are views whose items are built on first access.

    ``states[0]`` is the initial marking; every edge ``(i, t, j)`` satisfies
    ``fire(states[i], t) == states[j]``.  When the verdict is ``complete``
    the graph is the full reachability graph.  The first ``expanded``
    states had all their successors generated, so their out-edges carry
    exactly their enabled transitions.
    """

    def __init__(self, net, layout, packed, index, sizes, out, verdict,
                 unbounded_witness, expanded):
        self.net: PetriNet = net
        self.verdict: str = verdict
        self.unbounded_witness: Optional[UnboundednessWitness] = unbounded_witness
        self.sizes: List[int] = sizes
        self.states: Sequence[Marking] = _View(len(packed), partial(map, layout.marking, packed))
        self.edges: Sequence[Tuple[int, str, int]] = _View(
            sum(map(len, out)), lambda: ((i, t, j) for i, e in enumerate(out) for t, j in e))
        self._layout = layout
        self._packed = packed
        self._index: Dict[int, int] = index
        out += [()] * (len(packed) - len(out))  # the states never expanded
        self._out = out
        self._expanded = expanded
        self._enabled: List[Optional[FrozenSet[str]]] = [None] * len(packed)
        self._terminal_sccs: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._sccs: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._home: Optional[FrozenSet[int]] = None
        self._live: Optional[Verdict] = None

    @property
    def complete(self) -> bool:
        return self.verdict == COMPLETE

    def marking(self, i: int) -> Marking:
        """State ``i`` as a :class:`Marking`."""
        return self._layout.marking(self._packed[i])

    def strings(self, i: int) -> List[str]:
        """State ``i``'s ``place:count`` strings (``Marking.as_strings``)."""
        lay = self._layout
        if lay.extra or lay.width > 1:
            return list(self.marking(i).as_strings())
        return [lay.labels[j] for j in lay.marked(self._packed[i])]

    def index_of(self, m: Marking) -> Optional[int]:
        """The index of ``m``, or None when it was not explored."""
        s, foreign = self._layout.pack(m)
        return self._index.get(s) if foreign == self._layout.extra else None

    def contains(self, m: Marking) -> bool:
        return self.index_of(m) is not None

    def covers(self, i: int, j: int) -> bool:
        """Every count of state ``i`` is at least state ``j``'s."""
        g = self._layout.guard
        return ((self._packed[i] | g) - self._packed[j]) & g == g

    def above(self, m: Marking) -> Optional[int]:
        """The first state strictly above ``m`` (no count below m's, more tokens), or None."""
        s, foreign = self._layout.pack(m)
        if s is None or not Marking(foreign).leq(Marking(self._layout.extra)):
            return None
        g, size = self._layout.guard, len(m)
        return next((i for i, n in enumerate(self.sizes)
                     if n > size and ((self._packed[i] | g) - s) & g == g), None)

    def out_edges(self, i: int) -> Sequence[Tuple[str, int]]:
        return self._out[i]

    def enabled(self, i: int) -> FrozenSet[str]:
        """Enabled set of a state: the labels of its out-edges when it was
        expanded, otherwise computed from the net.  Cached either way."""
        en = self._enabled[i]
        if en is None:
            if i < self._expanded:
                en = frozenset(t for t, _ in self._out[i])
            else:
                en = enabled_transitions(self.net, self.marking(i))
            self._enabled[i] = en
        return en

    def homes(self) -> Tuple[int, ...]:
        """The states of the terminal SCC if it is unique: home markings lie in every one."""
        if not self.complete:
            raise UndecidedError(f"home markings need a complete exploration ({self.verdict})")
        terminal = self.terminal_sccs()
        return terminal[0] if len(terminal) == 1 else ()

    def is_home(self, m: Marking) -> bool:
        """``m`` is a home marking: a state of the unique terminal SCC."""
        if self._home is None:
            self._home = frozenset(self.homes())
        return self.index_of(m) in self._home

    def live(self) -> Verdict:
        """Every transition of the net stays fireable from every reachable
        marking; undecided unless the graph is complete.  Computed once.

        For a finite complete graph this is equivalent to: every transition
        labels an edge inside every terminal SCC (each state can reach a
        terminal SCC, and inside one every member marking is revisitable).
        The counterexample is the lexicographically smallest missing
        transition at the first state of the offending component.
        """
        if self._live is None:
            self._live = self._liveness()
        return self._live

    def _liveness(self) -> Verdict:
        if not self.complete:
            return Verdict(None, reason=self.verdict)
        for scc in self.terminal_sccs():
            inside = set(scc)
            labels = {t for i in scc for t, j in self._out[i] if j in inside}
            missing = sorted(set(self.net.transitions) - labels)
            if missing:
                return Verdict(False, reason="transition cannot fire again",
                               witness=(missing[0], self.marking(scc[0])))
        return Verdict(True)

    # -- strongly connected components ------------------------------------

    def sccs(self) -> Tuple[Tuple[int, ...], ...]:
        if self._sccs is None:
            self._compute_sccs()
        return self._sccs

    def terminal_sccs(self) -> Tuple[Tuple[int, ...], ...]:
        """SCCs without any edge leaving the component."""
        if self._terminal_sccs is None:
            self._compute_sccs()
        return self._terminal_sccs

    def _compute_sccs(self):
        succ = [[j for _, j in out] for out in self._out]
        comp = strong_components(succ)
        members: Dict[int, list] = {}
        for i, c in enumerate(comp):
            members.setdefault(c, []).append(i)
        has_exit = {comp[i] for i, js in enumerate(succ) for j in js if comp[i] != comp[j]}
        sccs = sorted((tuple(v) for v in members.values()), key=lambda c: c[0])
        self._sccs = tuple(sccs)
        self._terminal_sccs = tuple(c for c in sccs
                                    if comp[c[0]] not in has_exit)


class _View(abc.Sequence):
    """A sequence whose length is known at once and whose items are built on first access."""

    def __init__(self, length: int, build):
        self._length, self._build = length, build

    @cached_property
    def _items(self) -> tuple:
        return tuple(self._build())

    def __len__(self):
        return self._length

    def __getitem__(self, i):
        return self._items[i]

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other):
        return self._items == tuple(other) if isinstance(other, (tuple, _View)) else NotImplemented


def strong_components(succ: Sequence[Sequence[int]]) -> List[int]:
    """Component label of every node ``0..n-1`` of a digraph given by
    successor lists.

    Kosaraju, iterative: forward postorder, then a sweep of the transposed
    graph in reverse postorder.  Components are numbered in discovery
    order, which is a topological order of the condensation: every edge
    between two components goes from a smaller label to a larger one.
    """
    n = len(succ)
    pred: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in succ[i]:
            pred[j].append(i)

    order = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(succ[s]))]
        while stack:
            v, it = stack[-1]
            pushed = False
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    pushed = True
                    break
            if not pushed:
                order.append(v)
                stack.pop()

    comp = [-1] * n
    label = 0
    for s in reversed(order):
        if comp[s] != -1:
            continue
        stack = [s]
        comp[s] = label
        while stack:
            v = stack.pop()
            for w in pred[v]:
                if comp[w] == -1:
                    comp[w] = label
                    stack.append(w)
        label += 1
    return comp


class _Layout:
    """Packs and decodes a net's markings at field width ``w`` (see the module
    docstring; ``ones`` is ``ONES``, ``guard`` is ``G``).  ``extra`` holds the
    initial marking's items on places outside the net, carried by every state."""

    __slots__ = ("width", "field", "ones", "guard", "places", "index", "extra", "labels")

    def __init__(self, places, index, extra, w: int):
        f = w + 1
        self.width = w
        self.field = f
        self.ones = ((1 << (len(index) * f)) - 1) // ((1 << f) - 1)
        self.guard = self.ones << w
        self.places, self.index, self.extra = places, index, extra
        self.labels = [f"{p}:1" for p in places]  # the strings of a safe state

    def pack(self, m: Marking):
        """m's counts on the net's places packed (None if one is too wide), and m's other items."""
        s, foreign = 0, []
        for p, n in m.items:
            i = self.index.get(p)
            if i is None:
                foreign.append((p, n))
            elif s is not None:
                s = None if n >> self.width else s | n << (i * self.field)
        return s, tuple(foreign)

    def marked(self, s: int) -> list:
        """The indices of the places packed state ``s`` marks, in order (a
        field of one value bit is its own mark)."""
        f = self.field
        bits = s if self.width == 1 else ((s | self.guard) - self.ones) & self.guard
        out = []
        while bits:
            bit = bits & -bits
            bits ^= bit
            out.append((bit.bit_length() - 1) // f)
        return out

    def marking(self, s: int) -> Marking:
        f, w = self.field, self.width
        items = [(self.places[i], 1 if w == 1 else (s >> (i * f)) & ((1 << w) - 1))
                 for i in self.marked(s)]
        return Marking(tuple(sorted(items + list(self.extra)) if self.extra else items))


def explore(net: PetriNet, m0: Marking,
            limits: Optional[ExplorationLimits] = None) -> ReachabilityGraph:
    """Breadth-first exploration of the reachable markings.

    Stops with verdict ``unbounded`` (plus a replayable witness) as soon as
    a newly generated marking strictly dominates an ancestor on its own
    exploration path, and with ``truncated`` if more than ``max_states``
    distinct markings would be needed.

    The search runs on packed markings (see the module docstring).  It
    starts with fields as wide as the largest initial count needs and, the
    first time a count outgrows its field, starts over with fields twice as
    wide; a run's result does not depend on the width it ran at.
    """
    limits = limits or ExplorationLimits()
    form = compiled(net)
    index = form.place_index
    extra = tuple((p, n) for p, n in m0.items if p not in index)
    w = max(1, max((n for p, n in m0.items if p in index), default=0).bit_length())
    while True:
        layout = _Layout(net.places, index, extra, w)
        run = _search(form, layout, layout.pack(m0)[0], len(m0), limits.max_states)
        if run is not None:
            break
        w *= 2
    return ReachabilityGraph(net, layout, *run)


def _search(form, layout: _Layout, s0: int, size0: int, max_states: int):
    """The breadth-first search of :func:`explore` at one field width:
    ``(states, index, sizes, out, verdict, witness, expanded)`` with packed
    states and the out-edges ``(t, j)`` of every state it began to expand,
    or ``None`` as soon as a count outgrows its field."""
    guard, ones, f, at = layout.guard, layout.ones, layout.field, layout.index
    pre_guard, delta = [], []  # preg[t], and post1[t] - pre1[t]: firing t is one addition
    for t in form.transitions:
        x = y = 0
        for p in form.pre[t]:
            x |= 1 << (at[p] * f)
        for p in form.post[t]:
            y |= 1 << (at[p] * f)
        pre_guard.append(x << layout.width)
        delta.append(y - x)
    outs, always, dsize, names = form.outs, form.always, form.dsize, form.transitions
    states = [s0]
    index = {s0: 0}
    sizes = [size0]   # token count of each state
    least = [size0]   # smallest token count on each state's root path
    parent = [-1]
    via = [-1]        # the transition that first reached each state
    out: List[list] = []

    pos = 0
    while pos < len(states):
        s = states[pos]
        size = sizes[pos]
        edges = []
        out.append(edges)
        marked = ((s | guard) - ones) & guard
        candidates = always
        rest = marked
        while rest:
            bit = rest & -rest
            rest ^= bit
            candidates |= outs[bit.bit_length() // f - 1]
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            t = bit.bit_length() - 1
            need = pre_guard[t]
            if marked & need != need:
                continue
            s2 = s + delta[t]
            if s2 & guard:
                return None
            j = index.get(s2)
            if j is None:
                size2 = size + dsize[t]
                # an ancestor strictly below s2 has fewer tokens, so walk
                # only while one with fewer tokens is still above
                k = pos
                s2g = s2 | guard
                while k != -1 and least[k] < size2:
                    if sizes[k] < size2 and (s2g - states[k]) & guard == guard:
                        stem = _path(k, parent, via, names)
                        full = _path(pos, parent, via, names) + (names[t],)
                        witness = UnboundednessWitness(stem=stem, pump=full[len(stem):])
                        return states, index, sizes, out, UNBOUNDED, witness, pos
                    k = parent[k]
                if len(states) >= max_states:
                    return states, index, sizes, out, TRUNCATED, None, pos
                j = len(states)
                states.append(s2)
                index[s2] = j
                sizes.append(size2)
                least.append(min(least[pos], size2))
                parent.append(pos)
                via.append(t)
            edges.append((names[t], j))
        pos += 1
    return states, index, sizes, out, COMPLETE, None, pos


def _path(k: int, parent, via, names) -> Tuple[str, ...]:
    """The transitions from the root to state ``k`` along the search tree."""
    out = []
    while k:
        out.append(names[via[k]])
        k = parent[k]
    return tuple(reversed(out))


@dataclass(frozen=True)
class BoundednessResult:
    kind: str  # "bounded" | "unbounded" | "unknown"
    k: Optional[int] = None
    witness: Optional[UnboundednessWitness] = None

    @property
    def value(self) -> Optional[bool]:
        return {"bounded": True, "unbounded": False}.get(self.kind)

    def safe(self) -> Verdict:
        """1-boundedness; unknown is propagated from a truncated exploration."""
        if self.kind == "bounded":
            return Verdict(self.k <= 1, witness=self.k)
        if self.kind == "unbounded":
            return Verdict(False, reason="unbounded", witness=self.witness)
        return Verdict(None, reason="truncated")


def bound_k(net: PetriNet, m0: Marking,
            limits: Optional[ExplorationLimits] = None,
            rg: Optional[ReachabilityGraph] = None) -> BoundednessResult:
    """Smallest per-place token bound over all reachable markings."""
    rg = rg or explore(net, m0, limits)
    if rg.verdict == UNBOUNDED:
        return BoundednessResult("unbounded", witness=rg.unbounded_witness)
    if rg.verdict == TRUNCATED:
        return BoundednessResult("unknown")
    # raise k while some field of a state is above k: one subtraction a state
    lay = rg._layout
    k, step = 0, lay.ones
    for s in rg._packed:
        while ((s | lay.guard) - step) & lay.guard:
            k, step = k + 1, step + lay.ones
    return BoundednessResult("bounded", k=max([k] + [n for _, n in lay.extra]))


def is_safe(net, m0, limits=None, rg=None) -> Verdict:
    """1-boundedness; unknown is propagated from a truncated exploration."""
    return bound_k(net, m0, limits, rg).safe()


def is_live(net, m0, limits=None, rg=None) -> Verdict:
    """Every transition stays fireable from every reachable marking: the
    graph's cached :meth:`ReachabilityGraph.live` verdict."""
    return (rg or explore(net, m0, limits)).live()


def dead_places(net: PetriNet, rg: ReachabilityGraph) -> Tuple[str, ...]:
    """Places never marked in any explored state: the zero fields of the OR of all states."""
    marked = {rg.net.places[i] for i in rg._layout.marked(reduce(or_, rg._packed))}
    return tuple(sorted(set(net.places) - marked))


def dead_transitions(net: PetriNet, rg: ReachabilityGraph) -> Tuple[str, ...]:
    """Transitions labeling no explored edge."""
    fired = {t for out in rg._out for t, _ in out}
    return tuple(sorted(set(net.transitions) - fired))


def is_deadlock_free(net: PetriNet, rg: ReachabilityGraph) -> Verdict:
    """No reachable marking with an empty enabled set; the witness carries
    the dead markings found (in state order)."""
    dead = tuple(map(rg.marking, (i for i in range(len(rg.states)) if not rg.enabled(i))))
    if dead:
        return Verdict(False, witness=dead)
    if not rg.complete:
        return Verdict(None, reason=rg.verdict, witness=())
    return Verdict(True, witness=())


def home_markings(net: PetriNet, rg: ReachabilityGraph) -> Tuple[Marking, ...]:
    """Markings reachable from every reachable marking (see :meth:`ReachabilityGraph.homes`)."""
    return tuple(map(rg.marking, rg.homes()))


def is_live_and_bounded(net, m0, limits=None, rg=None) -> Verdict:
    """Live and bounded; a negative verdict names the property that fails
    (unboundedness first)."""
    rg = rg or explore(net, m0, limits)
    if rg.verdict == UNBOUNDED:
        return Verdict(False, reason="unbounded")
    live = is_live(net, m0, limits, rg)
    if live.value is False:
        return Verdict(False, reason="not live", witness=live.witness)
    if live.value is None:
        return Verdict(None, reason="exploration incomplete")
    return Verdict(True)


def is_perpetual(net, m0, limits=None, rg=None) -> Verdict:
    """Live, bounded, and in possession of a home cluster (the witness:
    the first cluster whose marking is a home marking)."""
    rg = rg or explore(net, m0, limits)
    live_bounded = is_live_and_bounded(net, m0, limits, rg)
    if not live_bounded.value:
        return live_bounded
    home = next((c for c in net.clusters() if rg.is_home(mrk(c))), None)
    if home is None:
        return Verdict(False, reason="no home cluster")
    return Verdict(True, witness=home)
