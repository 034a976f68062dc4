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
- t is enabled when ``marked & preg[t] == preg[t]``; only the initial
  state tests the outputs of all its marked places (plus the transitions
  with an empty preset);
- firing t gives ``s2 = s - pre1[t] + post1[t]``; a count that outgrows
  its field sets a guard bit, and the search then starts over at width
  ``2w``.  Only an ``s2`` missing from the index is tested: a count grows
  by at most one per firing, so an overflowed ``s2`` has a guard bit set,
  which no stored state has, and is never found;
- a new state's enabled mask is derived from its parent's ``en``, once:
  firing t changes only the counts of the places it takes from and puts
  on (self-loop places aside), so only their outputs ``lose[t]`` and
  ``gain[t]`` can change.  At width 1 t empties the places it takes from,
  so the mask is ``en & ~lose[t]`` plus those of ``gain[t] & ~(en |
  lose[t])`` enabled at ``s2``; at wider fields ``(lose[t] & en) |
  (gain[t] & ~en)`` is re-tested.  Expanding a state walks the set bits of
  its mask, lowest first, so edges keep identifier order;
- ``s2`` strictly dominates ancestor ``k`` when ``sizes[k] < size2`` and
  ``((s2 | G) - states[k]) & G == G`` (no field of ``s2`` is below ``k``'s).

Only an ancestor with fewer tokens can be strictly dominated.  Each state
keeps ``down``, its nearest ancestor with fewer tokens than itself, so the
ancestor walk hops over each run of ancestors that hold at least as many
tokens as the new state and tests only those that hold fewer (Karp &
Miller 1969); in a net that conserves tokens the walk ends at once.  The
graph keeps the packed states (decoded only where asked), every found
state's enabled mask and a flat successor list.
"""

from __future__ import annotations

from array import array
from collections import abc
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import accumulate, compress, count, islice
from operator import or_
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import NodeNotFound, UndecidedError
from .net import Marking, PetriNet, compiled, mrk

COMPLETE = "complete"
TRUNCATED = "truncated"
UNBOUNDED = "unbounded"

DEFAULT_MAX_STATES = 100_000
# _Layout.pick reads a state's digits from min(_DENSE, (places + 128) // 24)
# marks on: the bit loop costs a pass over the int per mark, the digits one
# pass and a byte per place.  Measured crossover (Python 3.11, x86-64): 6 marks
# among 21 places, 10 among 64, 20 among 300, 41 among 1,000, 51-76 beyond
_DENSE = 64
_BYTES = bytes.maketrans(b"01", b"\0\1")  # a binary digit as a 0/1 byte for compress


@dataclass(frozen=True)
class ExplorationLimits:
    """Caps for the exploration."""

    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self):
        if type(self.max_states) is not int or self.max_states < 1:
            raise ValueError("max_states must be a positive integer")


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
    derived from them: enabled sets, SCCs, home markings, liveness, the
    marked places, and the verdicts of :func:`bound_k` and
    :func:`is_deadlock_free`, each computed at most once.

    The graph keeps what the search wrote: the packed states, index dict,
    token counts (``sizes``), every state's enabled mask (bit t for
    transition t) and successors ``succ[start[i]:start[i + 1]]`` in
    compressed sparse row form, the k-th labelled by the mask's k-th set
    bit.  The first ``expanded`` states have all their edges; the search
    may stop part-way through the next one, and the rest have none.

    ``states[0]`` is the initial marking; every edge ``(i, t, j)`` satisfies
    ``fire(states[i], t) == states[j]``.  When the verdict is ``complete``
    the graph is the full reachability graph.  ``states`` and ``edges`` are
    views built on first access.
    """

    def __init__(self, net, layout, packed, index, sizes, masks, succ, verdict,
                 unbounded_witness, expanded):
        n, names = len(packed), net.transitions
        # a successor per bit of an expanded state; then the edges of the
        # state whose expansion stopped part-way, and none for the rest
        start = array("l", accumulate(map(int.bit_count, masks[:expanded]), initial=0))
        start.extend([len(succ)] * (n - expanded))
        self.net: PetriNet = net
        self.verdict: str = verdict
        self.unbounded_witness: Optional[UnboundednessWitness] = unbounded_witness
        self.sizes: List[int] = sizes
        self.states: Sequence[Marking] = _View(n, partial(map, layout.marking, packed))
        self.edges: Sequence[Tuple[int, str, int]] = _View(len(succ), lambda: (
            (i, names[t], j) for i in range(n)
            for t, j in zip(_bits(masks[i]), succ[start[i]:start[i + 1]])))
        self._layout, self._packed, self._index = layout, packed, index
        self._masks, self._succ, self._start = masks, succ, start
        self._expanded = expanded
        self._components: Optional[tuple] = None  # (sccs, terminal sccs)
        self._home: Optional[FrozenSet[int]] = None
        self._live: Optional[Verdict] = None
        self._deadlock: Optional[Verdict] = None
        self._bound: Optional[BoundednessResult] = None
        self._marked: Optional[FrozenSet[str]] = None

    @property
    def complete(self) -> bool:
        return self.verdict == COMPLETE

    def marking(self, i: int) -> Marking:
        """State ``i`` as a :class:`Marking`."""
        items = self.states.__dict__.get("_items")  # the states view, once built
        return self._layout.marking(self._packed[i]) if items is None else items[i]

    def rows(self, indices) -> List[List[str]]:
        """The ``place:count`` strings (``Marking.as_strings``) of each state of
        ``indices``, read off the packed state unless fields are wider."""
        lay = self._layout
        if lay.width > 1:
            return [list(self.marking(i).as_strings()) for i in indices]
        return lay.pick(map(self._packed.__getitem__, indices), lay.labels)

    def index_of(self, m: Marking) -> Optional[int]:
        """The index of ``m``, or None when it was not explored."""
        return self._index.get(self._layout.pack(m))

    def contains(self, m: Marking) -> bool:
        return self.index_of(m) is not None

    def same_states(self, other: "ReachabilityGraph") -> bool:
        """Both graphs hold the same markings: compared packed when the two
        layouts agree on places and width, else decoded."""
        a, b = self._layout, other._layout
        if (a.places, a.width) == (b.places, b.width):
            return self._index.keys() == other._index.keys()
        return set(self.states) == set(other.states)

    def marked_places(self) -> FrozenSet[str]:
        """The places some explored state marks: the non-zero fields of the
        OR of all packed states.  Computed once."""
        if self._marked is None:
            lay = self._layout
            self._marked = frozenset(map(lay.places.__getitem__,
                                         lay.marked(reduce(or_, self._packed))))
        return self._marked

    def crowded(self, places) -> Optional[int]:
        """The first state holding more than one token on ``places`` (places
        of the net) together, or None.  At width 1 that is a popcount of the
        state masked to their fields; wider fields are read one by one."""
        lay = self._layout
        at = {lay.index[p] * lay.field for p in places}
        if lay.width == 1:
            mask = sum(1 << k for k in at)
            crowds = map((1).__lt__, map(int.bit_count, map(mask.__and__, self._packed)))
            return next(compress(count(), crowds), None)
        full = (1 << lay.width) - 1
        return next((i for i, s in enumerate(self._packed)
                     if sum((s >> k) & full for k in at) > 1), None)

    def covers(self, i: int, j: int) -> bool:
        """Every count of state ``i`` is at least state ``j``'s."""
        g = self._layout.guard
        return ((self._packed[i] | g) - self._packed[j]) & g == g

    def above(self, m: Marking) -> Optional[int]:
        """The first state strictly above ``m`` (no count below m's, more tokens), or None."""
        s = self._layout.pack(m)
        if s is None:
            return None
        g, size = self._layout.guard, len(m)
        return next((i for i, n in enumerate(self.sizes)
                     if n > size and ((self._packed[i] | g) - s) & g == g), None)

    def names(self, mask: int) -> Tuple[str, ...]:
        """The transitions of a mask, in identifier order."""
        return tuple(map(self.net.transitions.__getitem__, _bits(mask)))

    def out_edges(self, i: int) -> Sequence[Tuple[str, int]]:
        return list(zip(self.names(self._masks[i]), self._succ[self._start[i]:self._start[i + 1]]))

    def masks(self) -> List[int]:
        """The enabled mask of every state, in state order."""
        return self._masks

    def labels(self) -> int:
        """The transitions that label an explored edge, as a mask: the
        expanded states' masks and the first bits of the state whose
        expansion stopped part-way."""
        done, start = self._expanded, self._start
        out = reduce(or_, self._masks[:done], 0)
        if done < len(self._masks):
            for t in islice(_bits(self._masks[done]), start[done + 1] - start[done]):
                out |= 1 << t
        return out

    def inputs(self, mask: int) -> int:
        """How many places the presets of the transitions in ``mask`` hold."""
        return reduce(or_, map(self._layout.need.__getitem__, _bits(mask)), 0).bit_count()

    def touched(self, i: int) -> int:
        """The transitions with an input place that state ``i`` marks, as a mask."""
        outs = compiled(self.net).outs
        return reduce(or_, map(outs.__getitem__, self._layout.marked(self._packed[i])), 0)

    def enabled(self, i: int) -> FrozenSet[str]:
        """Enabled set of a state, by name (see :meth:`masks`)."""
        return frozenset(self.names(self._masks[i]))

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
        terminal SCC, and inside one every member marking is revisitable);
        its labels are the OR of its states' masks, as no edge leaves it.
        The counterexample is the lexicographically smallest missing
        transition at the first state of the offending component.
        """
        if self._live is None:
            self._live = self._liveness()
        return self._live

    def _liveness(self) -> Verdict:
        if not self.complete:
            return Verdict(None, reason=self.verdict)
        every = (1 << len(self.net.transitions)) - 1
        for scc in self.terminal_sccs():
            missing = every & ~reduce(or_, map(self._masks.__getitem__, scc))
            if missing:
                return Verdict(False, reason="transition cannot fire again",
                               witness=(self.names(missing)[0], self.marking(scc[0])))
        return Verdict(True)

    # -- strongly connected components ------------------------------------

    def sccs(self) -> Tuple[Tuple[int, ...], ...]:
        return self._find_sccs()[0]

    def terminal_sccs(self) -> Tuple[Tuple[int, ...], ...]:
        """SCCs without any edge leaving the component."""
        return self._find_sccs()[1]

    def _find_sccs(self):
        if self._components is None:
            comp, closed = strong_components(self._succ, self._start)
            members: Dict[int, list] = {}
            for i, c in enumerate(comp):  # components in order of their first state
                members.setdefault(c, []).append(i)
            sccs = tuple(map(tuple, members.values()))
            self._components = sccs, tuple(c for c in sccs if closed[comp[c[0]]])
        return self._components


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


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def strong_components(succ: Sequence[int], start: Sequence[int]) -> Tuple[List[int], List[bool]]:
    """The component label of every node v of a digraph with successors
    ``succ[start[v]:start[v + 1]]``, and per label whether no edge leaves it.

    Tarjan (1972), iterative, one depth-first search from nodes 0, 1, ...
    with successors in order.  Components complete in reverse topological
    order and are numbered from the last completed, so every edge between
    two goes from a smaller label to a larger (Kosaraju's labels under the
    same search).  An edge leaves a component when it meets a completed one.
    """
    n = len(start) - 1
    num, low = [0] * n, [0] * n  # depth-first number (0 while unvisited), lowlink
    comp = [-1] * n  # completion rank, -1 while on the stack or unvisited
    leaves = [False] * n  # the node has an edge out of its component
    closed: List[bool] = []  # per completion rank: no edge leaves the component
    stack: List[int] = []
    count = done = 0
    for root in range(n):
        if num[root]:
            continue
        num[root] = low[root] = count = count + 1
        stack.append(root)
        calls = [(root, iter(succ[start[root]:start[root + 1]]))]
        while calls:
            v, it = calls[-1]
            for w in it:
                if not num[w]:  # descend into w; v resumes at its next successor
                    num[w] = low[w] = count = count + 1
                    stack.append(w)
                    calls.append((w, iter(succ[start[w]:start[w + 1]])))
                    break
                if comp[w] >= 0:
                    leaves[v] = True
                elif num[w] < low[v]:  # w is on the stack
                    low[v] = num[w]
            else:
                calls.pop()
                if low[v] == num[v]:
                    shut = True
                    while True:
                        w = stack.pop()
                        comp[w] = done
                        shut = shut and not leaves[w]
                        if w == v:
                            break
                    closed.append(shut)
                    done += 1
                    if calls:
                        leaves[calls[-1][0]] = True
                elif low[v] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[v]
    return [done - 1 - c for c in comp], closed[::-1]


class _Layout:
    """Packs and decodes a net's markings at field width ``w`` (see the module
    docstring; ``ones`` is ``ONES``, ``guard`` is ``G``, ``need[t]`` is
    ``preg[t]``, firing t adds ``delta[t]``, and ``lose[t]``/``gain[t]`` are
    the outputs of the places firing t takes from/puts on, self-loop places
    left out).  Only the net's places have fields."""

    __slots__ = ("width", "field", "ones", "guard", "places", "index", "labels",
                 "dense", "need", "delta", "lose", "gain")

    def __init__(self, form, places, w: int):
        f, at = w + 1, form.place_index
        self.width, self.field = w, f
        self.ones = ((1 << (len(at) * f)) - 1) // ((1 << f) - 1)
        self.guard = self.ones << w
        self.places, self.index = places, at
        self.labels = [f"{p}:1" for p in places]  # the strings of a safe state
        self.dense = min(_DENSE, (len(places) + 128) // 24)  # marks from which pick reads digits
        self.need, self.delta, self.lose, self.gain = [], [], [], []
        outs = form.outs_of
        for t in form.transitions:
            pre, post = form.pre[t], form.post[t]
            x = y = lose = gain = 0
            for p in pre:
                x |= 1 << (at[p] * f)
                lose |= outs[p]
            for p in post:
                y |= 1 << (at[p] * f)
                gain |= outs[p]
            if x & y:  # a self-loop place keeps its count: leave it out
                loops = set(pre).intersection(post)
                lose = reduce(or_, (outs[p] for p in pre if p not in loops), 0)
                gain = reduce(or_, (outs[p] for p in post if p not in loops), 0)
            self.need.append(x << w)
            self.delta.append(y - x)
            self.lose.append(lose)
            self.gain.append(gain)

    def pack(self, m: Marking) -> Optional[int]:
        """m packed, or None if m marks a non-place or a count too wide for a field."""
        s, index, f, w = 0, self.index, self.field, self.width
        for p, n in m.items:
            i = index.get(p)
            if i is None or n >> w:
                return None
            s |= n << (i * f)
        return s

    def pick(self, states, items: Sequence) -> List[list]:
        """For each packed state, the items (one per place) at the places it
        marks, in order.  Each mark the bit loop takes costs a pass over the
        whole int, so a state with ``dense`` marks or more is read instead
        from its binary digits, lowest first, one digit per field, as 0/1
        bytes that ``compress`` selects the items by."""
        f, w, guard, ones, dense = self.field, self.width, self.guard, self.ones, self.dense
        first = ~w if w > 1 else -1  # the digit of field 0's mark, from the end of bin()
        out = []
        for s in states:
            bits = s if w == 1 else ((s | guard) - ones) & guard
            if bits.bit_count() >= dense:
                out.append(list(compress(items, bin(bits)[first:1:-f].encode().translate(_BYTES))))
                continue
            row = []
            while bits:
                bit = bits & -bits
                bits ^= bit
                row.append(items[(bit.bit_length() - 1) // f])
            out.append(row)
        return out

    def marked(self, s: int) -> list:
        """The indices of the places packed state ``s`` marks, in order."""
        return self.pick((s,), range(len(self.places)))[0]

    def marking(self, s: int) -> Marking:
        f, w = self.field, self.width
        return Marking(tuple((self.places[i], 1 if w == 1 else (s >> (i * f)) & ((1 << w) - 1))
                             for i in self.marked(s)))


def explore(net: PetriNet, m0: Marking,
            limits: Optional[ExplorationLimits] = None) -> ReachabilityGraph:
    """Breadth-first exploration of the reachable markings.

    Stops with verdict ``unbounded`` (plus a replayable witness) as soon as
    a newly generated marking strictly dominates an ancestor on its own
    exploration path, and with ``truncated`` if more than ``max_states``
    distinct markings would be needed.  ``m0`` may mark only places of the
    net: any other item raises :class:`NodeNotFound` before the search.

    The search runs on packed markings (see the module docstring).  It
    starts with fields as wide as the largest initial count needs and, the
    first time a count outgrows its field, starts over with fields twice as
    wide; a run's result does not depend on the width it ran at.
    """
    limits = limits or ExplorationLimits()
    form = compiled(net)
    w = max(1, max((n for _, n in m0.items), default=0).bit_length())
    while True:
        layout = _Layout(form, net.places, w)
        s0 = layout.pack(m0)
        if s0 is None:  # every count fits at w: m0 marks a non-place
            bad = [p for p in m0.support() if p not in layout.index]
            raise NodeNotFound(f"initial marking marks non-places: {bad}")
        run = _search(form, layout, s0, len(m0), limits.max_states)
        if run is not None:
            break
        w *= 2
    return ReachabilityGraph(net, layout, *run)


def _search(form, layout: _Layout, s0: int, size0: int, max_states: int):
    """The breadth-first search of :func:`explore` at one field width:
    ``(states, index, sizes, masks, succ, verdict, witness, expanded)`` as
    :class:`ReachabilityGraph` keeps them, or ``None`` as soon as a count
    outgrows its field."""
    guard, ones = layout.guard, layout.ones
    pre_guard, delta, lose, gain = layout.need, layout.delta, layout.lose, layout.gain
    dsize, names = form.dsize, form.transitions
    wide = layout.width > 1
    marked = ((s0 | guard) - ones) & guard
    test = reduce(or_, map(form.outs.__getitem__, layout.marked(s0)), form.always)
    states = [s0]
    index = {s0: 0}
    sizes = [size0]   # token count of each state
    down = [-1]       # each state's nearest ancestor with fewer tokens
    parent = [-1]
    via = [-1]        # the transition that first reached each state
    masks = [sum(1 << t for t in _bits(test) if marked & pre_guard[t] == pre_guard[t])]
    succ: List[int] = []

    pos = 0
    while pos < len(states):
        s = states[pos]
        size = sizes[pos]
        en = rest = masks[pos]
        while rest:
            bit = rest & -rest
            rest ^= bit
            t = bit.bit_length() - 1
            s2 = s + delta[t]
            j = index.get(s2)
            if j is None:
                if s2 & guard:
                    return None
                size2 = size + dsize[t]
                # only an ancestor with fewer tokens can lie strictly below
                # s2: hop over the runs of ancestors that hold as many
                k = pos
                while k != -1 and sizes[k] >= size2:
                    k = down[k]
                low = k
                s2g = s2 | guard
                while k != -1:
                    if (s2g - states[k]) & guard == guard:
                        stem = _path(k, parent, via, names)
                        full = _path(pos, parent, via, names) + (names[t],)
                        witness = UnboundednessWitness(stem=stem, pump=full[len(stem):])
                        return states, index, sizes, masks, succ, UNBOUNDED, witness, pos
                    k = parent[k]
                    while k != -1 and sizes[k] >= size2:
                        k = down[k]
                if len(states) >= max_states:
                    return states, index, sizes, masks, succ, TRUNCATED, None, pos
                # t changes only the counts of its non-loop places: what
                # they feed is re-tested, the rest of en carries over
                lost = lose[t]
                if wide:
                    test = gain[t] & ~en | lost & en
                else:  # the places of lost are now empty
                    test = gain[t] & ~(en | lost)
                en2 = en & ~lost
                if test:
                    marked = (s2g - ones) & guard
                    while test:
                        tb = test & -test
                        test ^= tb
                        need = pre_guard[tb.bit_length() - 1]
                        if marked & need == need:
                            en2 |= tb
                j = len(states)
                states.append(s2)
                index[s2] = j
                sizes.append(size2)
                down.append(low)
                parent.append(pos)
                via.append(t)
                masks.append(en2)
            succ.append(j)
        pos += 1
    return states, index, sizes, masks, succ, COMPLETE, None, pos


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
    """Smallest per-place token bound over all reachable markings,
    computed once per graph and kept on it."""
    rg = rg or explore(net, m0, limits)
    if rg._bound is None:
        rg._bound = _bound(rg)
    return rg._bound


def _bound(rg: ReachabilityGraph) -> BoundednessResult:
    if rg.verdict == UNBOUNDED:
        return BoundednessResult("unbounded", witness=rg.unbounded_witness)
    if rg.verdict == TRUNCATED:
        return BoundednessResult("unknown")
    # a field of s is above k iff its guard bit survives ((s | G) - (k + 1) * ONES):
    # one subtraction a state, and a binary search up to 2^w - 1 when one is
    lay = rg._layout
    ones, guard = lay.ones, lay.guard
    k, step = 0, ones
    for s in rg._packed:
        s |= guard
        if (s - step) & guard:
            lo, hi = k + 1, (1 << lay.width) - 1  # the largest field of s lies in [lo, hi]
            while lo < hi:
                mid = (lo + hi) // 2
                if (s - (mid + 1) * ones) & guard:
                    lo = mid + 1
                else:
                    hi = mid
            k, step = lo, (lo + 1) * ones
    return BoundednessResult("bounded", k=k)


def is_safe(net, m0, limits=None, rg=None) -> Verdict:
    """1-boundedness; unknown is propagated from a truncated exploration."""
    return bound_k(net, m0, limits, rg).safe()


def is_live(net, m0, limits=None, rg=None) -> Verdict:
    """Every transition stays fireable from every reachable marking: the
    graph's cached :meth:`ReachabilityGraph.live` verdict."""
    return (rg or explore(net, m0, limits)).live()


def dead_places(net: PetriNet, rg: ReachabilityGraph) -> Tuple[str, ...]:
    """Places never marked in any explored state (see :meth:`ReachabilityGraph.marked_places`)."""
    return tuple(sorted(set(net.places) - rg.marked_places()))


def dead_transitions(net: PetriNet, rg: ReachabilityGraph) -> Tuple[str, ...]:
    """Transitions labeling no explored edge: the zero bits of :meth:`ReachabilityGraph.labels`."""
    return tuple(sorted(set(net.transitions) - set(rg.names(rg.labels()))))


def is_deadlock_free(net: PetriNet, rg: ReachabilityGraph) -> Verdict:
    """No reachable marking with an empty enabled set; the witness carries
    the dead markings found (in state order).  Computed once per graph and
    kept on it."""
    if rg._deadlock is None:
        rg._deadlock = _deadlock(rg)
    return rg._deadlock


def _deadlock(rg: ReachabilityGraph) -> Verdict:
    dead = tuple(rg.marking(i) for i, mask in enumerate(rg.masks()) if not mask)
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
