"""Bounded exhaustive exploration of reachable markings and the behavioral
properties defined over them: boundedness, safeness, liveness, deadlock
freedom, dead nodes, and home markings.

Exploration is a deterministic breadth-first search (lexicographic
transition order), so state indexing, edges, and every witness are
identical across runs.  Unboundedness is detected by strict multiset
domination of an ancestor on the exploration path: if firing ``pump``
from some reached marking strictly grows it, the pump can repeat forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import UndecidedError
from .net import (Marking, PetriNet, _fire_unchecked, enabled_list,
                  enabled_transitions, mrk)

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

    def decided(self) -> bool:
        return self.value is not None


class ReachabilityGraph:
    """Explored markings plus transition-labeled edges, and the facts
    derived from them: enabled sets, SCCs and home markings, each computed
    at most once.

    ``states[0]`` is the initial marking; every edge ``(i, t, j)`` satisfies
    ``fire(states[i], t) == states[j]``.  When the verdict is ``complete``
    the graph is the full reachability graph.  The first ``expanded``
    states had all their successors generated, so their out-edges carry
    exactly their enabled transitions.
    """

    def __init__(self, net, states, edges, verdict, unbounded_witness=None, *,
                 index, expanded):
        self.net: PetriNet = net
        self.states: Tuple[Marking, ...] = tuple(states)
        self.edges: Tuple[Tuple[int, str, int], ...] = tuple(edges)
        self.verdict: str = verdict
        self.unbounded_witness: Optional[UnboundednessWitness] = unbounded_witness
        self.index: Dict[Marking, int] = index
        out: List[list] = [[] for _ in self.states]
        for i, t, j in self.edges:
            out[i].append((t, j))
        self._out = [tuple(v) for v in out]
        self._expanded = expanded
        self._enabled: List[Optional[FrozenSet[str]]] = [None] * len(self.states)
        self._terminal_sccs: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._sccs: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._home: Optional[FrozenSet[int]] = None

    @property
    def initial(self) -> Marking:
        return self.states[0]

    @property
    def complete(self) -> bool:
        return self.verdict == COMPLETE

    def out_edges(self, i: int) -> Tuple[Tuple[str, int], ...]:
        return self._out[i]

    def contains(self, m: Marking) -> bool:
        return m in self.index

    def enabled(self, i: int) -> FrozenSet[str]:
        """Enabled set of a state: the labels of its out-edges when it was
        expanded, otherwise computed from the net.  Cached either way."""
        en = self._enabled[i]
        if en is None:
            if i < self._expanded:
                en = frozenset(t for t, _ in self._out[i])
            else:
                en = enabled_transitions(self.net, self.states[i])
            self._enabled[i] = en
        return en

    def is_home(self, m: Marking) -> bool:
        """``m`` is a home marking: a state of the unique terminal SCC."""
        if not self.complete:
            raise UndecidedError(f"home markings need a complete exploration ({self.verdict})")
        if self._home is None:
            terminal = self.terminal_sccs()
            self._home = frozenset(terminal[0]) if len(terminal) == 1 else frozenset()
        return self.index.get(m) in self._home

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


def explore(net: PetriNet, m0: Marking,
            limits: Optional[ExplorationLimits] = None) -> ReachabilityGraph:
    """Breadth-first exploration of the reachable markings.

    Stops with verdict ``unbounded`` (plus a replayable witness) as soon as
    a newly generated marking strictly dominates an ancestor on its own
    exploration path, and with ``truncated`` if more than ``max_states``
    distinct markings would be needed.
    """
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
        # walk collected child->root; reverse below
        return tuple(reversed(out))

    pos = 0
    while pos < len(states):
        m = states[pos]
        stop = False
        for t in enabled_list(net, m):
            m2 = _fire_unchecked(net, m, t)
            j = index.get(m2)
            if j is None:
                # ancestor domination check along the path of the new marking
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

    # the state at ``pos`` is only partly expanded when the search stopped
    return ReachabilityGraph(net, states, edges, verdict,
                             unbounded_witness=witness, index=index, expanded=pos)


@dataclass(frozen=True)
class BoundednessResult:
    kind: str  # "bounded" | "unbounded" | "unknown"
    k: Optional[int] = None
    witness: Optional[UnboundednessWitness] = None

    @property
    def value(self) -> Optional[bool]:
        return {"bounded": True, "unbounded": False}.get(self.kind)


def bound_k(net: PetriNet, m0: Marking,
            limits: Optional[ExplorationLimits] = None,
            rg: Optional[ReachabilityGraph] = None) -> BoundednessResult:
    """Smallest per-place token bound over all reachable markings."""
    rg = rg or explore(net, m0, limits)
    if rg.verdict == UNBOUNDED:
        return BoundednessResult("unbounded", witness=rg.unbounded_witness)
    if rg.verdict == TRUNCATED:
        return BoundednessResult("unknown")
    k = max((n for m in rg.states for _, n in m.items), default=0)
    return BoundednessResult("bounded", k=k)


def is_safe(net, m0, limits=None, rg=None) -> Verdict:
    """1-boundedness; unknown is propagated from a truncated exploration."""
    r = bound_k(net, m0, limits, rg)
    if r.kind == "bounded":
        return Verdict(r.k <= 1, witness=r.k)
    if r.kind == "unbounded":
        return Verdict(False, reason="unbounded", witness=r.witness)
    return Verdict(None, reason="truncated")


def is_live(net, m0, limits=None, rg=None) -> Verdict:
    """Every transition stays fireable from every reachable marking.

    For a finite complete graph this is equivalent to: every transition
    labels an edge inside every terminal SCC (each state can reach a
    terminal SCC, and inside one every member marking is revisitable).
    The counterexample is the lexicographically smallest missing
    transition at the first state of the offending component.
    """
    rg = rg or explore(net, m0, limits)
    if not rg.complete:
        return Verdict(None, reason=rg.verdict)
    for scc in rg.terminal_sccs():
        inside = set(scc)
        labels = {t for i in scc for t, j in rg.out_edges(i) if j in inside}
        missing = sorted(set(net.transitions) - labels)
        if missing:
            return Verdict(False, reason="transition cannot fire again",
                           witness=(missing[0], rg.states[scc[0]]))
    return Verdict(True)


def dead_places(net: PetriNet, rg: ReachabilityGraph) -> Tuple[str, ...]:
    """Places never marked in any explored state."""
    marked = set()
    for m in rg.states:
        marked.update(m.support())
    return tuple(sorted(set(net.places) - marked))


def dead_transitions(net: PetriNet, rg: ReachabilityGraph) -> Tuple[str, ...]:
    """Transitions labeling no explored edge."""
    fired = {t for _, t, _ in rg.edges}
    return tuple(sorted(set(net.transitions) - fired))


def is_deadlock_free(net: PetriNet, rg: ReachabilityGraph) -> Verdict:
    """No reachable marking with an empty enabled set; the witness carries
    the dead markings found (in state order)."""
    dead = tuple(rg.states[i] for i in range(len(rg.states)) if not rg.enabled(i))
    if dead:
        return Verdict(False, witness=dead)
    if not rg.complete:
        return Verdict(None, reason=rg.verdict, witness=())
    return Verdict(True, witness=())


def home_markings(net: PetriNet, rg: ReachabilityGraph) -> Tuple[Marking, ...]:
    """Markings reachable from every reachable marking.

    A home marking lies in every terminal SCC, so home markings exist only
    when the terminal SCC is unique, and then they are exactly its states.
    """
    if not rg.complete:
        raise UndecidedError(f"home markings need a complete exploration ({rg.verdict})")
    terminal = rg.terminal_sccs()
    if len(terminal) != 1:
        return ()
    return tuple(rg.states[i] for i in terminal[0])


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
