"""Disentangled paths, cluster-rooted paths, and the expediting calculus.

A disentangled path is a place-to-place path whose places lie in pairwise
distinct clusters; rooted in a cluster when it ends at one of the
cluster's places.  Such paths carry at most one token in free-choice nets
with a home cluster (:func:`find_rooted_path`, :func:`verify_path_safety`).

Expediting rewrites an enabled firing sequence by moving a later
transition forward when (a) the rewritten prefix is still enabled and
(b) no transition of the same cluster stands in between.  All sequence
positions in this module are 1-based, matching the usual subscript
notation for sequences.

Each candidate move replays its prefix, and each variant is fired again
from the start.  :func:`expedited_member` and :func:`verify_expedite_safe`
read one closure search, :func:`_variants`, over the moves of
:func:`_moves`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from .errors import BadIndices, InvalidPath, NotEnabled, UndecidedError
from .net import Marking, PetriNet, fire_sequence, sequence_enabled
from .reachability import (ExplorationLimits, ReachabilityGraph, Verdict,
                           explore)


# -- paths -------------------------------------------------------------------


def is_path(net: PetriNet, nodes: Sequence[str]) -> bool:
    """Non-empty node sequence with consecutive nodes flow-connected."""
    if not nodes:
        return False
    if not all(net.has_node(x) for x in nodes):
        return False
    return all((nodes[i], nodes[i + 1]) in net.flow for i in range(len(nodes) - 1))


def is_disentangled(net: PetriNet, nodes: Sequence[str]) -> bool:
    """Starts and ends with a place; all places on the path lie in pairwise
    distinct clusters (which also makes the path elementary)."""
    if not is_path(net, nodes):
        return False
    if not (net.is_place(nodes[0]) and net.is_place(nodes[-1])):
        return False
    place_clusters = [net.cluster_of(x) for x in nodes if net.is_place(x)]
    return len(set(id(c) for c in place_clusters)) == len(place_clusters)


@dataclass(frozen=True)
class Path:
    """A validated path; invalid node sequences never circulate."""

    nodes: Tuple[str, ...]

    @staticmethod
    def of(net: PetriNet, nodes: Sequence[str]) -> "Path":
        if not is_path(net, nodes):
            raise InvalidPath(f"not a path: {list(nodes)}")
        return Path(tuple(nodes))


@dataclass(frozen=True)
class DisentangledPath(Path):
    @staticmethod
    def of(net: PetriNet, nodes: Sequence[str]) -> "DisentangledPath":
        if not is_disentangled(net, nodes):
            raise InvalidPath(f"not a disentangled path: {list(nodes)}")
        return DisentangledPath(tuple(nodes))


def disentangle(net: PetriNet, nodes: Sequence[str], cluster) -> DisentangledPath:
    """Shortcut a place-to-place path into a cluster-rooted disentangled one.

    Cursor scan over the path's places: reaching a place of the target
    cluster truncates the path; a place whose cluster reappears later jumps
    to the *largest* such position, connecting directly to the transition
    fired there (legal in a free-choice net, where a cluster's transition
    consumes from all of the cluster's places).  The result starts at the
    same place and uses only transitions of the input path.
    """
    nodes = nodes.nodes if isinstance(nodes, Path) else tuple(nodes)
    if not is_path(net, nodes):
        raise InvalidPath(f"not a path: {list(nodes)}")
    if not net.is_place(nodes[0]):
        raise InvalidPath("path must start at a place")
    target_nodes = set(cluster.places) | set(cluster.transitions)
    if not (net.is_place(nodes[-1]) and nodes[-1] in target_nodes):
        raise InvalidPath("path must end at a place of the target cluster")

    out: List[str] = []
    k = 0  # always a place position; place-to-place paths alternate
    while True:
        p = nodes[k]
        if p in target_nodes:
            out.append(p)
            break
        my_cluster = net.cluster_of(p)
        jump = -1
        for j in range(k + 2, len(nodes), 2):
            if net.cluster_of(nodes[j]) is my_cluster:
                jump = j
        if jump >= 0:
            # nodes[jump] shares p's cluster, so the transition following it
            # also consumes from p; connect p straight to that transition
            out.append(p)
            out.append(nodes[jump + 1])
            k = jump + 2
        else:
            out.append(p)
            out.append(nodes[k + 1])
            k += 2
    return DisentangledPath.of(net, out)


@dataclass(frozen=True)
class RootedPathResult:
    path: Optional[DisentangledPath]
    reason: str = ""  # "" | "dead-place" | "no-graph-path"

    @property
    def found(self) -> bool:
        return self.path is not None


def find_rooted_path(net: PetriNet, m0: Marking, place: str, cluster,
                     limits: Optional[ExplorationLimits] = None,
                     rg: Optional[ReachabilityGraph] = None) -> RootedPathResult:
    """A cluster-rooted disentangled path from a non-dead place of the net:
    the first path to a place of ``cluster`` found breadth-first, in
    lexicographic order; a shortest one, meeting the cluster only at its end.

    So no :func:`disentangle` pass is needed: were two of its places in one
    cluster, the arc from the earlier one to the transition after the later
    one would make a shorter path.  A free-choice net has that arc; in any
    other net such a path raises :class:`InvalidPath`.
    """
    if not net.is_place(place):
        net.postset(place)  # NodeNotFound for a node outside the net
        raise InvalidPath("path must start at a place")
    rg = rg or explore(net, m0, limits)
    if place not in rg.marked_places():
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
            for y in sorted(net._post[x]):
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
    return RootedPathResult(DisentangledPath.of(net, chain))


def verify_path_safety(net: PetriNet, m0: Marking, path,
                       limits: Optional[ExplorationLimits] = None,
                       rg: Optional[ReachabilityGraph] = None) -> Verdict:
    """All the path's places together hold at most one token in every
    reachable marking; witness = first violating marking, the only state
    decoded (:meth:`ReachabilityGraph.crowded` scans the packed states).  A
    raw node sequence must be a path of the net (:meth:`Path.of`)."""
    nodes = (path if isinstance(path, Path) else Path.of(net, path)).nodes
    places = [x for x in nodes if net.is_place(x)]
    rg = rg or explore(net, m0, limits)
    first = rg.crowded(places)
    if first is not None:
        return Verdict(False, witness=rg.marking(first))
    if not rg.complete:
        return Verdict(None, reason=rg.verdict)
    return Verdict(True)


# -- expediting ---------------------------------------------------------------


def expedite(seq: Sequence[str], i: int, j: int) -> Tuple[str, ...]:
    """Move the j-th element to position i, shifting the block in between
    one step right (positions 1-based)."""
    if not (1 <= i < j <= len(seq)):
        raise BadIndices(f"need 1 <= i < j <= {len(seq)}, got ({i}, {j})")
    s = tuple(seq)
    return s[:i - 1] + (s[j - 1],) + s[i - 1:j - 1] + s[j:]


def _moves(net: PetriNet, m: Marking, seq: Tuple[str, ...]):
    """All single expedite moves applicable to a sequence, in order of
    ``j``, then of ``i`` downward: move (i, j) is legal iff the mover fires
    after ``seq[:i - 1]`` and no transition of its cluster sits at
    positions i..j-1."""
    cl = [net.cluster_of(t) for t in seq]
    for j in range(2, len(seq) + 1):
        mover = seq[j - 1]
        for i in range(j - 1, 0, -1):
            # walking i downward: once a same-cluster transition appears at
            # position i, smaller i are blocked too
            if cl[i - 1] is cl[j - 1]:
                break
            if sequence_enabled(net, m, seq[:i - 1] + (mover,)):
                yield (i, j), expedite(seq, i, j)


def _variants(net: PetriNet, m: Marking, seq: Tuple[str, ...]):
    """Every expedited variant of ``seq`` once, breadth-first over single
    moves in :func:`_moves` order."""
    seen = {seq}
    frontier = [seq]
    while frontier:
        nxt = []
        for s in frontier:
            for _, rewritten in _moves(net, m, s):
                if rewritten not in seen:
                    seen.add(rewritten)
                    nxt.append(rewritten)
                    yield rewritten
        frontier = nxt


def expedited_member(net: PetriNet, m: Marking, base: Sequence[str],
                     candidate: Sequence[str],
                     budget: int = 10_000) -> Verdict:
    """Decide whether ``candidate`` arises from ``base`` by repeated
    expedite moves, without materializing the whole closure.

    Cheap rejections first: every member is a permutation of the base and
    is enabled.  Then a breadth-first search over single moves; a fully
    explored closure gives a definite no, an exhausted budget gives
    undecided.
    """
    base = tuple(base)
    candidate = tuple(candidate)
    if not sequence_enabled(net, m, base):
        raise NotEnabled("base sequence is not enabled")
    if base == candidate:
        return Verdict(True)
    if Counter(base) != Counter(candidate):
        return Verdict(False, reason="not a permutation of the base")
    if not sequence_enabled(net, m, candidate):
        return Verdict(False, reason="candidate is not enabled")
    for spent, variant in enumerate(_variants(net, m, base), 1):
        if variant == candidate:
            return Verdict(True)
        if spent >= budget:
            return Verdict(None, reason="search budget exceeded")
    return Verdict(False, reason="closure exhausted")


def verify_expedite_safe(net: PetriNet, m: Marking, seq: Sequence[str],
                         samples: int = 50) -> Verdict:
    """Replay up to ``samples`` expedited variants of an enabled sequence
    (breadth-first over single moves, deterministic order) and check that
    each is enabled and reaches the same final marking.

    Each variant is fired from ``m`` and compared with the marking the base
    sequence reaches.  This cannot fail on any net: a legal mover's preset
    is disjoint from those it overtakes, so the variant stays enabled and
    ends on the same marking.  A pass is no evidence for the free-choice
    hypothesis."""
    seq = tuple(seq)
    expected = fire_sequence(net, m, seq)
    checked = 0
    for variant in islice(_variants(net, m, seq), max(samples, 0)):
        try:
            reached = fire_sequence(net, m, variant)
        except NotEnabled:
            return Verdict(False, witness=variant, reason="variant not enabled")
        if reached != expected:
            return Verdict(False, witness=variant, reason="final marking differs")
        checked += 1
    return Verdict(True, witness=checked)
