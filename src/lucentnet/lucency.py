"""Lucency, transparency, conflict pairs, and marking-domination checks.

A marked net is lucent when no two distinct reachable markings enable the
same transition set: the enabled set (the marking's "footprint") then
identifies the state.  Conflict pairs are the combinatorial obstruction
used to reason about lucency: two live markings with disjoint footprints
that each keep one input place of everything the other enables marked.
They are found by a scan of the state space (:func:`find_conflict_pairs`),
or derived from two safe markings that share a footprint by greedy firing
(:func:`derive_conflict_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import (ConstructionFailed, GreedyCycle, RequiresSafeMarking,
                     UndecidedError)
from .net import Marking, PetriNet, enabled_transitions, fire, fire_sequence, mrk
from .reachability import (ExplorationLimits, ReachabilityGraph, UNBOUNDED,
                           UnboundednessWitness, Verdict, explore)


@dataclass(frozen=True)
class LucencyVerdict:
    status: str  # "lucent" | "not-lucent" | "undecided"
    witness: Optional[Tuple[Marking, Marking]] = None
    footprint: Optional[Tuple[str, ...]] = None
    unbounded: Optional[UnboundednessWitness] = None

    @property
    def lucent(self) -> Optional[bool]:
        return {"lucent": True, "not-lucent": False}.get(self.status)


def check_lucency(net: PetriNet, m0: Marking,
                  limits: Optional[ExplorationLimits] = None,
                  rg: Optional[ReachabilityGraph] = None) -> LucencyVerdict:
    """Index all reachable markings by footprint; lucent iff injective.

    The witness is the first colliding pair in exploration order, which
    makes it stable across runs.  An unbounded net is not lucent (it has
    more reachable markings than possible footprints), so the verdict
    carries the unboundedness witness instead of a marking pair.
    """
    rg = rg or explore(net, m0, limits)
    if rg.verdict == UNBOUNDED:
        return LucencyVerdict("not-lucent", unbounded=rg.unbounded_witness)
    if not rg.complete:
        return LucencyVerdict("undecided")
    seen: Dict[int, int] = {}  # footprint mask -> first state
    for i, fp in enumerate(rg.masks()):
        first = seen.setdefault(fp, i)
        if first != i:
            return LucencyVerdict("not-lucent",
                                  witness=(rg.marking(first), rg.marking(i)),
                                  footprint=rg.names(fp))
    return LucencyVerdict("lucent")


def is_transparent_marking(net: PetriNet, m: Marking) -> bool:
    """All tokens sit in input places of currently enabled transitions,
    one per place; no token is "hidden"."""
    # enabled transitions' input places are marked: m is transparent iff one token on each
    return len(m) == len(net.preset_of_set(enabled_transitions(net, m)))


def is_fully_transparent(net: PetriNet, m0: Marking,
                         limits: Optional[ExplorationLimits] = None,
                         rg: Optional[ReachabilityGraph] = None) -> Verdict:
    """Every reachable marking is transparent; witness = first that is not."""
    rg = rg or explore(net, m0, limits)
    for i, (size, en) in enumerate(zip(rg.sizes, rg.masks())):
        if size != rg.inputs(en):  # see is_transparent_marking
            return Verdict(False, witness=rg.marking(i))
    if not rg.complete:
        return Verdict(None, reason=rg.verdict)
    return Verdict(True)


# -- conflict pairs ---------------------------------------------------------


@dataclass(frozen=True)
class ConflictPair:
    m1: Marking
    m2: Marking


def _pair_conditions(net: PetriNet, en1: FrozenSet[str], sup1: FrozenSet[str],
                     en2: FrozenSet[str], sup2: FrozenSet[str]) -> bool:
    """The four marking-local conflict-pair conditions (everything except
    reachability), on the two markings' enabled sets and marked places."""
    if not en1 or not en2 or not en1.isdisjoint(en2):
        return False
    return not (any(net.preset(t).isdisjoint(sup2) for t in en1)
                or any(net.preset(t).isdisjoint(sup1) for t in en2))


def find_conflict_pairs(net: PetriNet, m0: Marking,
                        limits: Optional[ExplorationLimits] = None,
                        rg: Optional[ReachabilityGraph] = None
                        ) -> Tuple[ConflictPair, ...]:
    """Scan ordered state pairs for conflict pairs, in exploration order.

    The conditions of :func:`_pair_conditions` are read on masks: the
    footprints are disjoint, and each is inside the set of transitions with
    an input place the other state marks, which is found only for the
    states of a pair with disjoint footprints.  Only the pairs found are
    decoded.
    """
    rg = rg or explore(net, m0, limits)
    if not rg.complete:
        raise UndecidedError(f"conflict-pair search needs a complete exploration ({rg.verdict})")
    masks, touched = rg.masks(), lru_cache(maxsize=None)(rg.touched)
    live = [i for i, mask in enumerate(masks) if mask]
    found: List[ConflictPair] = []
    for a, i in enumerate(live):
        for j in live[a + 1:]:
            if masks[i] & masks[j] or masks[i] & ~touched(j) or masks[j] & ~touched(i):
                continue
            found.append(ConflictPair(rg.marking(i), rg.marking(j)))
    return tuple(found)


def derive_conflict_pair(net: PetriNet, m1: Marking, m2: Marking,
                         mode: str = "greedy",
                         rg: Optional[ReachabilityGraph] = None
                         ) -> Tuple[ConflictPair, Tuple[str, ...]]:
    """Turn two distinct safe same-footprint markings into a conflict pair.

    Fires only transitions whose preset misses every place that just one of
    the markings marks (so they consume agreement tokens only),
    simultaneously from both markings, the lexicographically smallest
    enabled one each round, until none is enabled; the disagreement tokens
    never move.  ``greedy`` is the one mode.

    Returns the verified pair plus the fired sequence.
    """
    if mode != "greedy":
        raise ValueError(f"unknown mode {mode!r}")
    fp1 = enabled_transitions(net, m1)
    fp2 = enabled_transitions(net, m2)
    if m1 == m2:
        raise ValueError("markings must differ")
    if fp1 != fp2 or not fp1:
        raise ValueError("markings must share a non-empty footprint")
    if not (m1.is_safe() and m2.is_safe()):
        raise RequiresSafeMarking("conflict-pair derivation is defined for safe markings only")
    disagree = set(m1.support()).symmetric_difference(m2.support())
    allowed = frozenset(t for t in net.transitions if net.preset(t).isdisjoint(disagree))

    cur1, cur2 = m1, m2
    sigma: List[str] = []
    seen = {(cur1, cur2)}
    while True:
        en1, en2 = enabled_transitions(net, cur1), enabled_transitions(net, cur2)
        enabled = sorted(allowed & en1 & en2)
        if not enabled:
            break
        t = enabled[0]
        cur1 = fire(net, cur1, t)
        cur2 = fire(net, cur2, t)
        sigma.append(t)
        if (cur1, cur2) in seen:
            raise GreedyCycle(f"marking pair revisited after firing {sigma}")
        seen.add((cur1, cur2))

    # firing sigma proves both reachable from the inputs; the caller's state
    # space, when given, must hold them too
    reachable = rg is None or (rg.contains(cur1) and rg.contains(cur2))
    if not (reachable and _pair_conditions(net, en1, frozenset(cur1.support()),
                                           en2, frozenset(cur2.support()))):
        raise ConstructionFailed(
            f"derived pair ({cur1.pretty()}, {cur2.pretty()}) failed verification; "
            "the net likely violates the construction's assumptions")
    return ConflictPair(cur1, cur2), tuple(sigma)


# -- domination checks -------------------------------------------------------


def check_no_dominating(net: PetriNet, m0: Marking, cluster,
                        limits: Optional[ExplorationLimits] = None,
                        rg: Optional[ReachabilityGraph] = None) -> Verdict:
    """No reachable marking strictly dominates the cluster marking."""
    rg = rg or explore(net, m0, limits)
    if not rg.complete:
        return Verdict(None, reason=rg.verdict)
    above = rg.above(mrk(cluster))
    return Verdict(True) if above is None else Verdict(False, witness=rg.marking(above))


def check_pairwise_incomparable(net: PetriNet, m0: Marking,
                                limits: Optional[ExplorationLimits] = None,
                                rg: Optional[ReachabilityGraph] = None) -> Verdict:
    """No reachable marking strictly dominates another reachable marking.

    Strict domination forces a strictly larger token count, so only
    cross-size pairs are compared.  An unbounded exploration already
    carries a dominating pair and is answered definitively.
    """
    rg = rg or explore(net, m0, limits)
    if rg.verdict == UNBOUNDED:
        w = rg.unbounded_witness
        smaller = fire_sequence(net, m0, w.stem)
        bigger = fire_sequence(net, smaller, w.pump)
        return Verdict(False, reason="unbounded", witness=(bigger, smaller))
    if not rg.complete:
        return Verdict(None, reason=rg.verdict)
    by_size: Dict[int, List[int]] = {}
    for i, size in enumerate(rg.sizes):
        by_size.setdefault(size, []).append(i)
    sizes = sorted(by_size)
    for a_idx, sa in enumerate(sizes):
        for sb in sizes[a_idx + 1:]:
            for small in by_size[sa]:
                for big in by_size[sb]:
                    if rg.covers(big, small):
                        return Verdict(False, witness=(rg.marking(big), rg.marking(small)))
    return Verdict(True)
