"""The expediting calculus written out plainly, kept as the test oracle of
the ``paths`` functions: each candidate move replays its whole prefix with
checked firing, and each variant is fired again from the start."""

from typing import Sequence, Tuple

from lucentnet.errors import NotEnabled
from lucentnet.net import Marking, PetriNet, enabled_list, fire, fire_sequence, sequence_enabled
from lucentnet.paths import expedite
from lucentnet.reachability import Verdict


def sample_walk(net: PetriNet, m: Marking, rng, max_len: int = 8) -> Tuple[str, ...]:
    """A random enabled sequence from ``m``: each step draws one of the
    enabled transitions, in identifier order, and fires it."""
    out = []
    while len(out) < max_len:
        en = enabled_list(net, m)
        if not en:
            break
        t = rng.choice(en)
        out.append(t)
        m = fire(net, m, t)
    return tuple(out)


def closure_neighbors(net: PetriNet, m: Marking, seq: Tuple[str, ...]):
    """All single expedite moves applicable to an enabled sequence."""
    n = len(seq)
    for j in range(2, n + 1):
        mover = seq[j - 1]
        for i in range(j - 1, 0, -1):
            # walking i downward: once a same-cluster transition appears at
            # position i, smaller i are blocked too
            if net.cluster_of(seq[i - 1]) is net.cluster_of(mover):
                break
            if sequence_enabled(net, m, seq[:i - 1] + (mover,)):
                yield (i, j), expedite(seq, i, j)


def expedited_member(net: PetriNet, m: Marking, base: Sequence[str],
                     candidate: Sequence[str], budget: int = 10_000) -> Verdict:
    base = tuple(base)
    candidate = tuple(candidate)
    if not sequence_enabled(net, m, base):
        raise NotEnabled("base sequence is not enabled")
    if base == candidate:
        return Verdict(True)
    if sorted(base) != sorted(candidate):
        return Verdict(False, reason="not a permutation of the base")
    if not sequence_enabled(net, m, candidate):
        return Verdict(False, reason="candidate is not enabled")
    seen = {base}
    frontier = [base]
    spent = 0
    while frontier:
        nxt = []
        for seq in frontier:
            for _, rewritten in closure_neighbors(net, m, seq):
                if rewritten in seen:
                    continue
                if rewritten == candidate:
                    return Verdict(True)
                seen.add(rewritten)
                nxt.append(rewritten)
                spent += 1
                if spent >= budget:
                    return Verdict(None, reason="search budget exceeded")
        frontier = nxt
    return Verdict(False, reason="closure exhausted")


def verify_expedite_safe(net: PetriNet, m: Marking, seq: Sequence[str],
                         samples: int = 50, neighbors=closure_neighbors) -> Verdict:
    """``neighbors`` is the move generator; a test may plant a careless one
    to reach the failing branches."""
    seq = tuple(seq)
    expected = fire_sequence(net, m, seq)
    seen = {seq}
    frontier = [seq]
    checked = 0
    while frontier and checked < samples:
        nxt = []
        for s in frontier:
            for _, rewritten in neighbors(net, m, s):
                if rewritten in seen:
                    continue
                seen.add(rewritten)
                try:
                    reached = fire_sequence(net, m, rewritten)
                except NotEnabled:
                    return Verdict(False, witness=rewritten, reason="variant not enabled")
                if reached != expected:
                    return Verdict(False, witness=rewritten, reason="final marking differs")
                checked += 1
                nxt.append(rewritten)
                if checked >= samples:
                    break
            if checked >= samples:
                break
        frontier = nxt
    return Verdict(True, witness=checked)
