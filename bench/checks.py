"""Correctness checks of the operations' outputs, made apart from the program.

Each check returns a list of problems; an empty list means the output is
right.  The expected answers come from closed forms of the net families and
from ``plain_explore``, a small breadth-first explorer that shares no code
with ``lucentnet.reachability``.  Where an operation's output does not carry
a fact the check needs (the state count of a ``lucency`` run, say), the check
asks the program's library for it on the same input, outside the timed
operation, and compares that answer with the independent one.

``program`` is the imported ``lucentnet`` package; the self-tests pass a
stand-in that returns planted wrong answers.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Structure


def plain_explore(s: Structure, max_states: int) -> Dict:
    """Breadth-first search over token-count vectors of ``s``.

    Returns the number of states and edges, whether the search finished
    within ``max_states`` states, and (if it did) whether the net is lucent:
    no two reachable markings enable the same set of transitions.
    """
    places = [p for p, _ in s.places]
    pos = {p: i for i, p in enumerate(places)}
    pre = {t: [] for t in s.transitions}
    post = {t: [] for t in s.transitions}
    for a, b in s.arcs:
        if a in pre:
            post[a].append(pos[b])
        else:
            pre[b].append(pos[a])
    start = tuple(n for _, n in s.places)
    seen = {start}
    queue = [start]
    edges = 0
    footprints = set()
    lucent = True
    for m in queue:
        enabled = [t for t in s.transitions if all(m[i] > 0 for i in pre[t])]
        key = frozenset(enabled)
        if key in footprints:
            lucent = False
        footprints.add(key)
        for t in enabled:
            nxt = list(m)
            for i in pre[t]:
                nxt[i] -= 1
            for i in post[t]:
                nxt[i] += 1
            nxt = tuple(nxt)
            edges += 1
            if nxt not in seen:
                if len(seen) >= max_states:
                    return {"states": len(seen), "edges": edges, "complete": False,
                            "lucent": None}
                seen.add(nxt)
                queue.append(nxt)
    return {"states": len(seen), "edges": edges, "complete": True, "lucent": lucent}


def replay_grows(s: Structure, stem: Sequence[str], pump: Sequence[str]) -> bool:
    """Firing ``stem`` then ``pump`` is possible and the pump strictly adds
    tokens: the proof that the net is unbounded."""
    counts = {p: n for p, n in s.places}
    pre = {t: [a for a, b in s.arcs if b == t] for t in s.transitions}
    post = {t: [b for a, b in s.arcs if a == t] for t in s.transitions}

    def fire(seq):
        for t in seq:
            if t not in pre or any(counts[p] < 1 for p in pre[t]):
                return False
            for p in pre[t]:
                counts[p] -= 1
            for p in post[t]:
                counts[p] += 1
        return True

    if not fire(stem):
        return False
    before = dict(counts)
    if not pump or not fire(pump):
        return False
    return all(counts[p] >= before[p] for p in counts) and counts != before


def structure_of(name: str, net, m0) -> Structure:
    """Plain data of a program-built net and marking."""
    return Structure(name, tuple((p, m0.count(p)) for p in net.places),
                     tuple(net.transitions), tuple(sorted(net.flow)))


def _json(output: str, problems: List[str]) -> Optional[dict]:
    try:
        return json.loads(output)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def _cluster_set(clusters) -> set:
    return {tuple(sorted(c)) for c in clusters}


def _program_graph(program, text: str):
    net, m0 = program.parse_net(text).to_net()
    rg = program.explore(net, m0)
    return net, m0, rg


def check_forkjoin(output: str, s: Structure, k: int) -> List[str]:
    """``analyze`` on forkjoin(k): closed forms of the state space, lucent,
    safe and live, every state a home marking, home clusters exactly
    {p0, tf} and {d_*, tj}, and both detection methods agreeing everywhere."""
    problems: List[str] = []
    plain = plain_explore(s, 2 ** k + 2)
    if (plain["states"], plain["edges"]) != (2 ** k + 1, k * 2 ** k + 2):
        problems.append(f"generated forkjoin({k}) has {plain['states']} states and "
                        f"{plain['edges']} edges")
    r = _json(output, problems)
    if r is None:
        return problems
    ex = r["exploration"]
    if (ex["verdict"], ex["states"], ex["edges"]) != ("complete", 2 ** k + 1, k * 2 ** k + 2):
        problems.append(f"exploration {ex['verdict']} {ex['states']}/{ex['edges']}, "
                        f"expected complete {2 ** k + 1}/{k * 2 ** k + 2}")
    b = r["behavioral"]
    for prop in ("bounded", "safe", "live"):
        if b[prop]["value"] is not True:
            problems.append(f"{prop} is {b[prop]['value']}, expected true")
    if r["lucency"]["lucent"]["value"] is not True:
        problems.append("lucent is not true")
    if b["home_markings"] is None or len(b["home_markings"]) != 2 ** k + 1:
        problems.append("not every reachable marking is a home marking")
    expected = {("p0", "tf"), tuple(sorted([f"d{i}" for i in range(k)] + ["tj"]))}
    got = _cluster_set(r["home_clusters"]["home_clusters"])
    if got != expected:
        problems.append(f"home clusters {sorted(got)}, expected {sorted(expected)}")
    for d in r["home_clusters"]["details"]:
        if d["direct"] is None or d["direct"] != d["short_circuit"]:
            problems.append(f"methods disagree on {d['cluster']}: direct={d['direct']}, "
                            f"short_circuit={d['short_circuit']}")
    return problems


def check_ring(output: str, s: Structure, length: int, program, text: str) -> List[str]:
    """``home-clusters --method both`` on ring(L): L states and L edges, and
    all L clusters home clusters by both methods."""
    problems: List[str] = []
    plain = plain_explore(s, length + 1)
    _, _, rg = _program_graph(program, text)
    for who, states, edges in (("independent explorer", plain["states"], plain["edges"]),
                               ("program", len(rg.states), len(rg.edges))):
        if (states, edges) != (length, length):
            problems.append(f"{who}: {states} states, {edges} edges; expected {length} each")
    r = _json(output, problems)
    if r is None:
        return problems
    expected = {(f"p{i}", f"t{i}") for i in range(length)}
    if _cluster_set(r["home_clusters"]) != expected:
        problems.append(f"{len(r['home_clusters'])} home clusters, expected all {length}")
    bad = [d["cluster"] for d in r["details"]
           if not (d["is_home"] is True and d["direct"] is True and d["short_circuit"] is True)]
    if bad:
        problems.append(f"clusters not home by both methods: {bad[:3]}")
    return problems


def check_chain(output: str, s: Structure, length: int, program, text: str) -> List[str]:
    """``lucency`` on chain(L): L+1 states and 2L edges, lucent, the sink
    p_L the only home cluster, and that cluster terminal."""
    problems: List[str] = []
    plain = plain_explore(s, length + 2)
    net, m0, rg = _program_graph(program, text)
    expected = (length + 1, 2 * length)
    for who, got in (("independent explorer", (plain["states"], plain["edges"])),
                     ("program", (len(rg.states), len(rg.edges)))):
        if got != expected:
            problems.append(f"{who}: {got[0]} states, {got[1]} edges; expected {expected}")
    if plain["lucent"] is not True:
        problems.append("independent explorer finds the chain not lucent")
    r = _json(output, problems)
    if r is None:
        return problems
    if r.get("lucent") is not True or "witness" in r:
        problems.append(f"lucency output {r}, expected lucent without witness")
    hc = program.find_home_clusters(net, m0, method="direct", rg=rg)
    homes = [c.nodes() for c in hc.home_clusters]
    if homes != [(f"p{length}",)]:
        problems.append(f"home clusters {homes}, expected only the sink p{length}")
    else:
        kind = program.classify_dead_end(net, m0, hc.home_clusters[0], rg=rg)
        if kind != "terminal":
            problems.append(f"sink cluster classified {kind!r}, expected 'terminal'")
    return problems


def check_suite(output: str, nets: List[Tuple[str, object, object]], program) -> List[str]:
    """``paper-suite`` on one generated batch: no anomaly, no failed reference
    expectation, and for every net the program's state count and lucency
    verdict equal to the independent explorer's."""
    problems: List[str] = []
    r = _json(output, problems)
    if r is None:
        return problems
    if r["anomalies"]:
        problems.append(f"anomalies: {r['anomalies'][:2]}")
    if r["expectations"]["failed"] or not r["expectations"]["checked"]:
        problems.append(f"reference expectations: {r['expectations']}")
    if r["nets"] != len(nets):
        problems.append(f"{r['nets']} nets analyzed, the batch has {len(nets)}")
    lucent = 0
    for name, net, m0 in nets:
        s = structure_of(name, net, m0)
        rg = program.explore(net, m0)
        verdict = program.check_lucency(net, m0, rg=rg).lucent
        if rg.verdict == "unbounded":
            w = rg.unbounded_witness
            if not replay_grows(s, w.stem, w.pump):
                problems.append(f"{name}: unboundedness witness does not replay")
            elif verdict is not False:
                problems.append(f"{name}: unbounded but lucency verdict {verdict}")
            continue
        plain = plain_explore(s, len(rg.states) + 1)
        if not plain["complete"] or plain["states"] != len(rg.states) or rg.verdict != "complete":
            problems.append(f"{name}: program {rg.verdict} with {len(rg.states)} states, "
                            f"independent explorer {plain['states']} "
                            f"({'complete' if plain['complete'] else 'more'})")
        elif plain["lucent"] != verdict:
            problems.append(f"{name}: lucency {verdict}, independent explorer {plain['lucent']}")
        lucent += plain["lucent"] is True
    passes = r["checks"].get("lucent-implies-bounded", {}).get("pass")
    if passes != lucent:
        problems.append(f"suite counts {passes} lucent nets, the independent explorer {lucent}")
    return problems
