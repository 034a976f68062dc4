"""Analysis report assembly, and the JSON emitter of every CLI output.

The report is a plain nested dict with fully deterministic construction
order and sorted collections, so identical inputs yield byte-identical
JSON.  Every property verdict is three-valued: ``{"value": true|false|null}``
plus whatever witness the negative or undecided case carries.  :func:`dumps`
writes every JSON output of the CLI: the bytes of ``json.dumps(obj, indent=2)``,
but before Python 3.13 each list of strings, and each row of a list of string
rows, is one join over json's C encoder.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _string
from typing import Optional

from .net import (Marking, PetriNet, connectivity, is_free_choice, is_proper,
                  net_class)
from .reachability import (ExplorationLimits, UnboundednessWitness, bound_k,
                           dead_places, dead_transitions, explore,
                           is_deadlock_free, is_live, is_perpetual)
from . import homecluster, lucency

SCHEMA_VERSION = 1
_CONSTANTS = {None: "null", True: "true", False: "false"}
_BY_HAND = sys.version_info < (3, 13)  # from 3.13 on, json's indenting encoder is C


def _encode(o, nl: str) -> str:
    """``json.dumps(o, indent=2)`` for ``o`` at the indent ``nl`` opens."""
    inner = nl + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)) and o:
        try:  # TypeError: an item further on is not a string (or not a row of strings)
            if isinstance(o[0], str):
                return f"[{inner}{sep.join(map(_string, o))}{nl}]"
            if isinstance(o[0], (list, tuple)):
                return f"[{inner}{sep.join(_rows(o, inner))}{nl}]"
        except TypeError:
            pass
        return f"[{inner}{sep.join([_encode(item, inner) for item in o])}{nl}]"
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, dict) and o:  # a key that is not a string takes json's own conversion
        return "{" + inner + sep.join([
            (_string(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4])
            + ": " + _encode(v, inner) for k, v in o.items()]) + nl + "}"
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    return int.__repr__(o) if isinstance(o, int) else json.dumps(o)


def _rows(rows, nl: str) -> list:
    """Each row of strings as ``_encode`` writes it at indent ``nl``; TypeError on a non-row."""
    head, sep, tail = "[" + nl + "  ", "," + nl + "  ", nl + "]"
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise TypeError("not a row")
        out.append(head + sep.join(map(_string, row)) + tail if row else "[]")
    return out


def dumps(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``."""
    return _encode(obj, "\n") if _BY_HAND else json.dumps(obj, indent=2)


def _marking(m: Optional[Marking]):
    return None if m is None else list(m.as_strings())


def _witness_pair(pair):
    if pair is None:
        return None
    return [_marking(pair[0]), _marking(pair[1])]


def _unbounded(w: UnboundednessWitness) -> dict:
    """An unboundedness witness as JSON, for the report and the CLI."""
    return {"stem": list(w.stem), "pump": list(w.pump)}


def build_report(name: str, net: PetriNet, m0: Marking,
                 limits: Optional[ExplorationLimits] = None) -> dict:
    limits = limits or ExplorationLimits()
    rg = explore(net, m0, limits)

    structural = {
        "places": len(net.places),
        "transitions": len(net.transitions),
        "arcs": len(net.flow),
        "free_choice": {"value": is_free_choice(net)},
        "proper": {"value": is_proper(net)},
        "connectivity": connectivity(net),
        "net_class": net_class(net),
        "clusters": [list(c.nodes()) for c in net.clusters()],
    }

    exploration = {
        "verdict": rg.verdict,
        "states": len(rg.states),
        "edges": len(rg.edges),
    }
    if rg.unbounded_witness is not None:
        exploration["unbounded_witness"] = _unbounded(rg.unbounded_witness)

    bounded = bound_k(net, m0, limits, rg=rg)
    live = is_live(net, m0, limits, rg=rg)
    safe = bounded.safe()
    deadlock_free = is_deadlock_free(net, rg)
    perpetual = is_perpetual(net, m0, limits, rg=rg)
    complete = rg.complete

    behavioral = {
        "bounded": {"value": bounded.value, "k": bounded.k},
        "safe": {"value": safe.value},
        "live": {"value": live.value,
                 "counterexample": None if live.witness is None else
                 {"transition": live.witness[0], "marking": _marking(live.witness[1])}},
        "deadlock_free": {"value": deadlock_free.value,
                          "dead_markings": [_marking(m) for m in (deadlock_free.witness or ())]},
        "dead_places": list(dead_places(net, rg)) if complete else None,
        "dead_transitions": list(dead_transitions(net, rg)) if complete else None,
        "home_markings": rg.rows(rg.homes()) if complete else None,
        "perpetual": {"value": perpetual.value},
    }

    luc = lucency.check_lucency(net, m0, limits, rg=rg)
    transparent = lucency.is_fully_transparent(net, m0, limits, rg=rg)
    lucency_block = {
        "lucent": {"value": luc.lucent},
        "witness": None if luc.witness is None else {
            "markings": _witness_pair(luc.witness),
            "footprint": list(luc.footprint or ()),
        },
        "fully_transparent": {"value": transparent.value,
                              "witness": _marking(transparent.witness)},
    }

    hc = homecluster.find_home_clusters(net, m0, limits, method="both", rg=rg)
    home_block = {
        "method": hc.method,
        "home_clusters": [list(c.nodes()) for c in hc.home_clusters],
        "details": [
            {
                "cluster": list(d.cluster.nodes()),
                "marking": _marking(d.marking),
                "is_home": d.is_home,
                "direct": d.direct,
                "short_circuit": d.short_circuit,
                "note": d.note,
            }
            for d in hc.details
        ],
    }

    return {
        "schema_version": SCHEMA_VERSION,
        "net": name,
        "initial_marking": _marking(m0),
        "limits": {"max_states": limits.max_states, "max_token_bound": None},
        "exploration": exploration,
        "structural": structural,
        "behavioral": behavioral,
        "lucency": lucency_block,
        "home_clusters": home_block,
    }


def emit_report(report: dict, fmt: str = "text") -> str:
    if fmt == "json":
        return dumps(report) + "\n"
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def _tri(block) -> str:
    value = block["value"] if isinstance(block, dict) else block
    return {True: "yes", False: "no", None: "undecided"}[value]


def _render_text(r: dict) -> str:
    lines = []
    s = r["structural"]
    b = r["behavioral"]
    l = r["lucency"]
    h = r["home_clusters"]
    lines.append(f"net {r['net']}: {s['places']} places, {s['transitions']} transitions, "
                 f"{s['arcs']} arcs; initial {r['initial_marking']}")
    lines.append(f"exploration: {r['exploration']['verdict']} "
                 f"({r['exploration']['states']} states, {r['exploration']['edges']} edges)")
    if "unbounded_witness" in r["exploration"]:
        w = r["exploration"]["unbounded_witness"]
        lines.append(f"  unbounded: stem {w['stem']} pump {w['pump']}")
    lines.append(f"structure: free-choice={_tri(s['free_choice'])} proper={_tri(s['proper'])} "
                 f"connectivity={s['connectivity']} class={s['net_class']}")
    lines.append("clusters: " + "; ".join("{" + ", ".join(c) + "}" for c in s["clusters"]))
    k = b["bounded"]["k"]
    lines.append(f"bounded: {_tri(b['bounded'])}" + (f" (k={k})" if k is not None else ""))
    lines.append(f"safe: {_tri(b['safe'])}")
    live = b["live"]
    line = f"live: {_tri(live)}"
    if live["counterexample"]:
        ce = live["counterexample"]
        line += f" (e.g. {ce['transition']} can never fire again from {ce['marking']})"
    lines.append(line)
    df = b["deadlock_free"]
    line = f"deadlock-free: {_tri(df)}"
    if df["dead_markings"]:
        line += f" (dead: {df['dead_markings']})"
    lines.append(line)
    if b["home_markings"] is not None:
        lines.append(f"home markings: {b['home_markings']}")
    lines.append(f"perpetual: {_tri(b['perpetual'])}")
    line = f"lucent: {_tri(l['lucent'])}"
    if l["witness"]:
        line += (f" (witness {l['witness']['markings'][0]} vs {l['witness']['markings'][1]}"
                 f" share footprint {l['witness']['footprint']})")
    lines.append(line)
    ft = l["fully_transparent"]
    line = f"fully transparent: {_tri(ft)}"
    if ft["witness"] is not None and ft["value"] is False:
        line += f" (hidden tokens at {ft['witness']})"
    lines.append(line)
    lines.append(f"home clusters ({h['method']}): "
                 + ("; ".join("{" + ", ".join(c) + "}" for c in h["home_clusters"])
                    if h["home_clusters"] else "none"))
    return "\n".join(lines) + "\n"
