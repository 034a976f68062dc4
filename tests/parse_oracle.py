"""The parser and constructor checks that ``textio.parse_net`` (a bulk
happy path, with a line checker that names the first fault by line) and
the bulk checks of ``PetriNet.__init__`` replaced, kept as their test
oracle: every statement and every item is checked on its own, in order.
Lines end at "\\n" only, as they do in the parser."""

import ast
import re
from typing import Dict, FrozenSet, List, Set, Tuple

from lucentnet.errors import NetStructureError, ParseError
from lucentnet.textio import MAX_INIT_TOKENS, NetDocument

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def check_net(places, transitions, arcs):
    """Raise what ``PetriNet(places, transitions, arcs)`` raises, or return
    the sorted places, the sorted transitions, the flow and each node's
    preset and postset, as ``(node, sorted nodes)`` pairs in node order."""
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

    places = tuple(sorted(place_list))
    transitions = tuple(sorted(transition_list))
    nodes = places + transitions
    pre: Dict[str, set] = {x: set() for x in nodes}
    post: Dict[str, set] = {x: set() for x in nodes}
    for src, dst in seen:
        post[src].add(dst)
        pre[dst].add(src)
    pre_f: Dict[str, FrozenSet[str]] = {x: frozenset(s) for x, s in pre.items()}
    post_f: Dict[str, FrozenSet[str]] = {x: frozenset(s) for x, s in post.items()}

    start = nodes[0]
    reached = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in pre_f[x] | post_f[x]:
            if y not in reached:
                reached.add(y)
                stack.append(y)
    if len(reached) != len(nodes):
        missing = sorted(set(nodes) - reached)
        raise NetStructureError(f"net is not weakly connected; unreachable from {start}: {missing}")
    return (places, transitions, frozenset(seen),
            [(x, sorted(s)) for x, s in pre_f.items()], [(x, sorted(s)) for x, s in post_f.items()])


def parse_net(text: str) -> NetDocument:
    name = None
    places: List[Tuple[str, int]] = []
    transitions: List[str] = []
    arcs: List[Tuple[str, str]] = []
    arc_set: Set[Tuple[str, str]] = set()
    declared: Dict[str, str] = {}
    declared_on: Dict[str, int] = {}  # identifier -> its declaration line

    def ident(token, lineno):
        if not _IDENT.match(token):
            raise ParseError(lineno, f"bad identifier {token!r}")
        return token

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if name is None:
            if kind != "net" or len(fields) != 2:
                raise ParseError(lineno, "expected the net header: net IDENT")
            name = ident(fields[1], lineno)
            continue
        if kind == "net":
            raise ParseError(lineno, "duplicate net header")
        if kind == "place":
            if len(fields) == 2:
                init = 0
            elif (len(fields) == 4 and fields[2] == "init"
                  and fields[3].isascii() and fields[3].isdigit()):
                digits = fields[3].lstrip("0") or "0"
                if len(digits) > len(str(MAX_INIT_TOKENS)) or int(digits) > MAX_INIT_TOKENS:
                    raise ParseError(lineno, f"initial token count exceeds {MAX_INIT_TOKENS}")
                init = int(digits)
            else:
                raise ParseError(lineno, "expected: place IDENT [init NAT]")
            p = ident(fields[1], lineno)
            if p in declared:
                raise ParseError(lineno, f"duplicate identifier {p!r}")
            declared[p] = "place"
            declared_on[p] = lineno
            places.append((p, init))
        elif kind == "trans":
            if len(fields) != 2:
                raise ParseError(lineno, "expected: trans IDENT")
            t = ident(fields[1], lineno)
            if t in declared:
                raise ParseError(lineno, f"duplicate identifier {t!r}")
            declared[t] = "trans"
            declared_on[t] = lineno
            transitions.append(t)
        elif kind == "arc":
            if len(fields) != 4 or fields[2] != "->":
                raise ParseError(lineno, "expected: arc IDENT -> IDENT")
            src, dst = fields[1], fields[3]
            if src not in declared or dst not in declared:
                ident(src, lineno)
                ident(dst, lineno)
                unknown = src if src not in declared else dst
                raise ParseError(lineno, f"unknown arc endpoint {unknown!r}")
            if declared[src] == declared[dst]:
                raise ParseError(
                    lineno, f"arc {src} -> {dst} must connect a place and a transition")
            if (src, dst) in arc_set:
                raise ParseError(lineno, f"duplicate arc {src} -> {dst}")
            arc_set.add((src, dst))
            arcs.append((src, dst))
        else:
            raise ParseError(lineno, f"unknown statement {kind!r}")
    if name is None:
        raise ParseError(1, "missing net header")

    doc = NetDocument(name, tuple(places), tuple(transitions), tuple(arcs))
    try:
        check_net([p for p, _ in doc.places], doc.transitions, doc.arcs)
    except NetStructureError as exc:
        # the line of the first node in the message's list, else line 1
        message = str(exc)
        listed = ast.literal_eval(message.rpartition(": ")[2]) if message.endswith("]") else []
        raise ParseError(declared_on[listed[0]] if listed else 1,
                         f"document does not describe a valid net: {exc}") from exc
    return doc
