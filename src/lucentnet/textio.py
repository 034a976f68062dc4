"""Line-oriented net documents: parsing and normalized serialization.

Grammar (one statement per line, lines end at "\\n" only, ``#`` starts a comment):

    net IDENT
    place IDENT [init NAT]
    trans IDENT
    arc IDENT -> IDENT

The header must come first; arcs must connect a place and a transition
declared on an earlier line.  NAT is ASCII digits with a value of at most
``MAX_INIT_TOKENS``.  Serialization sorts all declarations, so
serialize(parse(text)) is a fixpoint.

Parsing checks in bulk: one pass reads each statement's shape, and the
one ``PetriNet`` build checks names, duplicates and arcs.  A document with
a fault, or with a declaration after an arc, is read again line by line,
checking each statement as it is read: that pass raises the first fault
by line, or returns the valid document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import NetStructureError, ParseError
from .net import Arc, Marking, PetriNet, is_identifier

MAX_INIT_TOKENS = 1_000_000


@dataclass(frozen=True)
class NetDocument:
    name: str
    places: Tuple[Tuple[str, int], ...]  # (identifier, initial count)
    transitions: Tuple[str, ...]
    arcs: Tuple[Arc, ...]
    _built: Optional[Tuple[PetriNet, Marking]] = field(
        default=None, init=False, repr=False, compare=False)

    def to_net(self) -> Tuple[PetriNet, Marking]:
        """The net and its initial marking, built once per document."""
        if self._built is None:
            net = PetriNet([p for p, _ in self.places], self.transitions, self.arcs)
            marking = Marking.from_counts(dict(self.places))
            object.__setattr__(self, "_built", (net, marking))
        return self._built

    def normalized(self) -> "NetDocument":
        return NetDocument(self.name, tuple(sorted(self.places)),
                           tuple(sorted(self.transitions)), tuple(sorted(self.arcs)))


def _ident(token: str, lineno: int, declared=()) -> str:
    if token in declared:  # a declared name is valid, so this check may come first
        raise ParseError(lineno, f"duplicate identifier {token!r}")
    if not is_identifier(token):
        raise ParseError(lineno, f"bad identifier {token!r}")
    return token


def parse_net(text: str) -> NetDocument:
    lines = text.split("\n")
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    doc = _read_bulk(lines)
    return doc if doc is not None else _check_lines(lines)


def _read_bulk(lines: List[str]) -> Optional[NetDocument]:
    """The document, read in one pass over the statements' shapes and
    checked by the one ``PetriNet`` build, in bulk; or None for anything
    else (a statement out of shape, a header not first or not alone, a
    declaration after an arc, a net the build rejects)."""
    rows = map(str.split, lines)  # one row alive at a time
    for fields in rows:
        if fields:
            break
    else:
        return None
    if len(fields) != 2 or fields[0] != "net" or not is_identifier(fields[1]):
        return None
    name = fields[1]
    places: List[Tuple[str, int]] = []
    transitions: List[str] = []
    arcs: List[Arc] = []
    for fields in rows:
        if not fields:
            continue
        kind, n = fields[0], len(fields)
        if kind == "arc" and n == 4 and fields[2] == "->":
            arcs.append((fields[1], fields[3]))
        elif arcs:  # with every declaration first, "declared above" is "a node"
            return None
        elif kind == "trans" and n == 2:
            transitions.append(fields[1])
        elif kind == "place" and n == 2:
            places.append((fields[1], 0))
        elif (kind == "place" and n == 4 and fields[2] == "init" and fields[3].isascii()
              and fields[3].isdigit() and len(fields[3]) <= len(str(MAX_INIT_TOKENS))
              and int(fields[3]) <= MAX_INIT_TOKENS):
            places.append((fields[1], int(fields[3])))
        else:
            return None
    doc = NetDocument(name, tuple(places), tuple(transitions), tuple(arcs))
    try:
        doc.to_net()
    except NetStructureError:
        return None
    return doc


def _check_lines(lines: List[str]) -> NetDocument:
    """Each statement checked as it is read, so the first fault by line is
    the one raised; the path of documents :func:`_read_bulk` declines."""
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if fields:
            break
    else:
        raise ParseError(1, "missing net header")
    if fields[0] != "net" or len(fields) != 2:
        raise ParseError(lineno, "expected the net header: net IDENT")
    name = _ident(fields[1], lineno)

    places: List[Tuple[str, int]] = []
    transitions: List[str] = []
    arcs: Dict[Arc, None] = {}  # an ordered set
    declared: Dict[str, bool] = {}  # identifier -> is a place
    for lineno, raw in enumerate(lines[lineno:], start=lineno + 1):
        fields = raw.split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "arc":
            if len(fields) != 4 or fields[2] != "->":
                raise ParseError(lineno, "expected: arc IDENT -> IDENT")
            src, dst = fields[1], fields[3]
            src_place, dst_place = declared.get(src), declared.get(dst)
            if src_place is None or dst_place is None:
                # only an unknown endpoint can be a bad identifier, reported first
                _ident(src, lineno)
                _ident(dst, lineno)
                unknown = src if src_place is None else dst
                raise ParseError(lineno, f"unknown arc endpoint {unknown!r}")
            if src_place is dst_place:
                raise ParseError(lineno, f"arc {src} -> {dst} must connect a place and a transition")
            arc = (src, dst)
            if arc in arcs:
                raise ParseError(lineno, f"duplicate arc {src} -> {dst}")
            arcs[arc] = None
        elif kind == "place":
            if len(fields) == 2:
                init = 0
            elif (len(fields) == 4 and fields[2] == "init"
                  and fields[3].isascii() and fields[3].isdigit()):
                digits = fields[3].lstrip("0") or "0"
                # length first: int() refuses strings of over 4300 digits
                if len(digits) > len(str(MAX_INIT_TOKENS)) or int(digits) > MAX_INIT_TOKENS:
                    raise ParseError(lineno, f"initial token count exceeds {MAX_INIT_TOKENS}")
                init = int(digits)
            else:
                raise ParseError(lineno, "expected: place IDENT [init NAT]")
            p = _ident(fields[1], lineno, declared)
            declared[p] = True
            places.append((p, init))
        elif kind == "trans":
            if len(fields) != 2:
                raise ParseError(lineno, "expected: trans IDENT")
            t = _ident(fields[1], lineno, declared)
            declared[t] = False
            transitions.append(t)
        else:
            raise ParseError(lineno, "duplicate net header" if kind == "net"
                             else f"unknown statement {kind!r}")

    doc = NetDocument(name, tuple(places), tuple(transitions), tuple(arcs))
    try:
        doc.to_net()
    except NetStructureError as exc:  # name the line declaring the first node listed
        node = exc.nodes[0] if exc.nodes else None
        lineno = next((k for k, raw in enumerate(lines, start=1) if node and
                       raw.split()[:2] in (["place", node], ["trans", node])), 1)
        raise ParseError(lineno, f"document does not describe a valid net: {exc}") from exc
    return doc


def serialize_net(doc: NetDocument) -> str:
    doc = doc.normalized()
    lines = [f"net {doc.name}"]
    for p, init in doc.places:
        lines.append(f"place {p} init {init}" if init else f"place {p}")
    for t in doc.transitions:
        lines.append(f"trans {t}")
    for src, dst in doc.arcs:
        lines.append(f"arc {src} -> {dst}")
    return "\n".join(lines) + "\n"


def document_of(name: str, net: PetriNet, m0: Marking) -> NetDocument:
    places = tuple((p, m0.count(p)) for p in net.places)
    return NetDocument(name, places, net.transitions, tuple(sorted(net.flow)))
