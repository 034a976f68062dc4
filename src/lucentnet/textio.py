"""Line-oriented net documents: parsing and normalized serialization.

Grammar (one statement per line, ``#`` starts a comment):

    net IDENT
    place IDENT [init NAT]
    trans IDENT
    arc IDENT -> IDENT

The header must come first; arcs must connect a place and a transition.
NAT is ASCII digits with a value of at most ``MAX_INIT_TOKENS``.
Serialization sorts all declarations, so serialize(parse(text)) is a
fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .errors import NetStructureError, ParseError
from .net import _IDENT, Arc, Marking, PetriNet

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
            marking = Marking.from_counts({p: n for p, n in self.places})
            object.__setattr__(self, "_built", (net, marking))
        return self._built

    def normalized(self) -> "NetDocument":
        return NetDocument(self.name, tuple(sorted(self.places)),
                           tuple(sorted(self.transitions)), tuple(sorted(self.arcs)))


def parse_net(text: str) -> NetDocument:
    name = None
    places: List[Tuple[str, int]] = []
    transitions: List[str] = []
    arcs: List[Arc] = []
    arc_set: Set[Arc] = set()
    declared: Dict[str, str] = {}

    def ident(token, lineno):
        if not _IDENT.match(token):
            raise ParseError(lineno, f"bad identifier {token!r}")
        return token

    for lineno, raw in enumerate(text.splitlines(), start=1):
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
                # length first: int() refuses strings of over 4300 digits
                if len(digits) > len(str(MAX_INIT_TOKENS)) or int(digits) > MAX_INIT_TOKENS:
                    raise ParseError(lineno, f"initial token count exceeds {MAX_INIT_TOKENS}")
                init = int(digits)
            else:
                raise ParseError(lineno, "expected: place IDENT [init NAT]")
            p = ident(fields[1], lineno)
            if p in declared:
                raise ParseError(lineno, f"duplicate identifier {p!r}")
            declared[p] = "place"
            places.append((p, init))
        elif kind == "trans":
            if len(fields) != 2:
                raise ParseError(lineno, "expected: trans IDENT")
            t = ident(fields[1], lineno)
            if t in declared:
                raise ParseError(lineno, f"duplicate identifier {t!r}")
            declared[t] = "trans"
            transitions.append(t)
        elif kind == "arc":
            if len(fields) != 4 or fields[2] != "->":
                raise ParseError(lineno, "expected: arc IDENT -> IDENT")
            src, dst = fields[1], fields[3]
            if src not in declared or dst not in declared:
                # declared names are valid identifiers: only an unknown
                # endpoint can be a bad one, and that error comes first
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
        doc.to_net()
    except NetStructureError as exc:
        raise ParseError(1, f"document does not describe a valid net: {exc}") from exc
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
