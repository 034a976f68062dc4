import pathlib

import pytest

from lucentnet import (Marking, ParseError, document_of, parse_net,
                       serialize_net)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

N2_TEXT = """\
net n2
# the side places steer the final choice
place p1 init 1
place p2
place p3
place p4
place p5
place p6
trans t1
trans t2
trans t3
trans t4
trans t5
arc p1 -> t1
arc p1 -> t2
arc t1 -> p2
arc t1 -> p5
arc t2 -> p2
arc t2 -> p6
arc p2 -> t3
arc t3 -> p3
arc p3 -> t4
arc p5 -> t4
arc p3 -> t5
arc p6 -> t5
arc t4 -> p4
arc t5 -> p4
"""


def test_parse_n2_matches_reference(n2):
    doc = parse_net(N2_TEXT)
    net, m0 = doc.to_net()
    assert net == n2.net
    assert m0 == n2.initial
    assert doc.name == "n2"


@pytest.mark.parametrize("ident", ["n1", "n2", "n3", "n4", "n5"])
def test_corpus_files_match_reference_nets(ident, request):
    text = (CORPUS / f"{ident}.net").read_text()
    net, m0 = parse_net(text).to_net()
    ref = request.getfixturevalue(ident)
    assert net == ref.net and m0 == ref.initial


def test_round_trip_is_a_fixpoint():
    doc = parse_net(N2_TEXT)
    once = serialize_net(doc)
    assert serialize_net(parse_net(once)) == once


def test_document_of_inverts_to_net(n3):
    doc = document_of("n3", n3.net, n3.initial)
    net, m0 = doc.to_net()
    assert net == n3.net and m0 == n3.initial


def test_init_counts_round_trip():
    text = "net multi\nplace a init 2\nplace b\ntrans t\narc a -> t\narc t -> b\n"
    doc = parse_net(text)
    _, m0 = doc.to_net()
    assert m0 == Marking.of("a", "a")
    assert "place a init 2" in serialize_net(doc)


def _parse_error(text):
    with pytest.raises(ParseError) as err:
        parse_net(text)
    return err.value


def test_missing_header():
    assert _parse_error("").line == 1
    err = _parse_error("place p1\n")
    assert err.line == 1 and "header" in str(err)


def test_header_must_come_first_and_once():
    err = _parse_error("net a\nnet b\n")
    assert err.line == 2 and "duplicate net header" in str(err)


def test_duplicate_identifier():
    err = _parse_error("net x\nplace a\ntrans a\n")
    assert err.line == 3 and "duplicate identifier" in str(err)


def test_unknown_arc_endpoint():
    err = _parse_error("net x\nplace a\ntrans t\narc a -> t\narc a -> u\n")
    assert err.line == 5 and "unknown arc endpoint" in str(err)


def test_arc_endpoint_errors_name_the_first_fault():
    # a bad identifier is reported before an unknown endpoint, whichever
    # endpoint it is; a declared endpoint is never the bad one
    head = "net x\nplace a\ntrans t\n"
    for arc, message in (("arc 9a -> t", "bad identifier '9a'"),
                         ("arc a -> 9t", "bad identifier '9t'"),
                         ("arc u -> 9t", "bad identifier '9t'"),
                         ("arc 9u -> v", "bad identifier '9u'"),
                         ("arc u -> t", "unknown arc endpoint 'u'"),
                         ("arc a -> u", "unknown arc endpoint 'u'"),
                         ("arc u -> v", "unknown arc endpoint 'u'")):
        err = _parse_error(head + arc + "\n")
        assert err.line == 4 and message in str(err), arc


def test_illegal_arc_kind():
    err = _parse_error("net x\nplace a\nplace b\ntrans t\narc a -> t\narc a -> b\n")
    assert err.line == 6 and "must connect a place and a transition" in str(err)


def test_duplicate_arc():
    err = _parse_error("net x\nplace a\ntrans t\narc a -> t\narc a -> t\n")
    assert err.line == 5 and "duplicate arc" in str(err)


def test_malformed_lines():
    assert _parse_error("net x\nplace\n").line == 2
    assert _parse_error("net x\nplace a init two\n").line == 2
    assert _parse_error("net x\nwidget a\n").line == 2
    assert _parse_error("net x\nplace a\ntrans t\narc a t\n").line == 4


def test_document_must_describe_valid_net():
    # two disconnected components: the error names the line declaring b,
    # the first node it lists as unreachable
    text = "net x\nplace a\nplace b\ntrans t\ntrans u\narc a -> t\narc b -> u\n"
    err = _parse_error(text)
    assert err.line == 3 and "['b', 'u']" in str(err)
    # a commented-out declaration does not count: b is declared on line 8
    text = "# b\nnet x\nplace a # place b\ntrans t\narc a -> t\n\ntrans u\nplace b\n"
    assert _parse_error(text).line == 8
    # a document that lists no node keeps line 1
    assert _parse_error("\n\nnet x\nplace a\n").line == 1


def test_comments_and_blank_lines_ignored():
    text = "# heading\nnet x\n\nplace a init 1  # tokens\ntrans t\narc a -> t\n"
    doc = parse_net(text)
    assert doc.places == (("a", 1),)


def test_init_must_be_ascii_digits():
    err = _parse_error("net x\nplace a init ²\ntrans t\narc a -> t\n")
    assert err.line == 2 and "init NAT" in str(err)
    err = _parse_error("net x\nplace a init ٣\ntrans t\narc a -> t\n")
    assert err.line == 2


def test_init_count_is_capped():
    from lucentnet.textio import MAX_INIT_TOKENS
    ok = parse_net(f"net x\nplace a init {MAX_INIT_TOKENS}\ntrans t\narc a -> t\n")
    assert ok.places == (("a", MAX_INIT_TOKENS),)
    for count in (str(MAX_INIT_TOKENS + 1), "99999999999999999999", "9" * 5000):
        err = _parse_error(f"net x\ntrans t\nplace a init {count}\narc a -> t\n")
        assert err.line == 3 and "exceeds" in str(err)
    padded = parse_net("net x\nplace a init " + "0" * 5000 + "7\ntrans t\narc a -> t\n")
    assert padded.places == (("a", 7),)


# every character besides "\n" that str.splitlines() splits on
NOT_NEWLINES = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", NOT_NEWLINES)
def test_lines_end_at_newline_only(sep):
    # inside a comment the character is part of the comment
    doc = parse_net(f"net n # a{sep}b\nplace p init 1\ntrans t\narc p -> t\narc t -> p\n")
    assert doc.name == "n" and doc.arcs == (("p", "t"), ("t", "p"))
    # between tokens it is whitespace, and line numbers count "\n" alone
    err = _parse_error(f"net x\nplace a{sep}init 1{sep}\nplace a\n")
    assert err.line == 3 and "duplicate identifier 'a'" in str(err)
    err = _parse_error(f"net x{sep}place p\n")
    assert err.line == 1 and "net header" in str(err)


def test_crlf_line_endings():
    doc = parse_net("net x\r\nplace a init 1\r\ntrans t # c\r\narc a -> t\r\n")
    assert doc.places == (("a", 1),) and doc.arcs == (("a", "t"),)
