"""``report.dumps`` against its oracle, ``json.dumps(obj, indent=2)``.

Before Python 3.13 ``dumps`` writes JSON by hand (``report._encode``); from
3.13 on it is ``json.dumps`` itself.  The hand path is checked on every
version: on every golden output and on generated values that hold escapes,
large numbers, empty and nested containers and mixed lists, and on lists of
string rows (written one join per row) mixed with items that are not rows.
"""

import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucentnet import report

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# any code point, lone surrogates included, and the ones json escapes
TEXT = st.text(st.one_of(st.characters(blacklist_categories=()),
                         st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t \xe9\U0001f600')),
               max_size=8)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-(10 ** 40), 10 ** 40), st.floats(), TEXT)
KEYS = st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.dictionaries(KEYS, children, max_size=5),
                               st.lists(TEXT, max_size=5),
                               st.lists(st.one_of(TEXT, children), max_size=5)),
    max_leaves=30)
# lists whose first item is a row of strings, as the report's markings are,
# mixed with strings, dicts, tuples, scalars and rows that hold a non-string
ROWS = st.lists(st.one_of(st.lists(TEXT, max_size=4), st.lists(TEXT, max_size=4).map(tuple),
                          TEXT, st.dictionaries(TEXT, SCALARS, max_size=2), SCALARS,
                          st.lists(st.one_of(TEXT, SCALARS), max_size=3)),
                max_size=6).map(lambda rest: [["a", "b"]] + rest)


def by_hand(obj):
    return report._encode(obj, "\n")


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_outputs_round_trip(path):
    text = path.read_text()
    obj = json.loads(text)
    assert by_hand(obj) == json.dumps(obj, indent=2)
    assert report.dumps(obj) + "\n" == text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(obj=VALUES)
def test_generated_values_match_json_dumps(obj):
    expected = json.dumps(obj, indent=2)
    assert by_hand(obj) == expected
    assert report.dumps(obj) == expected


@pytest.mark.parametrize("obj", [[["a"], "bc"], [["a"], {"k": 1}], [["a"], []], [[], ["a"]],
                                 [["a"], ("b",)], [["a"], ["b", 1]], [("a", "b"), ["c"]],
                                 {"rows": [["a:1", "b:1"], ["c:1"]], "k": [[["a"]], [[]]]}])
def test_string_rows_match_json_dumps(obj):
    # a list whose first item is a row of strings is written one join per
    # row; any item that is not a list or tuple of strings takes the
    # general path
    expected = json.dumps(obj, indent=2)
    assert by_hand(obj) == expected
    assert report.dumps(obj) == expected


@settings(max_examples=400, deadline=None, derandomize=True)
@given(obj=ROWS)
def test_generated_rows_match_json_dumps(obj):
    expected = json.dumps(obj, indent=2)
    assert by_hand(obj) == expected
    assert by_hand({"k": [obj]}) == json.dumps({"k": [obj]}, indent=2)


@pytest.mark.parametrize("obj", [{(1,): 0}, [set()], {"a": ["b", object()]},
                                 [["a"], [object()]], [["a"], object()]])
def test_what_json_cannot_write_raises_type_error(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        by_hand(obj)


def test_dumps_is_json_dumps_from_python_3_13_on(monkeypatch):
    real, calls = json.dumps, []
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: calls.append(kw) or real(obj, **kw))
    assert report.dumps({"a": ["b", 1]}) == real({"a": ["b", 1]}, indent=2)
    assert calls == ([{"indent": 2}] if sys.version_info >= (3, 13) else [])
