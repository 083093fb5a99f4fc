"""Property test: the artifact writer ``cli._json_text`` writes exactly
the text of ``json.dumps(x, indent=2) + "\\n"``, and refuses what the
program never writes with TypeError."""

import gc
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplepass.cli import _ITEM, _Raw, _json_text, _json_value, _wire_texts

FLOATS = [0.1, 1e16, 5e-324, -0.0, 0.16666666666666666, float("inf"), float("nan")]
STRINGS = ["", '"', "\\", "/", "\n\r\t\b\f", "\x00\x1f\x7f", "é", " ", "😀", "\ud800"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from(FLOATS)
    | st.text()
    | st.sampled_from(STRINGS)
)
keys = st.text(max_size=8) | st.sampled_from(STRINGS)
trees = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=40,
)


def stdlib(x) -> str:
    return json.dumps(x, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(trees)
def test_writer_matches_the_stdlib(tree):
    assert _json_text(tree) == stdlib(tree)


@settings(max_examples=60, deadline=None)
@given(trees, trees)
def test_shared_containers_are_written_at_each_depth(shared, other):
    # One object under several parents, at equal and at different depths.
    payload = {"a": shared, "b": [shared, other, shared], "c": {"d": [shared]}, "e": shared}
    assert _json_text(payload) == stdlib(payload)


def test_deeply_nested_and_empty_containers():
    deep = []
    for i in range(200):
        deep = [deep, {}] if i % 2 else {"k": deep, "empty": []}
    for payload in (deep, [], {}, [[]], {"": {}}, ((),)):
        assert _json_text(payload) == stdlib(payload)


def test_writing_leaves_no_reference_cycle():
    # Every object the writer makes is freed by reference counting alone.
    shared = {"k": [1, 2.5, None]}
    payload = {"a": [shared, {"b": (shared, "x", True)}], "c": {}, "d": [[], [shared]]}
    expected = stdlib(payload)  # the stdlib's indenting encoder itself leaves cycles
    gc.collect()
    gc.disable()
    try:
        text = _json_text(payload)
        left = gc.collect()
    finally:
        gc.enable()
    assert text == expected
    assert left == 0


@pytest.mark.parametrize(
    "payload",
    [{1: "a"}, {None: 1}, {(1, 2): 1}, {"a": {2.5: 1}}, {True: 0}],
    ids=["int-key", "none-key", "tuple-key", "nested-float-key", "bool-key"],
)
def test_a_key_that_is_not_a_string_is_refused(payload):
    with pytest.raises(TypeError):
        _json_text(payload)


class _OtherStr(str):
    """A str subclass other than the writer's own pre-rendered one."""


@pytest.mark.parametrize(
    "payload",
    [Fraction(1, 3), {"a": [set()]}, [b"bytes"], {"a": object()}, [1j], [_OtherStr("a")]],
    ids=["fraction", "set", "bytes", "object", "complex", "str-subclass"],
)
def test_an_unsupported_value_is_refused(payload):
    with pytest.raises(TypeError):
        _json_text(payload)


def test_a_raw_fragment_is_written_verbatim():
    fragment = _json_value([1, {"a": None}], "\n    ")
    payload = {"x": [_Raw(fragment), 2]}
    assert _json_text(payload) == stdlib({"x": [[1, {"a": None}], 2]})


WIRE = {"instance": "diagonal-f5", "p": 5, "v1": [1, 2], "v2": [3, 4], "v3": [0, 1]}
LAB = {**WIRE, "truth": {"s": 1, "t": 2, "A": "[[1,0],[0,1]]@F5", "B": "[[2,0],[0,3]]@F5"}}
RATIONAL = {"instance": "rational-demo", "p": "Q", "v1": ["1/2", "0"], "v2": ["3", "-1"],
            "v3": ["0", "1"], "truth": {"s": "1/2", "t": "0", "A": "[[1,0],[0,1]]@Q",
                                        "B": "[[2,1/3],[0,1]]@Q"}}


def test_wire_texts_are_the_stdlib_text_of_each_wire_dict():
    # Each wire writes its own instance and p, whatever the one before it.
    wires = [WIRE, LAB, RATIONAL, WIRE]
    assert _json_text({"transcripts": _wire_texts(wires, _ITEM)}) == stdlib({"transcripts": wires})


@pytest.mark.parametrize("wire", [
    {**WIRE, "extra": 1},
    {k: WIRE[k] for k in reversed(WIRE)},
    {k: v for k, v in WIRE.items() if k != "v3"},
    {**WIRE, "truth": None},
    {**LAB, "truth": {**LAB["truth"], "extra": 0}},
    {**LAB, "truth": {k: LAB["truth"][k] for k in ("t", "s", "A", "B")}},
], ids=["extra-key", "reversed", "missing-key", "null-truth", "extra-truth-key", "truth-reordered"])
def test_a_dict_that_is_not_a_wire_transcript_is_refused(wire):
    # Written from fragments, a key the wire format does not name would be lost.
    with pytest.raises(TypeError):
        _wire_texts([wire], _ITEM)
