"""Matching relation: spec examples, invariants, float bit semantics."""

import math
import struct
from array import array
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from tuplespaces import (
    ANY,
    INT,
    STR,
    Template,
    Tuple,
    lit,
    make_tuple,
    match,
    template,
    template_of,
    wildcard,
    wire,
)
from tuplespaces.tuples import (
    ALL_TAGS,
    FLOAT,
    FLOAT_ARRAY,
    INT_ARRAY,
    LITERAL,
    PatternField,
    Value,
    bytes_value,
    float_array,
    float_value,
    int_array,
    int_value,
    str_value,
    value_of,
)


def test_literal_prefix_with_wildcards_matches():
    tup = make_tuple("goofy", 4, 10.4)
    assert match(template("goofy", ANY, ANY), tup)


def test_arity_mismatch_never_matches():
    tup = make_tuple("goofy", 4, 10.4)
    assert not match(template(ANY, ANY), tup)


def test_literal_int_head():
    tup = make_tuple(10, b"payload")
    assert match(template(10, ANY), tup)
    assert not match(template(11, ANY), tup)


def test_type_wildcard_tag_mismatch():
    assert not match(template(wildcard(INT)), make_tuple("x"))
    assert match(template(wildcard(STR)), make_tuple("x"))


def test_template_of_examples():
    t = make_tuple("a", 1)
    tpl = template_of(t)
    assert tpl == template("a", 1)
    assert match(tpl, t)
    assert template_of(make_tuple(10.5)) == template(lit(10.5))


def test_float_literal_bit_exact():
    nan = float("nan")
    assert match(template(lit(nan)), make_tuple(nan))
    assert not match(template(lit(0.0)), make_tuple(-0.0))
    assert not match(template(lit(-0.0)), make_tuple(0.0))
    # inf - inf is a NaN with a different sign bit: same-bits matches, different-bits does not
    other_nan = math.inf - math.inf
    assert match(template(lit(other_nan)), make_tuple(other_nan))
    assert not match(template(lit(nan)), make_tuple(other_nan))


def test_int64_range_enforced():
    make_tuple(2**63 - 1)
    make_tuple(-(2**63))
    with pytest.raises(ValueError):
        make_tuple(2**63)
    with pytest.raises(ValueError):
        int_value(-(2**63) - 1)
    with pytest.raises(ValueError):
        int_array([0, 2**63])


def test_int_array_rejects_bad_last_element_of_long_list():
    head = list(range(-5000, 5000))
    for bad, exc in ((True, TypeError), (1.0, TypeError),
                     (2**63, ValueError), (-(2**63) - 1, ValueError)):
        with pytest.raises(exc):
            int_array(head + [bad])


def test_int_array_accepts_int64_bounds_and_int_subclasses():
    class Level(IntEnum):
        HIGH = 7

    bounds = int_array([-(2**63), 0, 2**63 - 1]).data
    enum = int_array([1, Level.HIGH]).data
    empty = int_array([]).data
    assert bounds.tolist() == [-(2**63), 0, 2**63 - 1]
    assert enum.tolist() == [1, 7]
    assert empty.tolist() == []
    assert bounds.typecode == enum.typecode == empty.typecode == "q"


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def test_array_values_copy_their_input():
    for make, src in ((int_array, array("q", [1, 2, 3])),
                      (float_array, array("d", [1.5, -0.0, 3.0]))):
        v = make(src)
        before = (v.data.tobytes(), hash(v))
        src[0] = 99
        src.append(7)
        assert (v.data.tobytes(), hash(v)) == before
        assert v == make(array(src.typecode, before[0]))


def test_float_array_keeps_float_coercions():
    assert float_array([1, 2]).data.tolist() == [1.0, 2.0]
    assert float_array([True, "1.5", 2.5]).data.tolist() == [1.0, 1.5, 2.5]
    assert float_array(x / 2 for x in range(3)).data.tolist() == [0.0, 0.5, 1.0]
    assert float_array(array("q", [3])).data.tolist() == [3.0]
    assert float_array([]).data.typecode == "d"
    with pytest.raises(ValueError):
        float_array([1.0, "one"])
    with pytest.raises(TypeError):
        float_array([1.0, None])


def test_float_values_hash_as_they_compare():
    a = float_array([1.5, _nan(1)])
    b = float_array([1.5, _nan(1)])
    assert a == b and hash(a) == hash(b)
    assert Value(FLOAT, _nan(1)) == Value(FLOAT, _nan(1))
    assert hash(Value(FLOAT, _nan(1))) == hash(Value(FLOAT, _nan(1)))
    assert float_array([0.0]) != float_array([-0.0])
    assert float_array([_nan(1)]) != float_array([_nan(2)])
    assert float_array([1.0]) != float_array([1.0, 1.0])
    members = {a, b, float_array([0.0]), float_array([-0.0]),
               float_array([_nan(1)]), float_array([_nan(2)])}
    assert len(members) == 5
    assert float_array([-0.0]) in members and float_array([_nan(2)]) in members
    assert float_array([_nan(3)]) not in members


def test_value_coercion_rules():
    assert value_of(3).tag == INT
    assert value_of("s").tag == STR
    assert value_of([1, 2]).tag == 5
    assert value_of([1.0, 2.0]).tag == 6
    with pytest.raises(TypeError):
        value_of(True)
    with pytest.raises(TypeError):
        value_of([])
    with pytest.raises(TypeError):
        value_of([1, 2.0])
    with pytest.raises(TypeError):
        value_of(object())
    assert value_of(array("q", [1, 2])) == int_array([1, 2])
    assert value_of(array("d", [0.5])) == float_array([0.5])
    assert value_of(array("q")).tag == INT_ARRAY
    assert make_tuple("run", array("q", [3])) == make_tuple("run", int_array([3]))
    assert lit(array("d", [1.0])).tag == FLOAT_ARRAY
    for code in ("i", "l", "Q", "f", "B"):
        with pytest.raises(TypeError):
            value_of(array(code, [1]))


def test_arity_at_least_one():
    with pytest.raises(ValueError):
        Tuple([])
    with pytest.raises(ValueError):
        Template([])
    with pytest.raises(ValueError):
        make_tuple()
    with pytest.raises(ValueError):
        template()


class _Level(IntEnum):
    HIGH = 7


class _Ratio(float):
    pass


def test_builders_match_the_public_constructors():
    """make_tuple, template, template_of and the decoders skip the per-field
    checks of Tuple(...)/Template(...), and build equal objects."""
    raw_and_value = [
        ("s", str_value("s")), ("", str_value("")),
        (0, int_value(0)), (-(2**63), int_value(-(2**63))), (2**63 - 1, int_value(2**63 - 1)),
        (_Level.HIGH, int_value(_Level.HIGH)),
        (1.5, float_value(1.5)), (-0.0, float_value(-0.0)), (_nan(3), float_value(_nan(3))),
        (_Ratio(0.25), float_value(0.25)),
        (b"\x00b", bytes_value(b"\x00b")), (bytearray(b"ba"), bytes_value(b"ba")),
        (array("q", [1, -(2**63)]), int_array([1, -(2**63)])), ([3, 4], int_array([3, 4])),
        (array("d", [0.5, -0.0]), float_array([0.5, -0.0])), ([2.5], float_array([2.5])),
    ]
    raw = [r for r, _ in raw_and_value]
    expected = Tuple([v for _, v in raw_and_value])
    assert {v.tag for v in expected.fields} == set(ALL_TAGS)
    expected_tpl = Template([PatternField(LITERAL, value=v) for v in expected.fields])
    wild = [ANY] + [wildcard(tag) for tag in ALL_TAGS]
    expected_wild = Template(list(expected_tpl.fields) + wild)
    built = [
        (make_tuple(*raw), expected),
        (wire.decode_tuple(wire.encode_tuple(expected)), expected),
        (template(*raw), expected_tpl),
        (template_of(make_tuple(*raw)), expected_tpl),
        (template(*raw, *wild), expected_wild),
        (wire.decode_template(wire.encode_template(expected_wild)), expected_wild),
    ]
    for got, want in built:
        assert type(got) is type(want) and type(got.fields) is tuple
        assert got == want and hash(got) == hash(want)
    assert ([type(v.data) for v in make_tuple(*raw).fields] ==
            [type(v.data) for v in expected.fields])
    for one_raw, value in raw_and_value:
        assert make_tuple(one_raw) == Tuple([value])
        assert hash(template(one_raw)) == hash(Template([PatternField(LITERAL, value=value)]))


def test_builders_still_reject_what_they_rejected():
    for bad, exc in ((True, TypeError), (False, TypeError), (2**63, ValueError),
                     (-(2**63) - 1, ValueError), (None, TypeError), (object(), TypeError),
                     (array("i", [1]), TypeError), ([], TypeError), ([1, 2.0], TypeError)):
        with pytest.raises(exc):
            make_tuple("ok", bad)
        with pytest.raises(exc):
            template("ok", bad)
    # the public constructors keep their per-field checks
    with pytest.raises(TypeError):
        Tuple(["raw"])
    with pytest.raises(TypeError):
        Template([Value(INT, 1)])


def test_array_values_compare_by_content():
    assert make_tuple(int_array([1, 2])) == make_tuple(int_array((1, 2)))
    assert make_tuple(float_array([0.0])) != make_tuple(float_array([-0.0]))
    nan = float("nan")
    assert make_tuple(float_array([nan])) == make_tuple(float_array([nan]))


# -- property tests ---------------------------------------------------------------

_scalars = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=8),
    st.binary(max_size=8),
)
_arrays = st.one_of(
    st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=5)
    .map(int_array),
    st.lists(st.floats(allow_nan=True, width=64), min_size=1, max_size=5).map(float_array),
)
_values = st.one_of(_scalars.map(value_of), _arrays)
_tuples = st.lists(_values, min_size=1, max_size=4).map(Tuple)


@given(_tuples)
def test_reflexivity(tup):
    assert match(template_of(tup), tup)


@given(_tuples, st.data())
def test_monotone_weakening(tup, data):
    """Replacing a literal with a matching wildcard never breaks a match."""
    tpl = template_of(tup)
    weakened = []
    for pf in tpl.fields:
        choice = data.draw(st.sampled_from(["literal", "type", "any"]))
        if choice == "literal":
            weakened.append(pf)
        elif choice == "type":
            weakened.append(wildcard(pf.value.tag))
        else:
            weakened.append(ANY)
    assert match(Template(weakened), tup)


@given(_tuples, _tuples)
def test_match_deterministic(a, b):
    tpl = template_of(a)
    assert match(tpl, b) == match(tpl, b)
    assert (a == b) == (template_of(a) == template_of(b))


@given(_tuples, st.integers(min_value=0, max_value=5))
def test_arity_gate(tup, extra):
    padded = Template(tuple(template_of(tup).fields) + tuple([ANY] * (extra + 1)))
    assert not match(padded, tup)


def test_pattern_field_validation():
    with pytest.raises(ValueError):
        wildcard(99)
    for tag in ALL_TAGS:
        assert wildcard(tag).tag == tag
    assert PatternField(LITERAL, value=Value(FLOAT, 1.5)).tag == FLOAT
