"""Matching relation: spec examples, invariants, float bit semantics."""

import math
import struct
from array import array
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

import tuplespaces
from tuplespaces import (
    ANY,
    INT,
    STR,
    PatternField,
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
from tuplespaces import tuples as tuples_mod
from tuplespaces.tuples import (
    ALL_TAGS,
    BYTES,
    FLOAT,
    FLOAT_ARRAY,
    INT_ARRAY,
    WILDCARD_BASE,
    float_array,
    int_array,
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
    for build in (make_tuple, template, lit, lambda x: Tuple([x]), lambda x: Template([x])):
        with pytest.raises(ValueError):
            build(2**63)
        with pytest.raises(ValueError):
            build(-(2**63) - 1)
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

    bounds = int_array([-(2**63), 0, 2**63 - 1])
    enum = int_array([1, Level.HIGH])
    empty = int_array([])
    assert bounds.tolist() == [-(2**63), 0, 2**63 - 1]
    assert enum.tolist() == [1, 7]
    assert empty.tolist() == []
    assert bounds.typecode == enum.typecode == empty.typecode == "q"


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def test_array_values_copy_their_input():
    """Mutating the caller's array after a tuple or template is built from it,
    directly or through int_array/float_array, leaves the tuple unchanged."""
    for make, src in ((int_array, array("q", [1, 2, 3])),
                      (float_array, array("d", [1.5, -0.0, 3.0]))):
        built = [make_tuple("x", make(src)), make_tuple("x", src), Tuple(["x", src]),
                 template("x", src), template("x", make(src)), Template(["x", lit(src)])]
        before = [(x, hash(x), wire.encode_tuple(x) if isinstance(x, Tuple)
                   else wire.encode_template(x)) for x in built]
        original = src.tobytes()
        src[0] = 99
        src.append(7)
        for x, hashed, enc in before:
            assert x.data[1].tobytes() == original and hash(x) == hashed
            assert (wire.encode_tuple(x) if isinstance(x, Tuple) else wire.encode_template(x)) == enc


def test_an_array_is_copied_once_on_its_way_into_a_tuple(monkeypatch):
    # The array int_array or float_array built is the one the tuple keeps.
    for made in (int_array(range(5)), float_array([0.5, 1.5])):
        assert make_tuple("x", made).data[1] is made
        assert Tuple(["x", made]).data[1] is made
        assert template("x", made).data[1] is made
        assert lit(made).data is made
        assert Template(["x", lit(made)]).data[1] is made
    # A caller's plain array is copied by exactly one array construction.
    made = []
    for name in ("_IntArray", "_FloatArray"):
        base = getattr(tuples_mod, name)

        def counting_new(cls, *args):
            made.append(cls)
            return array.__new__(cls, *args)

        monkeypatch.setattr(base, "__new__", counting_new)
    for src in (array("q", range(4)), array("d", [0.5]), [1, 2], [0.5, 1.5]):
        made.clear()
        tup = make_tuple("x", src)
        assert len(made) == 1 and tup.data[1] is not src
        made.clear()
        tpl = template("x", src)
        assert len(made) == 1 and tpl.data[1] is not src
    made.clear()
    make_tuple("sort", int_array(array("q", range(1000))))
    assert len(made) == 1


def test_float_array_keeps_float_coercions():
    assert float_array([1, 2]).tolist() == [1.0, 2.0]
    assert float_array([True, "1.5", 2.5]).tolist() == [1.0, 1.5, 2.5]
    assert float_array(x / 2 for x in range(3)).tolist() == [0.0, 0.5, 1.0]
    assert float_array(array("q", [3])).tolist() == [3.0]
    assert float_array([]).typecode == "d"
    with pytest.raises(ValueError):
        float_array([1.0, "one"])
    with pytest.raises(TypeError):
        float_array([1.0, None])


def test_value_coercion_rules():
    assert make_tuple(3, "s", [1, 2], [1.0, 2.0]).tags == (INT, STR, INT_ARRAY, FLOAT_ARRAY)
    for bad in (True, [], [1, 2.0], object()):
        with pytest.raises(TypeError):
            make_tuple(bad)
    assert make_tuple(array("q", [1, 2])) == make_tuple(int_array([1, 2]))
    assert make_tuple(array("d", [0.5])) == make_tuple(float_array([0.5]))
    assert make_tuple(array("q")).tags == (INT_ARRAY,)
    assert make_tuple("run", array("q", [3])) == make_tuple("run", int_array([3]))
    assert lit(array("d", [1.0])).code == FLOAT_ARRAY
    for code in ("i", "l", "Q", "f", "B"):
        with pytest.raises(TypeError):
            make_tuple(array(code, [1]))


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
    """make_tuple, template, template_of and the decoders build the same flat
    layout as Tuple(...)/Template(...), with every value of its exact type."""
    raw_and_kept = [
        ("s", "s"), ("", ""), (0, 0), (-(2**63), -(2**63)), (2**63 - 1, 2**63 - 1),
        (_Level.HIGH, 7), (1.5, 1.5), (-0.0, -0.0), (_nan(3), _nan(3)), (_Ratio(0.25), 0.25),
        (b"\x00b", b"\x00b"), (bytearray(b"ba"), b"ba"),
        (array("q", [1, -(2**63)]), array("q", [1, -(2**63)])), ([3, 4], array("q", [3, 4])),
        (array("d", [0.5, -0.0]), array("d", [0.5, -0.0])), ([2.5], array("d", [2.5])),
    ]
    raw = [r for r, _ in raw_and_kept]
    expected = Tuple(raw)
    assert set(expected.tags) == set(ALL_TAGS)
    expected_tpl = Template(raw)
    assert expected_tpl.codes == expected.tags
    wild = [ANY] + [wildcard(tag) for tag in ALL_TAGS]
    expected_wild = Template(raw + wild)
    assert expected_wild.codes[len(raw):] == (WILDCARD_BASE,) + tuple(
        WILDCARD_BASE + tag for tag in ALL_TAGS)
    assert expected_wild.data[len(raw):] == (None,) * len(wild)
    built = [
        (make_tuple(*raw), expected),
        (wire.decode_tuple(wire.encode_tuple(expected)), expected),
        (template(*raw), expected_tpl),
        (template_of(make_tuple(*raw)), expected_tpl),
        (template(*raw, *wild), expected_wild),
        (wire.decode_template(wire.encode_template(expected_wild)), expected_wild),
    ]
    for got, want in built:
        assert type(got) is type(want) and got == want and hash(got) == hash(want)
        for layout in (got.tags if isinstance(got, Tuple) else got.codes, got.data):
            assert type(layout) is tuple
        for x, (_, kept) in zip(got.data, raw_and_kept):
            if isinstance(kept, array):
                assert isinstance(x, array) and x.typecode == kept.typecode
                assert x.tobytes() == kept.tobytes()
            elif type(kept) is float:
                assert type(x) is float and struct.pack("<d", x) == struct.pack("<d", kept)
            else:
                assert type(x) is type(kept) and x == kept
    for one_raw, kept in raw_and_kept:
        assert make_tuple(one_raw) == Tuple([one_raw]) == Tuple([kept])
        assert hash(template(one_raw)) == hash(Template([lit(kept)]))


def test_builders_still_reject_what_they_rejected():
    bad_fields = ((True, TypeError), (False, TypeError), (2**63, ValueError),
                  (-(2**63) - 1, ValueError), (None, TypeError), (object(), TypeError),
                  (array("i", [1]), TypeError), ([], TypeError), ([1, 2.0], TypeError))
    for bad, exc in bad_fields:
        for build in (lambda x: make_tuple("ok", x), lambda x: template("ok", x), lit,
                      lambda x: Tuple(["ok", x]), lambda x: Template(["ok", x])):
            with pytest.raises(exc):
                build(bad)
    # A wildcard is a template field, never a tuple field.
    for pattern in (ANY, wildcard(INT), lit(1)):
        with pytest.raises(TypeError):
            make_tuple("ok", pattern)
        with pytest.raises(TypeError):
            Tuple(["ok", pattern])


def test_array_values_compare_by_content():
    assert make_tuple(int_array([1, 2])) == make_tuple(int_array((1, 2)))
    assert make_tuple(float_array([0.0])) != make_tuple(float_array([-0.0]))
    nan = float("nan")
    assert make_tuple(float_array([nan])) == make_tuple(float_array([nan]))


def test_every_exported_name_resolves():
    for name in tuplespaces.__all__:
        assert getattr(tuplespaces, name) is not None, name
    assert "Value" not in tuplespaces.__all__


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
_values = st.one_of(_scalars, _arrays)
_tuples = st.lists(_values, min_size=1, max_size=4).map(Tuple)


@given(_tuples)
def test_reflexivity(tup):
    assert match(template_of(tup), tup)


@given(_tuples, st.data())
def test_monotone_weakening(tup, data):
    """Replacing a literal with a matching wildcard never breaks a match."""
    weakened = []
    for tag, x in zip(tup.tags, tup.data):
        choice = data.draw(st.sampled_from(["literal", "type", "any"]))
        if choice == "literal":
            weakened.append(lit(x))
        elif choice == "type":
            weakened.append(wildcard(tag))
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
    padded = Template(list(tup.data) + [ANY] * (extra + 1))
    assert not match(padded, tup)


# Values that Python's == (or a careless key) confuses: 1 and 1.0, both
# zeros, two NaN payloads and a NaN of either sign, "1" and b"1", and int and
# float arrays holding equal numbers.  Fresh arrays and NaN objects are built
# on each draw, so no equality can hold through object identity.
_COLLIDING = (
    lambda: 1, lambda: 1.0, lambda: 0.0, lambda: -0.0, lambda: _nan(1), lambda: _nan(2),
    lambda: -_nan(1), lambda: "1", lambda: b"1", lambda: "", lambda: b"",
    lambda: int_array([1, 0]), lambda: float_array([1.0, 0.0]),
    lambda: float_array([1.0, -0.0]), lambda: float_array([_nan(1)]),
    lambda: float_array([_nan(2)]), lambda: int_array([1]), lambda: float_array([1.0]),
)
_colliding = st.sampled_from(_COLLIDING).map(lambda make: make())
_colliding_tuples = st.lists(_colliding, min_size=1, max_size=3).map(Tuple)
_colliding_patterns = st.one_of(
    _colliding, st.just(ANY), st.sampled_from(ALL_TAGS).map(wildcard))
_colliding_templates = st.lists(_colliding_patterns, min_size=1, max_size=3).map(Template)


@given(_colliding_tuples, _colliding_tuples)
def test_tuples_are_equal_exactly_when_their_encodings_are(a, b):
    """The wire encoding is the equality oracle: tags and values bit for bit,
    array lengths included.  hash agrees with ==."""
    same = wire.encode_tuple(a) == wire.encode_tuple(b)
    assert (a == b) == same and (b == a) == same and (a != b) != same
    if same:
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert match(template_of(a), b) and match(template_of(b), a)
    else:
        assert len({a, b}) == 2


@given(_colliding_templates, _colliding_templates)
def test_templates_are_equal_exactly_when_their_encodings_are(a, b):
    same = wire.encode_template(a) == wire.encode_template(b)
    assert (a == b) == same and (b == a) == same and (a != b) != same
    if same:
        assert hash(a) == hash(b) and len({a, b}) == 1
    else:
        assert len({a, b}) == 2


def test_pattern_field_validation():
    with pytest.raises(ValueError):
        wildcard(99)
    for tag in ALL_TAGS:
        assert wildcard(tag).code == WILDCARD_BASE + tag and wildcard(tag).data is None
    assert ANY.code == WILDCARD_BASE
    assert lit(1.5).code == FLOAT and lit(b"x").code == BYTES
    assert PatternField(FLOAT, 1.5).data == 1.5
    with pytest.raises(TypeError):
        PatternField(FLOAT, 1)
    with pytest.raises(ValueError):
        PatternField(WILDCARD_BASE, 1)
