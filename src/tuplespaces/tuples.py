"""Tuples, templates and the matching relation.

A tuple is an ordered, immutable sequence of typed values; a template is the
same shape with each position holding a literal, a type wildcard or the
any-wildcard.  ``match`` is the single pattern-matching relation every other
module builds on: position-wise, arity-exact, pure.

Value universe (six tags): 64-bit signed integers, IEEE-754 doubles, UTF-8
strings, opaque bytes, and flat arrays of the two numeric kinds.  Array
fields hold packed buffers, ``array('q')`` and ``array('d')``, from
construction through the store to the wire codec.  Floats compare by exact
bit pattern: NaN equals NaN when the bits agree, and 0.0 does not equal
-0.0.  Tolerant comparison belongs to benchmark validation, never to the
store.
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterable, Sequence

# Value tags (also the wire tags, see wire.py).
INT = 1
FLOAT = 2
STR = 3
BYTES = 4
INT_ARRAY = 5
FLOAT_ARRAY = 6

ALL_TAGS = (INT, FLOAT, STR, BYTES, INT_ARRAY, FLOAT_ARRAY)

TAG_NAMES = {
    INT: "int",
    FLOAT: "float",
    STR: "str",
    BYTES: "bytes",
    INT_ARRAY: "int_array",
    FLOAT_ARRAY: "float_array",
}

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_PACK_D = struct.Struct("<d")


class Value:
    """One typed tuple field.  Immutable by convention (never mutate).

    ``data`` is an int, float, str or bytes for the scalar tags, and an
    ``array('q')``/``array('d')`` for INT_ARRAY/FLOAT_ARRAY.
    """

    __slots__ = ("tag", "data")

    def __init__(self, tag: int, data):
        self.tag = tag
        self.data = data

    def __eq__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        tag = self.tag
        if tag != other.tag:
            return False
        if tag == INT or tag == STR or tag == BYTES:
            return self.data == other.data
        return self._key() == other._key()

    def __hash__(self):
        return hash((self.tag, self._key()))

    def _key(self):
        # The equality key that __hash__ hashes and __eq__ compares (int, str
        # and bytes compare their data, which is their key).  Floats and
        # arrays key on their bytes: bit-pattern equality is exact, total and
        # deterministic (NaN payloads, -0.0 and lengths all stay apart).
        tag = self.tag
        if tag == FLOAT:
            return _PACK_D.pack(self.data)
        if tag == INT_ARRAY or tag == FLOAT_ARRAY:
            return self.data.tobytes()
        return self.data

    def __repr__(self):
        return f"Value({TAG_NAMES[self.tag]}, {self.data!r})"


def _check_int64(x: int) -> int:
    if not (_INT64_MIN <= x <= _INT64_MAX):
        raise ValueError(f"integer out of signed 64-bit range: {x}")
    return x


def int_value(x: int) -> Value:
    return Value(INT, _check_int64(x))


def float_value(x: float) -> Value:
    return Value(FLOAT, float(x))


def str_value(x: str) -> Value:
    return Value(STR, x)


def bytes_value(x: bytes) -> Value:
    return Value(BYTES, bytes(x))


def int_array(xs: Iterable[int]) -> Value:
    """An INT_ARRAY value holding a copy of ``xs`` as an ``array('q')``."""
    if isinstance(xs, array) and xs.typecode == "q":
        return Value(INT_ARRAY, array("q", xs))
    data = xs if isinstance(xs, (list, tuple)) else list(xs)
    # Whole-sequence check in C: exactly-int elements that all fit int64.
    # Anything else (bools, floats, int subclasses, out-of-range values)
    # takes the per-element loop, which accepts or raises as before.
    if set(map(type, data)) <= {int}:
        try:
            return Value(INT_ARRAY, array("q", data))
        except OverflowError:
            pass
    for x in data:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError("int_array elements must be plain ints")
        _check_int64(x)
    return Value(INT_ARRAY, array("q", data))


def float_array(xs: Iterable[float]) -> Value:
    """A FLOAT_ARRAY value holding a copy of ``xs`` as an ``array('d')``.

    Elements coerce as ``float(x)`` does (ints, bools, numeric strings).
    """
    data = xs if isinstance(xs, (list, tuple, array)) else list(xs)
    try:
        return Value(FLOAT_ARRAY, array("d", data))
    except TypeError:
        return Value(FLOAT_ARRAY, array("d", [float(x) for x in data]))


def value_of(x) -> Value:
    """Coerce a Python value to a Value, inferring its tag.

    An ``array('q')``/``array('d')`` maps to INT_ARRAY/FLOAT_ARRAY.  Empty
    lists and tuples are ambiguous; use int_array()/float_array() explicitly.
    """
    # Exact str/int/float first: the common fields.  Subclasses (bool,
    # IntEnum members, float subclasses) take the general path below.
    kind = type(x)
    if kind is str:
        return Value(STR, x)
    if kind is int:
        return Value(INT, _check_int64(x))
    if kind is float:
        return Value(FLOAT, x)
    if isinstance(x, Value):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a tuple field type")
    if isinstance(x, int):
        return int_value(x)
    if isinstance(x, float):
        return float_value(x)
    if isinstance(x, str):
        return str_value(x)
    if isinstance(x, (bytes, bytearray)):
        return bytes_value(bytes(x))
    if isinstance(x, array):
        if x.typecode == "q":
            return int_array(x)
        if x.typecode == "d":
            return float_array(x)
        raise TypeError(f"unsupported array typecode {x.typecode!r}; use 'q' or 'd'")
    if isinstance(x, (list, tuple)):
        if not x:
            raise TypeError("empty sequence is ambiguous; use int_array/float_array")
        if all(isinstance(e, int) and not isinstance(e, bool) for e in x):
            return int_array(x)
        if all(isinstance(e, float) for e in x):
            return float_array(x)
        raise TypeError("array fields must be homogeneous ints or floats")
    raise TypeError(f"unsupported tuple field: {type(x).__name__}")


class Tuple:
    """An immutable ordered sequence of Values, arity >= 1."""

    __slots__ = ("fields",)

    def __init__(self, fields: Sequence[Value]):
        fields = tuple(fields)
        if not fields:
            raise ValueError("tuple arity must be >= 1")
        for f in fields:
            if not isinstance(f, Value):
                raise TypeError("Tuple fields must be Values")
        self.fields = fields

    @property
    def arity(self) -> int:
        return len(self.fields)

    def __eq__(self, other):
        return isinstance(other, Tuple) and self.fields == other.fields

    def __hash__(self):
        return hash(self.fields)

    def __repr__(self):
        inner = ", ".join(repr(f.data) for f in self.fields)
        return f"<{inner}>"


def _new_tuple(fields: tuple) -> Tuple:
    """A Tuple over Values its caller has just built: no per-field check.

    Only make_tuple and the wire codec use it; the public constructor keeps
    every check.
    """
    if not fields:
        raise ValueError("tuple arity must be >= 1")
    tup = object.__new__(Tuple)
    tup.fields = fields
    return tup


def make_tuple(*raw) -> Tuple:
    """Build a Tuple from Python values (see value_of for the coercions)."""
    return _new_tuple(tuple([value_of(x) for x in raw]))


# Pattern field kinds.
LITERAL = 0
TYPE_WILDCARD = 1
ANY_WILDCARD = 2


class PatternField:
    __slots__ = ("kind", "tag", "value")

    def __init__(self, kind: int, tag: int | None = None, value: Value | None = None):
        if kind == LITERAL:
            assert value is not None
            tag = value.tag
        elif kind == TYPE_WILDCARD:
            if tag not in ALL_TAGS:
                raise ValueError(f"unknown value tag: {tag}")
        self.kind = kind
        self.tag = tag
        self.value = value

    def __eq__(self, other):
        return (
            isinstance(other, PatternField)
            and self.kind == other.kind
            and self.tag == other.tag
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.kind, self.tag, self.value))

    def __repr__(self):
        if self.kind == LITERAL:
            return f"lit({self.value.data!r})"
        if self.kind == TYPE_WILDCARD:
            return f"wildcard({TAG_NAMES[self.tag]})"
        return "ANY"


ANY = PatternField(ANY_WILDCARD)


def _new_literal(value: Value) -> PatternField:
    """A literal over a Value its caller has just built: no check (template_of
    and the wire codec only)."""
    field = object.__new__(PatternField)
    field.kind = LITERAL
    field.tag = value.tag
    field.value = value
    return field


def lit(x) -> PatternField:
    return PatternField(LITERAL, value=value_of(x))


def wildcard(tag: int) -> PatternField:
    return PatternField(TYPE_WILDCARD, tag=tag)


class Template:
    """An immutable ordered sequence of PatternFields, arity >= 1."""

    __slots__ = ("fields",)

    def __init__(self, fields: Sequence[PatternField]):
        fields = tuple(fields)
        if not fields:
            raise ValueError("template arity must be >= 1")
        for f in fields:
            if not isinstance(f, PatternField):
                raise TypeError("Template fields must be PatternFields")
        self.fields = fields

    @property
    def arity(self) -> int:
        return len(self.fields)

    def __eq__(self, other):
        return isinstance(other, Template) and self.fields == other.fields

    def __hash__(self):
        return hash(self.fields)

    def __repr__(self):
        return "<" + ", ".join(repr(f) for f in self.fields) + ">"


def _new_template(fields: tuple) -> Template:
    """A Template over PatternFields its caller has just built: no per-field
    check (template, template_of and the wire codec only)."""
    if not fields:
        raise ValueError("template arity must be >= 1")
    tpl = object.__new__(Template)
    tpl.fields = fields
    return tpl


def template(*fields) -> Template:
    """Build a Template; non-PatternField arguments become literals."""
    return _new_template(tuple([f if isinstance(f, PatternField) else lit(f) for f in fields]))


def match(tpl: Template, tup: Tuple) -> bool:
    """True iff the template selects the tuple.

    Arity must be equal; per position a literal requires value equality
    (floats bit-exact), a type wildcard requires tag equality, and the
    any-wildcard always passes.  Pure and total.
    """
    tf = tpl.fields
    uf = tup.fields
    if len(tf) != len(uf):
        return False
    for pf, v in zip(tf, uf):
        kind = pf.kind
        if kind == ANY_WILDCARD:
            continue
        if kind == TYPE_WILDCARD:
            if pf.tag != v.tag:
                return False
        elif pf.value != v:
            return False
    return True


def template_of(tup: Tuple) -> Template:
    """The all-literal template of a tuple; matches its source by construction."""
    return _new_template(tuple([_new_literal(v) for v in tup.fields]))
