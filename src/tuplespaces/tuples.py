"""Tuples, templates and the matching relation.

A tuple is an ordered, immutable sequence of typed values, arity >= 1.  It
is stored flat, as two plain tuples of equal length: ``tags`` holds one
value tag per field and ``data`` the raw values.  A template is stored the
same way: ``codes`` holds each position's wire field code (the value tag of
a literal, ``WILDCARD_BASE`` (0x10) for the any-wildcard and
``WILDCARD_BASE + tag`` for a type wildcard), and ``data`` holds each
literal's raw value and None at the other positions.  There is no object
per field: the builders, the wire codec and the store read and build these
plain tuples directly.  ``match`` is the single pattern-matching relation
every other module builds on: position-wise, arity-exact, pure.

Value universe (six tags): 64-bit signed integers, IEEE-754 doubles, UTF-8
strings, opaque bytes, and flat arrays of the two numeric kinds.  Raw values
are exactly ``int``, ``float``, ``str``, ``bytes`` and ``array('q')``/
``array('d')`` buffers, kept from construction through the store to the
wire codec.  The tag decides the type, so 1, 1.0 and "1" stay apart.  Int,
str and bytes compare by value; floats and arrays compare by their bytes:
NaN equals NaN when the bits agree, 0.0 does not equal -0.0, and lengths
count.  Tolerant comparison belongs to benchmark validation, never to the
store.

The public builders (``make_tuple``, ``template``, ``lit``, ``wildcard``,
``int_array``, ``float_array``, ``Tuple(...)`` and ``Template(...)``) check
every field.  An array is copied once on its way in: ``int_array`` and
``float_array`` return a fresh copy, which a tuple or template then keeps
as it is, and any other array is copied when the tuple or template is built.
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterable

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

# Template field codes beyond the value tags: the any-wildcard, and a type
# wildcard per tag at WILDCARD_BASE + tag.
WILDCARD_BASE = 0x10
WILDCARD_CODES = frozenset([WILDCARD_BASE] + [WILDCARD_BASE + tag for tag in ALL_TAGS])

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_PACK_D = struct.Struct("<d").pack


class _IntArray(array):
    """An ``array('q')`` that int_array has just copied: a tuple or template
    keeps it as it is rather than copying it again."""

    __slots__ = ()


class _FloatArray(array):
    """An ``array('d')`` that float_array has just built (see _IntArray)."""

    __slots__ = ()


# The tag of each exact type a field may be kept as without conversion.
_TAG_OF = {str: STR, int: INT, float: FLOAT, bytes: BYTES,
           _IntArray: INT_ARRAY, _FloatArray: FLOAT_ARRAY}

# Tags whose values compare by their bytes (int arrays are exact by value,
# but unhashable, so their key is their bytes too).
_BYTES_OF = {FLOAT: _PACK_D, INT_ARRAY: array.tobytes, FLOAT_ARRAY: array.tobytes}


def _check_int64(x: int) -> int:
    if not (_INT64_MIN <= x <= _INT64_MAX):
        raise ValueError(f"integer out of signed 64-bit range: {x}")
    return x


def int_array(xs: Iterable[int]) -> array:
    """A copy of ``xs`` as an ``array('q')``, kept uncopied by the tuple or
    template it is given to."""
    if isinstance(xs, array) and xs.typecode == "q":
        return _IntArray("q", xs)
    data = xs if isinstance(xs, (list, tuple)) else list(xs)
    # Whole-sequence check in C: exactly-int elements that all fit int64.
    # Anything else (bools, floats, int subclasses, out-of-range values)
    # takes the per-element loop, which accepts or raises as before.
    if set(map(type, data)) <= {int}:
        try:
            return _IntArray("q", data)
        except OverflowError:
            pass
    for x in data:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError("int_array elements must be plain ints")
        _check_int64(x)
    return _IntArray("q", data)


def float_array(xs: Iterable[float]) -> array:
    """A copy of ``xs`` as an ``array('d')`` (see int_array).

    Elements coerce as ``float(x)`` does (ints, bools, numeric strings).
    """
    data = xs if isinstance(xs, (list, tuple, array)) else list(xs)
    try:
        return _FloatArray("d", data)
    except TypeError:
        return _FloatArray("d", [float(x) for x in data])


def _field(x) -> tuple[int, object]:
    """(tag, raw value) of one Python value, with every check.

    Int, float, str and bytes subclasses (IntEnum members, say) and
    bytearrays are converted to the exact type.  An ``array('q')``/
    ``array('d')`` is copied.  A non-empty list or tuple of plain ints or of
    floats is an array; an empty one is ambiguous, so use int_array or
    float_array.
    """
    tag = _TAG_OF.get(type(x))
    if tag is not None:
        return tag, (x if tag != INT else _check_int64(x))
    if isinstance(x, bool):
        raise TypeError("bool is not a tuple field type")
    if isinstance(x, int):
        return INT, _check_int64(int(x))
    if isinstance(x, float):
        return FLOAT, float(x)
    if isinstance(x, str):
        return STR, str(x)
    if isinstance(x, (bytes, bytearray)):
        return BYTES, bytes(x)
    if isinstance(x, array):
        if x.typecode == "q":
            return INT_ARRAY, int_array(x)
        if x.typecode == "d":
            return FLOAT_ARRAY, float_array(x)
        raise TypeError(f"unsupported array typecode {x.typecode!r}; use 'q' or 'd'")
    if isinstance(x, (list, tuple)):
        if not x:
            raise TypeError("empty sequence is ambiguous; use int_array/float_array")
        if all(isinstance(e, int) and not isinstance(e, bool) for e in x):
            return INT_ARRAY, int_array(x)
        if all(isinstance(e, float) for e in x):
            return FLOAT_ARRAY, float_array(x)
        raise TypeError("array fields must be homogeneous ints or floats")
    raise TypeError(f"unsupported tuple field: {type(x).__name__}")


def _layout(items: tuple, patterns: bool) -> tuple[tuple, tuple]:
    """(codes, data) of tuple fields, or of template arguments when
    ``patterns``, with every check."""
    codes = []
    data = []
    for x in items:
        code = _TAG_OF.get(type(x))
        if code is None:
            if patterns and isinstance(x, PatternField):
                code = x.code
                x = x.data
            else:
                code, x = _field(x)
        elif code == INT:
            _check_int64(x)
        codes.append(code)
        data.append(x)
    return tuple(codes), tuple(data)


def _key(codes: tuple, data: tuple) -> tuple:
    """What equality compares and hash hashes, besides the codes: the data,
    with floats and arrays as their bytes."""
    if _BYTES_OF.keys().isdisjoint(codes):
        return data
    return tuple([_BYTES_OF[c](x) if c in _BYTES_OF else x for c, x in zip(codes, data)])


def _repr_field(code: int, x) -> str:
    if code < WILDCARD_BASE:
        return repr(x)
    if code == WILDCARD_BASE:
        return "ANY"
    return f"wildcard({TAG_NAMES[code - WILDCARD_BASE]})"


class Tuple:
    """An immutable tuple of typed fields, arity >= 1, stored as ``tags``
    and ``data``.  ``Tuple(fields)`` equals ``make_tuple(*fields)``.

    ``body`` is the tuple's wire encoding when the tuple was decoded from a
    whole ``bytes`` body (see wire.decode_tuple), else None; it takes no part
    in equality or hashing.
    """

    __slots__ = ("tags", "data", "body")

    def __init__(self, fields: Iterable):
        fields = tuple(fields)
        if not fields:
            raise ValueError("tuple arity must be >= 1")
        self.tags, self.data = _layout(fields, False)
        self.body = None

    @property
    def arity(self) -> int:
        return len(self.tags)

    def __eq__(self, other):
        return (isinstance(other, Tuple) and self.tags == other.tags
                and _key(self.tags, self.data) == _key(other.tags, other.data))

    def __hash__(self):
        return hash((self.tags, _key(self.tags, self.data)))

    def __repr__(self):
        return "<" + ", ".join(map(repr, self.data)) + ">"


def make_tuple(*raw) -> Tuple:
    """Build a Tuple from Python values (see _field for the coercions)."""
    return Tuple(raw)


class PatternField:
    """One template position as given to template() or Template(): a
    literal (``lit``), a type wildcard (``wildcard``) or ``ANY``.  A template
    keeps only its ``code`` and ``data``, never the object itself."""

    __slots__ = ("code", "data")

    def __init__(self, code: int, data=None):
        if code in WILDCARD_CODES:
            if data is not None:
                raise ValueError("a wildcard holds no value")
        else:
            tag, data = _field(data)
            if tag != code:
                raise TypeError(f"a literal of tag {code} cannot hold a {TAG_NAMES[tag]}")
        self.code = code
        self.data = data

    def __repr__(self):
        if self.code < WILDCARD_BASE:
            return f"lit({self.data!r})"
        return _repr_field(self.code, None)


ANY = PatternField(WILDCARD_BASE)


def lit(x) -> PatternField:
    return PatternField(*_field(x))


def wildcard(tag: int) -> PatternField:
    if tag not in ALL_TAGS:
        raise ValueError(f"unknown value tag: {tag}")
    return PatternField(WILDCARD_BASE + tag)


class Template:
    """An immutable template, arity >= 1, stored as ``codes`` and ``data``.
    ``Template(fields)`` equals ``template(*fields)``."""

    __slots__ = ("codes", "data")

    def __init__(self, fields: Iterable):
        fields = tuple(fields)
        if not fields:
            raise ValueError("template arity must be >= 1")
        self.codes, self.data = _layout(fields, True)

    @property
    def arity(self) -> int:
        return len(self.codes)

    def __eq__(self, other):
        return (isinstance(other, Template) and self.codes == other.codes
                and _key(self.codes, self.data) == _key(other.codes, other.data))

    def __hash__(self):
        return hash((self.codes, _key(self.codes, self.data)))

    def __repr__(self):
        return "<" + ", ".join(map(_repr_field, self.codes, self.data)) + ">"


def template(*fields) -> Template:
    """Build a Template; arguments other than PatternFields are literals."""
    return Template(fields)


def match(tpl: Template, tup: Tuple) -> bool:
    """True iff the template selects the tuple.

    Arity must be equal; per position a literal requires the same tag and
    an equal value (floats and float arrays by their bytes), a type
    wildcard requires the tag, and the any-wildcard always passes.  Pure
    and total.
    """
    codes = tpl.codes
    tags = tup.tags
    if len(codes) != len(tags):
        return False
    for code, tag, want, got in zip(codes, tags, tpl.data, tup.data):
        if code == tag:
            if code == FLOAT:
                if _PACK_D(want) != _PACK_D(got):
                    return False
            elif code == FLOAT_ARRAY:
                if want.tobytes() != got.tobytes():
                    return False
            elif want != got:
                return False
        elif code != WILDCARD_BASE and code != WILDCARD_BASE + tag:
            return False
    return True


def template_of(tup: Tuple) -> Template:
    """The all-literal template of a tuple; matches its source by construction."""
    tpl = object.__new__(Template)
    tpl.codes = tup.tags
    tpl.data = tup.data
    return tpl
