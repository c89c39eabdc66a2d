"""Distributed tuple-space middleware with pluggable distributed search.

Core surface:

* tuples      -- values, tuples, templates and the matching relation
* store       -- LocalSpace: indexed multiset with blocking read/take
* wire        -- binary codec and framing
* server / client -- serve a LocalSpace over TCP / RemoteSpace handle
* search      -- sequential, success-factor and broadcast-notify lookup
* profiler    -- labeled timers and counters with CSV dumps and aggregation
* bench       -- master-worker benchmark cases and the orchestration harness
"""

from .client import NodeAddress, RemoteSpace
from .errors import (
    AddressInUse,
    ConnectionLost,
    DeadlineExceeded,
    MalformedFrame,
    ParseError,
    PayloadTooLarge,
    RemoteOpError,
    SpaceTimeout,
    TupleSpaceError,
    Unreachable,
    VersionMismatch,
    WaiterCancelled,
)
from .search import (
    PeerDirectory,
    SearchOutcome,
    SuccessStats,
    search_notify,
    search_sequential,
    search_success_factor,
)
from .store import LocalSpace
from .server import SpaceServer
from .tuples import (
    ANY,
    BYTES,
    FLOAT,
    FLOAT_ARRAY,
    INT,
    INT_ARRAY,
    STR,
    PatternField,
    Template,
    Tuple,
    Value,
    float_array,
    int_array,
    lit,
    make_tuple,
    match,
    template,
    template_of,
    wildcard,
)

__version__ = "0.1.0"

__all__ = [
    "ANY",
    "AddressInUse",
    "BYTES",
    "ConnectionLost",
    "DeadlineExceeded",
    "FLOAT",
    "FLOAT_ARRAY",
    "INT",
    "INT_ARRAY",
    "LocalSpace",
    "MalformedFrame",
    "NodeAddress",
    "ParseError",
    "PatternField",
    "PayloadTooLarge",
    "PeerDirectory",
    "RemoteOpError",
    "RemoteSpace",
    "STR",
    "SearchOutcome",
    "SpaceServer",
    "SpaceTimeout",
    "SuccessStats",
    "Template",
    "Tuple",
    "TupleSpaceError",
    "Unreachable",
    "Value",
    "VersionMismatch",
    "WaiterCancelled",
    "float_array",
    "int_array",
    "lit",
    "make_tuple",
    "match",
    "search_notify",
    "search_sequential",
    "search_success_factor",
    "template",
    "template_of",
    "wildcard",
]
