"""Thread-safe local tuple store with indexed lookup and blocking waiters.

Layout mirrors a hash table of buckets: a tuple lands in the bucket keyed by
(arity, first field) when its first field is a string, else (arity, None).
A bucket holds its entries in a dict keyed by global insertion stamp, so
iteration is stamp order and removal is O(1).  Selection across buckets is
by stamp too, so every probe returns the oldest match (FIFO).  That tie-break
is a determinism choice: it makes the brute-force scan oracle exact.

Each bucket keeps postings per position: for a position p >= 1 it maps each
int, str or bytes value held there to the ascending stamps of the entries
holding it.  Position 1 is indexed from the bucket's first out; a position
from 2 up is indexed the first time a probe (rdp, inp, count or a waiter's
registration) brings a template with such a literal there, in one pass over
the entries in stamp order, and add/remove keep it current until the bucket
empties and is dropped.  A probe walks the shortest posting list among its
template's indexable literals, and finds nothing at once when one of them
has no list.  A template with no such literal (a wildcard, float or array
at every position after the head) scans the whole bucket.  A template with
a literal string head looks in that one bucket; any other head scans every
bucket of its arity.  Every candidate is still checked with ``match``, so a
posting never decides a match on its own.

Everything that waits for a tuple registers a waiter with a callback.  The
waiter's state changes once, under the lock (satisfied at registration, by
a later out, or cancelled), and then its callback runs once, outside the
lock.  A blocking rd/in_ is such a waiter whose callback sets an event the
caller parks on; no lock is held while parked, so an out on any bucket
always proceeds.  Parked waiters sit in one dict keyed by registration
order (O(1) cancel).  An out checks each of them: it completes every
matching non-destructive waiter and then at most one destructive waiter
(the oldest registered), which consumes the tuple before it ever becomes
visible to probes.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from .errors import SpaceTimeout, WaiterCancelled
from .tuples import BYTES, INT, LITERAL, STR, Template, Tuple, match

# Waiter states.
_PENDING = 0
_SATISFIED = 1
_CANCELLED = 2

# Tags the postings key on.  Floats and arrays stay out: NaN and -0.0 defeat a
# lookup by raw value, and hashing arrays would tax every out.
_INDEXED_TAGS = frozenset((INT, STR, BYTES))


class Waiter:
    """A registered wait for a tuple.  Its state changes exactly once, under
    the space lock; its callback then runs once, outside the lock."""

    __slots__ = ("template", "destructive", "state", "result", "on_complete", "order")

    def __init__(self, template: Template, destructive: bool,
                 on_complete: Optional[Callable[["Waiter"], None]], order: int):
        self.template = template
        self.destructive = destructive
        self.state = _PENDING
        self.result: Optional[Tuple] = None
        self.on_complete = on_complete
        self.order = order

    @property
    def satisfied(self) -> bool:
        return self.state == _SATISFIED


class _Bucket:
    """One (arity, head) bucket: its entries and their postings by position.

    ``postings[p]`` maps each int, str or bytes value at position p to the
    ascending stamps of the entries holding it, or is None while p is not
    indexed yet.  ``add`` walks ``indexed`` rather than ``postings``, so an
    out pays only for the positions indexed so far.
    """

    __slots__ = ("entries", "postings", "indexed")

    def __init__(self, arity: int):
        self.entries: dict[int, Tuple] = {}  # stamp -> tuple, in stamp order
        self.postings: list[Optional[dict]] = [None] * arity
        self.indexed: list[tuple[int, dict]] = []  # (p, postings[p]) per indexed p
        if arity > 1:
            self._index(1)

    def add(self, stamp: int, tup: Tuple) -> None:
        self.entries[stamp] = tup
        fields = tup.fields
        for pos, postings in self.indexed:
            f = fields[pos]
            if f.tag in _INDEXED_TAGS:
                stamps = postings.get(f.data)
                if stamps is None:
                    postings[f.data] = [stamp]
                else:
                    stamps.append(stamp)

    def remove(self, stamp: int) -> None:
        fields = self.entries.pop(stamp).fields
        for pos, postings in self.indexed:
            f = fields[pos]
            if f.tag in _INDEXED_TAGS:
                stamps = postings[f.data]
                if len(stamps) == 1:
                    del postings[f.data]
                else:
                    stamps.remove(stamp)

    def _index(self, pos: int) -> dict:
        """Build position ``pos``'s postings: one pass in stamp order."""
        postings: dict = {}
        for stamp, tup in self.entries.items():
            f = tup.fields[pos]
            if f.tag in _INDEXED_TAGS:
                postings.setdefault(f.data, []).append(stamp)
        self.postings[pos] = postings
        self.indexed.append((pos, postings))
        return postings

    def stamps_for(self, tpl: Template):
        """The shortest posting list among the template's indexable literals
        (empty when one of them has none), or None when it has no such
        literal and every entry is a candidate."""
        fields = tpl.fields
        best = None
        for pos in range(1, len(fields)):
            f = fields[pos]
            if f.kind != LITERAL or f.tag not in _INDEXED_TAGS:
                continue
            postings = self.postings[pos]
            if postings is None:
                postings = self._index(pos)
            stamps = postings.get(f.value.data)
            if stamps is None:
                return ()
            if best is None or len(stamps) < len(best):
                best = stamps
        return best

    def first_match(self, tpl: Template):
        """Oldest (stamp, tuple) the template matches, or None."""
        stamps = self.stamps_for(tpl)
        if stamps is None:
            for stamp, tup in self.entries.items():
                if match(tpl, tup):
                    return stamp, tup
            return None
        entries = self.entries
        for stamp in stamps:
            tup = entries[stamp]
            if match(tpl, tup):
                return stamp, tup
        return None

    def count(self, tpl: Template) -> int:
        stamps = self.stamps_for(tpl)
        if stamps is None:
            return sum(1 for tup in self.entries.values() if match(tpl, tup))
        entries = self.entries
        return sum(1 for s in stamps if match(tpl, entries[s]))


class LocalSpace:
    """An indexed concurrent multiset of tuples with blocking read/take."""

    def __init__(self, name: str = "local"):
        self.name = name
        self._lock = threading.Lock()
        self._buckets: dict[tuple, _Bucket] = {}
        self._waiters: dict[int, Waiter] = {}  # Waiter.order -> parked waiter
        self._stamp = 0
        self._order = 0

    # -- indexing ---------------------------------------------------------

    @staticmethod
    def bucket_key(tup: Tuple) -> tuple:
        first = tup.fields[0]
        head = first.data if first.tag == STR else None
        return (tup.arity, head)

    def _candidate_keys(self, tpl: Template) -> list:
        ar = tpl.arity
        first = tpl.fields[0]
        if first.kind == LITERAL and first.tag == STR:
            # Only tuples with this string head can match a string literal.
            key = (ar, first.value.data)
            return [key] if key in self._buckets else []
        return [k for k in self._buckets if k[0] == ar]

    def _find_earliest(self, tpl: Template):
        """Earliest matching (stamp, key, tuple) or None.  Lock held."""
        best = None
        for key in self._candidate_keys(tpl):
            found = self._buckets[key].first_match(tpl)
            if found is not None and (best is None or found[0] < best[0]):
                best = (found[0], key, found[1])
        return best

    def _remove(self, key, stamp):
        bucket = self._buckets[key]
        bucket.remove(stamp)
        if not bucket.entries:
            del self._buckets[key]

    def _take_waiters(self, tup: Tuple) -> tuple[list[Waiter], bool]:
        """Deregister and satisfy the waiters an out of ``tup`` completes:
        every matching reader, then the oldest matching taker.  Returns them
        in that order and whether a taker consumed the tuple.  Lock held."""
        done: list[Waiter] = []
        taker: Optional[Waiter] = None
        for w in self._waiters.values():  # registration order
            if match(w.template, tup):
                if not w.destructive:
                    done.append(w)
                elif taker is None:
                    taker = w
        if taker is not None:
            done.append(taker)
        for w in done:
            del self._waiters[w.order]
            w.state = _SATISFIED
            w.result = tup
        return done, taker is not None

    # -- operations -------------------------------------------------------

    def out(self, tup: Tuple) -> None:
        """Insert a tuple, waking exactly the waiters it can satisfy."""
        if not isinstance(tup, Tuple):
            raise TypeError("out expects a Tuple")
        to_complete: list[Waiter] = []
        consumed = False
        with self._lock:
            self._stamp += 1
            if self._waiters:
                to_complete, consumed = self._take_waiters(tup)
            if not consumed:
                key = self.bucket_key(tup)
                bucket = self._buckets.get(key)
                if bucket is None:
                    bucket = self._buckets[key] = _Bucket(tup.arity)
                bucket.add(self._stamp, tup)
        for w in to_complete:
            if w.on_complete is not None:
                w.on_complete(w)

    def rdp(self, tpl: Template) -> Optional[Tuple]:
        """Non-blocking read probe: oldest match or None; store unchanged."""
        with self._lock:
            found = self._find_earliest(tpl)
            return found[2] if found else None

    def inp(self, tpl: Template) -> Optional[Tuple]:
        """Non-blocking take probe: atomically remove and return oldest match."""
        with self._lock:
            found = self._find_earliest(tpl)
            if found is None:
                return None
            stamp, key, tup = found
            self._remove(key, stamp)
            return tup

    def count(self, tpl: Template) -> int:
        with self._lock:
            buckets = self._buckets
            return sum(buckets[key].count(tpl) for key in self._candidate_keys(tpl))

    def register_waiter(self, tpl: Template, destructive: bool,
                        on_complete: Optional[Callable[[Waiter], None]] = None) -> Waiter:
        """Atomically probe-or-park.

        If a match is already stored the returned waiter comes back satisfied
        (and the tuple removed when destructive); otherwise it is registered
        and will be completed by a future out, a cancel, or never.  Either
        way ``on_complete`` runs once the waiter's state is final, before
        this returns when the match was already stored.
        """
        with self._lock:
            self._order += 1
            w = Waiter(tpl, destructive, on_complete, self._order)
            found = self._find_earliest(tpl)
            if found is not None:
                stamp, key, tup = found
                if destructive:
                    self._remove(key, stamp)
                w.state = _SATISFIED
                w.result = tup
            else:
                self._waiters[w.order] = w
        if w.state == _SATISFIED and on_complete is not None:
            on_complete(w)
        return w

    def cancel_waiter(self, w: Waiter) -> bool:
        """Deregister a pending waiter and run its callback.  False means it
        was already satisfied or cancelled (a satisfied taker's tuple, already
        consumed, must still be delivered)."""
        with self._lock:
            if w.state != _PENDING:
                return False
            w.state = _CANCELLED
            del self._waiters[w.order]
        if w.on_complete is not None:
            w.on_complete(w)
        return True

    def rd(self, tpl: Template, timeout: float | None = None) -> Tuple:
        """Blocking read: returns a match as soon as one exists; store unchanged."""
        return self._blocking(tpl, destructive=False, timeout=timeout)

    def in_(self, tpl: Template, timeout: float | None = None) -> Tuple:
        """Blocking take: as rd but the returned tuple is atomically removed."""
        return self._blocking(tpl, destructive=True, timeout=timeout)

    def _blocking(self, tpl: Template, destructive: bool, timeout: float | None) -> Tuple:
        done = threading.Event()
        w = self.register_waiter(tpl, destructive, lambda _: done.set())
        if not done.wait(timeout) and self.cancel_waiter(w):
            raise SpaceTimeout(f"no match within {timeout!r}s on space {self.name!r}")
        if w.state == _SATISFIED:
            # Also when the cancel lost the race: a taker satisfied meanwhile
            # consumed the tuple, so it must be delivered, not dropped.
            return w.result
        raise WaiterCancelled(f"blocking op on {self.name!r} cancelled")

    # -- diagnostics (tests and tooling) -----------------------------------

    def size(self) -> int:
        with self._lock:
            return sum(len(b.entries) for b in self._buckets.values())

    def snapshot(self) -> list[Tuple]:
        """All stored tuples in global stamp order (diagnostic copy)."""
        with self._lock:
            entries = [e for b in self._buckets.values() for e in b.entries.items()]
        entries.sort(key=lambda e: e[0])
        return [t for _, t in entries]

    def pending_waiter_count(self) -> int:
        with self._lock:
            return len(self._waiters)

    def check_wakeup_completeness(self) -> bool:
        """At quiescence no registered waiter may match a stored tuple."""
        with self._lock:
            # A full bucket scan, so the check does not trust the postings.
            for w in self._waiters.values():
                for key in self._candidate_keys(w.template):
                    for tup in self._buckets[key].entries.values():
                        if match(w.template, tup):
                            return False
            return True
