"""Event schedulers for the DES kernel: one contract, two implementations.

The simulator orders events by the unique key ``(time, priority, seq)``
— ``seq`` is a monotone counter, so the order is a *total* order and any
correct priority queue yields the exact same pop sequence.  That is the
contract every scheduler here honours, which is what keeps
``results/fig*.csv`` byte-identical regardless of the scheduler chosen
(pinned by ``tests/test_identities.py::test_scheduler_trace_matches_heap``).

The contract is five methods: ``push(when, prio, seq, item) -> entry``,
``cancel(entry)``, ``pop() -> entry | None``, ``peek_time()``, and
``stats()``, plus ``len()`` (live entries).  Entries are 5-element
mutable lists::

    [when, prio, seq, item, owner]

``item`` is the payload (an ``Event`` or ``_Callback``); cancellation
tombstones an entry in place (``item = None``) and the heap drops dead
entries lazily when they surface.  List comparison never reaches index
3 because ``seq`` is unique.

Two implementations:

* ``"native"`` (the default) — ``repro.sim._csched.NativeScheduler``, a
  C binary heap that caches each entry's ``(when, prio, seq)`` key in a
  C struct so every comparison is three scalar compares with no
  interpreter involvement.  The extension is optional — built via
  ``python setup.py build_ext --inplace`` — and when it is absent the
  ``"native"`` kind serves :class:`HeapScheduler` instead, whose
  ``stats()`` reports ``compiled: False``.
* ``"heap"`` — :class:`HeapScheduler`, the reference ``heapq``
  implementation the A/B harness diffs the compiled heap against.

Either way the pop stream is identical, so the choice never changes a
schedule.
"""

from __future__ import annotations

from heapq import heappop, heappush

try:  # optional compiled backend (python setup.py build_ext --inplace)
    from . import _csched
except ImportError:  # no compiler / wheel built without the extension
    _csched = None

__all__ = [
    "HeapScheduler",
    "make_scheduler",
    "native_available",
    "SCHEDULER_KINDS",
]


class HeapScheduler:
    """Reference scheduler: one binary heap, lazy deletion."""

    kind = "heap"
    __slots__ = ("_heap", "_live", "cancels", "_peak")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._live = 0
        self.cancels = 0
        self._peak = 0  # high-water physical size, tombstones included

    def __len__(self) -> int:
        return self._live

    def push(self, when: float, prio: int, seq: int, item) -> list:
        entry = [when, prio, seq, item, self]
        heap = self._heap
        heappush(heap, entry)
        self._live += 1
        if len(heap) > self._peak:
            self._peak = len(heap)
        return entry

    def cancel(self, entry: list) -> None:
        entry[3] = None
        self._live -= 1
        self.cancels += 1

    def pop(self):
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[3] is not None:
                self._live -= 1
                return entry
        return None

    def peek_time(self):
        heap = self._heap
        while heap:
            if heap[0][3] is not None:
                return heap[0][0]
            heappop(heap)
        return None

    def stats(self) -> dict:
        """Same keys as the compiled heap's ``stats()``."""
        return {
            "kind": self.kind,
            "compiled": False,
            "live": self._live,
            "cancels": self.cancels,
            "pending": len(self._heap),
            "peak": self._peak,
        }


SCHEDULER_KINDS = ("native", "heap")


def native_available() -> bool:
    """True when the compiled ``repro.sim._csched`` extension is importable
    (``make_scheduler("native")`` then returns the C heap)."""
    return _csched is not None


def make_scheduler(kind: str):
    """Build a scheduler by kind name.

    ``"native"`` (the default) is the compiled C heap, or a
    :class:`HeapScheduler` when the extension is unavailable; ``"heap"``
    is always the reference :class:`HeapScheduler`.  Unknown kinds raise
    :class:`ValueError` naming every valid choice.
    """
    if kind == "native":
        if _csched is not None:
            return _csched.NativeScheduler()
        return HeapScheduler()
    if kind == "heap":
        return HeapScheduler()
    raise ValueError(
        f"unknown scheduler kind {kind!r} (choose from {', '.join(SCHEDULER_KINDS)})"
    )
