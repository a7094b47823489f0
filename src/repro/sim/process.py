"""Coroutine-style process authoring over the DES kernel.

The engine's :class:`~repro.sim.engine.Process` drives generators *and*
coroutines through one resume loop (see ``Event.__await__``), so a
workload can be written as a page of linear ``async`` code instead of a
callback state machine::

    from repro.sim import Environment

    env = Environment()
    inbox = env.store(name="inbox")

    async def producer():
        for i in range(4):
            await env.sleep(1e-6)        # pooled Timeout — same fast path
            await inbox.put(i)           # Store events are awaitable

    async def consumer():
        while True:
            item = await inbox.get()
            ...

    env.process(producer)
    env.process(consumer)
    env.run()

Both styles — ``await`` and ``yield`` — may be mixed freely in one
simulation; an existing generator helper is reused from a coroutine via
:func:`drive`::

    async def node(rank):
        await drive(driver.send_message(peer, nbytes))   # == yield from

Determinism rules
-----------------
A coroutine process compiles down to the exact event machinery the
generator (and raw-callback) code paths use: ``await env.sleep(dt)``
recycles the engine's pooled :class:`~repro.sim.engine.Timeout` entries,
``await store.get()`` resolves inline when an item is ready (no heap
trip), and the resume loop subscribes to pending events with the same
``(time, priority, seq)`` total order.  Rewriting a scenario from
``yield`` to ``await`` therefore changes **zero** events — a property
pinned by ``tests/test_identities.py::test_coroutine_twin_matches_callback``
and the process-identity tests.  The rules that keep it that way:

* create events in the same order in both styles (event creation, not
  suspension, consumes sequence numbers);
* use :func:`drive` — not a child process — to inline a generator
  helper (a child process adds an ``Initialize`` event and a completion
  event);
* never rely on wall clock or global mutable state inside a body.

Interrupts
----------
``proc.interrupt(cause)`` throws :class:`~repro.errors.Interrupt` into a
suspended process at the *current* time, ahead of same-time ordinary
events.  The event it was waiting on stays pending; a process
interrupted while waiting on a ``Store``/``Container`` operation should
withdraw its claim with ``store.cancel(op)`` so a later item is not
handed to a waiter that no longer exists (see
``docs/processes.md``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from ..errors import ProcessError
from .engine import AllOf, AnyOf, Event, Process, Simulator, Timeout
from .resources import Container, Resource, Store

__all__ = ["Environment", "drive"]


class _Drive:
    """Awaitable view of an event-yielding generator (zero extra events).

    ``await drive(gen)`` is the coroutine spelling of ``yield from gen``:
    the generator itself becomes the awaitable's iterator, so every
    event it yields flows to the driving :class:`Process` unchanged and
    its ``return`` value becomes the value of the ``await`` expression.
    """

    __slots__ = ("_gen",)

    def __init__(self, gen):
        self._gen = gen

    def __await__(self):
        return self._gen


def drive(gen) -> _Drive:
    """Adapt a generator helper for ``await`` without spawning a process.

    Unlike ``env.process(gen)`` — which allocates a :class:`Process`
    plus its ``Initialize`` and completion events — ``drive`` inlines
    the generator into the awaiting process, exactly like ``yield
    from`` does in a generator body.  This is what keeps an
    ``await``-ported scenario event-for-event identical to its
    ``yield`` twin when it reuses existing generator primitives
    (driver ``send_message``/``recv_message``, ``Resource.acquire``,
    ``bus.transfer_proc``, ...).
    """
    if not hasattr(gen, "send") or not hasattr(gen, "throw"):
        raise ProcessError(f"drive() needs a generator, got {gen!r}")
    return _Drive(gen)


class Environment:
    """Process-authoring facade over a :class:`Simulator`.

    Wraps an existing simulator (``Environment(sim)``) or owns a fresh
    one (``Environment()``; ``scheduler=`` picks the queue kind).  All
    factories delegate to the engine's pooled fast paths — the facade
    adds no per-event cost, it only shortens the spelling.
    """

    __slots__ = ("sim",)

    def __init__(
        self, sim: Optional[Simulator] = None, *, scheduler: Optional[str] = None
    ):
        if sim is not None and scheduler is not None:
            raise ProcessError(
                "pass either an existing Simulator or scheduler=, not both"
            )
        self.sim = sim if sim is not None else Simulator(scheduler=scheduler)

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.sim.now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self.sim.active_process

    # -- event factories ---------------------------------------------------
    def event(self, name: str = "") -> Event:
        """A fresh pending event (``succeed``/``fail`` it from anywhere)."""
        return self.sim.event(name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing after ``delay`` seconds, holding ``value``.

        Use this form when the event is stored, composed with
        :meth:`any_of`/:meth:`all_of`, or cancelled; for anonymous
        fire-and-forget waits prefer :meth:`sleep` (pooled).
        """
        return self.sim.timeout(delay, value)

    def sleep(self, delay: float) -> Timeout:
        """A pooled ``timeout(delay)`` for ``await env.sleep(dt)``.

        Same contract as :meth:`Simulator.sleep`: the returned event
        must not be retained past its firing — awaiting (or yielding)
        it immediately is the canonical use.
        """
        return self.sim.sleep(delay)

    def process(
        self, fn: Callable | Any, *args: Any, name: str = "", **kwargs: Any
    ) -> Process:
        """Start a process from an async/generator function (or body).

        ``fn`` may be an ``async def`` function, a generator function
        (called here with ``*args``/``**kwargs``), or an
        already-created coroutine/generator object (no arguments
        allowed then).  Returns the :class:`Process`, itself awaitable.
        """
        body = fn
        if not hasattr(body, "throw") and callable(body):
            body = fn(*args, **kwargs)
        elif args or kwargs:
            raise ProcessError(
                f"arguments given with an already-created process body {fn!r}"
            )
        if not hasattr(body, "throw"):
            raise ProcessError(
                f"process body must be an async/generator function or a "
                f"coroutine/generator object, got {fn!r}"
            )
        return self.sim.process(body, name=name or getattr(fn, "__name__", ""))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: fires when every constituent has fired."""
        return self.sim.all_of(events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: fires when any constituent has fired."""
        return self.sim.any_of(events)

    # -- resource factories ------------------------------------------------
    def store(self, capacity: Optional[int] = None, name: str = "store") -> Store:
        """A FIFO :class:`Store` on this environment's simulator."""
        return Store(self.sim, capacity=capacity, name=name)

    def resource(self, capacity: int = 1, name: str = "resource") -> Resource:
        """A FIFO :class:`Resource` on this environment's simulator."""
        return Resource(self.sim, capacity=capacity, name=name)

    def container(
        self,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "container",
    ) -> Container:
        """A continuous-quantity :class:`Container` on this simulator."""
        return Container(self.sim, capacity=capacity, init=init, name=name)

    # -- execution ---------------------------------------------------------
    def run(self, until=None, max_events: Optional[int] = None) -> Any:
        """Run the simulation (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until, max_events=max_events)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none are queued."""
        return self.sim.peek()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Environment over {self.sim!r}>"
