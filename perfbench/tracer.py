"""Span tracer for the benchmark's traced run.

The tracer lives entirely in the benchmark: it never edits ``src/``.
For the duration of one traced point it *patches* the entry points of
every simulator layer with thin wrappers that record a span (name,
start, end, parent) into flat in-memory arrays, then restores the
originals.  Three kinds of boundary are wrapped:

* the explicit layer entry points in :data:`ENTRY_POINTS` -- the calls
  one layer makes into another (``HostDriver.exchange``,
  ``INICCard.receive_frame``, ``admit_train``, ...);
* every process body the kernel starts (``Simulator.process``) and
  every timed callback it schedules (``Simulator.call_after``), charged
  to the layer of the module that defines the generator or function
  (:data:`MODULE_LAYERS`) -- this is how the card's datapath loops, the
  NIC loops and the TCP sender are attributed instead of landing in
  the kernel's own time;
* each rank program handed to ``ParallelApp.run`` (the apps layer).

Generator entry points are timed per *resume*: a wrapper generator
drives the original and opens one span around each ``send``/``throw``,
so a generator's host time is the sum over its resumes, never its
creation.  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children
(:func:`self_times`).  Tracing adds no events and never changes what
the simulation computes: the traced run must reproduce the untraced
run's makespan and event count exactly, which ``run.py`` checks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: every layer a span can be charged to, in report order
LAYERS = (
    "sim",
    "hw",
    "net",
    "net.flowclock",
    "inic",
    "protocols.tcp",
    "cluster",
    "apps",
    "core",
    "faults",
)

#: explicit layer entry points: (layer, "module:Qualified.name")
ENTRY_POINTS = (
    # DES kernel and its resources/buses
    ("sim", "repro.sim.engine:Simulator.run"),
    ("sim", "repro.sim.resources:Store.put"),
    ("sim", "repro.sim.resources:Store.get"),
    ("sim", "repro.sim.resources:Resource.request"),
    ("sim", "repro.sim.resources:Resource.release"),
    ("sim", "repro.sim.bus:FCFSBus.transfer"),
    ("sim", "repro.sim.bus:FCFSBus.reserve"),
    ("sim", "repro.sim.bus:FairShareBus.transfer"),
    # host hardware
    ("hw", "repro.hw.cpu:CPU.busy"),
    ("hw", "repro.hw.cpu:CPU.steal"),
    ("hw", "repro.hw.interrupts:InterruptController.raise_irq"),
    ("hw", "repro.hw.dma:DMAEngine.transfer"),
    # frame-level fabric and NICs
    ("net", "repro.net.fabric:_AggregateUplink.send"),
    ("net", "repro.net.fabric:AggregateFabric._admit"),
    ("net", "repro.net.fabric:AggregateFabric._deliver"),
    ("net", "repro.net.topology:HierarchicalFabric._admit"),
    ("net", "repro.net.topology:HierarchicalFabric._route_deliver"),
    ("net", "repro.net.link:Wire.send"),
    ("net", "repro.net.nic:StandardNIC.transmit"),
    ("net", "repro.net.nic:StandardNIC.transmit_nowait"),
    ("net", "repro.net.nic:StandardNIC.receive_frame"),
    # bulk train admission
    ("net.flowclock", "repro.net.fabric:_AggregateUplink.send_train"),
    ("net.flowclock", "repro.net.flowclock:admit_train"),
    ("net.flowclock", "repro.net.flowclock:DeliveryBatcher.add"),
    # the INIC card
    ("inic", "repro.inic.card:INICCard.post_scatter"),
    ("inic", "repro.inic.card:INICCard.post_gather"),
    ("inic", "repro.inic.card:INICCard.receive_frame"),
    ("inic", "repro.inic.card:INICCard.receive_train"),
    ("inic", "repro.inic.card:INICCard.compute"),
    # host TCP stack
    ("protocols.tcp", "repro.protocols.tcp:TCPStack.send"),
    ("protocols.tcp", "repro.protocols.tcp:TCPStack.recv"),
    ("protocols.tcp", "repro.protocols.tcp:TCPStack._on_frame"),
    # MPI layer and collectives
    ("cluster", "repro.cluster.mpi:RankContext.send"),
    ("cluster", "repro.cluster.mpi:RankContext.recv"),
    ("cluster", "repro.cluster.mpi:RankContext.compute"),
    ("cluster", "repro.cluster.collectives:barrier"),
    ("cluster", "repro.cluster.collectives:bcast"),
    ("cluster", "repro.cluster.collectives:allgather"),
    ("cluster", "repro.cluster.collectives:alltoall"),
    ("cluster", "repro.cluster.collectives:alltoall_concurrent"),
    ("cluster", "repro.cluster.collectives:allreduce"),
    ("cluster", "repro.cluster.collectives:gather"),
    ("cluster", "repro.cluster.collectives:scatter"),
    ("cluster", "repro.cluster.collectives:reduce"),
    # functional numpy kernels of the applications
    ("apps", "repro.apps.sort.bucketsort:phase1_destination_buckets"),
    ("apps", "repro.apps.sort.countsort:count_sort"),
    ("apps", "repro.apps.fft.plans:FFTPlan.execute"),
    ("apps", "repro.apps.fft.transpose:extract_block"),
    ("apps", "repro.apps.fft.transpose:transpose_block"),
    ("apps", "repro.apps.fft.transpose:interleave_blocks"),
    ("apps", "repro.apps.fft.parallel:fft_row_pass"),
    # host driver and INIC manager
    ("core", "repro.core.driver:HostDriver.exchange"),
    ("core", "repro.core.driver:HostDriver.scatter"),
    ("core", "repro.core.driver:HostDriver.gather"),
    ("core", "repro.core.manager:INICManager.configure_all"),
    # fault injection
    ("faults", "repro.faults:WireFault.disposition"),
)

#: module prefix -> layer for kernel-dispatched process bodies and
#: callbacks (longest prefix wins; ``sim`` callbacks are the kernel's
#: own time and are left unwrapped)
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.hw": "hw",
    "repro.net": "net",
    "repro.net.flowclock": "net.flowclock",
    "repro.inic": "inic",
    "repro.protocols.inicproto": "inic",
    "repro.protocols.tcp": "protocols.tcp",
    "repro.protocols.base": "protocols.tcp",
    "repro.cluster": "cluster",
    "repro.apps": "apps",
    "repro.core": "core",
    "repro.faults": "faults",
}


def module_layer(module: str | None) -> str | None:
    """The layer that owns ``module`` (None outside the simulator)."""
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        if module == prefix or (module or "").startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    Spans are kept as parallel flat arrays (name id, parent index,
    start, end) -- 24 bytes per span -- so a million-span point stays
    cheap to hold and to write out.  Recording happens only while
    :attr:`active` is true; wrappers installed at build time stay silent
    until the traced application call starts.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        #: frames admitted by fast-path trains (``_count_train_frames``)
        self.train_frames = 0

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return sid

    # -- recording primitives ---------------------------------------------------
    def call(self, sid: int, fn, *args, **kwargs):
        """Run ``fn`` inside one span named ``sid``."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self.stack
        i = len(self.start)
        self.span_name.append(sid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = self.clock()
            stack.pop()

    def generator(self, sid: int, gen):
        """Drive ``gen``, recording one span per resume."""
        value = None
        error = None
        while True:
            try:
                if error is None:
                    item = self.call(sid, gen.send, value)
                else:
                    exc, error = error, None
                    item = self.call(sid, gen.throw, exc)
            except StopIteration as stop:
                return stop.value
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the body
                value, error = None, exc

    def wrap(self, layer: str, fn):
        """A traced stand-in for function ``fn`` (generator-aware)."""
        sid = self.name_id(layer, fn.__qualname__)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.generator(sid, fn(*args, **kwargs))

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(sid, fn, *args, **kwargs)

        traced.__perfbench__ = True
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Dump the spans (``.npz``: arrays plus the name/layer tables)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=object),
            name_layer=np.array(self.name_layer, dtype=np.int32),
            layers=np.array(LAYERS, dtype=object),
            **self.arrays(),
        )


def self_times(spans: dict[str, np.ndarray], name_layer, n_layers: int):
    """Per-layer self time and the summed root-span time.

    A span's self time is its duration minus its direct children's
    durations; a layer's self time sums that over the layer's spans.
    Returns ``(self_by_layer, root_total, min_self)`` -- ``min_self``
    below zero means a child outlived its parent (a broken stack).
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    if dur.size == 0:
        return np.zeros(n_layers), 0.0, 0.0
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    own = dur - child
    layer = np.asarray(name_layer, dtype=np.int64)[spans["name"]]
    by_layer = np.bincount(layer, weights=own, minlength=n_layers)
    return by_layer, float(dur[~nested].sum()), float(own.min())


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------
def _resolve(target: str):
    """``"pkg.mod:Cls.attr"`` -> (owner, attr name, raw attribute)."""
    module_name, qual = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Patches:
    """Installs a tracer's wrappers and restores the originals.

    Module-level functions are replaced in their defining module *and*
    in every loaded ``repro`` module that imported them by name.
    Entry points that no longer exist are skipped and listed in
    :attr:`missing`, so the benchmark keeps running across refactors.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Patches":
        tracer = self.tracer
        for layer, target in ENTRY_POINTS:
            try:
                owner, attr, raw = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            if isinstance(owner, type):
                self._set(owner, attr, tracer.wrap(layer, raw))
                continue
            traced = tracer.wrap(layer, raw)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "repro" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, traced)
        self._patch_kernel()
        self._count_train_frames()
        return self

    def _patch_kernel(self) -> None:
        """Charge process bodies, timed callbacks and rank programs to
        the layer of the code that defines them."""
        from repro.cluster.app import ParallelApp
        from repro.sim.engine import Simulator

        tracer = self.tracer
        ids: dict[object, int | None] = {}

        def callback_id(fn):
            code = getattr(fn, "__func__", fn)
            if code in ids:
                return ids[code]
            layer = None
            if not getattr(code, "__perfbench__", False):
                layer = module_layer(getattr(code, "__module__", None))
            sid = None
            if layer is not None and layer != "sim":
                sid = tracer.name_id(layer, getattr(code, "__qualname__", repr(code)))
            ids[code] = sid
            return sid

        process = Simulator.process
        call_after = Simulator.call_after
        run_app = ParallelApp.run

        def traced_process(sim, generator, name=""):
            if inspect.isgenerator(generator) and generator.gi_frame is not None:
                layer = module_layer(generator.gi_frame.f_globals.get("__name__"))
                if layer is not None and layer != "sim":
                    sid = tracer.name_id(layer, generator.__qualname__)
                    wrapped = tracer.generator(sid, generator)
                    wrapped.__name__ = generator.__name__
                    generator = wrapped
            return process(sim, generator, name)

        def traced_call_after(sim, delay, fn, *args):
            sid = callback_id(fn)
            if sid is not None:
                return call_after(sim, delay, tracer.call, sid, fn, *args)
            return call_after(sim, delay, fn, *args)

        def traced_run(app, rank_program, max_events=None):
            sid = tracer.name_id("apps", rank_program.__qualname__)

            def program(ctx):
                return tracer.generator(sid, rank_program(ctx))

            return run_app(app, program, max_events)

        self._set(Simulator, "process", traced_process)
        self._set(Simulator, "call_after", traced_call_after)
        self._set(ParallelApp, "run", traced_run)

    def _count_train_frames(self) -> None:
        """Count the frames each fast-path train admits (the numerator
        of ``net.train_frame_ratio``), at the flow clock's boundary."""
        from repro.net import flowclock

        tracer = self.tracer
        admit = flowclock.admit_train

        def counted(fabric, uplink, frames, times):
            before = fabric.trains_fast
            out = admit(fabric, uplink, frames, times)
            if fabric.trains_fast != before:
                tracer.train_frames += sum(f.frame_count for f in frames)
            return out

        self._set(flowclock, "admit_train", counted)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
