"""Outside-in tracing: timing wrappers on the layer boundaries, spans,
per-layer self time, Chrome trace export and the one counter
aggregation.

The wrappers are installed from outside the program and removed after
the traced run:

* class attributes (``DOpenCLAPI.cl*``, ``TransferPlanner`` methods,
  ``Message`` encoders, ``GCFProcess`` transport methods, ...);
* names at the module that looks them up (``compile_program`` in the
  client API and in ``repro.ocl.program``, ``clc_execute`` in
  ``repro.ocl.queue``, the codec functions in ``repro.net.messages``);
* per-instance handler tables of each daemon's GCF process, wrapped right
  after deploy.

A span records its layer, boundary name, start, end, parent span and
trace id (the root span of its call stack, normally the enclosing
top-level ``cl*`` call).  A span's self time is its duration minus the
durations of its direct children.  Self time, call counts and total
durations are accumulated as spans close; only the first
:data:`SPAN_CAP` spans are kept for the Chrome trace.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.client.api as client_api
import repro.net.messages as messages
import repro.ocl.program as ocl_program
import repro.ocl.queue as ocl_queue
from repro.core.client.api import DOpenCLAPI
from repro.core.coherence.planner import TransferPlanner
from repro.net.gcf import GCFProcess
from repro.net.messages import Message, ReplyCache, WireDecodeCache
from repro.net.network import Network
from repro.ocl.program import Program
from repro.ocl.queue import CommandQueue
from repro.sim.timeline import Timeline

#: Spans kept in memory for the Chrome trace (the aggregates cover all).
SPAN_CAP = 50_000

#: Layers in report order.  ``hw`` is virtual-only (no wrapped boundary).
LAYERS = ("client", "coherence", "wire", "net", "daemon", "ocl", "clc", "sim")

#: GCF handler tables wrapped on every daemon.
HANDLER_TABLES = (
    "_request_handlers",
    "_notification_handlers",
    "_bulk_sink_handlers",
    "_bulk_source_handlers",
)


def _public_functions(cls, predicate=lambda name: not name.startswith("_")) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if predicate(name) and callable(value) and not isinstance(value, (property, type))
    ]


#: ``(layer, owner, attribute names)``: the class- and module-level
#: boundaries.  The owner is a class or a module.
BOUNDARIES: List[Tuple[str, object, List[str]]] = [
    ("client", DOpenCLAPI, _public_functions(DOpenCLAPI, lambda n: n.startswith("cl"))),
    ("coherence", TransferPlanner, _public_functions(TransferPlanner)),
    ("wire", Message, ["to_payload", "to_wire", "cached_wire", "wire_size", "from_wire"]),
    ("wire", WireDecodeCache, ["decode"]),
    ("wire", ReplyCache, ["encode"]),
    ("wire", messages, ["encode", "decode", "encoded_size"]),
    ("net", GCFProcess, ["request", "request_batch", "notify", "stream", "send_bulk", "fetch_bulk"]),
    ("net", Network, ["transfer"]),
    ("ocl", CommandQueue, [n for n in _public_functions(CommandQueue) if n.startswith("enqueue_")] + ["finish"]),
    ("ocl", Program, ["build"]),
    ("clc", client_api, ["compile_program"]),
    ("clc", ocl_program, ["compile_program"]),
    ("clc", ocl_queue, ["clc_execute"]),
    ("sim", Timeline, ["allocate", "reserve"]),
]


def _owner_name(owner) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


def boundary_groups() -> List[Tuple[str, str]]:
    """``(layer, key prefix)`` of every wrapped owner: each class,
    module lookup site and the daemons' handler tables."""
    groups = [(layer, f"{layer}:{_owner_name(owner)}.") for layer, owner, _ in BOUNDARIES]
    return groups + [("daemon", "daemon:")]


class Tracer:
    """Span recorder and wrapper installer for one traced run."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        self._next_id = 0
        #: Per boundary ``"layer:name"``: calls, total and self seconds.
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Summed durations of root spans (spans with no traced parent).
        self.root_s = 0.0
        #: Sum of ``ExecutionStats.ops`` returned by kernel executions.
        self.kernel_ops = 0.0
        #: Closed spans ``(key, start, end, span id, parent id, trace id)``.
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        #: ``(owner, name, original)`` of every replaced attribute; the
        #: owner is a class, a module or a daemon's handler table.
        self._originals: List[Tuple[object, object, object]] = []

    # -- spans ---------------------------------------------------------
    def _wrap(self, key: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [perf_counter(), 0.0, span_id, parent[2] if parent else -1,
                     parent[4] if parent else span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                self.calls[key] += 1
                self.total_s[key] += duration
                self.self_s[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((key, frame[0], end, span_id, frame[3], frame[4]))
                else:
                    self.spans_dropped += 1
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------
    def _replace(self, owner, name, value) -> None:
        if isinstance(owner, dict):
            self._originals.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._originals.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every class- and module-level boundary."""
        for layer, owner, names in BOUNDARIES:
            for name in names:
                key = f"{layer}:{_owner_name(owner)}.{name}"
                raw = vars(owner)[name]
                observe = self._count_ops if name == "clc_execute" else None
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(key, raw.__func__, observe))
                elif isinstance(raw, property):
                    wrapped = property(self._wrap(key, raw.fget, observe))
                else:
                    wrapped = self._wrap(key, raw, observe)
                self._replace(owner, name, wrapped)

    def _count_ops(self, stats) -> None:
        self.kernel_ops += stats.ops

    def wrap_daemons(self, deployment) -> None:
        """Wrap the handlers each daemon registered in its GCF tables."""
        for daemon in deployment.daemons:
            for table_name in HANDLER_TABLES:
                table = getattr(daemon.gcf, table_name)
                for msg_cls, handler in list(table.items()):
                    key = f"daemon:{table_name.strip('_')}.{msg_cls.__name__}"
                    self._replace(table, msg_cls, self._wrap(key, handler))

    def uninstall(self) -> None:
        """Put every original object back (newest first)."""
        for owner, name, original in reversed(self._originals):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def restored(self) -> List[str]:
        """Wrapped attributes that are not the original object again."""
        bad = []
        for owner, name, original in self._originals:
            current = owner[name] if isinstance(owner, dict) else vars(owner).get(name)
            if current is not original:
                bad.append(f"{owner!r:.40}.{name}")
        return bad

    # -- reports -------------------------------------------------------
    def layer_sum(self, table: Dict[str, float], layer: str) -> float:
        return sum(v for k, v in table.items() if k.split(":", 1)[0] == layer)

    def calls_with_prefix(self, prefix: str) -> int:
        """Calls recorded by boundaries whose key starts with ``prefix``
        (``"net:"`` for a layer, ``"net:Network."`` for one owner)."""
        return sum(n for k, n in self.calls.items() if k.startswith(prefix))

    def write_chrome(self, path: str, t0: float, summary: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON (complete
        ``"X"`` events on one thread, microseconds since ``t0``), which
        Perfetto and chrome://tracing load; ``summary`` rides along as
        trace metadata."""
        events = []
        for key, start, end, span_id, parent, trace_id in self.spans:
            layer, name = key.split(":", 1)
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent, "trace": trace_id},
            })
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "metadata": summary}, fh
            )


def aggregate(session) -> Dict[str, float]:
    """Every counter and virtual busy time of a finished session, read
    once from the program's own surfaces: ``NetStats.snapshot()`` of each
    client driver (``client.*``) and daemon (``daemon.*``), and
    ``Timeline.busy_time`` of devices, PCIe buses, NIC tx/rx and daemon
    CPUs.  Utilisations are busy time over ``[0, end)``, where ``end``
    is the latest virtual time any client clock or timeline reached."""
    deployment = session.deployment
    out: Dict[str, float] = defaultdict(int)
    for prefix, processes in (
        ("client", [driver.gcf for driver in deployment.drivers]),
        ("daemon", [daemon.gcf for daemon in deployment.daemons]),
    ):
        for process in processes:
            for name, value in process.stats.snapshot().items():
                out[f"{prefix}.{name}"] += value
    hosts = session.cluster.hosts
    timelines = {
        "device": [dev.timeline for host in hosts for dev in host.devices],
        "pcie": [host.pcie.timeline for host in hosts],
        "nic": [side for host in hosts for side in (host.nic.tx, host.nic.rx)],
        "cpu": [daemon.gcf.cpu for daemon in deployment.daemons],
    }
    end = max(
        [probe.now for probe in session.probes]
        + [tl.busy_until for group in timelines.values() for tl in group]
    )
    out["virt_end_s"] = end
    for group, lines in timelines.items():
        busy = [tl.busy_time() for tl in lines]
        out[f"{group}.busy_virt_s"] = sum(busy)
        out[f"{group}.util_max"] = max(busy) / end if end > 0 else 0.0
    return dict(out)


def fingerprint(session) -> tuple:
    """Everything a traced run must reproduce exactly: the virtual
    metrics, every latency sample and the whole :func:`aggregate`."""
    return (
        session.virt_setup_s,
        session.virt_makespan_s,
        tuple(session.sync_samples),
        tuple(sorted(aggregate(session).items())),
    )
