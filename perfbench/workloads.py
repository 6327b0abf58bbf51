"""The benchmark's three workloads: ``stream``, ``tenants`` and ``osem``.

Every workload is a closed loop (each caller waits for its reply) over
the default dOpenCL pipeline: ``deploy_dopencl(cluster, n_clients=...)``
with no pipeline flag (``osem`` also sets the cost model's
``workload_scale``, see :data:`OSEM_WORKLOAD_SCALE`).  A workload object
is built from ``(seed, seconds)``; the constructor draws every input from
the seed, so the program only ever receives generated inputs and the same
``(seed, seconds)`` replays every virtual-time number and counter exactly.

Life cycle, driven by ``run.py``:

* ``setup(on_deploy)`` deploys a fresh cluster and runs everything up to
  the last set-up sync point; it returns a :class:`Session`.
  ``on_deploy(deployment)`` is called right after ``deploy_dopencl`` and
  before the first ``cl*`` call (the tracer wraps daemon handler tables
  there).
* ``run(session)`` is the timed phase: ``n_units`` units, each counted
  failed when a ``cl*`` call raises.
* ``check(session)`` compares the outputs with host references and
  returns the number of failed units.  It runs after the timed phase and
  after peak RSS is read.
* ``native_makespan()`` (``stream`` and ``osem``) runs the same timed
  phase on a native single-node OpenCL and returns its virtual makespan.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.apps.mandelbrot import MANDELBROT_KERNEL, MandelbrotConfig, mandelbrot_reference
from repro.apps.osem import ListModeOSEM, disk_phantom, generate_events
from repro.hw.cluster import (
    make_desktop_and_gpu_server,
    make_ib_cpu_cluster,
    make_multi_client_gpu_server,
)
from repro.hw.specs import GIGABIT_ETHERNET
from repro.ocl.constants import (
    CL_DEVICE_TYPE_GPU,
    CL_MEM_READ_WRITE,
    CL_MEM_WRITE_ONLY,
)
from repro.testbed import deploy_dopencl, native_api_on


class SyncProbe:
    """Proxy over a ``cl*`` API object that, while ``recording``, sums
    the virtual time spent in blocking calls (``clFinish``,
    ``clWaitForEvents``, blocking reads and writes); :meth:`close_round`
    turns the sum into one latency sample.  Every other attribute passes
    through unchanged."""

    def __init__(self, api) -> None:
        self._api = api
        self.recording = False
        self.samples: List[float] = []
        self.sync_points = 0
        self._blocked = 0.0

    def __getattr__(self, name):
        return getattr(self._api, name)

    def _timed(self, call, *args, **kwargs):
        start = self._api.now
        result = call(*args, **kwargs)
        if self.recording:
            self._blocked += self._api.now - start
            self.sync_points += 1
        return result

    def close_round(self) -> None:
        """End one closed-loop round: record its summed sync wait."""
        self.samples.append(self._blocked)
        self._blocked = 0.0

    def clFinish(self, queue):
        return self._timed(self._api.clFinish, queue)

    def clWaitForEvents(self, events):
        return self._timed(self._api.clWaitForEvents, events)

    def clEnqueueReadBuffer(self, queue, buffer, blocking=True, *args, **kwargs):
        if not blocking:
            return self._api.clEnqueueReadBuffer(queue, buffer, False, *args, **kwargs)
        return self._timed(self._api.clEnqueueReadBuffer, queue, buffer, True, *args, **kwargs)

    def clEnqueueWriteBuffer(self, queue, buffer, blocking, *args, **kwargs):
        if not blocking:
            return self._api.clEnqueueWriteBuffer(queue, buffer, False, *args, **kwargs)
        return self._timed(self._api.clEnqueueWriteBuffer, queue, buffer, True, *args, **kwargs)


@dataclass
class Session:
    """One deployed, set-up instance of a workload."""

    cluster: object
    deployment: object
    probes: List[SyncProbe]
    state: Dict[str, object] = field(default_factory=dict)
    #: Virtual time of each probe's clock when the timed phase began
    #: and ended.
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    failed: int = 0

    @property
    def virt_setup_s(self) -> float:
        return max(self.starts)

    @property
    def virt_makespan_s(self) -> float:
        return max(end - start for start, end in zip(self.starts, self.ends))

    @property
    def sync_samples(self) -> List[float]:
        return [s for probe in self.probes for s in probe.samples]

    @property
    def sync_points(self) -> int:
        return sum(probe.sync_points for probe in self.probes)

    def begin_timed(self) -> None:
        self.starts = [probe.now for probe in self.probes]
        for probe in self.probes:
            probe.recording = True

    def end_timed(self) -> None:
        self.ends = [probe.now for probe in self.probes]
        for probe in self.probes:
            probe.recording = False

    def unit_failed(self, what: str) -> None:
        """Count one failed unit; the first failure's traceback goes to
        stderr."""
        if self.failed == 0:
            print(f"first failure in {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        self.failed += 1


def _reraise(what: str) -> None:
    """Error callback for runs that must not fail (native references):
    re-raise the exception being handled."""
    raise


def _sized(seconds: float, units_per_second: float, multiple: int, floor: int) -> int:
    """Units a run of ``seconds`` performs: the workload's nominal
    rate times the run length, rounded up to ``multiple`` and at least
    ``floor``.  The count depends only on the arguments, never on how
    fast this run happens to go, so virtual metrics stay reproducible."""
    n = max(floor, math.ceil(seconds * units_per_second))
    return multiple * math.ceil(n / multiple)


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------

#: Frame raster and iteration ceiling.  A 48 KiB frame's readback over
#: Gigabit Ethernet costs about as much virtual time as a kernel of
#: ~2M Mandelbrot iterations, so the cost ladder below spans both
#: transfer-bound and compute-bound frames.
STREAM_WIDTH, STREAM_HEIGHT, STREAM_MAX_ITER = 128, 96, 400

#: Distinct viewports per seed; frames cycle through them in seeded
#: order, so host references are computed once per viewport.
STREAM_VIEWPORTS = 32

#: Kernel-cost ladder (total Mandelbrot iterations per frame, log
#: spaced).  Each seed draws one viewport per rung, so every seed has
#: the same mix of transfer-bound and compute-bound frames while the
#: viewports themselves differ.
STREAM_COST_LADDER = np.geomspace(2.5e5, 4.2e6, STREAM_VIEWPORTS)

#: Viewport half-width range.  The lower end keeps a pixel step of
#: ~130 float32 ulps at |c| = 2, so float32 still resolves the frame.
STREAM_MIN_HALF_WIDTH, STREAM_MAX_HALF_WIDTH = 2e-3, 0.25

#: Nominal frames per wall-clock second on a 2-core x86 VM; sizes the run (see :func:`_sized`).
STREAM_RATE = 17.0


def _escape_counts(c: np.ndarray, max_iter: int) -> np.ndarray:
    """Float64 escape iteration of every point of ``c`` (``max_iter``
    for points that never escape)."""
    z = np.zeros_like(c)
    counts = np.zeros(c.shape, dtype=np.int64)
    alive = np.ones(c.shape, dtype=bool)
    for _ in range(max_iter):
        z = np.where(alive, z * z + c, z)
        alive &= (z.real * z.real + z.imag * z.imag) <= 4.0
        counts += alive
    return counts


def stream_viewports(rng: np.random.Generator) -> List[MandelbrotConfig]:
    """Draw :data:`STREAM_VIEWPORTS` viewports on the set boundary.

    Candidates are exterior points that escape late (near the boundary),
    each with a log-uniform half-width.  A coarse 32x24 raster estimates
    each candidate's kernel cost, and every rung of
    :data:`STREAM_COST_LADDER` takes the unused candidate closest to it
    in log cost.
    """
    points = rng.uniform([-2.1, -1.2], [0.6, 1.2], size=(16384, 2))
    c = points[:, 0] + 1j * points[:, 1]
    counts = _escape_counts(c, STREAM_MAX_ITER)
    near = c[(counts >= 40) & (counts < STREAM_MAX_ITER)][:384]
    half = np.exp(
        rng.uniform(np.log(STREAM_MIN_HALF_WIDTH), np.log(STREAM_MAX_HALF_WIDTH), len(near))
    )
    gx = (np.arange(32) + 0.5) / 32 * 2 - 1
    gy = (np.arange(24) + 0.5) / 24 * 2 - 1
    grid = near[:, None, None] + half[:, None, None] * (
        gx[None, None, :] + 0.75j * gy[None, :, None]
    )
    scale = (STREAM_WIDTH * STREAM_HEIGHT) / (32 * 24)
    cost = _escape_counts(grid, STREAM_MAX_ITER).sum(axis=(1, 2)) * scale
    log_cost = np.log(np.maximum(cost, 1.0))
    unused = np.ones(len(near), dtype=bool)
    configs = []
    for rung in np.log(STREAM_COST_LADDER):
        pick = int(np.argmin(np.where(unused, np.abs(log_cost - rung), np.inf)))
        unused[pick] = False
        cx, cy, h = near[pick].real, near[pick].imag, half[pick]
        configs.append(
            MandelbrotConfig(
                width=STREAM_WIDTH,
                height=STREAM_HEIGHT,
                x0=cx - h,
                y0=cy - 0.75 * h,
                x1=cx + h,
                y1=cy + 0.75 * h,
                max_iter=STREAM_MAX_ITER,
            )
        )
    return configs


def _mandelbrot_args(buf, cfg: MandelbrotConfig) -> list:
    return [
        buf,
        cfg.width,
        cfg.height,
        0,
        1,
        np.float32(cfg.x0),
        np.float32(cfg.y0),
        np.float32(cfg.dx),
        np.float32(cfg.dy),
        cfg.max_iter,
    ]


class Stream:
    """One tenant renders a double-buffered Mandelbrot sequence with
    non-blocking reads on one CPU-device daemon over Gigabit Ethernet.

    Frame 0 is rendered during set-up (pipeline fill; it also settles
    the deferred program build).  Timed frame ``i`` launches into buffer
    ``i % 2``, enqueues a non-blocking read of frame ``i - 1`` on a
    second queue and finishes the compute queue; the last frame's read
    is awaited at the end.
    """

    name = "stream"

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 1])
        self.viewports = stream_viewports(rng)
        n_timed = _sized(seconds, STREAM_RATE, STREAM_VIEWPORTS, 100)
        order = np.concatenate(
            [rng.permutation(STREAM_VIEWPORTS) for _ in range(n_timed // STREAM_VIEWPORTS)]
        )
        # Frame 0 (set-up) plus the timed frames; frame 0 repeats the
        # last timed viewport so every viewport renders equally often.
        self.frames = [int(order[-1]), *map(int, order)]
        self.n_units = n_timed

    def _cluster(self):
        return make_ib_cpu_cluster(1, link=GIGABIT_ETHERNET)

    def setup(self, on_deploy: Callable) -> Session:
        cluster = self._cluster()
        deployment = deploy_dopencl(cluster, n_clients=1)
        on_deploy(deployment)
        probe = SyncProbe(deployment.api)
        session = Session(cluster, deployment, [probe])
        session.state.update(self._prepare(probe))
        return session

    def _prepare(self, cl) -> Dict[str, object]:
        platform = cl.clGetPlatformIDs()[0]
        device = cl.clGetDeviceIDs(platform)[0]
        ctx = cl.clCreateContext([device])
        compute_q = cl.clCreateCommandQueue(ctx, device)
        read_q = cl.clCreateCommandQueue(ctx, device)
        program = cl.clCreateProgramWithSource(ctx, MANDELBROT_KERNEL)
        cl.clBuildProgram(program)
        frame_bytes = STREAM_WIDTH * STREAM_HEIGHT * 4
        bufs = [cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, frame_bytes) for _ in range(2)]
        kernels = [cl.clCreateKernel(program, "mandelbrot") for _ in range(2)]
        state = {"cl": cl, "compute_q": compute_q, "read_q": read_q, "bufs": bufs,
                 "kernels": kernels, "outputs": [None] * len(self.frames)}
        self._launch(state, 0)
        cl.clFinish(compute_q)
        return state

    def _launch(self, state, i: int) -> None:
        cl, kernel = state["cl"], state["kernels"][i % 2]
        cfg = self.viewports[self.frames[i]]
        for index, value in enumerate(_mandelbrot_args(state["bufs"][i % 2], cfg)):
            cl.clSetKernelArg(kernel, index, value)
        cl.clEnqueueNDRangeKernel(state["compute_q"], kernel, (cfg.width, cfg.height))

    def _read(self, state, i: int):
        data, event = state["cl"].clEnqueueReadBuffer(
            state["read_q"], state["bufs"][i % 2], blocking=False
        )
        state["outputs"][i] = data
        return event

    def _frames(self, state, on_error: Callable[[str], None], on_round: Callable = lambda: None) -> None:
        """Render the timed frames; ``on_round`` ends each frame's round
        (the last frame's round includes the final readback wait)."""
        cl = state["cl"]
        last = len(self.frames) - 1
        for i in range(1, last + 1):
            try:
                self._launch(state, i)
                self._read(state, i - 1)
                cl.clFinish(state["compute_q"])
            except Exception:
                on_error(f"frame {i}")
            if i < last:
                on_round()
        try:
            cl.clWaitForEvents([self._read(state, last)])
        except Exception:
            on_error("final readback")
        on_round()

    def run(self, session: Session) -> None:
        self._frames(session.state, session.unit_failed, session.probes[0].close_round)

    def check(self, session: Session) -> int:
        references: Dict[int, np.ndarray] = {}
        bad = 0
        for i, data in enumerate(session.state["outputs"]):
            vp = self.frames[i]
            if vp not in references:
                references[vp] = mandelbrot_reference(self.viewports[vp])
            if data is None or not np.array_equal(
                data.view(np.int32).reshape(STREAM_HEIGHT, STREAM_WIDTH), references[vp]
            ):
                bad += 1
        return bad

    def native_makespan(self) -> float:
        cl = native_api_on(self._cluster().servers[0])
        state = self._prepare(cl)
        start = cl.now
        self._frames(state, _reraise)
        return cl.now - start


# ----------------------------------------------------------------------
# tenants
# ----------------------------------------------------------------------

TENANTS = 64

#: Every tenant builds this byte-identical source.  Each launch adds
#: ``f * (i % 7 + 1)`` to element ``i``: all values stay small integers,
#: which float32 adds exactly, so the host can predict every byte.
TENANT_SOURCE = """
__kernel void accumulate(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] + f * (float)(i % 7 + 1);
}
"""

#: The small sets the seed draws from: per-tenant buffer lengths and
#: per-(tenant, round) scalars.  With few distinct values many forwarded
#: commands are byte-identical across tenants and rounds, so the wire
#: decode cache and the daemon reply cache both hit and miss.
TENANT_SIZES = (64, 128, 256, 512)
TENANT_SCALARS = (1.0, 2.0, 3.0, 4.0)

#: Nominal tenant rounds per wall-clock second on a 2-core x86 VM; sizes the run (see :func:`_sized`).
TENANTS_RATE = 1000.0


class Tenants:
    """64 tenants, each with its own driver and simulated host, share
    one 4-GPU server.  Every round each tenant launches one small kernel,
    then each tenant blocks in ``clFinish``."""

    name = "tenants"

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 2])
        self.rounds = _sized(seconds, TENANTS_RATE, TENANTS, 100 * TENANTS) // TENANTS
        self.sizes = [int(s) for s in rng.choice(TENANT_SIZES, TENANTS)]
        self.initial = [rng.integers(0, 8, size).astype(np.float32) for size in self.sizes]
        self.scalars = rng.choice(np.float32(TENANT_SCALARS), (self.rounds, TENANTS))
        self.order = np.array([rng.permutation(TENANTS) for _ in range(self.rounds)])
        self.n_units = self.rounds * TENANTS

    def setup(self, on_deploy: Callable) -> Session:
        cluster = make_multi_client_gpu_server(TENANTS)
        deployment = deploy_dopencl(cluster, n_clients=TENANTS)
        on_deploy(deployment)
        probes = [SyncProbe(api) for api in deployment.apis]
        tenants = []
        for t, cl in enumerate(probes):
            gpus = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
            device = gpus[t % len(gpus)]
            ctx = cl.clCreateContext([device])
            queue = cl.clCreateCommandQueue(ctx, device)
            program = cl.clCreateProgramWithSource(ctx, TENANT_SOURCE)
            cl.clBuildProgram(program)
            init = self.initial[t]
            buf = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, init.nbytes)
            kernel = cl.clCreateKernel(program, "accumulate")
            cl.clSetKernelArg(kernel, 0, buf)
            cl.clSetKernelArg(kernel, 2, self.sizes[t])
            cl.clEnqueueWriteBuffer(queue, buf, True, 0, init)
            cl.clFinish(queue)
            tenants.append((cl, queue, kernel, buf))
        return Session(cluster, deployment, probes, {"tenants": tenants})

    def run(self, session: Session) -> None:
        tenants = session.state["tenants"]
        broken = set()
        for r in range(self.rounds):
            for t in self.order[r]:
                cl, queue, kernel, _ = tenants[t]
                try:
                    # Like a real application, a tenant re-sets the
                    # scalar only when it changed since its last launch.
                    if r == 0 or self.scalars[r, t] != self.scalars[r - 1, t]:
                        cl.clSetKernelArg(kernel, 1, self.scalars[r, t])
                    cl.clEnqueueNDRangeKernel(queue, kernel, (self.sizes[t],))
                except Exception:
                    broken.add((r, t))
                    session.unit_failed(f"round {r} tenant {t} launch")
            for t in self.order[r]:
                cl, queue, _, _ = tenants[t]
                try:
                    cl.clFinish(queue)
                except Exception:
                    if (r, t) not in broken:
                        session.unit_failed(f"round {r} tenant {t} finish")
                cl.close_round()

    def check(self, session: Session) -> int:
        bad = 0
        for t, (cl, queue, _, buf) in enumerate(session.state["tenants"]):
            n = self.sizes[t]
            weights = (np.arange(n) % 7 + 1).astype(np.float64)
            expected = (self.initial[t] + self.scalars[:, t].astype(np.float64).sum() * weights)
            data, _ = cl.clEnqueueReadBuffer(queue, buf)
            if not np.array_equal(data.view(np.float32), expected.astype(np.float32)):
                bad += self.rounds
        return bad


# ----------------------------------------------------------------------
# osem
# ----------------------------------------------------------------------

OSEM_IMAGE, OSEM_SUBSETS, OSEM_SAMPLES = 32, 4, 32

#: Mean event count; the seed draws the actual count from a Poisson
#: law (as a scanner's acquisition would) and the events themselves
#: from the disk phantom.
OSEM_MEAN_EVENTS = 3000

#: Kernel op-count multiplier (the paper-size cost rescaling the Fig. 5
#: runner in ``repro.bench.figures`` also uses; a cost-model parameter,
#: not a pipeline flag).  Unscaled, the 4 GPUs finish every kernel
#: inside one network round trip, so no sync point depends on the
#: events at all; at this scale the devices are busy about 60% of the
#: run and both compute and transfers shape each iteration.
OSEM_WORKLOAD_SCALE = 300.0

#: Tolerance of the native comparison (the one tests/apps/test_osem.py
#: uses for the offload-vs-native check).
OSEM_RTOL, OSEM_ATOL = 1e-3, 1e-5

#: Nominal subset updates per wall-clock second on a 2-core x86 VM; sizes the run (see :func:`_sized`).
OSEM_RATE = 18.0


class Osem:
    """List-mode OSEM offloaded from the desktop to the 4-GPU server over
    Gigabit Ethernet.  One unit is a subset update: broadcast the image
    to 4 devices, project, read 4 corrections back, write the merged
    correction and run the update kernel."""

    name = "osem"

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 3])
        n_events = int(rng.poisson(OSEM_MEAN_EVENTS))
        self.events = generate_events(
            disk_phantom(OSEM_IMAGE), n_events, seed=int(rng.integers(2**31))
        )
        self.iterations = _sized(seconds, OSEM_RATE, OSEM_SUBSETS, 100 * OSEM_SUBSETS) // OSEM_SUBSETS
        self.n_units = self.iterations * OSEM_SUBSETS
        self._native: Optional[tuple] = None

    def _engine(self, cl) -> ListModeOSEM:
        gpus = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
        return ListModeOSEM(
            cl, gpus, image_size=OSEM_IMAGE, n_subsets=OSEM_SUBSETS, n_samples=OSEM_SAMPLES
        )

    def setup(self, on_deploy: Callable) -> Session:
        cluster = make_desktop_and_gpu_server()
        deployment = deploy_dopencl(cluster, n_clients=1, workload_scale=OSEM_WORKLOAD_SCALE)
        on_deploy(deployment)
        probe = SyncProbe(deployment.api)
        engine = self._engine(probe)
        engine.setup(self.events)
        return Session(cluster, deployment, [probe], {"engine": engine})

    def run(self, session: Session) -> None:
        engine = session.state["engine"]
        for i in range(self.iterations):
            try:
                engine.iterate()
            except Exception:
                session.unit_failed(f"iteration {i}")
                session.failed += OSEM_SUBSETS - 1
            session.probes[0].close_round()

    def _native_run(self) -> tuple:
        """The same events and iterations on the server's native OpenCL:
        ``(final image, virtual makespan)``, computed once."""
        if self._native is None:
            cl = native_api_on(
                make_desktop_and_gpu_server().servers[0], workload_scale=OSEM_WORKLOAD_SCALE
            )
            engine = self._engine(cl)
            engine.setup(self.events)
            start = cl.now
            for _ in range(self.iterations):
                engine.iterate()
            self._native = (engine.image(), cl.now - start)
        return self._native

    def check(self, session: Session) -> int:
        image = session.state["engine"].image()
        expected, _ = self._native_run()
        if not np.allclose(image, expected, rtol=OSEM_RTOL, atol=OSEM_ATOL):
            return self.n_units
        return 0

    def native_makespan(self) -> float:
        return self._native_run()[1]


WORKLOADS = {cls.name: cls for cls in (Stream, Tenants, Osem)}
