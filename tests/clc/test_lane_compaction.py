"""Lane compaction in the vector backend.

Divergent loops run on their live lanes only once at most half of the
current lanes are active.  Compaction keeps lane order and the popcount,
so outputs and ``ExecutionStats.ops`` must be exactly what full-width
execution gives: golden pins for the paper's kernels, and differential
runs against the reference interpreter and against the vector backend
with compaction stubbed out.
"""

import hashlib

import numpy as np
import pytest

from repro.apps.mandelbrot import MANDELBROT_KERNEL, MandelbrotConfig
from repro.apps.osem.kernels import OSEM_PROGRAM
from repro.apps.osem.listmode import generate_events
from repro.apps.osem.phantom import disk_phantom
from repro.clc import CLCRuntimeError, LocalMemory, compile_program, execute_kernel
from repro.clc import vecrt


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


# ----------------------------------------------------------------------
# golden pins (recorded with full-width execution, before compaction)
# ----------------------------------------------------------------------
MANDELBROT_PINS = {
    "full_set": (
        MandelbrotConfig(width=128, height=96, max_iter=200),
        9997688.0,
        "70c7132e2d800858c19928504eb8d86433088913581a3c1977a4d26562aee17d",
    ),
    "boundary": (
        MandelbrotConfig(width=128, height=96, x0=-0.7536, y0=0.1243, x1=-0.7336, y1=0.1393, max_iter=400),
        31617454.0,
        "eaa4fb161ef2a94bfaa62e3eaf5ad6884ea7986079de78f0d736c41283f17147",
    ),
    "interior": (
        MandelbrotConfig(width=128, height=96, x0=-0.25, y0=-0.0375, x1=-0.15, y1=0.0375, max_iter=200),
        34725888.0,
        "fc7be6a106deef0936518f714a50cff442e0437d162a335663ecc5f6bf33324f",
    ),
}


@pytest.mark.parametrize("name", sorted(MANDELBROT_PINS))
def test_mandelbrot_ops_and_image_pinned(name):
    cfg, ops, digest = MANDELBROT_PINS[name]
    out = np.zeros(cfg.width * cfg.height, dtype=np.int32)
    args = [out, cfg.width, cfg.height, 0, 1, np.float32(cfg.x0), np.float32(cfg.y0),
            np.float32(cfg.dx), np.float32(cfg.dy), cfg.max_iter]
    stats = execute_kernel(compile_program(MANDELBROT_KERNEL).kernel("mandelbrot"), (cfg.width, cfg.height), args)
    assert stats.ops == ops
    assert _sha256(out) == digest


def test_osem_kernels_ops_and_outputs_pinned():
    """256 lanes for 100 events: every projector loop starts below half
    width and compacts on entry.  ``back_project`` pins the float
    ``atomic_add`` accumulation bit for bit."""
    n, nsamp, n_events, gsize = 16, 24, 100, (256,)
    ev = generate_events(disk_phantom(n), n_events, seed=7)
    osem = compile_program(OSEM_PROGRAM)
    image = disk_phantom(n).ravel().copy()
    fp = np.zeros(n_events, dtype=np.float32)
    corr = np.zeros(n * n, dtype=np.float32)
    sens = np.zeros(n * n, dtype=np.float32)
    lors = [ev.x1, ev.y1, ev.x2, ev.y2]
    runs = [
        ("forward_project", [*lors, image, fp, n_events, n, nsamp], fp),
        ("back_project", [*lors, fp, corr, n_events, n, nsamp], corr),
        ("back_project_ones", [*lors, sens, n_events, n, nsamp], sens),
        ("update", [image, corr, sens, n * n], image),
    ]
    got = {}
    for name, args, out in runs:
        stats = execute_kernel(osem.kernel(name), gsize, args)
        got[name] = (stats.ops, _sha256(out))
    assert got == {
        "forward_project": (93818.0, "724d80671d444e44af5fc07fa5d62d4b787af4802d8b8e209b712c49890c20a6"),
        "back_project": (96188.0, "75329b8b63c0b99548de3d55deb268d4bdd81664ddc29c81ca3b1bf2573f00ad"),
        "back_project_ones": (95388.0, "10aca519c8231763f8094d4cc8235a96b847090f0e21da58125cb6f138dc749a"),
        "update": (5376.0, "4484539fcaf62c4a3ab91a594ab0e8fafa63bcc807e847b94c9857b24f5de6a9"),
    }


# ----------------------------------------------------------------------
# differential runs
# ----------------------------------------------------------------------
def _full_width(ctx, cz, m, dtypes, *vals):
    """Stand-in for :func:`vecrt.compact` that leaves every lane in place."""
    return (cz, m) + vals


def run_compacted(source, kernel, gsize, make_args, local_size=None):
    """Run the vector backend with and without compaction.

    Asserts that compaction fired and that outputs and ops are
    identical; returns the compacted run's arguments."""
    k = compile_program(source).kernel(kernel)
    widths = []
    real = vecrt.compact

    def counting(ctx, cz, m, *rest):
        widths.append(len(m))
        return real(ctx, cz, m, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vecrt, "compact", counting)
        args = make_args()
        stats = execute_kernel(k, gsize, args, local_size=local_size)
        mp.setattr(vecrt, "compact", _full_width)
        wide_args = make_args()
        wide = execute_kernel(k, gsize, wide_args, local_size=local_size)
    assert widths, "no loop compacted"
    assert stats.ops == wide.ops
    for got, want in zip(args, wide_args):
        if isinstance(got, np.ndarray):
            np.testing.assert_array_equal(got, want)
    return args


def run_differential(source, kernel, gsize, make_args, local_size=None):
    """:func:`run_compacted`, then the same outputs from the interpreter."""
    args = run_compacted(source, kernel, gsize, make_args, local_size)
    ref = make_args()
    execute_kernel(compile_program(source).kernel(kernel), gsize, ref, local_size=local_size, backend="interp")
    for got, want in zip(args, ref):
        if isinstance(got, np.ndarray):
            np.testing.assert_array_equal(got, want)
    return args


def _ints(n):
    return lambda: [np.zeros(n, dtype=np.int32)]


def test_nested_divergent_loops():
    src = """
    __kernel void nested(__global int *out) {
        int gid = (int)get_global_id(0);
        int acc = 0;
        for (int i = 0; i < gid % 13; i++) {
            int j = 0;
            while (j < (gid + i) % 11) {
                acc += i * j + 1;
                j++;
            }
            acc ^= i;
        }
        out[gid] = acc;
    }
    """
    (out,) = run_differential(src, "nested", (96,), _ints(96))
    assert out.any()


def test_break_continue_and_return_in_compacted_loop():
    src = """
    __kernel void flow(__global int *out, int limit) {
        int gid = (int)get_global_id(0);
        int acc = 0;
        for (int k = 0; k < 40; k++) {
            if (k % 5 == gid % 5) continue;
            if (k > gid) break;
            if (k * gid > 300) { out[gid] = -acc; return; }
            acc += k;
            limit -= 1;
        }
        out[gid] = acc * 1000 + limit;
    }
    """
    out, _ = run_differential(src, "flow", (64,), lambda: [np.zeros(64, dtype=np.int32), 50])
    assert (out < 0).any() and (out > 0).any()


def test_function_with_return_value_called_in_loop():
    """The callee has its own compacting loop with a ``return`` inside
    it (so its ``_retv`` is gathered) and runs at the caller's narrowed
    width."""
    src = """
    int first_multiple(int x, int d) {
        for (int k = 1; k < 64; k++) {
            if ((x * k) % d == 0) return k;
        }
        return -1;
    }
    int collatz_step(int x) {
        if (x % 2 == 0) return x / 2;
        return 3 * x + 1;
    }
    __kernel void collatz(__global int *out) {
        int gid = (int)get_global_id(0);
        int x = gid + 1;
        int steps = 0;
        int extra = 0;
        while (x != 1) {
            x = collatz_step(x);
            steps++;
            extra += first_multiple(x, 7 + gid % 5);
        }
        out[gid] = steps * 10000 + extra;
    }
    """
    (out,) = run_differential(src, "collatz", (80,), _ints(80))
    assert out[26] // 10000 == 111  # 27 takes 111 steps


def test_private_and_local_arrays_written_in_loop():
    src = """
    __kernel void arrays(__global int *out, __local int *scratch) {
        int gid = (int)get_global_id(0);
        int lid = (int)get_local_id(0);
        int hist[8];
        __local int tile[16];
        for (int k = 0; k < 8; k++) hist[k] = 0;
        scratch[lid] = 0;
        tile[lid] = 0;
        for (int k = 0; k < gid % 19; k++) {
            hist[k % 8] += k;
            scratch[lid] += k * 2;
            tile[lid] = tile[lid] + 1;
        }
        int s = 0;
        for (int k = 0; k < 8; k++) s += hist[k] * (k + 1);
        out[gid] = s * 10000 + scratch[lid] * 10 + tile[lid];
    }
    """
    (out, _) = run_differential(
        src, "arrays", (64,), lambda: [np.zeros(64, dtype=np.int32), LocalMemory(16 * 4)], local_size=(16,)
    )
    assert out.any()


def test_atomics_in_compacted_loop():
    """Integer atomics match the interpreter exactly; float ``atomic_add``
    keeps the full-width update order bit for bit."""
    src = """
    __kernel void hist(__global const int *trips, __global int *bins, __global float *fsum) {
        int gid = (int)get_global_id(0);
        for (int k = 0; k < trips[gid]; k++) {
            atomic_add(&bins[(gid + k) % 8], 1);
            atomic_inc(&bins[8 + k % 4]);
            atomic_max(&bins[12], gid * k);
            atomic_add(&fsum[k % 4], 0.1f * (float)gid + 0.01f * (float)k);
        }
    }
    """
    trips = np.random.default_rng(3).integers(0, 30, size=64).astype(np.int32)

    def make():
        return [trips, np.zeros(13, dtype=np.int32), np.zeros(4, dtype=np.float32)]

    _, bins, fsum = run_compacted(src, "hist", (64,), make)
    ref = make()
    execute_kernel(compile_program(src).kernel("hist"), (64,), ref, backend="interp")
    np.testing.assert_array_equal(bins, ref[1])
    np.testing.assert_allclose(fsum, ref[2], rtol=1e-5)


def test_local_atomics_in_loop_with_barriers_outside_it():
    src = """
    __kernel void tally(__global const int *trips, __global int *out) {
        __local int tile[4];
        int gid = (int)get_global_id(0);
        int lid = (int)get_local_id(0);
        if (lid < 4) tile[lid] = 0;
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int k = 0; k < trips[gid]; k++) atomic_add(&tile[k % 4], 1);
        barrier(CLK_LOCAL_MEM_FENCE);
        if (lid < 4) out[get_group_id(0) * 4 + lid] = tile[lid];
    }
    """
    trips = np.random.default_rng(4).integers(0, 25, size=64).astype(np.int32)
    _, out = run_compacted(
        src, "tally", (64,), lambda: [trips, np.zeros(16, dtype=np.int32)], local_size=(16,)
    )
    expected = np.zeros((4, 4), dtype=np.int32)
    for gid, t in enumerate(trips):
        for k in range(t):
            expected[gid // 16, k % 4] += 1
    np.testing.assert_array_equal(out, expected.ravel())


def test_do_while_loop():
    src = """
    __kernel void dw(__global int *out) {
        int gid = (int)get_global_id(0);
        int x = gid * 7 + 3;
        int n = 0;
        do {
            x = x / 2 + (x % 3);
            n++;
        } while (x > 4);
        out[gid] = n * 100 + x;
    }
    """
    (out,) = run_differential(src, "dw", (128,), _ints(128))
    assert out.min() >= 100


# ----------------------------------------------------------------------
# barriers, errors and the generated code
# ----------------------------------------------------------------------
BARRIER_LOOP = """
void fence(void) { barrier(CLK_LOCAL_MEM_FENCE); }
void sync_all(void) { fence(); }
__kernel void block_sum(__global const float *data, __global float *partial,
                        __local float *scratch) {
    int lid = (int)get_local_id(0);
    scratch[lid] = data[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int stride = (int)get_local_size(0) / 2; stride > 0; stride /= 2) {
        if (lid < stride) scratch[lid] += scratch[lid + stride];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (lid == 0) partial[get_group_id(0)] = scratch[0];
}
__kernel void staggered(__global int *out, const int n) {
    int gid = (int)get_global_id(0);
    int grp = (int)get_group_id(0);
    int lid = (int)get_local_id(0);
    int trips = 3;
    if ((grp == 0 && lid < 4) || (grp == 1 && lid >= 4)) trips = n;
    for (int k = 0; k < trips; k++) sync_all();
    out[gid] = trips;
}
"""


def test_barrier_loops_are_not_compacted_and_stay_correct():
    prog = compile_program(BARRIER_LOOP)
    assert "_rt.compact(" not in prog.python_source
    rng = np.random.default_rng(5)
    data = rng.random(256, dtype=np.float32)
    partial = np.zeros(8, dtype=np.float32)
    execute_kernel(prog.kernel("block_sum"), (256,), [data, partial, LocalMemory(32 * 4)], local_size=(32,))
    np.testing.assert_allclose(partial, data.reshape(8, 32).sum(axis=1), rtol=1e-5)
    # uniform trip counts: no divergence
    out = np.zeros(32, dtype=np.int32)
    execute_kernel(prog.kernel("staggered"), (32,), [out, 3], local_size=(8,))
    assert (out == 3).all()


def test_divergent_barrier_in_sparse_loop_still_raises():
    """From the fourth iteration on, 8 of 32 lanes are live: half of
    group 0 and half of group 1.  Compacted, they would look like one
    whole group."""
    prog = compile_program(BARRIER_LOOP)
    out = np.zeros(32, dtype=np.int32)
    with pytest.raises(CLCRuntimeError, match="divergent barrier"):
        execute_kernel(prog.kernel("staggered"), (32,), [out, 5], local_size=(8,))


def test_out_of_bounds_store_in_compacted_loop_reports_first_lane():
    """At k == 40 lanes 41..63 are live (compacted); lanes 50..63 index
    past the end.  The lowest live lane is reported, as at full width."""
    src = """
    __kernel void oob(__global int *out) {
        int gid = (int)get_global_id(0);
        for (int k = 0; k < gid; k++) {
            if (k >= 40) out[gid + k * 2] = k;
        }
    }
    """
    k = compile_program(src).kernel("oob")
    with pytest.raises(CLCRuntimeError, match=r"out-of-bounds global store: index 130 not in \[0, 130\)"):
        execute_kernel(k, (64,), [np.zeros(130, dtype=np.int32)])


def test_generated_mandelbrot_loop_compacts():
    source = compile_program(MANDELBROT_KERNEL).python_source
    assert "_rt.compact(" in source and "_rt.expand(" in source
