"""Differential testing: the vector backend against the reference
interpreter on randomly generated programs.

Integer arithmetic is exact (wraparound included), so any mismatch is a
genuine backend bug, not floating-point noise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clc import compile_program, execute_kernel


# ----------------------------------------------------------------------
# random expression generator (returns OpenCL C source text)
# ----------------------------------------------------------------------
_INT_BIN_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"]
_CMP_OPS = ["==", "!=", "<", ">", "<=", ">="]


def _expr_strategy():
    leaves = st.one_of(
        st.integers(min_value=-100, max_value=100).map(lambda v: f"({v})"),
        st.sampled_from(["a", "b", "c", "gid"]),
    )

    def extend(children):
        binary = st.tuples(children, st.sampled_from(_INT_BIN_OPS), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        )
        compare = st.tuples(children, st.sampled_from(_CMP_OPS), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        )
        unary = st.tuples(st.sampled_from(["-", "~", "!"]), children).map(
            lambda t: f"({t[0]}{t[1]})"
        )
        ternary = st.tuples(children, children, children).map(
            lambda t: f"(({t[0]} > 0) ? {t[1]} : {t[2]})"
        )
        call = st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"
        )
        return st.one_of(binary, compare, unary, ternary, call)

    return st.recursive(leaves, extend, max_leaves=18)


@given(
    expr=_expr_strategy(),
    a=st.integers(min_value=-1000, max_value=1000),
    b=st.integers(min_value=-1000, max_value=1000),
    c=st.integers(min_value=-1000, max_value=1000),
)
@settings(max_examples=150, deadline=None)
def test_random_int_expressions_match(expr, a, b, c):
    source = f"""
    __kernel void f(__global int *out, const int a, const int b, const int c) {{
        int gid = (int)get_global_id(0);
        out[gid] = {expr};
    }}
    """
    prog = compile_program(source)
    n = 8
    out_v = np.zeros(n, dtype=np.int32)
    out_i = np.zeros(n, dtype=np.int32)
    execute_kernel(prog.kernel("f"), (n,), [out_v, a, b, c], backend="vector")
    execute_kernel(prog.kernel("f"), (n,), [out_i, a, b, c], backend="interp")
    np.testing.assert_array_equal(out_v, out_i)


@given(
    thresholds=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=4),
    limit=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_random_divergent_loops_match(thresholds, limit):
    """Loops whose trip counts and branches vary per work-item."""
    body = "".join(
        f"if (x > {t}) {{ acc += {i + 1}; x -= {t}; continue; }}\n"
        for i, t in enumerate(thresholds)
    )
    source = f"""
    __kernel void g(__global int *out) {{
        int gid = (int)get_global_id(0);
        int x = gid * 3 + 1;
        int acc = 0;
        int steps = 0;
        while (steps < {limit}) {{
            steps++;
            {body}
            acc -= 1;
            if (acc < -10) break;
        }}
        out[gid] = acc * 100 + steps;
    }}
    """
    prog = compile_program(source)
    n = 16
    out_v = np.zeros(n, dtype=np.int32)
    out_i = np.zeros(n, dtype=np.int32)
    execute_kernel(prog.kernel("g"), (n,), [out_v], backend="vector")
    execute_kernel(prog.kernel("g"), (n,), [out_i], backend="interp")
    np.testing.assert_array_equal(out_v, out_i)


@given(
    scale=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    shift=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_float_kernels_match_closely(scale, shift):
    source = """
    __kernel void h(__global float *out, const float s, const float t) {
        int gid = (int)get_global_id(0);
        float x = (float)gid * 0.25f;
        float y = s * x + t;
        for (int k = 0; k < 4; k++) {
            y = y * 0.5f + sqrt(fabs(y)) - 0.1f;
        }
        out[gid] = y;
    }
    """
    prog = compile_program(source)
    n = 32
    out_v = np.zeros(n, dtype=np.float32)
    out_i = np.zeros(n, dtype=np.float32)
    execute_kernel(prog.kernel("h"), (n,), [out_v, scale, shift], backend="vector")
    execute_kernel(prog.kernel("h"), (n,), [out_i, scale, shift], backend="interp")
    np.testing.assert_allclose(out_v, out_i, rtol=1e-6, atol=1e-6)


@given(
    data=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=64),
)
@settings(max_examples=60, deadline=None)
def test_atomic_histogram_end_state_matches(data):
    source = """
    __kernel void hist(__global const int *data, __global int *bins, const int n) {
        int gid = (int)get_global_id(0);
        if (gid < n) atomic_add(&bins[data[gid]], 1);
    }
    """
    prog = compile_program(source)
    arr = np.array(data, dtype=np.int32)
    n = len(data)
    gsize = ((n + 7) // 8) * 8
    bins_v = np.zeros(8, dtype=np.int32)
    bins_i = np.zeros(8, dtype=np.int32)
    execute_kernel(prog.kernel("hist"), (gsize,), [arr, bins_v, n], backend="vector")
    execute_kernel(prog.kernel("hist"), (gsize,), [arr, bins_i, n], backend="interp")
    np.testing.assert_array_equal(bins_v, bins_i)


_CHUNKING_KERNELS = [
    """
    __kernel void f(__global int *out, const int n) {
        int gid = (int)get_global_id(0);
        if (gid >= n) return;
        int acc = 0;
        for (int k = 0; k < gid % 7; k++) acc += k * k;
        out[gid] = acc;
    }
    """,
    # Trip counts 0, 3, 6, 9 (+ 0..2) within every work-group of 4: the
    # popcount drops to half or less in every chunk, so the loops compact
    # whatever the chunk size.
    """
    __kernel void f(__global int *out, const int n) {
        int gid = (int)get_global_id(0);
        if (gid >= n) return;
        int acc = gid;
        int k = 0;
        while (k < (gid % 4) * 3 + (gid / 4) % 3) {
            for (int j = 0; j < k % 4; j++) acc = acc * 3 + j;
            if (acc > 100000) break;
            k++;
        }
        out[gid] = acc + k;
    }
    """,
]


@given(
    n=st.integers(min_value=1, max_value=300),
    chunk=st.sampled_from([4, 16, 64, 256]),
    source=st.sampled_from(_CHUNKING_KERNELS),
)
@settings(max_examples=60, deadline=None)
def test_chunking_invariance(n, chunk, source):
    """Results and op counts must not depend on the chunk size.  Ops are
    sums of integer-valued weights, so they must match exactly."""
    prog = compile_program(source)
    gsize = ((n + 3) // 4) * 4
    out_a = np.zeros(gsize, dtype=np.int32)
    out_b = np.zeros(gsize, dtype=np.int32)
    s_a = execute_kernel(prog.kernel("f"), (gsize,), [out_a, n], local_size=(4,), max_lanes=chunk)
    s_b = execute_kernel(prog.kernel("f"), (gsize,), [out_b, n], local_size=(4,), max_lanes=1 << 20)
    np.testing.assert_array_equal(out_a, out_b)
    assert s_a.ops == s_b.ops
    assert s_a.work_items == s_b.work_items
