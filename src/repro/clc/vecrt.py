"""Runtime helpers called by vector-backend generated code.

The code generator (:mod:`repro.clc.codegen`) emits three-address Python
that calls these helpers.  Every helper that represents kernel work takes
the execution context and the active lane count and charges the op
accounting used by the device cost model.

Conventions: ``m`` is the active-lane mask (a bool ndarray as wide as
the current lane set: the chunk, or the live lanes of a compacted loop),
``mn`` its popcount; values are NumPy scalars (uniform) or arrays as
wide as ``m``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.clc.builtins import NUMPY_IMPLS
from repro.clc.errors import CLCRuntimeError

# -- op-accounting weights (abstract "ops" per active lane) -------------
W_ALU = 1.0
W_DIV = 4.0
W_MEM = 2.0
W_ATOMIC = 4.0


def count(m: np.ndarray) -> int:
    return int(np.count_nonzero(m))


def not_(c: Any) -> Any:
    return np.logical_not(c)


def merge(m: np.ndarray, mn: int, new: Any, old: Any) -> np.ndarray:
    """Masked assignment: new where active, old elsewhere.

    With every lane active and ``new`` already a full-width array of the
    variable's dtype, ``new`` is the result as is (values are never
    mutated in place, so sharing the array is safe)."""
    if mn == len(m) and isinstance(new, np.ndarray) and new.shape == m.shape and new.dtype == old.dtype:
        return new
    return np.where(m, new, old)


# -- lane compaction ---------------------------------------------------------
class Compaction:
    """One compacted loop: the context state and values at loop entry,
    the selected lanes (indices into the entry width) and the narrowed
    values as last gathered."""

    __slots__ = ("saved", "width", "sel", "dtypes", "full", "gathered")

    def __init__(self, saved, width: int, sel: np.ndarray, dtypes, full) -> None:
        self.saved = saved
        self.width = width
        self.sel = sel
        self.dtypes = dtypes
        self.full = full
        self.gathered = full

    def scatter(self, vals) -> tuple:
        """Entry-width values with the narrowed ``vals`` written back;
        values unchanged since the last gather are returned as they were."""
        return tuple(
            f if v is g else _scatter(f, self.sel, v, self.width, dt)
            for f, g, v, dt in zip(self.full, self.gathered, vals, self.dtypes)
        )


def _scatter(full: Any, sel: np.ndarray, val: Any, width: int, dtype: str) -> np.ndarray:
    if isinstance(full, np.ndarray) and full.ndim:
        out = full.copy()
    else:
        out = np.full(width, full, dtype=np.dtype(dtype))
    out[sel] = val
    return out


def compact(ctx, cz, m: np.ndarray, dtypes: tuple, *vals) -> tuple:
    """Run the rest of a loop on the active lanes of ``m`` only.

    Gathers every varying value of ``vals`` (uniform 0-d values pass
    through) and narrows the context's per-lane arrays; a loop that is
    already compacted writes its values back to the entry-width copies
    first and composes the selection.  Lane order and the popcount are
    preserved, so op accounting is unchanged.  Returns the compaction
    state, the narrowed (all-true) mask and the narrowed values."""
    local = np.flatnonzero(m)
    if cz is None:
        cz = Compaction(ctx.narrow(local), len(m), local, dtypes, vals)
    else:
        cz.full = cz.scatter(vals)
        cz.sel = cz.sel[local]
        ctx.narrow(local)
    cz.gathered = tuple(v[local] if isinstance(v, np.ndarray) and v.ndim else v for v in vals)
    return (cz, np.ones(len(local), dtype=bool)) + cz.gathered


def expand(ctx, cz: Compaction, *vals) -> tuple:
    """Leave a compacted loop: restore the context's per-lane arrays and
    scatter ``vals`` back to the entry width."""
    ctx.restore(cz.saved)
    return cz.scatter(vals)


def cast(ctx, mn: int, val: Any, dtype: str) -> Any:
    ctx.ops += mn * W_ALU
    dt = np.dtype(dtype)
    if isinstance(val, np.ndarray):
        return val.astype(dt, copy=False)
    return dt.type(val)


def uniform(val: Any) -> int:
    """Collapse a uniform value (e.g. a work-item dimension index)."""
    arr = np.asarray(val)
    if arr.ndim == 0:
        return int(arr)
    first = arr.flat[0]
    if not np.all(arr == first):
        raise CLCRuntimeError("non-uniform value where a uniform was required")
    return int(first)


# -- arithmetic ----------------------------------------------------------
def _charge(ctx, mn: int, w: float) -> None:
    ctx.ops += mn * w


def add(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.add(a, b)


def sub(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.subtract(a, b)


def mul(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.multiply(a, b)


def fdiv(ctx, mn, a, b):
    _charge(ctx, mn, W_DIV)
    return np.divide(a, b)


def idiv(ctx, mn, a, b):
    """C-style integer division: truncation toward zero.

    Division by zero is UB in C; this substrate defines it as 0 (both
    backends agree, so differential tests stay meaningful).
    """
    _charge(ctx, mn, W_DIV)
    zero = np.asarray(b) == 0
    b_safe = np.where(zero, np.ones_like(b), b)
    q = np.floor_divide(a, b_safe)
    r = a - q * b_safe
    # floor != trunc only when signs differ and remainder nonzero
    fix = (r != 0) & ((np.asarray(a) < 0) != (b_safe < 0))
    out = (q + fix).astype(np.result_type(a, b), copy=False)
    return np.where(zero, np.zeros_like(out), out)


def imod(ctx, mn, a, b):
    """C-style remainder (sign of the dividend); x % 0 defined as 0."""
    _charge(ctx, mn, W_DIV)
    zero = np.asarray(b) == 0
    b_safe = np.where(zero, np.ones_like(b), b)
    out = np.fmod(a, b_safe)
    return np.where(zero, np.zeros_like(out), out)


def neg(ctx, mn, a):
    _charge(ctx, mn, W_ALU)
    return np.negative(a)


def invert(ctx, mn, a):
    _charge(ctx, mn, W_ALU)
    return np.invert(a)


def shl(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    width = np.dtype(np.asarray(a).dtype).itemsize * 8
    return np.left_shift(a, np.asarray(b) & (width - 1))


def shr(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    width = np.dtype(np.asarray(a).dtype).itemsize * 8
    return np.right_shift(a, np.asarray(b) & (width - 1))


def bitand(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.bitwise_and(a, b)


def bitor(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.bitwise_or(a, b)


def bitxor(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.bitwise_xor(a, b)


# -- comparisons / logic ---------------------------------------------------
def lt(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.less(a, b)


def le(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.less_equal(a, b)


def gt(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.greater(a, b)


def ge(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.greater_equal(a, b)


def eq(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.equal(a, b)


def ne(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.not_equal(a, b)


def and_(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.logical_and(a, b)


def or_(ctx, mn, a, b):
    _charge(ctx, mn, W_ALU)
    return np.logical_or(a, b)


def select(ctx, mn, c, a, b):
    _charge(ctx, mn, W_ALU)
    return np.where(c, a, b)


def math(ctx, mn, impl: str, weight: float, *args):
    _charge(ctx, mn, weight)
    return NUMPY_IMPLS[impl](*args)


# -- memory ----------------------------------------------------------------
def _safe_index(m: np.ndarray, idx: Any, size: int, what: str) -> np.ndarray:
    idx_arr = np.asarray(idx)
    if idx_arr.ndim == 0:
        idx_arr = np.broadcast_to(idx_arr, m.shape)
    active = idx_arr[m]
    if active.size:
        bad = (active < 0) | (active >= size)
        if bad.any():
            off = int(active[np.argmax(bad)])
            raise CLCRuntimeError(
                f"out-of-bounds {what}: index {off} not in [0, {size})"
            )
    return np.where(m, idx_arr, 0)


def load_global(ctx, mn, m, buf: np.ndarray, idx):
    _charge(ctx, mn, W_MEM)
    safe = _safe_index(m, idx, buf.shape[0], "global load")
    return buf[safe]


def store_global(ctx, mn, m, buf: np.ndarray, idx, val):
    _charge(ctx, mn, W_MEM)
    idx_arr = np.asarray(idx)
    if idx_arr.ndim == 0:
        idx_arr = np.broadcast_to(idx_arr, m.shape)
    _safe_index(m, idx_arr, buf.shape[0], "global store")
    val_arr = np.asarray(val, dtype=buf.dtype)
    if val_arr.ndim == 0:
        val_arr = np.broadcast_to(val_arr, m.shape)
    buf[idx_arr[m]] = val_arr[m]


def load_local(ctx, mn, m, arr: np.ndarray, idx):
    _charge(ctx, mn, W_MEM)
    safe = _safe_index(m, idx, arr.shape[1], "local load")
    return arr[ctx.group_ordinal, safe]


def store_local(ctx, mn, m, arr: np.ndarray, idx, val):
    _charge(ctx, mn, W_MEM)
    idx_arr = np.asarray(idx)
    if idx_arr.ndim == 0:
        idx_arr = np.broadcast_to(idx_arr, m.shape)
    _safe_index(m, idx_arr, arr.shape[1], "local store")
    val_arr = np.asarray(val, dtype=arr.dtype)
    if val_arr.ndim == 0:
        val_arr = np.broadcast_to(val_arr, m.shape)
    arr[ctx.group_ordinal[m], idx_arr[m]] = val_arr[m]


def private_array(ctx, dtype: str, size: int) -> np.ndarray:
    return np.zeros((ctx.lanes, size), dtype=np.dtype(dtype))


def load_private(ctx, mn, m, arr: np.ndarray, idx):
    _charge(ctx, mn, W_MEM)
    safe = _safe_index(m, idx, arr.shape[1], "private load")
    return arr[ctx.lane_ids, safe]


def store_private(ctx, mn, m, arr: np.ndarray, idx, val):
    _charge(ctx, mn, W_MEM)
    idx_arr = np.asarray(idx)
    if idx_arr.ndim == 0:
        idx_arr = np.broadcast_to(idx_arr, m.shape)
    _safe_index(m, idx_arr, arr.shape[1], "private store")
    val_arr = np.asarray(val, dtype=arr.dtype)
    if val_arr.ndim == 0:
        val_arr = np.broadcast_to(val_arr, m.shape)
    arr[ctx.lane_ids[m], idx_arr[m]] = val_arr[m]


# -- atomics -----------------------------------------------------------------
_ATOMIC_UFUNC = {
    "atomic_add": np.add,
    "atomic_sub": np.subtract,
    "atomic_min": np.minimum,
    "atomic_max": np.maximum,
    "atomic_and": np.bitwise_and,
    "atomic_or": np.bitwise_or,
    "atomic_xor": np.bitwise_xor,
}


def atomic(ctx, mn, m, op: str, kind: str, arr: np.ndarray, idx, *vals):
    """Vectorised atomics on global/local/private storage.

    Returns the value observed *before this dispatch's updates* (OpenCL
    leaves intra-dispatch ordering undefined; the reference interpreter
    provides exact serialised semantics for differential checks on end
    state).
    """
    _charge(ctx, mn, W_ATOMIC)
    if kind == "global":
        size = arr.shape[0]
        target = arr
        rows = None
    elif kind == "local":
        size = arr.shape[1]
        target = arr
        rows = ctx.group_ordinal
    else:  # private
        size = arr.shape[1]
        target = arr
        rows = ctx.lane_ids
    idx_arr = np.asarray(idx)
    if idx_arr.ndim == 0:
        idx_arr = np.broadcast_to(idx_arr, m.shape)
    _safe_index(m, idx_arr, size, f"{op}")
    sel = idx_arr[m]
    if rows is None:
        old = target[np.where(m, idx_arr, 0)]
    else:
        old = target[rows, np.where(m, idx_arr, 0)]

    def _vals(i: int) -> np.ndarray:
        v = np.asarray(vals[i], dtype=target.dtype)
        if v.ndim == 0:
            v = np.broadcast_to(v, m.shape)
        return v[m]

    if op in _ATOMIC_UFUNC:
        ufunc = _ATOMIC_UFUNC[op]
        if rows is None:
            ufunc.at(target, sel, _vals(0))
        else:
            ufunc.at(target, (rows[m], sel), _vals(0))
    elif op == "atomic_inc":
        if rows is None:
            np.add.at(target, sel, target.dtype.type(1))
        else:
            np.add.at(target, (rows[m], sel), target.dtype.type(1))
    elif op == "atomic_dec":
        if rows is None:
            np.subtract.at(target, sel, target.dtype.type(1))
        else:
            np.subtract.at(target, (rows[m], sel), target.dtype.type(1))
    elif op == "atomic_xchg":
        if rows is None:
            target[sel] = _vals(0)
        else:
            target[rows[m], sel] = _vals(0)
    elif op == "atomic_cmpxchg":
        cmp_v, new_v = _vals(0), _vals(1)
        if rows is None:
            cur = target[sel]
            target[sel] = np.where(cur == cmp_v, new_v, cur)
        else:
            cur = target[rows[m], sel]
            target[rows[m], sel] = np.where(cur == cmp_v, new_v, cur)
    else:  # pragma: no cover - sema rejects unknown atomics
        raise CLCRuntimeError(f"unknown atomic {op!r}")
    return old


def barrier(ctx, m) -> None:
    """Work-group barrier.  Lockstep vector execution satisfies barrier
    semantics automatically, but *divergent* barriers (not all work-items
    of a group reach it) are undefined behaviour in OpenCL — we detect and
    report them."""
    ctx.ops += count(m)  # a barrier is not free
    if ctx.group_size <= 1:
        return
    per_group = m.reshape(-1, ctx.group_size)
    group_any = per_group.any(axis=1)
    group_all = per_group.all(axis=1)
    if np.any(group_any & ~group_all):
        raise CLCRuntimeError(
            "divergent barrier: not all work-items of a group reached barrier()"
        )
