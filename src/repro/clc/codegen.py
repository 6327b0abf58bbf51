"""SPMD-on-SIMD code generation: OpenCL C -> vectorised NumPy Python.

Every work-item of a dispatch chunk is a *lane*; variables are NumPy
scalars (uniform values) or arrays of shape ``(lanes,)``.  Control-flow
divergence is realised with an active-lane mask (``_m``) in the ispc
style:

* ``if``/``else`` partition the mask by the condition and merge after;
* loops iterate while any lane is active; ``continue`` parks lanes for the
  next iteration, ``break`` removes them until the loop exits;
* ``return`` removes lanes for the rest of the function and accumulates
  the return value under the mask.

Masked assignment goes through ``_rt.merge(_m, _mn, new, old)``, which
skips the ``np.where`` when every lane is active.  Divergent loops run
on their live lanes only: at the top of an iteration, once the condition
has narrowed ``_m``, a loop whose popcount ``_mn`` is at most half the
current width *compacts* (``_rt.compact``): it gathers the active lanes
of every scalar local or parameter it references that is declared
outside it, plus ``_ret``/``_retv``, and narrows the context's per-lane
id arrays; the epilogue (``_rt.expand``) scatters them back to the entry
width.  Lane order and popcounts are kept, so op accounting is exactly
that of full-width execution.  Loops that reach ``barrier()``, directly
or through a callee, never compact: the divergent-barrier check needs
whole work-groups.

The generated code is three-address style: every operation is a call into
:mod:`repro.clc.vecrt`, which also charges the op-accounting used by the
device cost model.  Deviations from C (documented): both arms of ``?:``
and both operands of ``&&``/``||`` are evaluated (vector semantics), so
side effects inside them happen unconditionally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.clc import cast as A
from repro.clc.errors import CLCompileError
from repro.clc.sema import AnalyzedProgram, FunctionInfo, Symbol
from repro.clc.types import PointerType, ScalarType, VoidType

_BINOP_FN = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "<<": "shl",
    ">>": "shr",
    "&": "bitand",
    "|": "bitor",
    "^": "bitxor",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
    "==": "eq",
    "!=": "ne",
    "&&": "and_",
    "||": "or_",
}


def _space_of(sym: Symbol) -> str:
    if isinstance(sym.type, PointerType):
        return sym.type.address_space
    return sym.address_space


def _walk(node: A.Node):
    """``node`` and every AST node below it."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for child in vars(node).values():
            if isinstance(child, A.Node):
                stack.append(child)
            elif isinstance(child, list):
                stack.extend(c for c in child if isinstance(c, A.Node))


def _barrier_functions(analyzed: AnalyzedProgram) -> Set[str]:
    """Names of the functions that reach ``barrier()``, directly or
    through a callee."""
    found = {name for name, info in analyzed.functions.items() if info.calls_barrier}
    grew = True
    while grew:
        grew = False
        for name, info in analyzed.functions.items():
            if name not in found and info.callees & found:
                found.add(name)
                grew = True
    return found


class FunctionCodegen:
    def __init__(self, info: FunctionInfo, barrier_fns: Set[str]) -> None:
        self.info = info
        self.barrier_fns = barrier_fns
        self.lines: List[str] = []
        self.indent = 1
        self._temp = 0
        self._label = 0
        self.loop_stack: List[str] = []  # continue-mask variable names
        self.diverged = False

    # -- emission helpers ---------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def label(self) -> int:
        self._label += 1
        return self._label

    def fresh_mask_count(self) -> None:
        self.emit("_mn = _rt.count(_m)")

    # -- top level ------------------------------------------------------------
    def generate(self) -> str:
        info = self.info
        params = ", ".join(sym.slot for sym in info.param_symbols)
        header = f"def _fn_{info.name}(_ctx, _m, {params}):" if params else f"def _fn_{info.name}(_ctx, _m):"
        self.lines.append(header)
        self.emit("_mn = _rt.count(_m)")
        self.emit("_ret = _np.zeros_like(_m)")
        is_void = isinstance(info.return_type, VoidType)
        if not is_void:
            self.emit(f"_retv = _np.dtype('{info.return_type.dtype}').type(0)")
        self.visit_block(info.node.body)
        if not is_void:
            self.emit("return _retv")
        else:
            self.emit("return None")
        return "\n".join(self.lines)

    # -- statements --------------------------------------------------------
    def visit_block(self, block: A.Block) -> None:
        if not block.stmts:
            self.emit("pass")
            return
        for stmt in block.stmts:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                self.visit_stmt(s)
            return
        if isinstance(stmt, A.DeclStmt):
            for decl in stmt.decls:
                self.visit_decl(decl)
            return
        if isinstance(stmt, A.ExprStmt):
            self.visit_expr(stmt.expr)
            return
        if isinstance(stmt, A.If):
            self.visit_if(stmt)
            return
        if isinstance(stmt, A.While):
            self.visit_while(stmt)
            return
        if isinstance(stmt, A.DoWhile):
            self.visit_do_while(stmt)
            return
        if isinstance(stmt, A.For):
            self.visit_for(stmt)
            return
        if isinstance(stmt, A.Break):
            self.emit("_m = _np.zeros_like(_m)")
            self.emit("_mn = 0")
            return
        if isinstance(stmt, A.Continue):
            cnt = self.loop_stack[-1]
            self.emit(f"{cnt} = {cnt} | _m")
            self.emit("_m = _np.zeros_like(_m)")
            self.emit("_mn = 0")
            return
        if isinstance(stmt, A.Return):
            if stmt.value is not None:
                v = self.visit_expr(stmt.value)
                self.emit(f"_retv = _rt.merge(_m, _mn, {v}, _retv)")
            self.emit("_ret = _ret | _m")
            self.emit("_m = _np.zeros_like(_m)")
            self.emit("_mn = 0")
            self.diverged = True
            return
        raise CLCompileError(f"codegen: unhandled statement {type(stmt).__name__}", stmt.line, stmt.col)

    def visit_decl(self, decl: A.VarDecl) -> None:
        sym: Symbol = decl.symbol
        if sym.kind == "array":
            elem = sym.type.pointee
            if sym.address_space == "local":
                self.emit(f"{sym.slot} = _ctx.local_array('{sym.slot}', '{elem.dtype}', {sym.array_size})")
            else:
                self.emit(f"{sym.slot} = _rt.private_array(_ctx, '{elem.dtype}', {sym.array_size})")
            return
        if isinstance(sym.type, PointerType):
            v = self.visit_expr(decl.init)
            self.emit(f"{sym.slot} = {v}")
            return
        if decl.init is not None:
            v = self.visit_expr(decl.init)
            if self.diverged:
                self.emit(f"{sym.slot} = _rt.merge(_m, _mn, {v}, _np.dtype('{sym.type.dtype}').type(0))")
            else:
                self.emit(f"{sym.slot} = {v}")
        else:
            self.emit(f"{sym.slot} = _np.dtype('{sym.type.dtype}').type(0)")

    def visit_if(self, stmt: A.If) -> None:
        c = self.visit_expr(stmt.cond)
        k = self.label()
        save, then_end = f"_msv{k}", f"_mth{k}"
        self.emit(f"{save} = _m")
        self.emit(f"_m = {save} & {c}")
        self.fresh_mask_count()
        self.diverged = True
        self.emit("if _mn:")
        self.indent += 1
        self.visit_block(stmt.then)
        self.indent -= 1
        self.emit(f"{then_end} = _m")
        if stmt.els is not None:
            self.emit(f"_m = {save} & _rt.not_({c}) & _rt.not_(_ret)")
            self.fresh_mask_count()
            self.emit("if _mn:")
            self.indent += 1
            self.visit_block(stmt.els)
            self.indent -= 1
            self.emit(f"_m = {then_end} | _m")
        else:
            self.emit(f"_m = ({save} & _rt.not_({c}) & _rt.not_(_ret)) | {then_end}")
        self.fresh_mask_count()

    def _loop_prologue(self, stmt: A.Stmt) -> tuple:
        k = self.label()
        save, cnt, cz = f"_msv{k}", f"_mcn{k}", f"_cz{k}"
        self.emit(f"{save} = _m")
        values = self._compacted_values(stmt)
        if values:
            self.emit(f"{cz} = None")
        self.diverged = True
        self.emit("while True:")
        self.indent += 1
        self.emit("if not _mn: break")
        return save, cnt, cz, values

    def _compacted_values(self, stmt: A.Stmt) -> List[tuple]:
        """``(name, dtype)`` of the values a compacting loop gathers:
        every scalar local or parameter it references that is declared
        outside it, then ``_ret``/``_retv``.  Empty when the loop reaches
        a barrier, which needs whole work-groups."""
        parts = [stmt.cond, stmt.body, getattr(stmt, "step", None)]
        refs: Dict[str, Symbol] = {}
        inner = set()
        for node in (n for part in parts if part is not None for n in _walk(part)):
            if isinstance(node, A.VarRef):
                refs[node.symbol.slot] = node.symbol
            elif isinstance(node, A.VarDecl):
                inner.add(node.symbol.slot)
            elif isinstance(node, A.Call) and (
                (node.builtin is not None and node.builtin.kind == "barrier")
                or (node.func is not None and node.func.name in self.barrier_fns)
            ):
                return []
        values = [
            (slot, sym.type.dtype)
            for slot, sym in sorted(refs.items())
            if slot not in inner and isinstance(sym.type, ScalarType)
        ]
        values.append(("_ret", "bool"))
        if not isinstance(self.info.return_type, VoidType):
            values.append(("_retv", self.info.return_type.dtype))
        return values

    def _compact_point(self, cz: str, values: List[tuple]) -> None:
        """Top of an iteration, once the condition has narrowed ``_m``:
        compact when at most half of the current lanes are active."""
        if not values:
            return
        names = ", ".join(name for name, _ in values)
        dtypes = ", ".join(f"'{dtype}'" for _, dtype in values)
        self.emit("if _mn * 2 <= len(_m):")
        self.emit(f"    {cz}, _m, {names} = _rt.compact(_ctx, {cz}, _m, ({dtypes},), {names})")

    def _loop_epilogue(self, save: str, cz: str, values: List[tuple]) -> None:
        self.indent -= 1
        if values:
            names = ", ".join(name for name, _ in values)
            self.emit(f"if {cz} is not None:")
            self.emit(f"    {names}, = _rt.expand(_ctx, {cz}, {names})")
        self.emit(f"_m = {save} & _rt.not_(_ret)")
        self.fresh_mask_count()

    def visit_while(self, stmt: A.While) -> None:
        save, cnt, cz, values = self._loop_prologue(stmt)
        c = self.visit_expr(stmt.cond)
        self.emit(f"_m = _m & {c}")
        self.fresh_mask_count()
        self.emit("if not _mn: break")
        self._compact_point(cz, values)
        self.emit(f"{cnt} = _np.zeros_like(_m)")
        self.loop_stack.append(cnt)
        self.visit_block(stmt.body)
        self.loop_stack.pop()
        self.emit(f"_m = _m | {cnt}")
        self.fresh_mask_count()
        self._loop_epilogue(save, cz, values)

    def visit_do_while(self, stmt: A.DoWhile) -> None:
        save, cnt, cz, values = self._loop_prologue(stmt)
        self._compact_point(cz, values)
        self.emit(f"{cnt} = _np.zeros_like(_m)")
        self.loop_stack.append(cnt)
        self.visit_block(stmt.body)
        self.loop_stack.pop()
        self.emit(f"_m = _m | {cnt}")
        self.fresh_mask_count()
        c = self.visit_expr(stmt.cond)
        self.emit(f"_m = _m & {c}")
        self.fresh_mask_count()
        self._loop_epilogue(save, cz, values)

    def visit_for(self, stmt: A.For) -> None:
        if stmt.init is not None:
            self.visit_stmt(stmt.init)
        save, cnt, cz, values = self._loop_prologue(stmt)
        if stmt.cond is not None:
            c = self.visit_expr(stmt.cond)
            self.emit(f"_m = _m & {c}")
            self.fresh_mask_count()
            self.emit("if not _mn: break")
        self._compact_point(cz, values)
        self.emit(f"{cnt} = _np.zeros_like(_m)")
        self.loop_stack.append(cnt)
        self.visit_block(stmt.body)
        self.loop_stack.pop()
        self.emit(f"_m = _m | {cnt}")
        self.fresh_mask_count()
        if stmt.step is not None:
            self.emit("if _mn:")
            self.indent += 1
            self.visit_expr(stmt.step)
            self.indent -= 1
        self._loop_epilogue(save, cz, values)

    # -- expressions ---------------------------------------------------------
    def visit_expr(self, expr: A.Expr) -> str:
        method = getattr(self, f"gen_{type(expr).__name__}", None)
        if method is None:
            raise CLCompileError(f"codegen: unhandled expression {type(expr).__name__}", expr.line, expr.col)
        return method(expr)

    def gen_IntLiteral(self, expr: A.IntLiteral) -> str:
        return f"_np.dtype('{expr.type.dtype}').type({expr.value})"

    def gen_FloatLiteral(self, expr: A.FloatLiteral) -> str:
        return f"_np.dtype('{expr.type.dtype}').type({expr.value!r})"

    def gen_BoolLiteral(self, expr: A.BoolLiteral) -> str:
        return f"_np.bool_({expr.value})"

    def gen_VarRef(self, expr: A.VarRef) -> str:
        return expr.symbol.slot

    def gen_ImplicitCast(self, expr: A.ImplicitCast) -> str:
        v = self.visit_expr(expr.expr)
        t = self.temp()
        self.emit(f"{t} = _rt.cast(_ctx, _mn, {v}, '{expr.target_type.dtype}')")
        return t

    def gen_Cast(self, expr: A.Cast) -> str:
        v = self.visit_expr(expr.expr)
        t = self.temp()
        self.emit(f"{t} = _rt.cast(_ctx, _mn, {v}, '{expr.target_type.dtype}')")
        return t

    def gen_UnaryOp(self, expr: A.UnaryOp) -> str:
        if expr.op in ("++", "--"):
            new, _old = self._emit_incdec(expr.operand, expr.op)
            return new
        if expr.op == "&":
            raise CLCompileError(
                "address-of is only supported as the first argument of atomics",
                expr.line,
                expr.col,
            )
        v = self.visit_expr(expr.operand)
        if expr.op == "+":
            return v
        t = self.temp()
        if expr.op == "-":
            self.emit(f"{t} = _rt.neg(_ctx, _mn, {v})")
        elif expr.op == "~":
            self.emit(f"{t} = _rt.invert(_ctx, _mn, {v})")
        elif expr.op == "!":
            self.emit(f"{t} = _rt.not_({v})")
        else:  # pragma: no cover
            raise CLCompileError(f"codegen: unary {expr.op!r}", expr.line, expr.col)
        return t

    def gen_PostfixOp(self, expr: A.PostfixOp) -> str:
        _new, old = self._emit_incdec(expr.operand, expr.op)
        return old

    def _emit_incdec(self, target: A.Expr, op: str) -> tuple:
        """x++/++x desugared; returns (new_value_ref, old_value_ref)."""
        fn = "add" if op == "++" else "sub"
        t_type: ScalarType = target.type
        one = f"_np.dtype('{t_type.dtype}').type(1)"
        old = self.temp()
        if isinstance(target, A.VarRef):
            slot = target.symbol.slot
            self.emit(f"{old} = {slot}")
            new = self.temp()
            self.emit(f"{new} = _rt.{fn}(_ctx, _mn, {old}, {one})")
            self._store_var(target.symbol, new)
            return new, old
        # Index target
        base_sym, idx = self._index_parts(target)
        self.emit(f"{old} = {self._load_code(base_sym, idx)}")
        new = self.temp()
        self.emit(f"{new} = _rt.{fn}(_ctx, _mn, {old}, {one})")
        self._emit_store(base_sym, idx, new)
        return new, old

    def gen_BinaryOp(self, expr: A.BinaryOp) -> str:
        if expr.op == ",":
            self.visit_expr(expr.lhs)
            return self.visit_expr(expr.rhs)
        a = self.visit_expr(expr.lhs)
        b = self.visit_expr(expr.rhs)
        t = self.temp()
        if expr.op == "/":
            fn = "fdiv" if expr.type.is_float else "idiv"
        elif expr.op == "%":
            fn = "imod"
        else:
            fn = _BINOP_FN[expr.op]
        self.emit(f"{t} = _rt.{fn}(_ctx, _mn, {a}, {b})")
        return t

    def gen_Ternary(self, expr: A.Ternary) -> str:
        c = self.visit_expr(expr.cond)
        a = self.visit_expr(expr.then)
        b = self.visit_expr(expr.els)
        t = self.temp()
        self.emit(f"{t} = _rt.select(_ctx, _mn, {c}, {a}, {b})")
        return t

    # -- assignment ------------------------------------------------------------
    def _store_var(self, sym: Symbol, value_ref: str) -> None:
        if self.diverged:
            self.emit(f"{sym.slot} = _rt.merge(_m, _mn, {value_ref}, {sym.slot})")
        else:
            self.emit(f"{sym.slot} = {value_ref}")

    def _index_parts(self, expr: A.Index) -> tuple:
        base_sym: Symbol = expr.base.symbol
        idx = self.visit_expr(expr.index)
        return base_sym, idx

    def _load_code(self, sym: Symbol, idx: str) -> str:
        space = _space_of(sym)
        if space in ("global", "constant"):
            return f"_rt.load_global(_ctx, _mn, _m, {sym.slot}, {idx})"
        if space == "local":
            return f"_rt.load_local(_ctx, _mn, _m, {sym.slot}, {idx})"
        return f"_rt.load_private(_ctx, _mn, _m, {sym.slot}, {idx})"

    def _emit_store(self, sym: Symbol, idx: str, value_ref: str) -> None:
        space = _space_of(sym)
        if space in ("global", "constant"):
            self.emit(f"_rt.store_global(_ctx, _mn, _m, {sym.slot}, {idx}, {value_ref})")
        elif space == "local":
            self.emit(f"_rt.store_local(_ctx, _mn, _m, {sym.slot}, {idx}, {value_ref})")
        else:
            self.emit(f"_rt.store_private(_ctx, _mn, _m, {sym.slot}, {idx}, {value_ref})")

    def gen_Index(self, expr: A.Index) -> str:
        base_sym, idx = self._index_parts(expr)
        t = self.temp()
        self.emit(f"{t} = {self._load_code(base_sym, idx)}")
        return t

    def gen_Assign(self, expr: A.Assign) -> str:
        value = self.visit_expr(expr.value)
        target_t: ScalarType = expr.target.type
        common: ScalarType = expr.common_type
        if isinstance(expr.target, A.VarRef):
            sym = expr.target.symbol
            if expr.op == "=":
                result = value
            else:
                cur = sym.slot
                result = self._compound(cur, value, expr.op, common, target_t)
            self._store_var(sym, result)
            out = self.temp()
            self.emit(f"{out} = {sym.slot}")
            return out
        base_sym, idx = self._index_parts(expr.target)
        if expr.op == "=":
            result = value
        else:
            cur = self.temp()
            self.emit(f"{cur} = {self._load_code(base_sym, idx)}")
            result = self._compound(cur, value, expr.op, common, target_t)
        self._emit_store(base_sym, idx, result)
        return result

    def _compound(self, cur: str, value: str, op: str, common: ScalarType, target: ScalarType) -> str:
        base_op = op[:-1]
        lhs = cur
        if common != target:
            lhs = self.temp()
            self.emit(f"{lhs} = _rt.cast(_ctx, _mn, {cur}, '{common.dtype}')")
        t = self.temp()
        if base_op == "/":
            fn = "fdiv" if common.is_float else "idiv"
        elif base_op == "%":
            fn = "imod"
        else:
            fn = _BINOP_FN[base_op]
        self.emit(f"{t} = _rt.{fn}(_ctx, _mn, {lhs}, {value})")
        if common != target:
            back = self.temp()
            self.emit(f"{back} = _rt.cast(_ctx, _mn, {t}, '{target.dtype}')")
            return back
        return t

    # -- calls -------------------------------------------------------------------
    def gen_Call(self, expr: A.Call) -> str:
        if getattr(expr, "convert_type", None) is not None:
            v = self.visit_expr(expr.args[0])
            t = self.temp()
            self.emit(f"{t} = _rt.cast(_ctx, _mn, {v}, '{expr.convert_type.dtype}')")
            return t
        builtin = getattr(expr, "builtin", None)
        if builtin is not None:
            if builtin.kind == "workitem":
                t = self.temp()
                if builtin.name == "get_work_dim":
                    self.emit(f"{t} = _ctx.get_work_dim()")
                else:
                    d = self.visit_expr(expr.args[0])
                    self.emit(f"{t} = _ctx.{builtin.name}(_rt.uniform({d}))")
                return t
            if builtin.kind == "barrier":
                self.emit("_rt.barrier(_ctx, _m)")
                return "None"
            if builtin.kind == "math":
                args = ", ".join(self.visit_expr(a) for a in expr.args)
                t = self.temp()
                self.emit(
                    f"{t} = _rt.math(_ctx, _mn, '{builtin.impl}', {builtin.weight}, {args})"
                )
                return t
            if builtin.kind == "atomic":
                return self._gen_atomic(expr, builtin)
            raise CLCompileError(  # pragma: no cover
                f"codegen: builtin kind {builtin.kind!r}", expr.line, expr.col
            )
        info: FunctionInfo = expr.func
        args = [self.visit_expr(a) for a in expr.args]
        t = self.temp()
        arg_list = ", ".join(["_ctx", "_m"] + args)
        self.emit(f"{t} = _fn_{info.name}({arg_list})")
        return t

    def _gen_atomic(self, expr: A.Call, builtin) -> str:
        ptr = expr.args[0]
        if isinstance(ptr, A.UnaryOp) and ptr.op == "&" and isinstance(ptr.operand, A.Index):
            base_sym = ptr.operand.base.symbol
            idx = self.visit_expr(ptr.operand.index)
        elif isinstance(ptr, A.VarRef) and isinstance(ptr.type, PointerType):
            base_sym = ptr.symbol
            idx = "_np.int64(0)"
        else:
            raise CLCompileError(
                f"{expr.name}: first argument must be &buf[i] or a pointer variable",
                expr.line,
                expr.col,
            )
        space = _space_of(base_sym)
        kind = "global" if space in ("global", "constant") else space
        vals = [self.visit_expr(a) for a in expr.args[1:]]
        t = self.temp()
        val_part = (", " + ", ".join(vals)) if vals else ""
        self.emit(
            f"{t} = _rt.atomic(_ctx, _mn, _m, '{builtin.name}', '{kind}', {base_sym.slot}, {idx}{val_part})"
        )
        return t


MODULE_PRELUDE = '''\
"""Generated by repro.clc.codegen — do not edit."""
import numpy as _np
from repro.clc import vecrt as _rt
'''


def generate_module(analyzed: AnalyzedProgram) -> str:
    """Generate the Python module source for an analyzed program."""
    parts = [MODULE_PRELUDE]
    barrier_fns = _barrier_functions(analyzed)
    for info in analyzed.functions.values():
        parts.append(FunctionCodegen(info, barrier_fns).generate())
        parts.append("")
    return "\n".join(parts)


def compile_module(analyzed: AnalyzedProgram) -> Dict[str, object]:
    """Exec the generated module; returns its namespace."""
    source = generate_module(analyzed)
    namespace: Dict[str, object] = {}
    code = compile(source, "<clc-codegen>", "exec")
    exec(code, namespace)
    namespace["__clc_source__"] = source
    return namespace
