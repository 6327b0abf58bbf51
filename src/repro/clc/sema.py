"""Semantic analysis: scopes, C-style typing, implicit conversions.

Annotates the AST in place:

* every expression node gets ``.type``;
* every :class:`~repro.clc.cast.VarRef` / ``VarDecl`` gets ``.symbol``;
* :class:`~repro.clc.cast.Call` nodes get ``.builtin`` (a
  :class:`~repro.clc.builtins.BuiltinCall`), ``.func`` (a
  :class:`FunctionInfo`) or ``.convert_type``;
* :class:`~repro.clc.cast.ImplicitCast` nodes are inserted wherever C's
  conversion rules demand one, so the backends never re-derive typing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.clc import cast as A
from repro.clc.builtins import BuiltinCall, is_builtin, resolve_builtin
from repro.clc.errors import CLCompileError
from repro.clc.types import (
    BOOL,
    INT,
    LONG,
    PointerType,
    SCALAR_TYPES,
    ScalarType,
    VOID,
    VoidType,
    integer_promote,
    usual_arithmetic_conversions,
)

_CONVERT_RE = re.compile(r"convert_([a-z]+)(?:_sat)?(?:_rt[ezpn])?$")


@dataclass
class Symbol:
    name: str
    slot: str  # unique python-level name
    type: object  # ScalarType or PointerType (arrays decay to pointers)
    kind: str  # "param" | "var" | "array"
    address_space: str = "private"
    is_const: bool = False
    array_size: Optional[int] = None


@dataclass
class FunctionInfo:
    name: str
    node: A.FuncDef
    return_type: object
    param_symbols: List[Symbol] = field(default_factory=list)
    arrays: List[Symbol] = field(default_factory=list)  # declared local/private arrays
    is_kernel: bool = False
    callees: Set[str] = field(default_factory=set)
    calls_barrier: bool = False  # calls barrier() itself (callees aside)

    @property
    def arg_kinds(self) -> List[str]:
        """Kernel argument classification for clSetKernelArg:
        "buffer" (global/constant pointer), "local" (local pointer),
        or "value" (scalar)."""
        kinds = []
        for sym in self.param_symbols:
            if isinstance(sym.type, PointerType):
                kinds.append("local" if sym.type.address_space == "local" else "buffer")
            else:
                kinds.append("value")
        return kinds


@dataclass
class AnalyzedProgram:
    program: A.Program
    functions: Dict[str, FunctionInfo]
    kernels: Dict[str, FunctionInfo]


class Scope:
    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self.names: Dict[str, Symbol] = {}

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def declare(self, sym: Symbol, node: A.Node) -> None:
        if sym.name in self.names:
            raise CLCompileError(f"redeclaration of {sym.name!r}", node.line, node.col)
        self.names[sym.name] = sym


class SemanticAnalyzer:
    def __init__(self, program: A.Program) -> None:
        self.program = program
        self.functions: Dict[str, FunctionInfo] = {}
        self._slot_counter = 0
        self._current: Optional[FunctionInfo] = None
        self._loop_depth = 0

    # ------------------------------------------------------------------
    def analyze(self) -> AnalyzedProgram:
        # Pass 1: signatures (allows forward references).
        for fn in self.program.functions:
            if fn.name in self.functions:
                raise CLCompileError(f"redefinition of function {fn.name!r}", fn.line, fn.col)
            if is_builtin(fn.name) or _CONVERT_RE.match(fn.name):
                raise CLCompileError(
                    f"cannot redefine builtin function {fn.name!r}", fn.line, fn.col
                )
            if fn.is_kernel and not isinstance(fn.return_type, VoidType):
                raise CLCompileError(
                    f"kernel {fn.name!r} must return void", fn.line, fn.col
                )
            info = FunctionInfo(fn.name, fn, fn.return_type, is_kernel=fn.is_kernel)
            for p in fn.params:
                if not p.name:
                    raise CLCompileError(
                        f"unnamed parameter in function {fn.name!r}", fn.line, fn.col
                    )
                space = p.param_type.address_space if isinstance(p.param_type, PointerType) else "private"
                if fn.is_kernel and isinstance(p.param_type, PointerType) and space == "private":
                    raise CLCompileError(
                        f"kernel argument {p.name!r} cannot be a private pointer", p.line, p.col
                    )
                sym = Symbol(
                    name=p.name,
                    slot=self._new_slot(p.name),
                    type=p.param_type,
                    kind="param",
                    address_space=space,
                    is_const=p.is_const or space == "constant",
                )
                p.symbol = sym  # type: ignore[attr-defined]
                info.param_symbols.append(sym)
            self.functions[fn.name] = info
        # Pass 2: bodies.
        for fn in self.program.functions:
            self._analyze_function(self.functions[fn.name])
        self._check_no_recursion()
        kernels = {n: f for n, f in self.functions.items() if f.is_kernel}
        return AnalyzedProgram(self.program, self.functions, kernels)

    def _new_slot(self, name: str) -> str:
        self._slot_counter += 1
        return f"{name}_{self._slot_counter}"

    def _check_no_recursion(self) -> None:
        state: Dict[str, int] = {}  # 0 visiting, 1 done

        def visit(name: str, chain: List[str]) -> None:
            if state.get(name) == 1:
                return
            if state.get(name) == 0:
                cycle = " -> ".join(chain + [name])
                node = self.functions[name].node
                raise CLCompileError(f"recursion is not allowed in OpenCL C: {cycle}", node.line, node.col)
            state[name] = 0
            for callee in self.functions[name].callees:
                visit(callee, chain + [name])
            state[name] = 1

        for name in self.functions:
            visit(name, [])

    # ------------------------------------------------------------------
    def _analyze_function(self, info: FunctionInfo) -> None:
        self._current = info
        scope = Scope()
        for sym in info.param_symbols:
            scope.declare(sym, info.node)
        self._visit_block(info.node.body, Scope(scope))
        self._current = None

    # -- statements -------------------------------------------------------
    def _visit_block(self, block: A.Block, scope: Scope) -> None:
        for i, stmt in enumerate(block.stmts):
            block.stmts[i] = self._visit_stmt(stmt, scope)

    def _visit_stmt(self, stmt: A.Stmt, scope: Scope) -> A.Stmt:
        if isinstance(stmt, A.Block):
            self._visit_block(stmt, Scope(scope))
            return stmt
        if isinstance(stmt, A.DeclStmt):
            for decl in stmt.decls:
                self._visit_decl(decl, scope)
            return stmt
        if isinstance(stmt, A.ExprStmt):
            stmt.expr = self._visit_expr(stmt.expr, scope)
            return stmt
        if isinstance(stmt, A.If):
            stmt.cond = self._coerce(self._visit_expr(stmt.cond, scope), BOOL)
            self._visit_block(stmt.then, Scope(scope))
            if stmt.els is not None:
                self._visit_block(stmt.els, Scope(scope))
            return stmt
        if isinstance(stmt, A.While):
            stmt.cond = self._coerce(self._visit_expr(stmt.cond, scope), BOOL)
            self._loop_depth += 1
            self._visit_block(stmt.body, Scope(scope))
            self._loop_depth -= 1
            return stmt
        if isinstance(stmt, A.DoWhile):
            self._loop_depth += 1
            self._visit_block(stmt.body, Scope(scope))
            self._loop_depth -= 1
            stmt.cond = self._coerce(self._visit_expr(stmt.cond, scope), BOOL)
            return stmt
        if isinstance(stmt, A.For):
            inner = Scope(scope)
            if stmt.init is not None:
                stmt.init = self._visit_stmt(stmt.init, inner)
            if stmt.cond is not None:
                stmt.cond = self._coerce(self._visit_expr(stmt.cond, inner), BOOL)
            if stmt.step is not None:
                stmt.step = self._visit_expr(stmt.step, inner)
            self._loop_depth += 1
            self._visit_block(stmt.body, Scope(inner))
            self._loop_depth -= 1
            return stmt
        if isinstance(stmt, (A.Break, A.Continue)):
            if self._loop_depth == 0:
                word = "break" if isinstance(stmt, A.Break) else "continue"
                raise CLCompileError(f"{word} outside of a loop", stmt.line, stmt.col)
            return stmt
        if isinstance(stmt, A.Return):
            ret = self._current.return_type
            if isinstance(ret, VoidType):
                if stmt.value is not None:
                    raise CLCompileError("void function cannot return a value", stmt.line, stmt.col)
            else:
                if stmt.value is None:
                    raise CLCompileError(
                        f"function returning {ret} needs a return value", stmt.line, stmt.col
                    )
                stmt.value = self._coerce(self._visit_expr(stmt.value, scope), ret)
            return stmt
        raise CLCompileError(f"unhandled statement {type(stmt).__name__}", stmt.line, stmt.col)

    def _visit_decl(self, decl: A.VarDecl, scope: Scope) -> None:
        var_type = decl.var_type
        if decl.array_size is not None:
            if isinstance(var_type, PointerType):
                raise CLCompileError("arrays of pointers are not supported", decl.line, decl.col)
            if decl.address_space == "constant":
                raise CLCompileError("constant arrays inside functions are not supported", decl.line, decl.col)
            if decl.init is not None:
                raise CLCompileError("array initialisers are not supported", decl.line, decl.col)
            sym = Symbol(
                name=decl.name,
                slot=self._new_slot(decl.name),
                type=PointerType(var_type, decl.address_space),
                kind="array",
                address_space=decl.address_space,
                is_const=decl.is_const,
                array_size=decl.array_size,
            )
            self._current.arrays.append(sym)
        else:
            if isinstance(var_type, PointerType):
                if decl.init is None:
                    raise CLCompileError(
                        f"pointer variable {decl.name!r} needs an initialiser", decl.line, decl.col
                    )
            if decl.address_space == "local":
                raise CLCompileError(
                    "__local scalars are not supported (use a 1-element array)", decl.line, decl.col
                )
            sym = Symbol(
                name=decl.name,
                slot=self._new_slot(decl.name),
                type=var_type,
                kind="var",
                address_space=decl.address_space,
                is_const=decl.is_const,
            )
            if decl.init is not None:
                init = self._visit_expr(decl.init, scope)
                if isinstance(var_type, PointerType):
                    if not isinstance(init.type, PointerType) or init.type.pointee != var_type.pointee:
                        raise CLCompileError(
                            f"cannot initialise {var_type} from {init.type}", decl.line, decl.col
                        )
                    decl.init = init
                else:
                    decl.init = self._coerce(init, var_type)
        decl.symbol = sym  # type: ignore[attr-defined]
        scope.declare(sym, decl)

    # -- expressions ------------------------------------------------------
    def _coerce(self, expr: A.Expr, to_type: object) -> A.Expr:
        if expr.type == to_type:
            return expr
        if isinstance(expr.type, PointerType) or isinstance(to_type, PointerType):
            raise CLCompileError(
                f"cannot convert {expr.type} to {to_type}", expr.line, expr.col
            )
        cast = A.ImplicitCast(target_type=to_type, expr=expr, line=expr.line, col=expr.col)
        cast.type = to_type  # type: ignore[attr-defined]
        return cast

    def _visit_expr(self, expr: A.Expr, scope: Scope) -> A.Expr:
        method = getattr(self, f"_visit_{type(expr).__name__}", None)
        if method is None:
            raise CLCompileError(f"unhandled expression {type(expr).__name__}", expr.line, expr.col)
        result = method(expr, scope)
        if not hasattr(result, "type"):
            raise CLCompileError(
                f"internal: no type derived for {type(expr).__name__}", expr.line, expr.col
            )
        return result

    def _visit_IntLiteral(self, expr: A.IntLiteral, scope: Scope) -> A.Expr:
        if expr.explicit_type is not None:
            expr.type = expr.explicit_type
        elif expr.value > 2**31 - 1:
            expr.type = LONG
        else:
            expr.type = INT
        return expr

    def _visit_FloatLiteral(self, expr: A.FloatLiteral, scope: Scope) -> A.Expr:
        expr.type = expr.explicit_type
        return expr

    def _visit_BoolLiteral(self, expr: A.BoolLiteral, scope: Scope) -> A.Expr:
        expr.type = BOOL
        return expr

    def _visit_VarRef(self, expr: A.VarRef, scope: Scope) -> A.Expr:
        sym = scope.lookup(expr.name)
        if sym is None:
            raise CLCompileError(f"use of undeclared identifier {expr.name!r}", expr.line, expr.col)
        expr.symbol = sym  # type: ignore[attr-defined]
        expr.type = sym.type
        return expr

    def _visit_UnaryOp(self, expr: A.UnaryOp, scope: Scope) -> A.Expr:
        expr.operand = self._visit_expr(expr.operand, scope)
        t = expr.operand.type
        if expr.op == "&":
            if not isinstance(expr.operand, A.Index):
                raise CLCompileError(
                    "address-of is only supported on buffer elements (&buf[i])",
                    expr.line,
                    expr.col,
                )
            base_t = expr.operand.base.type
            expr.type = PointerType(expr.operand.type, base_t.address_space)
            return expr
        if expr.op in ("++", "--"):
            self._require_lvalue(expr.operand)
            if not isinstance(t, ScalarType):
                raise CLCompileError(f"{expr.op} needs a scalar operand", expr.line, expr.col)
            expr.type = t
            return expr
        if not isinstance(t, ScalarType):
            raise CLCompileError(f"unary {expr.op} needs a scalar operand, got {t}", expr.line, expr.col)
        if expr.op == "!":
            expr.operand = self._coerce(expr.operand, BOOL)
            expr.type = BOOL  # C says int; BOOL promotes to int when used
            return expr
        if expr.op == "~":
            if t.is_float:
                raise CLCompileError("~ needs an integer operand", expr.line, expr.col)
            promoted = integer_promote(t)
            expr.operand = self._coerce(expr.operand, promoted)
            expr.type = promoted
            return expr
        # unary + / -
        promoted = integer_promote(t) if t.is_integer else t
        expr.operand = self._coerce(expr.operand, promoted)
        expr.type = promoted
        return expr

    def _visit_PostfixOp(self, expr: A.PostfixOp, scope: Scope) -> A.Expr:
        expr.operand = self._visit_expr(expr.operand, scope)
        self._require_lvalue(expr.operand)
        t = expr.operand.type
        if not isinstance(t, ScalarType):
            raise CLCompileError(f"{expr.op} needs a scalar operand", expr.line, expr.col)
        expr.type = t
        return expr

    def _require_lvalue(self, expr: A.Expr) -> None:
        if isinstance(expr, A.VarRef):
            sym = expr.symbol
            if sym.is_const:
                raise CLCompileError(f"cannot modify const {sym.name!r}", expr.line, expr.col)
            if sym.kind == "array":
                raise CLCompileError(f"cannot assign to array {sym.name!r}", expr.line, expr.col)
            return
        if isinstance(expr, A.Index):
            base_t = expr.base.type
            if isinstance(base_t, PointerType) and base_t.address_space == "constant":
                raise CLCompileError("cannot write through a __constant pointer", expr.line, expr.col)
            return
        raise CLCompileError("expression is not assignable", expr.line, expr.col)

    def _visit_BinaryOp(self, expr: A.BinaryOp, scope: Scope) -> A.Expr:
        if expr.op == ",":
            expr.lhs = self._visit_expr(expr.lhs, scope)
            expr.rhs = self._visit_expr(expr.rhs, scope)
            expr.type = expr.rhs.type
            return expr
        expr.lhs = self._visit_expr(expr.lhs, scope)
        expr.rhs = self._visit_expr(expr.rhs, scope)
        lt, rt = expr.lhs.type, expr.rhs.type
        if expr.op in ("&&", "||"):
            expr.lhs = self._coerce(expr.lhs, BOOL)
            expr.rhs = self._coerce(expr.rhs, BOOL)
            expr.type = BOOL
            return expr
        if not (isinstance(lt, ScalarType) and isinstance(rt, ScalarType)):
            raise CLCompileError(
                f"operator {expr.op!r} needs scalar operands, got {lt} and {rt} "
                "(pointer arithmetic is not supported; use indexing)",
                expr.line,
                expr.col,
            )
        if expr.op in ("==", "!=", "<", ">", "<=", ">="):
            common = usual_arithmetic_conversions(lt, rt)
            expr.lhs = self._coerce(expr.lhs, common)
            expr.rhs = self._coerce(expr.rhs, common)
            expr.type = BOOL
            return expr
        if expr.op in ("<<", ">>"):
            if lt.is_float or rt.is_float:
                raise CLCompileError("shift needs integer operands", expr.line, expr.col)
            result = integer_promote(lt)
            expr.lhs = self._coerce(expr.lhs, result)
            expr.rhs = self._coerce(expr.rhs, result)
            expr.type = result
            return expr
        if expr.op in ("&", "|", "^", "%"):
            if expr.op == "%" and (lt.is_float or rt.is_float):
                raise CLCompileError("% needs integer operands (use fmod for floats)", expr.line, expr.col)
            if expr.op != "%" and (lt.is_float or rt.is_float):
                raise CLCompileError(f"{expr.op} needs integer operands", expr.line, expr.col)
            common = usual_arithmetic_conversions(lt, rt)
            expr.lhs = self._coerce(expr.lhs, common)
            expr.rhs = self._coerce(expr.rhs, common)
            expr.type = common
            return expr
        if expr.op in ("+", "-", "*", "/"):
            common = usual_arithmetic_conversions(lt, rt)
            expr.lhs = self._coerce(expr.lhs, common)
            expr.rhs = self._coerce(expr.rhs, common)
            expr.type = common
            return expr
        raise CLCompileError(f"unknown binary operator {expr.op!r}", expr.line, expr.col)

    def _visit_Assign(self, expr: A.Assign, scope: Scope) -> A.Expr:
        expr.target = self._visit_expr(expr.target, scope)
        self._require_lvalue(expr.target)
        expr.value = self._visit_expr(expr.value, scope)
        target_t = expr.target.type
        if isinstance(target_t, PointerType):
            raise CLCompileError("cannot reassign pointers", expr.line, expr.col)
        if expr.op == "=":
            expr.value = self._coerce(expr.value, target_t)
            expr.common_type = target_t  # type: ignore[attr-defined]
        else:
            base_op = expr.op[:-1]
            vt = expr.value.type
            if not isinstance(vt, ScalarType):
                raise CLCompileError(f"operator {expr.op!r} needs a scalar value", expr.line, expr.col)
            if base_op in ("<<", ">>"):
                if target_t.is_float or vt.is_float:
                    raise CLCompileError("shift needs integer operands", expr.line, expr.col)
                common = integer_promote(target_t)
            elif base_op in ("&", "|", "^", "%"):
                if target_t.is_float or vt.is_float:
                    raise CLCompileError(f"{base_op} needs integer operands", expr.line, expr.col)
                common = usual_arithmetic_conversions(target_t, vt)
            else:
                common = usual_arithmetic_conversions(target_t, vt)
            expr.value = self._coerce(expr.value, common)
            expr.common_type = common  # type: ignore[attr-defined]
        expr.type = target_t
        return expr

    def _visit_Index(self, expr: A.Index, scope: Scope) -> A.Expr:
        expr.base = self._visit_expr(expr.base, scope)
        expr.index = self._coerce(self._visit_expr(expr.index, scope), LONG)
        base_t = expr.base.type
        if not isinstance(base_t, PointerType):
            raise CLCompileError(f"cannot index a value of type {base_t}", expr.line, expr.col)
        if not isinstance(expr.base, A.VarRef):
            raise CLCompileError(
                "indexing is only supported directly on pointer variables", expr.line, expr.col
            )
        expr.type = base_t.pointee
        return expr

    def _visit_Cast(self, expr: A.Cast, scope: Scope) -> A.Expr:
        expr.expr = self._visit_expr(expr.expr, scope)
        if not isinstance(expr.expr.type, ScalarType):
            raise CLCompileError(f"cannot cast {expr.expr.type} to {expr.target_type}", expr.line, expr.col)
        expr.type = expr.target_type
        return expr

    def _visit_ImplicitCast(self, expr: A.ImplicitCast, scope: Scope) -> A.Expr:
        # Only created by sema itself; already typed.
        return expr

    def _visit_Ternary(self, expr: A.Ternary, scope: Scope) -> A.Expr:
        expr.cond = self._coerce(self._visit_expr(expr.cond, scope), BOOL)
        expr.then = self._visit_expr(expr.then, scope)
        expr.els = self._visit_expr(expr.els, scope)
        tt, et = expr.then.type, expr.els.type
        if not (isinstance(tt, ScalarType) and isinstance(et, ScalarType)):
            raise CLCompileError("ternary branches must be scalars", expr.line, expr.col)
        common = usual_arithmetic_conversions(tt, et)
        expr.then = self._coerce(expr.then, common)
        expr.els = self._coerce(expr.els, common)
        expr.type = common
        return expr

    def _visit_Call(self, expr: A.Call, scope: Scope) -> A.Expr:
        for i, arg in enumerate(expr.args):
            expr.args[i] = self._visit_expr(arg, scope)
        arg_types = [a.type for a in expr.args]

        m = _CONVERT_RE.match(expr.name)
        if m:
            type_name = m.group(1)
            target = SCALAR_TYPES.get(type_name)
            if target is None:
                raise CLCompileError(f"unknown conversion {expr.name!r}", expr.line, expr.col)
            if len(expr.args) != 1 or not isinstance(arg_types[0], ScalarType):
                raise CLCompileError(f"{expr.name} expects one scalar argument", expr.line, expr.col)
            expr.convert_type = target  # type: ignore[attr-defined]
            expr.builtin = None  # type: ignore[attr-defined]
            expr.func = None  # type: ignore[attr-defined]
            expr.type = target
            return expr

        builtin = resolve_builtin(expr.name, arg_types, expr)
        if builtin is not None:
            for i, (arg, want) in enumerate(zip(expr.args, builtin.arg_types)):
                if isinstance(want, ScalarType) and arg.type != want:
                    expr.args[i] = self._coerce(arg, want)
                elif isinstance(want, PointerType):
                    if not isinstance(arg.type, PointerType) or arg.type.pointee != want.pointee:
                        raise CLCompileError(
                            f"{expr.name}: argument {i + 1} must be {want}", expr.line, expr.col
                        )
            if builtin.kind == "barrier" and self._current is not None:
                self._current.calls_barrier = True
            expr.builtin = builtin  # type: ignore[attr-defined]
            expr.func = None  # type: ignore[attr-defined]
            expr.convert_type = None  # type: ignore[attr-defined]
            expr.type = builtin.result_type
            return expr

        info = self.functions.get(expr.name)
        if info is None:
            raise CLCompileError(f"call to undefined function {expr.name!r}", expr.line, expr.col)
        if len(expr.args) != len(info.param_symbols):
            raise CLCompileError(
                f"{expr.name} expects {len(info.param_symbols)} argument(s), got {len(expr.args)}",
                expr.line,
                expr.col,
            )
        for i, (arg, psym) in enumerate(zip(expr.args, info.param_symbols)):
            if isinstance(psym.type, PointerType):
                at = arg.type
                if not isinstance(at, PointerType) or at.pointee != psym.type.pointee:
                    raise CLCompileError(
                        f"{expr.name}: argument {i + 1} must be {psym.type}, got {at}",
                        expr.line,
                        expr.col,
                    )
            else:
                expr.args[i] = self._coerce(arg, psym.type)
        if self._current is not None:
            self._current.callees.add(expr.name)
        expr.func = info  # type: ignore[attr-defined]
        expr.builtin = None  # type: ignore[attr-defined]
        expr.convert_type = None  # type: ignore[attr-defined]
        expr.type = info.return_type
        return expr


def analyze(program: A.Program) -> AnalyzedProgram:
    return SemanticAnalyzer(program).analyze()
