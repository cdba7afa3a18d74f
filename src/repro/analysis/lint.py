"""BLC source linter.

Flow-aware, whole-function lint over the type-annotated AST.  Rule
catalog (stable IDs, see docs/static-analysis.md):

========  =============================================================
``L001``  use of a local variable that may be uninitialized on some path
``L002``  unreachable statement (after return/break/continue or an
          if/else in which every branch transfers control away)
``L003``  constant condition (always true / always false); the idiomatic
          infinite-loop forms ``while (1)`` / ``for (;;)`` are exempt
``L004``  dead store: a local is assigned and then reassigned in the
          same straight-line run without the value ever being read
``L005``  suspicious floating-point equality (``==`` / ``!=`` on
          ``double`` operands)
``L006``  provably zero-trip ``for`` loop: literal init and bound where
          the first test already fails (the SCEV closed form,
          :func:`repro.analysis.scev.closed_trip_count`, proves the
          body never executes)
========  =============================================================

Suppression: append ``// lint: disable=L001`` (or a comma list, or
``disable=all``) to the offending line; block comments work as well.

The linter runs sema for type information but tolerates semantically
invalid programs (syntactic rules still apply); parse failures surface
as :class:`~repro.bcc.errors.CompileError` for the CLI to render.  Only
diagnostics in the user's file are reported — the runtime library is
parsed for symbol context but never linted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.bcc import ast_nodes as A
from repro.bcc.driver import runtime_decls
from repro.bcc.errors import CompileError
from repro.bcc.parser import parse
from repro.bcc.sema import analyze

__all__ = ["LintDiagnostic", "RULES", "lint_source", "lint_path"]

#: rule id -> one-line description (the lint rule catalog)
RULES: dict[str, str] = {
    "L001": "use of a possibly-uninitialized local variable",
    "L002": "unreachable statement",
    "L003": "constant condition",
    "L004": "dead store (value overwritten before any read)",
    "L005": "floating-point equality comparison",
    "L006": "provably zero-trip loop (body never executes)",
}

_SUPPRESS_RE = re.compile(
    r"(?://|/\*).*?lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class LintDiagnostic:
    """One lint finding with its source span."""

    rule: str
    message: str
    filename: str
    line: int
    col: int

    def format(self) -> str:
        return (f"{self.filename}:{self.line}:{self.col}: "
                f"{self.rule}: {self.message}")


def _suppressions(source: str) -> dict[int, set[str]]:
    """line number -> rule ids disabled on that line."""
    out: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            ids = {part.strip().upper()
                   for part in match.group(1).split(",") if part.strip()}
            out[lineno] = ids
    return out


def _const_value(expr: A.Expr | None) -> int | None:
    """Best-effort compile-time integer value of *expr* (literals only)."""
    if isinstance(expr, (A.IntLit, A.CharLit)):
        return expr.value
    if isinstance(expr, A.Unary):
        inner = _const_value(expr.operand)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "!":
            return int(not inner)
        if expr.op == "~":
            return ~inner
        return None
    if isinstance(expr, A.Binary):
        left = _const_value(expr.left)
        right = _const_value(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": lambda a, b: a + b, "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: int(a / b) if b else None,
                "%": lambda a, b: a - b * int(a / b) if b else None,
                "==": lambda a, b: int(a == b),
                "!=": lambda a, b: int(a != b),
                "<": lambda a, b: int(a < b),
                "<=": lambda a, b: int(a <= b),
                ">": lambda a, b: int(a > b),
                ">=": lambda a, b: int(a >= b),
                "&&": lambda a, b: int(bool(a) and bool(b)),
                "||": lambda a, b: int(bool(a) or bool(b)),
                "&": lambda a, b: a & b, "|": lambda a, b: a | b,
                "^": lambda a, b: a ^ b,
                "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
            }[expr.op](left, right)
        except (KeyError, ValueError, ZeroDivisionError, TypeError):
            return None
    return None


def _is_double(expr: A.Expr | None) -> bool:
    if isinstance(expr, A.DoubleLit):
        return True
    ctype = getattr(expr, "ctype", None)
    return ctype is not None and bool(ctype.is_double)


class _FunctionLinter:
    """Lints one user-file function definition."""

    def __init__(self, func: A.FuncDef, filename: str) -> None:
        self.func = func
        self.filename = filename
        self.diagnostics: list[LintDiagnostic] = []
        #: locals whose address is taken anywhere — excluded from the
        #: init/dead-store tracking (writes may happen through pointers)
        self.address_taken: set[str] = set()
        self._collect_address_taken(func.body)

    def emit(self, rule: str, message: str, node: A.Node) -> None:
        self.diagnostics.append(LintDiagnostic(
            rule, message, self.filename, node.line, node.col))

    # -- address-taken pre-scan -------------------------------------------

    def _collect_address_taken(self, node: object) -> None:
        if isinstance(node, A.Unary) and node.op == "&" and \
                isinstance(node.operand, A.Ident):
            self.address_taken.add(node.operand.name)
        for child in _children(node):
            self._collect_address_taken(child)

    # -- expression walk (init tracking + expression rules) ----------------

    def visit_expr(self, expr: A.Expr | None, init: set[str],
                   declared: set[str]) -> None:
        """Check reads in *expr* and update *init* with assignments."""
        if expr is None:
            return
        if isinstance(expr, A.Ident):
            self._check_read(expr, init, declared)
            return
        if isinstance(expr, A.Unary):
            if expr.op == "&" and isinstance(expr.operand, A.Ident):
                init.add(expr.operand.name)  # may be written via pointer
                return
            self.visit_expr(expr.operand, init, declared)
            return
        if isinstance(expr, A.Assign):
            if expr.op is not None:  # compound assignment reads first
                self.visit_expr(expr.target, init, declared)
            elif not isinstance(expr.target, A.Ident):
                self.visit_expr(expr.target, init, declared)
            self.visit_expr(expr.value, init, declared)
            if isinstance(expr.target, A.Ident):
                init.add(expr.target.name)
            return
        if isinstance(expr, A.IncDec):
            self.visit_expr(expr.operand, init, declared)
            return
        if isinstance(expr, A.Binary):
            self.visit_expr(expr.left, init, declared)
            if expr.op in ("&&", "||"):
                # right side conditionally evaluated: reads are checked,
                # but assignments inside it are not guaranteed
                branch = set(init)
                self.visit_expr(expr.right, branch, declared)
            else:
                self.visit_expr(expr.right, init, declared)
            if expr.op in ("==", "!=") and \
                    (_is_double(expr.left) or _is_double(expr.right)):
                self.emit("L005",
                          f"floating-point `{expr.op}` is exact; "
                          f"comparing computed doubles for equality "
                          f"rarely means what it says", expr)
            return
        if isinstance(expr, A.Cond):
            self.visit_expr(expr.cond, init, declared)
            then_env, else_env = set(init), set(init)
            self.visit_expr(expr.then, then_env, declared)
            self.visit_expr(expr.otherwise, else_env, declared)
            init |= (then_env & else_env)
            return
        for child in _children(expr):
            if isinstance(child, A.Expr):
                self.visit_expr(child, init, declared)

    def _check_read(self, ident: A.Ident, init: set[str],
                    declared: set[str]) -> None:
        name = ident.name
        symbol = getattr(ident, "symbol", None)
        kind = getattr(symbol, "kind", None)
        if kind not in (None, "local"):
            return  # params and globals are always initialized
        if name not in declared or name in self.address_taken:
            return
        if name not in init:
            self.emit("L001",
                      f"{name!r} may be used before it is initialized",
                      ident)
            init.add(name)  # one report per flow path

    # -- statement walk ----------------------------------------------------

    def visit_stmt(self, stmt: A.Stmt | None, init: set[str],
                   declared: set[str]) -> bool:
        """Lint *stmt*; returns True when it always transfers control
        away (return/break/continue on every path)."""
        if stmt is None or isinstance(stmt, A.Empty):
            return False
        if isinstance(stmt, A.Block):
            return self._visit_block(stmt, init, declared)
        if isinstance(stmt, A.VarDecl):
            declared.add(stmt.name)
            if stmt.init is not None:
                self.visit_expr(stmt.init, init, declared)
                init.add(stmt.name)
            ctype = getattr(getattr(stmt, "symbol", None), "ctype", None)
            if ctype is not None and not ctype.is_scalar:
                init.add(stmt.name)  # aggregates: storage exists
            return False
        if isinstance(stmt, A.ExprStmt):
            self.visit_expr(stmt.expr, init, declared)
            return False
        if isinstance(stmt, A.If):
            self._check_condition(stmt.cond, loop=False)
            self.visit_expr(stmt.cond, init, declared)
            then_env, else_env = set(init), set(init)
            then_ends = self.visit_stmt(stmt.then, then_env, declared)
            else_ends = self.visit_stmt(stmt.otherwise, else_env,
                                        declared)
            if stmt.otherwise is None:
                else_ends = False
            if then_ends and else_ends:
                return True
            if then_ends:
                init |= else_env
            elif else_ends:
                init |= then_env
            else:
                init |= (then_env & else_env)
            return False
        if isinstance(stmt, A.While):
            self._check_condition(stmt.cond, loop=True)
            self.visit_expr(stmt.cond, init, declared)
            body_env = set(init)
            self.visit_stmt(stmt.body, body_env, declared)
            return False  # body may run zero times
        if isinstance(stmt, A.DoWhile):
            ended = self.visit_stmt(stmt.body, init, declared)
            self._check_condition(stmt.cond, loop=True)
            if not ended:
                self.visit_expr(stmt.cond, init, declared)
            return False
        if isinstance(stmt, A.For):
            self.visit_stmt(stmt.init, init, declared)
            if stmt.cond is not None:
                self._check_condition(stmt.cond, loop=True)
                self._check_zero_trip(stmt)
                self.visit_expr(stmt.cond, init, declared)
            body_env = set(init)
            self.visit_stmt(stmt.body, body_env, declared)
            if stmt.step is not None:
                self.visit_expr(stmt.step, body_env, declared)
            return False
        if isinstance(stmt, A.Return):
            self.visit_expr(stmt.value, init, declared)
            return True
        if isinstance(stmt, (A.Break, A.Continue)):
            return True
        return False

    def _visit_block(self, block: A.Block, init: set[str],
                     declared: set[str]) -> bool:
        ended = False
        reported_unreachable = False
        for stmt in block.statements:
            if ended and not reported_unreachable \
                    and not isinstance(stmt, A.Empty):
                self.emit("L002", "statement is unreachable", stmt)
                reported_unreachable = True
            if not ended:
                ended = self.visit_stmt(stmt, init, declared)
            else:
                # still lint the dead code with a scratch environment
                self.visit_stmt(stmt, set(init), declared)
        self._check_dead_stores(block)
        return ended

    # -- L003 --------------------------------------------------------------

    def _check_condition(self, cond: A.Expr | None, loop: bool) -> None:
        if cond is None:
            return
        value = _const_value(cond)
        if value is None:
            return
        if loop and isinstance(cond, (A.IntLit, A.CharLit)) and value:
            return  # `while (1)`: the idiomatic infinite loop
        outcome = "true" if value else "false"
        self.emit("L003", f"condition is always {outcome}", cond)

    # -- L006 --------------------------------------------------------------

    _PRED = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge",
             "==": "eq", "!=": "ne"}
    _MIRROR = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le",
               "eq": "eq", "ne": "ne"}

    @staticmethod
    def _for_init(init: A.Stmt | None) -> tuple[str, int] | None:
        """``i = <const>`` / ``int i = <const>`` -> (name, base value)."""
        if isinstance(init, A.VarDecl) and init.init is not None:
            value = _const_value(init.init)
            return None if value is None else (init.name, value)
        if isinstance(init, A.ExprStmt) and \
                isinstance(init.expr, A.Assign) and \
                init.expr.op is None and \
                isinstance(init.expr.target, A.Ident):
            value = _const_value(init.expr.value)
            return (None if value is None
                    else (init.expr.target.name, value))
        return None

    def _for_test(self, cond: A.Expr,
                  name: str) -> tuple[str, int] | None:
        """``i <op> <const>`` (either side) -> (normalized pred, bound)."""
        if not isinstance(cond, A.Binary) or cond.op not in self._PRED:
            return None
        pred = self._PRED[cond.op]
        if isinstance(cond.left, A.Ident) and cond.left.name == name:
            bound = _const_value(cond.right)
            return None if bound is None else (pred, bound)
        if isinstance(cond.right, A.Ident) and cond.right.name == name:
            bound = _const_value(cond.left)
            return (None if bound is None
                    else (self._MIRROR[pred], bound))
        return None

    @staticmethod
    def _for_step(step: A.Expr | None, name: str) -> int | None:
        """The per-iteration constant increment of *name*, if decodable."""
        if isinstance(step, A.IncDec) and \
                isinstance(step.operand, A.Ident) and \
                step.operand.name == name:
            return 1 if step.op == "++" else -1
        if not (isinstance(step, A.Assign)
                and isinstance(step.target, A.Ident)
                and step.target.name == name):
            return None
        if step.op in ("+", "-"):
            value = _const_value(step.value)
            if value is None:
                return None
            return value if step.op == "+" else -value
        if step.op is None and isinstance(step.value, A.Binary) and \
                step.value.op in ("+", "-"):
            binary = step.value
            if isinstance(binary.left, A.Ident) and \
                    binary.left.name == name:
                value = _const_value(binary.right)
                if value is not None:
                    return value if binary.op == "+" else -value
            if binary.op == "+" and isinstance(binary.right, A.Ident) \
                    and binary.right.name == name:
                return _const_value(binary.left)
        return None

    def _check_zero_trip(self, stmt: A.For) -> None:
        """L006: the canonical counted-``for`` shape with a literal base
        and bound whose *first* test already fails.  Nothing runs between
        the init store and the test (the condition is a pure compare), so
        the claim holds even for address-taken or global counters."""
        # lazy import: repro.analysis.scev sits above this module
        from repro.analysis.scev import closed_trip_count

        seed = self._for_init(stmt.init)
        if seed is None or stmt.cond is None:
            return
        name, base = seed
        decoded = self._for_test(stmt.cond, name)
        if decoded is None:
            return
        pred, bound = decoded
        step = self._for_step(stmt.step, name)
        if closed_trip_count(base, step or 0, bound, pred,
                             offset=0) == 0:
            self.emit("L006",
                      f"loop is provably zero-trip: {name!r} starts at "
                      f"{base}, so the first test already fails and the "
                      f"body never executes", stmt.cond)

    # -- L004 --------------------------------------------------------------

    @staticmethod
    def _plain_store_target(stmt: A.Stmt) -> A.Ident | None:
        """The Ident a statement plainly assigns, if it is a simple
        ``x = expr;`` / ``int x = expr;`` store."""
        if isinstance(stmt, A.ExprStmt) and \
                isinstance(stmt.expr, A.Assign) and \
                stmt.expr.op is None and \
                isinstance(stmt.expr.target, A.Ident):
            return stmt.expr.target
        return None

    def _check_dead_stores(self, block: A.Block) -> None:
        #: name -> (store node, value-expression) of the pending store
        pending: dict[str, A.Node] = {}
        for stmt in block.statements:
            target = self._plain_store_target(stmt)
            value = stmt.expr.value if target is not None else None
            if target is None and isinstance(stmt, A.VarDecl) and \
                    stmt.init is not None:
                # declarations start a pending store as well
                reads = _idents_read(stmt.init)
                for name in list(pending):
                    if name in reads:
                        del pending[name]
                pending[stmt.name] = stmt
                continue
            if target is None:
                # any other statement is a barrier (control flow, calls,
                # pointer writes): drop everything
                pending.clear()
                continue
            reads = _idents_read(value)
            for name in list(pending):
                if name in reads:
                    del pending[name]
            name = target.name
            if _contains_call(value):
                # the overwritten value is dead, but the call makes the
                # statement effectful — keep it simple, reset
                pending.pop(name, None)
            elif name in pending and name not in self.address_taken:
                prior = pending[name]
                self.emit("L004",
                          f"value stored to {name!r} is overwritten "
                          f"before it is ever read", prior)
                pending[name] = stmt
            else:
                pending[name] = stmt

    # -- driver ------------------------------------------------------------

    def run(self) -> list[LintDiagnostic]:
        init = {p.name for p in self.func.params}
        declared: set[str] = set()
        self.visit_stmt(self.func.body, init, declared)
        return self.diagnostics


def _children(node: object) -> list[object]:
    """AST children of a dataclass node (lists flattened)."""
    out: list[object] = []
    if not isinstance(node, A.Node):
        return out
    for value in vars(node).values():
        if isinstance(value, A.Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, A.Node))
    return out


def _idents_read(expr: object) -> set[str]:
    """Names read inside *expr* (plain-assignment targets excluded)."""
    names: set[str] = set()

    def walk(node: object) -> None:
        if isinstance(node, A.Ident):
            names.add(node.name)
            return
        if isinstance(node, A.Assign) and node.op is None and \
                isinstance(node.target, A.Ident):
            walk(node.value)
            return
        for child in _children(node):
            walk(child)

    walk(expr)
    return names


def _contains_call(expr: object) -> bool:
    if isinstance(expr, A.Call):
        return True
    return any(_contains_call(c) for c in _children(expr))


def lint_source(source: str, filename: str = "<input>"
                ) -> list[LintDiagnostic]:
    """Lint BLC *source*; returns diagnostics sorted by position.

    Raises :class:`~repro.bcc.errors.CompileError` only for parse
    failures; type errors degrade the type-aware rules gracefully.
    """
    decls = runtime_decls()
    user = parse(source, filename)
    decls.extend(user.decls)
    program = A.Program(decls)
    try:
        analyze(program)
    except CompileError:
        pass  # lint what we can without full type annotations
    suppressed = _suppressions(source)
    diagnostics: list[LintDiagnostic] = []
    for decl in user.decls:
        if isinstance(decl, A.FuncDef) and decl.body is not None:
            diagnostics.extend(
                _FunctionLinter(decl, filename).run())
    kept = []
    for diag in sorted(diagnostics, key=lambda d: (d.line, d.col, d.rule)):
        rules = suppressed.get(diag.line, set())
        if diag.rule in rules or "ALL" in rules:
            continue
        kept.append(diag)
    return kept


def lint_path(path: str) -> list[LintDiagnostic]:
    """Lint the BLC file at *path*."""
    with open(path, encoding="utf-8") as handle:
        return lint_source(handle.read(), path)
