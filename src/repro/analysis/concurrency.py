"""LF08 — page-lock discipline: ordered, unwindable, strict two-phase.

The served core runs every unit on the one thread that owns the service
(``LabFlowService`` refuses any other), so there are no ``threading``
locks left to order.  What still needs proving is the discipline of the
*page* locks ``LockManager`` hands out: they are logical, held across
the interleaved units of many sessions, and a protocol slip on an error
path stays latent until one interleaving hits it.

The rule runs over one interprocedural :class:`ConcurrencyModel` of the
project:

* a call graph with type-inference-lite receiver resolution (constructor
  assignments, parameter annotations, container element types);
* per function, whether it can (transitively) acquire, release or
  downgrade page locks;
* per ``for`` loop, whether it iterates a canonically ordered source
  (``sorted`` results tracked through locals), and which ``try``/``with``
  statements of its function enclose it.

**LF08** reports, anywhere in the storage stack (``repro.storage``,
``repro.labbase``, ``repro.server``):

* a loop that (transitively) acquires locks while iterating a
  non-canonically-ordered source — two sessions would take the same
  pages in different orders;
* a loop that takes locks one at a time (an acquire call in its body)
  with no way to give a partial acquisition back: no enclosing ``with``,
  and no ``try`` around or inside it whose ``finally`` runs or whose
  handler (transitively) releases or downgrades;

and, on the 2PL policy layer (``repro.labbase.sessions`` +
``repro.server``):

* a page-lock release outside an ``except``/``finally`` unwind path and
  not covered by a justified ``# lint: ignore[LF08]`` — moving a release
  before unit end becomes a visible diff;
* a rollback handler that partially unwinds page locks
  (``unlock_page``) without restoring upgrades (``downgrade_page``) —
  the lock-upgrade leak fixed once already, generalized.

The two loop checks are what the retired LF04 checked by call name
alone, widened into dataflow: ``sorted`` results tracked through
locals, acquisition and release detected through callees.

The model is deliberately conservative-but-honest: unresolved calls add
no edges, so the rule under-reports rather than guesses; the fixture
corpus under ``tests/lint_fixtures/LF08/`` pins what must be caught.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    SourceModule,
    _receiver_is_self,
    in_storage_stack,
)

#: Modules that own the strict-2PL *policy* (release timing).  The lock
#: manager itself (``storage/locks.py``) is mechanism, not policy.
_POLICY_PREFIXES = ("repro.labbase.sessions", "repro.server")

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "add", "discard", "remove",
        "pop", "popitem", "clear", "update", "setdefault", "sort",
        "reverse",
    }
)

_PAGE_ACQUIRE = frozenset(
    {"acquire", "lock_page", "lock_object", "lock_objects", "lock_material"}
)
_PAGE_RELEASE = frozenset(
    {"unlock_page", "unlock_all", "release", "release_all", "unlock",
     "release_locks"}
)
_PAGE_DOWNGRADE = frozenset({"downgrade_page", "downgrade"})
_PAGE_UNWIND = _PAGE_RELEASE | _PAGE_DOWNGRADE

#: Iteration sources LF08's sorted-loop check accepts outright.
_ORDERED_ITER_CALLS = frozenset({"sorted", "range", "enumerate", "zip", "reversed"})

#: Method names too generic for name-unique fallback resolution — they
#: belong to ubiquitous stdlib types (Thread, socket, file, dict ...),
#: so an untyped receiver must not resolve to a project class.
_FALLBACK_DENY = frozenset(
    {
        "start", "stop", "join", "close", "open", "get", "put", "read",
        "write", "flush", "send", "recv", "accept", "bind", "listen",
        "connect", "shutdown", "wait", "notify", "notify_all", "set",
        "is_set", "acquire", "release", "items", "keys", "values",
        "copy", "run", "name",
    }
)


def in_lock_policy(name: str) -> bool:
    return name.startswith(_POLICY_PREFIXES)


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


# ---------------------------------------------------------------------------
# Model data
# ---------------------------------------------------------------------------


@dataclass
class FuncInfo:
    """One function/method, addressable by qualified name."""

    qualname: str
    module: SourceModule
    node: ast.FunctionDef
    owner: str | None = None       #: class name for methods
    nested_in: str | None = None   #: parent function qualname

    # Populated by the scanner:
    calls: list["CallEvent"] = field(default_factory=list)
    loops: list["LoopEvent"] = field(default_factory=list)
    direct_names: set[str] = field(default_factory=set)  #: called names


@dataclass
class CallEvent:
    callee: str             #: resolved qualname
    node: ast.AST


@dataclass
class LoopEvent:
    """One ``for`` loop, with its iteration-source classification."""

    node: ast.For
    func: str
    ordered: bool           #: iterates a canonically ordered source
    body_names: set[str]    #: call names in the loop body
    body_callees: set[str]  #: resolved qualnames called in the body
    #: the ``try``/``with`` statements around the loop in its function
    guards: tuple[ast.Try | ast.With, ...]


@dataclass
class ClassInfo:
    name: str
    module: SourceModule
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, FuncInfo] = field(default_factory=dict)
    attr_types: dict[str, tuple[str, str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------


class ConcurrencyModel:
    """Everything LF08 needs, built once per project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FuncInfo] = {}
        #: (module name, bare name) -> qualname, for top-level functions
        self.module_funcs: dict[tuple[str, str], str] = {}
        #: per module: imported name -> (source module, source name)
        self.imports: dict[str, dict[str, tuple[str, str]]] = {}

        self._index()
        self._infer_attr_types()
        for info in list(self.functions.values()):
            _FunctionScanner(self, info).run()
        self._close_flags()

    # -- indexing ------------------------------------------------------------

    def _index(self) -> None:
        for module in self.project:
            imports: dict[str, tuple[str, str]] = {}
            self.imports[module.name] = imports
            for node in module.tree.body:
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        imports[alias.asname or alias.name] = (
                            node.module, alias.name
                        )
                elif isinstance(node, ast.FunctionDef):
                    self._index_function(module, node, owner=None, parent=None)
                elif isinstance(node, ast.ClassDef):
                    self._index_class(module, node)

    def _index_class(self, module: SourceModule, node: ast.ClassDef) -> None:
        bases = tuple(
            base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))
        )
        info = ClassInfo(node.name, module, node, bases)
        # First definition wins (fixture modules may shadow real names).
        self.classes.setdefault(node.name, info)
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                fn = self._index_function(
                    module, item, owner=node.name, parent=None
                )
                info.methods[item.name] = fn

    def _index_function(
        self,
        module: SourceModule,
        node: ast.FunctionDef,
        owner: str | None,
        parent: str | None,
    ) -> FuncInfo:
        if parent is not None:
            qualname = f"{parent}.{node.name}"
        elif owner is not None:
            qualname = f"{module.name}.{owner}.{node.name}"
        else:
            qualname = f"{module.name}.{node.name}"
        info = FuncInfo(qualname, module, node, owner=owner, nested_in=parent)
        self.functions[qualname] = info
        if owner is None and parent is None:
            self.module_funcs[(module.name, node.name)] = qualname
        for child in node.body:
            self._index_nested(module, child, owner, qualname)
        return info

    def _index_nested(
        self,
        module: SourceModule,
        node: ast.stmt,
        owner: str | None,
        parent: str,
    ) -> None:
        if isinstance(node, ast.FunctionDef):
            self._index_function(module, node, owner=owner, parent=parent)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._index_nested(module, child, owner, parent)

    # -- attribute types -----------------------------------------------------

    def _infer_attr_types(self) -> None:
        for cls in self.classes.values():
            for method in cls.methods.values():
                for stmt in ast.walk(method.node):
                    self._attr_assignment(cls, stmt)
            # One-hop property resolution: ``@property def x: return self._y``
            for name, method in cls.methods.items():
                if not _is_property(method.node):
                    continue
                body = method.node.body
                last = body[-1] if body else None
                if (
                    isinstance(last, ast.Return)
                    and isinstance(last.value, ast.Attribute)
                    and _receiver_is_self(last.value.value)
                ):
                    target = cls.attr_types.get(last.value.attr)
                    if target is not None:
                        cls.attr_types.setdefault(name, target)

    def _attr_assignment(self, cls: ClassInfo, stmt: ast.AST) -> None:
        target: ast.expr | None = None
        value: ast.expr | None = None
        annotation: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value, annotation = stmt.target, stmt.value, stmt.annotation
        if not (
            isinstance(target, ast.Attribute)
            and _receiver_is_self(target.value)
        ):
            return
        inferred = None
        if annotation is not None:
            inferred = self._type_from_annotation(annotation)
        if inferred is None and value is not None:
            inferred = self._type_from_value(cls, value)
        if inferred is not None:
            cls.attr_types.setdefault(target.attr, inferred)

    def _type_from_annotation(
        self, annotation: ast.expr
    ) -> tuple[str, str] | None:
        if isinstance(annotation, ast.Name):
            if annotation.id in self.classes:
                return ("inst", annotation.id)
            return None
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            return self._type_from_annotation(
                annotation.left
            ) or self._type_from_annotation(annotation.right)
        if isinstance(annotation, ast.Subscript):
            base = annotation.value
            base_name = base.id if isinstance(base, ast.Name) else None
            inner = annotation.slice
            if base_name in ("list", "set", "frozenset", "tuple"):
                if isinstance(inner, ast.Name) and inner.id in self.classes:
                    return ("coll", inner.id)
            elif base_name == "dict" and isinstance(inner, ast.Tuple):
                if len(inner.elts) == 2:
                    value_t = inner.elts[1]
                    if (
                        isinstance(value_t, ast.Name)
                        and value_t.id in self.classes
                    ):
                        return ("coll", value_t.id)
            elif base_name == "Optional":
                return self._type_from_annotation(inner)
        return None

    def _type_from_value(
        self, cls: ClassInfo, value: ast.expr
    ) -> tuple[str, str] | None:
        if isinstance(value, ast.Call):
            name = _call_name(value)
            if name in self.classes:
                return ("inst", name)
        if isinstance(value, ast.IfExp):
            return self._type_from_value(cls, value.body) or \
                self._type_from_value(cls, value.orelse)
        return None

    # -- call resolution -----------------------------------------------------

    def resolve_call(
        self, call: ast.Call, ctx: "FuncInfo", local_types: dict[str, tuple[str, str]]
    ) -> list[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, ctx)
        if not isinstance(func, ast.Attribute):
            return []
        method = func.attr
        recv = func.value
        if _receiver_is_self(recv) and ctx.owner is not None:
            resolved = self.lookup_method(ctx.owner, method)
            return [resolved.qualname] if resolved is not None else []
        recv_type = self._expr_type(recv, ctx, local_types)
        if recv_type is not None and recv_type[0] == "inst":
            resolved = self.lookup_method(recv_type[1], method)
            return [resolved.qualname] if resolved is not None else []
        if (
            method in _MUTATORS
            or method in _FALLBACK_DENY
            or method.startswith("__")
        ):
            return []
        # Name-unique fallback: a method name defined by at most two
        # project classes resolves to all of them.
        owners = [
            cls.methods[method].qualname
            for cls in self.classes.values()
            if method in cls.methods
        ]
        return owners if 0 < len(owners) <= 2 else []

    def _resolve_name(self, name: str, ctx: FuncInfo) -> list[str]:
        nested = self.functions.get(f"{ctx.qualname}.{name}")
        if nested is not None:
            return [nested.qualname]
        if ctx.nested_in is not None:
            sibling = self.functions.get(f"{ctx.nested_in}.{name}")
            if sibling is not None:
                return [sibling.qualname]
        top = self.module_funcs.get((ctx.module.name, name))
        if top is not None:
            return [top]
        imported = self.imports.get(ctx.module.name, {}).get(name)
        if imported is not None:
            source_module, source_name = imported
            target = self.module_funcs.get((source_module, source_name))
            if target is not None:
                return [target]
            cls = self.classes.get(source_name)
            if cls is not None and "__init__" in cls.methods:
                return [cls.methods["__init__"].qualname]
        cls = self.classes.get(name)
        if cls is not None and "__init__" in cls.methods:
            return [cls.methods["__init__"].qualname]
        return []

    def lookup_method(self, cls_name: str, method: str) -> FuncInfo | None:
        seen: set[str] = set()
        queue = [cls_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            queue.extend(cls.bases)
        return None

    def _expr_type(
        self,
        expr: ast.expr,
        ctx: FuncInfo,
        local_types: dict[str, tuple[str, str]],
    ) -> tuple[str, str] | None:
        if isinstance(expr, ast.Name):
            return local_types.get(expr.id)
        if isinstance(expr, ast.Attribute) and _receiver_is_self(expr.value):
            if ctx.owner is not None:
                cls = self.classes.get(ctx.owner)
                if cls is not None:
                    return self._attr_type(cls, expr.attr)
        if isinstance(expr, ast.Attribute):
            inner = self._expr_type(expr.value, ctx, local_types)
            if inner is not None and inner[0] == "inst":
                cls = self.classes.get(inner[1])
                if cls is not None:
                    return self._attr_type(cls, expr.attr)
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name in self.classes:
                return ("inst", name)
        return None

    def _attr_type(self, cls: ClassInfo, attr: str) -> tuple[str, str] | None:
        seen: set[str] = set()
        queue = [cls.name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if attr in info.attr_types:
                return info.attr_types[attr]
            queue.extend(info.bases)
        return None

    # -- transitive 2PL flags ------------------------------------------------

    def _close_flags(self) -> None:
        """Per function: can it (transitively) acquire, release a page,
        downgrade, or give back a lock in any of those ways?"""
        self.can_acquire: dict[str, bool] = {}
        self.can_release_page: dict[str, bool] = {}
        self.can_downgrade: dict[str, bool] = {}
        self.can_unwind: dict[str, bool] = {}
        for names, out in (
            (_PAGE_ACQUIRE, self.can_acquire),
            (frozenset({"unlock_page"}), self.can_release_page),
            (_PAGE_DOWNGRADE, self.can_downgrade),
            (_PAGE_UNWIND, self.can_unwind),
        ):
            for qualname, info in self.functions.items():
                out[qualname] = bool(info.direct_names & names)
            changed = True
            while changed:
                changed = False
                for qualname, info in self.functions.items():
                    if out[qualname]:
                        continue
                    if any(
                        out.get(call.callee, False) for call in info.calls
                    ):
                        out[qualname] = True
                        changed = True


def _is_property(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id in ("property", "cached_property")
        for dec in node.decorator_list
    )


# ---------------------------------------------------------------------------
# Function scanner: calls and loops, in statement order
# ---------------------------------------------------------------------------


class _FunctionScanner:
    """One pass over one function body, recording model events."""

    def __init__(self, model: ConcurrencyModel, info: FuncInfo) -> None:
        self.model = model
        self.info = info
        self.local_types: dict[str, tuple[str, str]] = {}
        #: locals known to hold a canonically ordered iterable
        self.ordered_locals: set[str] = set()
        #: the ``try``/``with`` statements enclosing the current statement
        self._guards: list[ast.Try | ast.With] = []
        self._seed_params()

    def _seed_params(self) -> None:
        args = self.info.node.args
        for arg in list(args.args) + list(args.kwonlyargs) + list(args.posonlyargs):
            if arg.annotation is not None:
                inferred = self.model._type_from_annotation(arg.annotation)
                if inferred is not None:
                    self.local_types[arg.arg] = inferred

    def run(self) -> None:
        for stmt in self.info.node.body:
            self._stmt(stmt)

    # -- statement walk ------------------------------------------------------

    def _children(self, node: ast.AST) -> None:
        """Scan a node's statements and expressions in source order."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child)
            else:  # withitem, excepthandler, match_case ...
                self._children(child)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are scanned separately
        if isinstance(stmt, ast.For):
            self._expr(stmt.iter)
            self._record_loop(stmt)
            self._bind_loop_target(stmt)
            for part in stmt.body + stmt.orelse:
                self._stmt(part)
            return
        if isinstance(stmt, (ast.Try, ast.With)):
            self._guards.append(stmt)
            self._children(stmt)
            self._guards.pop()
            return
        self._children(stmt)
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            inferred = self.model._type_from_annotation(stmt.annotation)
            if inferred is not None:
                self.local_types[stmt.target.id] = inferred
            if stmt.value is not None:
                self._bind_local(stmt.target.id, stmt.value)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self._bind_local(target.id, stmt.value)

    def _bind_loop_target(self, stmt: ast.For) -> None:
        if not isinstance(stmt.target, ast.Name):
            return
        source = self.model._expr_type(
            stmt.iter, self.info, self.local_types
        )
        if source is not None and source[0] == "coll":
            self.local_types[stmt.target.id] = ("inst", source[1])
        elif isinstance(stmt.iter, ast.Call):
            name = _call_name(stmt.iter)
            if name in ("list", "sorted", "set", "tuple") and stmt.iter.args:
                inner = self.model._expr_type(
                    stmt.iter.args[0], self.info, self.local_types
                )
                if inner is not None and inner[0] == "coll":
                    self.local_types[stmt.target.id] = ("inst", inner[1])

    def _bind_local(self, name: str, value: ast.expr) -> None:
        inferred = self.model._expr_type(value, self.info, self.local_types)
        if inferred is not None:
            self.local_types[name] = inferred
        if self._is_ordered_expr(value):
            self.ordered_locals.add(name)
        else:
            self.ordered_locals.discard(name)

    # -- expression scan -----------------------------------------------------

    def _expr(self, expr: ast.expr) -> None:
        """Record every call in an expression, skipping deferred bodies
        (lambdas)."""
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Call):
                self._call(node)
            stack.extend(ast.iter_child_nodes(node))

    def _call(self, call: ast.Call) -> None:
        name = _call_name(call)
        if name is not None:
            self.info.direct_names.add(name)
        for callee in self.model.resolve_call(call, self.info, self.local_types):
            self.info.calls.append(CallEvent(callee, call))

    # -- loop classification (sorted-iteration dataflow) ---------------------

    def _record_loop(self, stmt: ast.For) -> None:
        body_names: set[str] = set()
        body_callees: set[str] = set()
        for part in stmt.body:
            for node in ast.walk(part):
                if isinstance(node, ast.Call):
                    name = _call_name(node)
                    if name is not None:
                        body_names.add(name)
                    for callee in self.model.resolve_call(
                        node, self.info, self.local_types
                    ):
                        body_callees.add(callee)
        self.info.loops.append(
            LoopEvent(
                stmt, self.info.qualname,
                self._is_ordered_expr(stmt.iter), body_names, body_callees,
                tuple(self._guards),
            )
        )

    def _is_ordered_expr(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name in _ORDERED_ITER_CALLS:
                return True
            if isinstance(expr.func, ast.Attribute):
                recv = expr.func.value
                # ``self._helper(...)`` — trust same-class helpers; the
                # helper's own loops are checked on their own.
                if _receiver_is_self(recv):
                    return True
                # ``x.items()`` / ``x.keys()`` over an ordered local.
                if (
                    isinstance(recv, ast.Name)
                    and recv.id in self.ordered_locals
                ):
                    return True
            if name in ("list", "tuple") and expr.args:
                return self._is_ordered_expr(expr.args[0])
            return False
        if isinstance(expr, ast.Name):
            return expr.id in self.ordered_locals
        if isinstance(expr, ast.Attribute) and _receiver_is_self(expr.value):
            return True  # canonical per-instance source; its builder is checked
        if isinstance(expr, (ast.List, ast.Tuple)):
            return True  # literal order is author-chosen, not hash order
        return False


# ---------------------------------------------------------------------------
# Shared model cache (one build per project)
# ---------------------------------------------------------------------------

_MODEL_CACHE: dict[int, ConcurrencyModel] = {}


def model_for(project: Project) -> ConcurrencyModel:
    key = id(project)
    model = _MODEL_CACHE.get(key)
    if model is None or model.project is not project:
        _MODEL_CACHE.clear()
        model = ConcurrencyModel(project)
        _MODEL_CACHE[key] = model
    return model


# ---------------------------------------------------------------------------
# LF08 — strict 2PL over the page locks
# ---------------------------------------------------------------------------


class PageLockRule(Rule):
    id = "LF08"
    title = (
        "page locks follow strict 2PL and a canonical, unwindable "
        "acquisition order"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        model = model_for(project)
        yield from self._check_release_sites(model)
        yield from self._check_rollback_downgrade(model)
        yield from self._check_acquiring_loops(model)

    # -- strict 2PL: release only on unwind/commit boundaries ----------------

    def _check_release_sites(self, model: ConcurrencyModel) -> Iterator[Finding]:
        callers: dict[str, list[tuple[FuncInfo, int]]] = {}
        for info in model.functions.values():
            for call in info.calls:
                callers.setdefault(call.callee, []).append(
                    (info, getattr(call.node, "lineno", 0))
                )
        unwind_cache: dict[str, list[tuple[int, int]]] = {}

        def unwind(module: SourceModule) -> list[tuple[int, int]]:
            spans = unwind_cache.get(module.name)
            if spans is None:
                spans = _unwind_spans(module.tree)
                unwind_cache[module.name] = spans
            return spans

        def in_unwind(module: SourceModule, line: int) -> bool:
            return any(start <= line <= end for start, end in unwind(module))

        def rollback_helper(qualname: str) -> bool:
            """Every call site sits in an except/finally — an unwind
            helper like ``_restore_pages``, exempt by construction."""
            sites = callers.get(qualname, [])
            return bool(sites) and all(
                in_unwind(caller.module, line) for caller, line in sites
            )

        for info in model.functions.values():
            if not in_lock_policy(info.module.name):
                continue
            for node in _own_scope(info.node):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if name not in _PAGE_RELEASE:
                    continue
                if in_unwind(info.module, node.lineno):
                    continue
                if rollback_helper(info.qualname):
                    continue
                yield self.finding(
                    info.module, node,
                    f"{name}() outside an except/finally unwind path: "
                    "strict 2PL forbids releasing locks before unit end on "
                    "update paths — if this is a commit/close boundary, "
                    "justify it with `# lint: ignore[LF08]`",
                )

    def _check_rollback_downgrade(
        self, model: ConcurrencyModel
    ) -> Iterator[Finding]:
        for module in model.project:
            if not in_lock_policy(module.name):
                continue
            for info in model.functions.values():
                if info.module is not module:
                    continue
                for node in ast.walk(info.node):
                    if not isinstance(node, ast.Try):
                        continue
                    for handler in node.handlers:
                        yield from self._handler_downgrade(
                            model, info, module, handler
                        )

    def _handler_downgrade(
        self,
        model: ConcurrencyModel,
        info: FuncInfo,
        module: SourceModule,
        handler: ast.ExceptHandler,
    ) -> Iterator[Finding]:
        releases = downgrades = False
        for node in ast.walk(handler):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "unlock_page":
                releases = True
            if name in _PAGE_DOWNGRADE:
                downgrades = True
            for callee in model.resolve_call(node, info, {}):
                if model.can_release_page.get(callee, False):
                    releases = True
                if model.can_downgrade.get(callee, False):
                    downgrades = True
        if releases and not downgrades:
            yield self.finding(
                module, handler,
                "rollback handler unwinds page locks (unlock_page) without "
                "restoring upgrades (downgrade_page) — re-introduces the "
                "lock-upgrade leak: an upgraded page would stay EXCLUSIVE",
            )

    # -- acquiring loops: canonical order and a way back --------------------

    def _check_acquiring_loops(
        self, model: ConcurrencyModel
    ) -> Iterator[Finding]:
        for info in model.functions.values():
            if not in_storage_stack(info.module.name):
                continue
            for loop in info.loops:
                direct = bool(loop.body_names & _PAGE_ACQUIRE)
                if not loop.ordered and (
                    direct
                    or any(
                        model.can_acquire.get(callee, False)
                        for callee in loop.body_callees
                    )
                ):
                    yield self.finding(
                        info.module, loop.node,
                        "loop body (transitively) acquires locks but "
                        "iterates a source not proven canonically ordered; "
                        "iterate sorted(...) so concurrent sessions rank "
                        "their acquisitions identically",
                    )
                if direct and not _unwindable(model, info, loop):
                    yield self.finding(
                        info.module, loop.node,
                        "lock-acquiring loop has no release guard; a "
                        "conflict partway leaks the locks already taken — "
                        "wrap it in try/finally or release in the handler",
                    )


def _unwindable(model: ConcurrencyModel, info: FuncInfo, loop: LoopEvent) -> bool:
    """Whether a conflict partway through ``loop`` can give back what it
    took: an enclosing ``with``, or a ``try`` around or inside the loop
    whose ``finally`` runs or whose handler can release or downgrade."""
    inner = (node for node in ast.walk(loop.node) if isinstance(node, ast.Try))
    for guard in (*loop.guards, *inner):
        if isinstance(guard, ast.With) or guard.finalbody:
            return True
        for handler in guard.handlers:
            for node in ast.walk(handler):
                if isinstance(node, ast.Call) and (
                    _call_name(node) in _PAGE_UNWIND
                    or any(
                        model.can_unwind.get(callee, False)
                        for callee in model.resolve_call(node, info, {})
                    )
                ):
                    return True
    return False


def _own_scope(fn: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk a function without descending into nested defs (they are
    separate :class:`FuncInfo` scopes)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _unwind_spans(tree: ast.AST) -> list[tuple[int, int]]:
    """Line spans of except handlers and finally blocks."""
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                end = getattr(handler, "end_lineno", handler.lineno)
                spans.append((handler.lineno, end or handler.lineno))
            if node.finalbody:
                first = node.finalbody[0].lineno
                last = getattr(
                    node.finalbody[-1], "end_lineno", node.finalbody[-1].lineno
                )
                spans.append((first, last or first))
    return spans


CONCURRENCY_RULES: tuple[Rule, ...] = (PageLockRule(),)
