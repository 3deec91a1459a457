"""LF08/LF09 — the static pass of the concurrency sanitizer.

Both rules run over one interprocedural :class:`ConcurrencyModel` of the
project:

* an inventory of every lock attribute (``threading.Lock`` / ``RLock``
  / ``Condition`` assigned to ``self._x``), mapped onto the
  ground-truth ordering table
  (``LOCK_RANKS`` / ``LOCK_SITES`` in ``repro.obs.tracing``);
* a call graph with type-inference-lite receiver resolution (constructor
  assignments, parameter annotations, container element types);
* a held-lock fixpoint: for every function, the set of lock contexts it
  can be entered under, propagated through ``with <lock>:`` bodies and
  call sites;
* the thread entry points (``threading.Thread(target=...)`` sites plus
  the public surface of thread-creating classes) and per-entry
  reachability.

**LF08** (lock order / strict 2PL) reports:

* a lock attribute in the served core missing from ``LOCK_SITES``;
* an acquisition edge that inverts the ranks, re-acquires a
  non-reentrant lock, or participates in a cycle of the edge graph;
* on the 2PL policy layer (``repro.labbase.sessions`` + ``repro.server``),
  a page-lock release outside an ``except``/``finally`` unwind path and
  not covered by a justified ``# lint: ignore[LF08]`` — moving a release
  before unit end becomes a visible diff;
* a rollback handler that partially unwinds page locks
  (``unlock_page``) without restoring upgrades (``downgrade_page``) —
  the PR 6 lock-upgrade leak, generalized;
* a loop that (transitively) acquires locks while iterating a
  non-canonically-ordered source — LF04's name heuristic widened into a
  dataflow check (``sorted`` results tracked through locals, acquisition
  detected through callees).

**LF09** (shared-state confinement) flags mutable module globals and
``self.`` attributes reachable from more than one thread entry point
whose accesses are not all dominated by one common ``with <lock>``.
Exemptions: state frozen after ``__init__``, thread-safe containers
(locks, ``Event``, ``Queue`` ...), and classes confined to a single
entry's call subtree (per-thread instances).

The model is deliberately conservative-but-honest: unresolved calls add
no edges, so the rules under-report rather than guess; the fixture
corpus under ``tests/lint_fixtures/LF08,LF09/`` pins what must be
caught.
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
)

#: Where the ground-truth ordering table lives in the shipped tree.
_TRACING_MODULE = "repro.obs.tracing"

#: Modules the sanitizer analyses for shared state (LF09) and whose
#: policy code LF08's 2PL checks cover.
_SCOPE_PREFIXES = (
    "repro.server",
    "repro.storage.locks",
    "repro.storage.objcache",
    "repro.labbase.sessions",
    "repro.obs",
)

#: Modules whose lock attributes must appear in ``LOCK_SITES``.
_REGISTRY_PREFIXES = ("repro.server", "repro.obs")

#: Modules that own the strict-2PL *policy* (release timing).  The lock
#: manager itself (``storage/locks.py``) is mechanism, not policy.
_POLICY_PREFIXES = ("repro.labbase.sessions", "repro.server")

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})
_THREAD_SAFE_FACTORIES = frozenset(
    {
        "Lock", "RLock", "Condition", "Event", "Semaphore",
        "BoundedSemaphore", "Barrier", "Queue", "SimpleQueue",
        "LifoQueue", "PriorityQueue", "local",
    }
)

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


def in_sanitizer_scope(name: str) -> bool:
    return name.startswith(_SCOPE_PREFIXES)


def in_lock_registry(name: str) -> bool:
    return name.startswith(_REGISTRY_PREFIXES)


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
class LockDecl:
    """One lock attribute: ``self._x = threading.Lock()``."""

    owner: str          #: class name
    attr: str
    kind: str           #: ``lock`` | ``rlock`` | ``condition``
    alias_of: str | None   #: Condition over another attr of the class
    module: SourceModule
    node: ast.AST


@dataclass
class FuncInfo:
    """One function/method, addressable by qualified name."""

    qualname: str
    module: SourceModule
    node: ast.FunctionDef
    owner: str | None = None       #: class name for methods
    nested_in: str | None = None   #: parent function qualname

    # Populated by the scanner:
    accesses: list["AccessEvent"] = field(default_factory=list)
    acquires: list["AcquireEvent"] = field(default_factory=list)
    calls: list["CallEvent"] = field(default_factory=list)
    loops: list["LoopEvent"] = field(default_factory=list)
    direct_names: set[str] = field(default_factory=set)  #: called names

    @property
    def is_init(self) -> bool:
        return self.node.name in ("__init__", "__post_init__")


@dataclass
class AccessEvent:
    """One read/write of tracked state inside one function."""

    item: tuple[str, str]   #: (class name | module name, attribute/global)
    write: bool
    in_init: bool
    func: str
    node: ast.AST
    held: frozenset[str]    #: locks held locally at the access


@dataclass
class AcquireEvent:
    lock: str               #: canonical lock id
    kind: str               #: lock | rlock | condition
    func: str
    node: ast.AST
    held: frozenset[str]    #: locks held locally *before* this one


@dataclass
class CallEvent:
    callee: str             #: resolved qualname
    node: ast.AST
    held: frozenset[str]


@dataclass
class LoopEvent:
    """One ``for`` loop, with its iteration-source classification."""

    node: ast.For
    func: str
    ordered: bool           #: iterates a canonically ordered source
    body_names: set[str]    #: call names in the loop body
    body_callees: set[str]  #: resolved qualnames called in the body


@dataclass
class ThreadEntry:
    label: str
    roots: tuple[str, ...]  #: function qualnames
    multi: bool             #: more than one thread may run this entry


@dataclass
class ClassInfo:
    name: str
    module: SourceModule
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, FuncInfo] = field(default_factory=dict)
    attr_types: dict[str, tuple[str, str]] = field(default_factory=dict)
    locks: dict[str, LockDecl] = field(default_factory=dict)
    #: attrs whose assigned value is a thread-safe primitive
    safe_attrs: set[str] = field(default_factory=set)
    creates_threads: bool = False


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------


class ConcurrencyModel:
    """Everything LF08/LF09 need, built once per project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FuncInfo] = {}
        #: (module name, bare name) -> qualname, for top-level functions
        self.module_funcs: dict[tuple[str, str], str] = {}
        #: per module: imported name -> (source module, source name)
        self.imports: dict[str, dict[str, tuple[str, str]]] = {}
        self.ranks: dict[str, int] = {}
        self.sites: dict[str, str] = {}     #: canonical name -> Class._attr
        self.site_ids: dict[str, str] = {}  #: Class._attr -> canonical name
        self.entries: list[ThreadEntry] = []
        self.table_module: SourceModule | None = None
        self._module_mutable_cache: dict[str, set[str]] = {}

        self._index()
        self._decode_tables()
        self._infer_attr_types()
        for info in list(self.functions.values()):
            _FunctionScanner(self, info).run()
        self._find_entries()
        self.contexts_all = self._propagate(seed_all=True)
        self.contexts_entry = self._propagate(seed_all=False)
        self.reach: dict[str, set[str]] = {
            entry.label: self._reachable(entry.roots) for entry in self.entries
        }
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

    # -- ordering tables -----------------------------------------------------

    def _decode_tables(self) -> None:
        candidates = [self.project.module(_TRACING_MODULE)]
        candidates += [m for m in self.project if m is not candidates[0]]
        for module in candidates:
            if module is None:
                continue
            ranks = _dict_literal(module.tree, "LOCK_RANKS", int)
            sites = _dict_literal(module.tree, "LOCK_SITES", str)
            if ranks is not None and sites is not None:
                self.ranks = {
                    key: value
                    for key, value in ranks.items()
                    if isinstance(value, int)
                }
                self.sites = {
                    key: value
                    for key, value in sites.items()
                    if isinstance(value, str)
                }
                self.site_ids = {site: name for name, site in sites.items()}
                self.table_module = module
                return

    # -- attribute types and lock declarations -------------------------------

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
        attr = target.attr
        decl = self._lock_from_value(cls, attr, value)
        if decl is not None:
            cls.locks.setdefault(attr, decl)
            cls.safe_attrs.add(attr)
            return
        if value is not None and any(
            isinstance(call, ast.Call)
            and _call_name(call) in _THREAD_SAFE_FACTORIES
            for call in ast.walk(value)
        ):
            cls.safe_attrs.add(attr)
        inferred = None
        if annotation is not None:
            inferred = self._type_from_annotation(annotation)
        if inferred is None and value is not None:
            inferred = self._type_from_value(cls, value)
        if inferred is not None:
            cls.attr_types.setdefault(attr, inferred)

    def _lock_from_value(
        self, cls: ClassInfo, attr: str, value: ast.expr | None
    ) -> LockDecl | None:
        if value is None:
            return None
        kind = alias_of = None
        for call in ast.walk(value):
            if not isinstance(call, ast.Call):
                continue
            name = _call_name(call)
            if name in _LOCK_FACTORIES:
                kind = kind or name.lower()
            elif name == "Condition":
                kind = "condition"
                if (
                    call.args
                    and isinstance(call.args[0], ast.Attribute)
                    and _receiver_is_self(call.args[0].value)
                ):
                    alias_of = call.args[0].attr
        if kind is None:
            return None
        return LockDecl(cls.name, attr, kind, alias_of, cls.module, value)

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

    # -- lock identity -------------------------------------------------------

    def lock_id(self, decl: LockDecl) -> str:
        """Canonical id: the ``LOCK_SITES`` name, or the site path."""
        if decl.alias_of is not None:
            cls = self.classes.get(decl.owner)
            if cls is not None:
                aliased = cls.locks.get(decl.alias_of)
                if aliased is not None and aliased.attr != decl.attr:
                    return self.lock_id(aliased)
        site = f"{decl.owner}.{decl.attr}"
        return self.site_ids.get(site, site)

    def lock_decl(self, cls_name: str | None, attr: str) -> LockDecl | None:
        if cls_name is None:
            return None
        cls = self.classes.get(cls_name)
        return cls.locks.get(attr) if cls is not None else None

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

    # -- thread entry points -------------------------------------------------

    def _find_entries(self) -> None:
        thread_sites: list[tuple[FuncInfo, ast.Call, bool]] = []
        for info in self.functions.values():
            loops = 0
            for node, depth in _walk_with_loop_depth(info.node):
                if (
                    isinstance(node, ast.Call)
                    and _call_name(node) == "Thread"
                ):
                    thread_sites.append((info, node, depth > 0))
                    loops += 1
        creators: set[str] = set()
        for info, call, multi in thread_sites:
            creators.add(info.qualname)
            if info.owner is not None:
                cls = self.classes.get(info.owner)
                if cls is not None:
                    cls.creates_threads = True
            target = self._thread_target(call, info)
            if target is not None:
                label = f"thread:{target}"
                self.entries.append(ThreadEntry(label, (target,), multi))
        # "main" = the public surface of thread-creating scope classes and
        # the thread-creating scope functions themselves — code the
        # launching thread keeps running while workers are live.
        main_roots: set[str] = set()
        for cls in self.classes.values():
            if not cls.creates_threads:
                continue
            if not in_sanitizer_scope(cls.module.name):
                continue
            for name, method in cls.methods.items():
                if not name.startswith("_") and not _is_property(method.node):
                    main_roots.add(method.qualname)
        for info, _call, _multi in thread_sites:
            if in_sanitizer_scope(info.module.name) and info.owner is None:
                root = self.functions.get(info.nested_in or info.qualname)
                if root is not None:
                    main_roots.add(root.qualname)
        if main_roots:
            self.entries.append(
                ThreadEntry("main", tuple(sorted(main_roots)), False)
            )

    def _thread_target(self, call: ast.Call, ctx: FuncInfo) -> str | None:
        target: ast.expr | None = None
        for keyword in call.keywords:
            if keyword.arg == "target":
                target = keyword.value
        if target is None:
            return None
        if isinstance(target, ast.Attribute) and _receiver_is_self(
            target.value
        ):
            if ctx.owner is not None:
                resolved = self.lookup_method(ctx.owner, target.attr)
                return resolved.qualname if resolved is not None else None
        if isinstance(target, ast.Name):
            resolved = self._resolve_name(target.id, ctx)
            return resolved[0] if resolved else None
        return None

    # -- held-context fixpoint ----------------------------------------------

    def _propagate(self, *, seed_all: bool) -> dict[str, set[frozenset[str]]]:
        contexts: dict[str, set[frozenset[str]]] = {
            name: set() for name in self.functions
        }
        worklist: list[tuple[str, frozenset[str]]] = []
        if seed_all:
            roots: Iterable[str] = self.functions
        else:
            roots = [
                root for entry in self.entries for root in entry.roots
            ]
        for root in roots:
            if root in contexts:
                worklist.append((root, frozenset()))
        while worklist:
            name, ctx = worklist.pop()
            if ctx in contexts[name]:
                continue
            contexts[name].add(ctx)
            info = self.functions[name]
            for call in info.calls:
                callee_ctx = ctx | call.held
                if (
                    call.callee in contexts
                    and callee_ctx not in contexts[call.callee]
                ):
                    worklist.append((call.callee, callee_ctx))
        return contexts

    def _reachable(self, roots: tuple[str, ...]) -> set[str]:
        seen: set[str] = set()
        frontier = [root for root in roots if root in self.functions]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for call in self.functions[name].calls:
                if call.callee not in seen and call.callee in self.functions:
                    frontier.append(call.callee)
        return seen

    # -- transitive 2PL flags ------------------------------------------------

    def _close_flags(self) -> None:
        """Per function: can it (transitively) acquire/release/downgrade?"""
        self.can_acquire: dict[str, bool] = {}
        self.can_release_page: dict[str, bool] = {}
        self.can_downgrade: dict[str, bool] = {}
        for names, out in (
            (_PAGE_ACQUIRE, self.can_acquire),
            (frozenset({"unlock_page"}), self.can_release_page),
            (_PAGE_DOWNGRADE, self.can_downgrade),
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


def _dict_literal(
    tree: ast.AST, name: str, value_type: type
) -> dict[str, object] | None:
    """A module-level ``NAME: ... = {str: value_type}`` literal, decoded."""
    for node in ast.walk(tree):
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if not (isinstance(target, ast.Name) and target.id == name):
            continue
        if not isinstance(value, ast.Dict):
            return None
        table: dict[str, object] = {}
        for key, item in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(item, ast.Constant)
                and isinstance(item.value, value_type)
            ):
                return None
            table[key.value] = item.value
        return table
    return None


def _walk_with_loop_depth(
    fn: ast.FunctionDef,
) -> Iterator[tuple[ast.AST, int]]:
    """Walk a function, tracking enclosing loop/comprehension depth."""

    def visit(node: ast.AST, depth: int) -> Iterator[tuple[ast.AST, int]]:
        for child in ast.iter_child_nodes(node):
            yield child, depth
            inner = depth
            if isinstance(
                child,
                (ast.For, ast.While, ast.ListComp, ast.SetComp,
                 ast.GeneratorExp, ast.DictComp),
            ):
                inner = depth + 1
            yield from visit(child, inner)

    yield from visit(fn, 0)


# ---------------------------------------------------------------------------
# Function scanner: events with locally-held lock sets
# ---------------------------------------------------------------------------


class _FunctionScanner:
    """One pass over one function body, recording model events."""

    def __init__(self, model: ConcurrencyModel, info: FuncInfo) -> None:
        self.model = model
        self.info = info
        self.local_types: dict[str, tuple[str, str]] = {}
        #: locals known to hold a canonically ordered iterable
        self.ordered_locals: set[str] = set()
        self._seed_params()

    def _seed_params(self) -> None:
        args = self.info.node.args
        for arg in list(args.args) + list(args.kwonlyargs) + list(args.posonlyargs):
            if arg.annotation is not None:
                inferred = self.model._type_from_annotation(arg.annotation)
                if inferred is not None:
                    self.local_types[arg.arg] = inferred

    def run(self) -> None:
        self._stmts(self.info.node.body, frozenset())

    # -- statement walk with held tracking -----------------------------------

    def _stmts(self, stmts: list[ast.stmt], held: frozenset[str]) -> None:
        for stmt in stmts:
            self._stmt(stmt, held)

    def _stmt(self, stmt: ast.stmt, held: frozenset[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are scanned separately
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = set(held)
            for item in stmt.items:
                self._expr(item.context_expr, frozenset(inner))
                lock = self._lock_of(item.context_expr)
                if lock is not None:
                    lock_id, kind = lock
                    self.info.acquires.append(
                        AcquireEvent(
                            lock_id, kind, self.info.qualname,
                            item.context_expr, frozenset(inner),
                        )
                    )
                    inner.add(lock_id)
            self._stmts(stmt.body, frozenset(inner))
            return
        if isinstance(stmt, ast.For):
            self._expr(stmt.iter, held)
            self._record_loop(stmt, held)
            self._bind_loop_target(stmt)
            self._stmts(stmt.body, held)
            self._stmts(stmt.orelse, held)
            return
        if isinstance(stmt, ast.While):
            self._expr(stmt.test, held)
            self._stmts(stmt.body, held)
            self._stmts(stmt.orelse, held)
            return
        if isinstance(stmt, ast.If):
            self._expr(stmt.test, held)
            self._stmts(stmt.body, held)
            self._stmts(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._stmts(stmt.body, held)
            for handler in stmt.handlers:
                self._stmts(handler.body, held)
            self._stmts(stmt.orelse, held)
            self._stmts(stmt.finalbody, held)
            return
        # Simple statements: scan expressions, track assignments.
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value, held)
            for target in stmt.targets:
                self._target(target, held)
                if isinstance(target, ast.Name):
                    self._bind_local(target.id, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value, held)
            self._target(stmt.target, held)
            if isinstance(stmt.target, ast.Name):
                inferred = self.model._type_from_annotation(stmt.annotation)
                if inferred is not None:
                    self.local_types[stmt.target.id] = inferred
                if stmt.value is not None:
                    self._bind_local(stmt.target.id, stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value, held)
            self._target(stmt.target, held)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._target(target, held)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child, held)

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

    def _expr(self, expr: ast.expr, held: frozenset[str]) -> None:
        for node in self._expr_nodes(expr):
            if isinstance(node, ast.Call):
                self._call(node, held)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                self._access(node, write=False, held=held)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self._global_access(node, write=False, held=held)

    def _target(self, target: ast.expr, held: frozenset[str]) -> None:
        """A store target: record writes to tracked state."""
        if isinstance(target, ast.Attribute):
            self._access(target, write=True, held=held)
            self._expr(target.value, held)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Attribute):
                self._access(target.value, write=True, held=held)
            elif isinstance(target.value, ast.Name):
                self._global_access(target.value, write=True, held=held)
            self._expr(target.slice, held)
        elif isinstance(target, ast.Name):
            self._global_access(target, write=True, held=held)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target(element, held)

    def _expr_nodes(self, expr: ast.expr) -> Iterator[ast.AST]:
        """Walk an expression, skipping deferred bodies (lambdas)."""
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _call(self, call: ast.Call, held: frozenset[str]) -> None:
        name = _call_name(call)
        if name is not None:
            self.info.direct_names.add(name)
        # Mutator call on tracked state == a write.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MUTATORS
        ):
            recv = call.func.value
            if isinstance(recv, ast.Attribute):
                self._access(recv, write=True, held=held)
            elif isinstance(recv, ast.Name):
                self._global_access(recv, write=True, held=held)
        # ``lock.acquire()`` outside a with-statement.
        if (
            name == "acquire"
            and isinstance(call.func, ast.Attribute)
        ):
            lock = self._lock_of(call.func.value)
            if lock is not None:
                self.info.acquires.append(
                    AcquireEvent(
                        lock[0], lock[1], self.info.qualname, call, held
                    )
                )
        for callee in self.model.resolve_call(call, self.info, self.local_types):
            self.info.calls.append(CallEvent(callee, call, held))

    def _access(
        self, node: ast.Attribute, write: bool, held: frozenset[str]
    ) -> None:
        if not _receiver_is_self(node.value) or self.info.owner is None:
            return
        cls = self.model.classes.get(self.info.owner)
        if cls is None or not in_sanitizer_scope(cls.module.name):
            return
        if node.attr in cls.safe_attrs:
            return
        self.info.accesses.append(
            AccessEvent(
                (cls.name, node.attr), write, self.info.is_init,
                self.info.qualname, node, held,
            )
        )

    def _global_access(
        self, node: ast.Name, write: bool, held: frozenset[str]
    ) -> None:
        module = self.info.module
        if not in_sanitizer_scope(module.name):
            return
        if node.id not in _module_mutables(self.model, module):
            return
        self.info.accesses.append(
            AccessEvent(
                (module.name, node.id), write, self.info.is_init,
                self.info.qualname, node, held,
            )
        )

    # -- lock expression resolution ------------------------------------------

    def _lock_of(self, expr: ast.expr) -> tuple[str, str] | None:
        """``self._x`` (or typed ``obj._x``) naming a lock declaration."""
        if not isinstance(expr, ast.Attribute):
            return None
        decl: LockDecl | None = None
        if _receiver_is_self(expr.value):
            decl = self.model.lock_decl(self.info.owner, expr.attr)
        else:
            recv_type = self.model._expr_type(
                expr.value, self.info, self.local_types
            )
            if recv_type is not None and recv_type[0] == "inst":
                decl = self.model.lock_decl(recv_type[1], expr.attr)
        if decl is None:
            return None
        return self.model.lock_id(decl), decl.kind

    # -- loop classification (sorted-iteration dataflow) ---------------------

    def _record_loop(self, stmt: ast.For, held: frozenset[str]) -> None:
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
            )
        )

    def _is_ordered_expr(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name in _ORDERED_ITER_CALLS:
                return True
            if isinstance(expr.func, ast.Attribute):
                recv = expr.func.value
                # ``self._helper(...)`` — trust same-class helpers, as LF04
                # does; the helper's own loops are checked on their own.
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


_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)


def _module_mutables(model: ConcurrencyModel, module: SourceModule) -> set[str]:
    """Module-level names bound to mutable containers (cached per module)."""
    cache = model._module_mutable_cache
    if module.name in cache:
        return cache[module.name]
    names: set[str] = set()
    for node in module.tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if not isinstance(target, ast.Name):
            continue
        if isinstance(value, _MUTABLE_LITERALS):
            # Constant tables (dict literals read, never written) are
            # only tracked if some function in the module writes them.
            names.add(target.id)
    if not names:
        cache[module.name] = names
        return names
    written: set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                written.update(set(child.names) & names)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _MUTATORS
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id in names
            ):
                written.add(child.func.value.id)
            elif (
                isinstance(child, ast.Subscript)
                and isinstance(child.ctx, (ast.Store, ast.Del))
                and isinstance(child.value, ast.Name)
                and child.value.id in names
            ):
                written.add(child.value.id)
    cache[module.name] = written
    return written


# ---------------------------------------------------------------------------
# Shared model cache (both rules run over one build)
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
# LF08 — lock order, deadlock shape, strict 2PL
# ---------------------------------------------------------------------------


class LockGraphRule(Rule):
    id = "LF08"
    title = "lock acquisition must follow the ranked order and strict 2PL"

    def check(self, project: Project) -> Iterable[Finding]:
        model = model_for(project)
        yield from self._check_registry(model)
        yield from self._check_edges(model)
        yield from self._check_release_sites(model)
        yield from self._check_rollback_downgrade(model)
        yield from self._check_sorted_loops(model)

    # -- (a) every served-core lock is registered ----------------------------

    def _check_registry(self, model: ConcurrencyModel) -> Iterator[Finding]:
        if not model.sites:
            return  # no ordering table in this project — nothing to check
        for cls in model.classes.values():
            if not in_lock_registry(cls.module.name):
                continue
            for decl in cls.locks.values():
                if decl.alias_of is not None:
                    continue
                site = f"{decl.owner}.{decl.attr}"
                name = model.site_ids.get(site)
                if name is None:
                    yield self.finding(
                        cls.module, decl.node,
                        f"lock attribute {site} is not registered in "
                        "LOCK_SITES; every lock in the served core must "
                        "declare its rank in the ordering table",
                    )
                elif name not in model.ranks:
                    yield self.finding(
                        cls.module, decl.node,
                        f"lock {name!r} ({site}) has a LOCK_SITES entry but "
                        "no LOCK_RANKS rank",
                    )
        table = model.table_module
        if table is not None:
            mismatch = set(model.sites) ^ set(model.ranks)
            for name in sorted(mismatch):
                yield self.finding(
                    table, table.tree,
                    f"lock {name!r} appears in only one of LOCK_RANKS / "
                    "LOCK_SITES; the two tables must list the same locks",
                )

    # -- (b) acquisition edges: inversions, self-deadlock, cycles ------------

    def _check_edges(self, model: ConcurrencyModel) -> Iterator[Finding]:
        edges: dict[tuple[str, str], AcquireEvent] = {}
        for info in model.functions.values():
            for event in info.acquires:
                for ctx in model.contexts_all[info.qualname]:
                    full = ctx | event.held
                    for held in full:
                        if held != event.lock:
                            edges.setdefault((held, event.lock), event)
                    if event.lock in full and event.kind == "lock":
                        yield self.finding(
                            info.module, event.node,
                            f"non-reentrant lock {event.lock!r} can be "
                            "re-acquired while already held (self-deadlock)",
                        )
        for (held, acquired), event in sorted(edges.items()):
            held_rank = model.ranks.get(held)
            rank = model.ranks.get(acquired)
            info = model.functions[event.func]
            if held_rank is not None and rank is not None and held_rank >= rank:
                yield self.finding(
                    info.module, event.node,
                    f"lock order inversion: acquires {acquired!r} "
                    f"(rank {rank}) while {held!r} (rank {held_rank}) "
                    "can be held",
                )
        graph: dict[str, set[str]] = {}
        for held, acquired in edges:
            graph.setdefault(held, set()).add(acquired)
        cyclic = _nodes_on_cycles(graph)
        reported: set[tuple[str, str]] = set()
        for (held, acquired), event in sorted(edges.items()):
            if held in cyclic and acquired in cyclic and (
                held, acquired
            ) not in reported:
                if model.ranks.get(held) is not None and model.ranks.get(
                    acquired
                ) is not None:
                    continue  # already reported as an inversion pair
                reported.add((held, acquired))
                info = model.functions[event.func]
                yield self.finding(
                    info.module, event.node,
                    f"potential deadlock: acquisition edge {held!r} -> "
                    f"{acquired!r} lies on a cycle of the lock graph",
                )

    # -- (c) strict 2PL: release only on unwind/commit boundaries ------------

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

    # -- (d) sorted-iteration dataflow ---------------------------------------

    def _check_sorted_loops(self, model: ConcurrencyModel) -> Iterator[Finding]:
        for info in model.functions.values():
            if not in_lock_policy(info.module.name):
                continue
            for loop in info.loops:
                if loop.ordered:
                    continue
                acquires = bool(loop.body_names & _PAGE_ACQUIRE) or any(
                    model.can_acquire.get(callee, False)
                    for callee in loop.body_callees
                )
                if acquires:
                    yield self.finding(
                        info.module, loop.node,
                        "loop body (transitively) acquires locks but "
                        "iterates a source not proven canonically ordered; "
                        "iterate sorted(...) so concurrent sessions rank "
                        "their acquisitions identically",
                    )


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


def _nodes_on_cycles(graph: dict[str, set[str]]) -> set[str]:
    """Nodes in a strongly connected component of size > 1 (or a self-loop)."""
    index_counter = [0]
    indices: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: set[str] = set()
    nodes = set(graph) | {n for targets in graph.values() for n in targets}

    def strongconnect(node: str) -> None:
        work: list[tuple[str, Iterator[str]]] = [
            (node, iter(sorted(graph.get(node, ()))))
        ]
        indices[node] = low[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, children = work[-1]
            advanced = False
            for child in children:
                if child not in indices:
                    indices[child] = low[child] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[current] = min(low[current], indices[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == indices[current]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1 or current in graph.get(current, ()):
                    result.update(component)

    for node in sorted(nodes):
        if node not in indices:
            strongconnect(node)
    return result


# ---------------------------------------------------------------------------
# LF09 — shared mutable state must be lock-dominated
# ---------------------------------------------------------------------------


class SharedStateRule(Rule):
    id = "LF09"
    title = "state shared across thread entry points needs one common lock"

    def check(self, project: Project) -> Iterable[Finding]:
        model = model_for(project)
        items: dict[tuple[str, str], list[AccessEvent]] = {}
        for info in model.functions.values():
            for event in info.accesses:
                items.setdefault(event.item, []).append(event)
        for item in sorted(items):
            yield from self._check_item(model, item, items[item])

    def _check_item(
        self,
        model: ConcurrencyModel,
        item: tuple[str, str],
        events: list[AccessEvent],
    ) -> Iterator[Finding]:
        # Frozen after construction: no writes outside __init__ anywhere.
        if not any(e.write and not e.in_init for e in events):
            return
        live = [
            e for e in events
            if not e.in_init and model.contexts_entry[e.func]
        ]
        if not live:
            return
        labels: set[str] = set()
        for event in live:
            for entry in model.entries:
                if event.func in model.reach[entry.label]:
                    labels.add(entry.label)
        weight = sum(
            2 if self._entry(model, label).multi else 1 for label in labels
        )
        if weight < 2:
            return
        if self._confined(model, item, labels):
            return
        module = self._item_module(model, item)
        if module is None:
            return
        common: set[str] | None = None
        worst: AccessEvent | None = None
        for event in live:
            must = self._must_held(model, event)
            common = must if common is None else common & must
            if not must and worst is None:
                worst = event
        if common:
            return
        owner, attr = item
        where = ", ".join(sorted(labels))
        if worst is not None:
            yield self.finding(
                module, worst.node,
                f"{owner}.{attr} is reachable from multiple thread entry "
                f"points ({where}) but this access holds no lock; guard "
                "every read/write with one registered lock",
            )
        else:
            first = min(live, key=lambda e: getattr(e.node, "lineno", 0))
            yield self.finding(
                module, first.node,
                f"{owner}.{attr} is reachable from multiple thread entry "
                f"points ({where}) but its accesses hold no common lock",
            )

    def _must_held(
        self, model: ConcurrencyModel, event: AccessEvent
    ) -> set[str]:
        contexts = model.contexts_entry[event.func]
        must: set[str] | None = None
        for ctx in contexts:
            full = set(ctx | event.held)
            must = full if must is None else must & full
        return must or set()

    def _entry(self, model: ConcurrencyModel, label: str) -> ThreadEntry:
        for entry in model.entries:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def _item_module(
        self, model: ConcurrencyModel, item: tuple[str, str]
    ) -> SourceModule | None:
        owner, _attr = item
        cls = model.classes.get(owner)
        if cls is not None:
            return cls.module
        return model.project.module(owner)

    def _confined(
        self,
        model: ConcurrencyModel,
        item: tuple[str, str],
        labels: set[str],
    ) -> bool:
        """Instances confined to one multi entry's call subtree are
        per-thread: each worker builds its own object."""
        if len(labels) != 1:
            return False
        label = next(iter(labels))
        entry = self._entry(model, label)
        if not entry.multi:
            return False
        owner, _attr = item
        if owner not in model.classes:
            return False
        reach = model.reach[label]
        other_reach: set[str] = set()
        for other in model.entries:
            if other.label != label:
                other_reach |= model.reach[other.label]
        init = model.lookup_method(owner, "__init__")
        if init is None:
            return False
        init_name = init.qualname
        constructed_in_entry = False
        for info in model.functions.values():
            if not any(call.callee == init_name for call in info.calls):
                continue
            if info.qualname in other_reach:
                return False
            if info.qualname in reach:
                constructed_in_entry = True
            elif model.contexts_entry[info.qualname]:
                return False
        return constructed_in_entry


CONCURRENCY_RULES: tuple[Rule, ...] = (LockGraphRule(), SharedStateRule())
