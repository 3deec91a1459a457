"""The storage-backend registry.

Every server version registers itself here with the
:func:`register_backend` class decorator; everything that needs the set
of versions — ``SERVER_ORDER``, the benchmark harness, the CLI
``--server`` choices, ``repro serve`` — derives it from this module
instead of hard-coding names.  Adding a contender therefore means
writing one backend module and decorating one class, not editing the
harness.

The registry is *lazy*: backend modules are imported on first query, so
``import repro.storage.registry`` stays cheap and circular imports
cannot happen (a backend module importing the registry for its
decorator never triggers the loader).  :data:`_BACKEND_MODULES` lists
module paths to probe — paths, not backend names; the names live on the
decorated classes, and this module never repeats them.

Capability queries (:func:`backends`) filter on the contract's class
flags — ``persistent``, ``supports_concurrency``,
``supports_crash_matrix``, ``supports_segments`` — so callers ask for
"every persistent backend" rather than knowing which ones those are.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

from repro.errors import StorageError, UnknownBackendError
from repro.storage.contract import StorageManager

#: Module paths probed for ``@register_backend`` decorations.  These are
#: module names, not backend names: one module may register several
#: versions (memstore registers both main-memory flavours).
_BACKEND_MODULES: tuple[str, ...] = (
    "repro.storage.objectstore",
    "repro.storage.clustered",
    "repro.storage.texas",
    "repro.storage.memstore",
)


@dataclass(frozen=True)
class BackendInfo:
    """One registered server version: its class, blurb and column order."""

    name: str
    cls: type[StorageManager]
    description: str
    #: Sort key for the paper's column order (the Section 10 table reads
    #: left to right from most to least storage management; later
    #: contenders append after the original five).
    order: int

    # -- capability flags (delegated to the contract's class attributes) --

    @property
    def persistent(self) -> bool:
        return bool(self.cls.persistent)

    @property
    def concurrent(self) -> bool:
        return bool(self.cls.supports_concurrency)

    @property
    def segments(self) -> bool:
        return bool(self.cls.supports_segments)

    @property
    def crash_matrix(self) -> bool:
        return bool(self.cls.supports_crash_matrix)

    def make(self, path: str | None, buffer_pages: int) -> StorageManager:
        """Construct the backend the way the benchmark harness does.

        Main-memory backends take no file and no pool; paged backends
        share the ``(path, buffer_pages)`` constructor surface the
        benchmark config threads through.  Every other constructor
        parameter keeps its default — the ablation benches pass those
        to the class directly.
        """
        if not self.persistent:
            return self.cls()
        return self.cls(  # type: ignore[call-arg]
            path=path, buffer_pages=buffer_pages
        )


_REGISTRY: dict[str, BackendInfo] = {}
_loaded = False


def register_backend(
    name: str, *, order: int, description: str = ""
) -> Callable[[type[StorageManager]], type[StorageManager]]:
    """Class decorator registering a :class:`StorageManager` subclass.

    ``name`` must equal the class's ``name`` attribute (the registry is
    an index over the contract, not a rename layer), and must be new —
    a duplicate registration is always a bug, so it raises rather than
    silently shadowing the earlier backend.
    """

    def decorate(cls: type[StorageManager]) -> type[StorageManager]:
        if name in _REGISTRY:
            raise StorageError(
                f"storage backend {name!r} is already registered "
                f"(by {_REGISTRY[name].cls.__name__})"
            )
        if getattr(cls, "name", None) != name:
            raise StorageError(
                f"backend class {cls.__name__} has name "
                f"{getattr(cls, 'name', None)!r}, registered as {name!r}"
            )
        _REGISTRY[name] = BackendInfo(
            name=name, cls=cls, description=description, order=order
        )
        return cls

    return decorate


def _ensure_loaded() -> None:
    """Import every backend module once so decorations have run."""
    global _loaded
    if _loaded:
        return
    for module in _BACKEND_MODULES:
        importlib.import_module(module)
    _loaded = True


def backend(name: str) -> BackendInfo:
    """Look up one backend; raises :class:`UnknownBackendError` with the
    full registered list for anything else."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, backend_names()) from None


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, in table column order."""
    _ensure_loaded()
    return tuple(info.name for info in backends())


def backends(
    *,
    persistent: bool | None = None,
    concurrent: bool | None = None,
    crash_matrix: bool | None = None,
    segments: bool | None = None,
) -> list[BackendInfo]:
    """Registered backends in column order, filtered by capability.

    Each keyword left as ``None`` matches everything; ``True``/``False``
    require that capability flag.  ``backends(persistent=True)`` is the
    verify/recover candidate set, ``backends(concurrent=True)`` the
    servable one, ``backends(crash_matrix=True)`` the sweepable one.
    """
    _ensure_loaded()
    wanted = {
        "persistent": persistent,
        "concurrent": concurrent,
        "crash_matrix": crash_matrix,
        "segments": segments,
    }
    found = [
        info
        for info in _REGISTRY.values()
        if all(
            value is None or getattr(info, flag) == value
            for flag, value in wanted.items()
        )
    ]
    return sorted(found, key=lambda info: (info.order, info.name))


def create(
    name: str, path: str | None = None, buffer_pages: int | None = None
) -> StorageManager:
    """Factory: construct a backend by name.

    A ``None`` pool size falls back to the storage layer's default, so
    ``create("OStore", path)`` opens a store the way the CLI does.
    """
    from repro.storage.buffer import DEFAULT_POOL_PAGES

    return backend(name).make(
        path, DEFAULT_POOL_PAGES if buffer_pages is None else buffer_pages
    )
