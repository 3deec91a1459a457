"""Server versions for the benchmark harness.

Each :class:`ServerSpec` knows how to construct its storage manager;
``all_servers()`` returns them in table column order.  The set comes
from the backend registry (``repro.storage.registry``) — this module
holds no server names, only the wiring from a registered backend to a
configured LabBase.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro.benchmark.config import SERVER_ORDER, BenchmarkConfig
from repro.labbase.database import LabBase
from repro.storage.base import StorageManager
from repro.storage.registry import backend


@dataclass(frozen=True)
class ServerSpec:
    """One benchmark server version."""

    name: str
    persistent: bool
    description: str
    _factory: Callable[[str | None, int], StorageManager]

    def make(self, config: BenchmarkConfig) -> StorageManager:
        """Construct the storage manager per the benchmark config."""
        path = None
        if self.persistent and config.db_dir is not None:
            os.makedirs(config.db_dir, exist_ok=True)
            filename = self.name.replace("+", "_").lower() + ".db"
            path = os.path.join(config.db_dir, filename)
        return self._factory(path, config.buffer_pages)


def make_db(spec: "ServerSpec", config: BenchmarkConfig) -> tuple[StorageManager, LabBase]:
    """Storage manager + LabBase wired per the benchmark config.

    Threads every LabBase knob the config carries — most-recent index
    (A1) and history chunking — so ablation benches construct servers
    one way.
    """
    sm = spec.make(config)
    db = LabBase(
        sm,
        use_most_recent_index=config.use_most_recent_index,
        history_chunk=config.history_chunk,
    )
    return sm, db


def server_spec(name: str) -> ServerSpec:
    """The spec for one registered backend.

    An unknown name raises ``UnknownBackendError`` (listing what *is*
    registered) straight from the registry lookup.
    """
    info = backend(name)
    return ServerSpec(
        name=info.name,
        persistent=info.persistent,
        description=info.description,
        _factory=info.make,
    )


def all_servers(names: tuple[str, ...] = SERVER_ORDER) -> list[ServerSpec]:
    """Server specs in table column order (or a chosen subset)."""
    return [server_spec(name) for name in names]
