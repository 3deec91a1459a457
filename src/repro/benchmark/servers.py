"""Server versions for the benchmark harness.

Each :class:`ServerSpec` knows how to construct its storage manager;
``all_servers()`` returns them in table column order.  The versions are
``repro.storage.SERVER_VERSIONS`` — this module holds no server names,
only the wiring from a storage class to a configured LabBase.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.benchmark.config import SERVER_ORDER, BenchmarkConfig
from repro.labbase.database import LabBase
from repro.storage import server_class
from repro.storage.base import StorageManager


@dataclass(frozen=True)
class ServerSpec:
    """One benchmark server version."""

    name: str
    cls: type[StorageManager]

    def make(self, config: BenchmarkConfig) -> StorageManager:
        """Construct the storage manager per the benchmark config.

        Main-memory versions take no file and no pool.  A paged version
        gets ``<name>.db`` under ``config.db_dir`` (no file without one)
        and the config's pool size; every other constructor parameter
        keeps its default — the ablation benches pass those to the class
        directly.
        """
        if not self.cls.persistent:
            return self.cls()
        path = None
        if config.db_dir is not None:
            os.makedirs(config.db_dir, exist_ok=True)
            filename = self.name.replace("+", "_").lower() + ".db"
            path = os.path.join(config.db_dir, filename)
        return self.cls(  # type: ignore[call-arg]
            path=path, buffer_pages=config.buffer_pages
        )


def make_db(spec: "ServerSpec", config: BenchmarkConfig) -> tuple[StorageManager, LabBase]:
    """Storage manager per the benchmark config, and a LabBase with its
    default knobs over it."""
    sm = spec.make(config)
    return sm, LabBase(sm)


def server_spec(name: str) -> ServerSpec:
    """The spec for one server version; an unknown name raises
    ``UnknownBackendError`` listing the five."""
    cls = server_class(name)
    return ServerSpec(name=cls.name, cls=cls)


def all_servers(names: tuple[str, ...] = SERVER_ORDER) -> list[ServerSpec]:
    """Server specs in table column order (or a chosen subset)."""
    return [server_spec(name) for name in names]
