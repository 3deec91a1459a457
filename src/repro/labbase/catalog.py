"""The persistent catalog: user schema, indexes, counters.

One record in the hot ``catalog`` segment holds the user-level schema
(material classes, step-class versions), the oids of the key-index
buckets and the material-set directory.  It is reachable from the
storage root ``labbase_catalog``, which is how a reopened LabBase finds
everything.  A second small record, under ``labbase_counters``, holds
the per-class instance counters.

The counters change with every created material and recorded step, but
their record is written only at durability boundaries: inside a
transaction or a served unit :meth:`Catalog.save_counters` just marks
them dirty, and the storage manager's checkpoint notification (a commit
that checkpoints, ``checkpoint()``, ``close()``) writes them in the
drain ahead of that checkpoint.  The record on disk therefore counts
what the last checkpoint's directory holds — a crash-reopen finds
counters that agree with the recovered store — and an abort restores
the counters as of :meth:`Catalog.begin`, since the record may be older
than the last commit.

Schema evolution happens here: :meth:`Catalog.register_step_class` keys
versions by attribute set, so changing a step's attributes creates a new
version in O(catalog) time — no stored data is visited, the property
experiment E9 measures.
"""

from __future__ import annotations

from repro.errors import SchemaError, UnknownClassError
from repro.labbase import model
from repro.labbase.schema import MaterialClass, StepClass, StepClassVersion
from repro.storage.objcache import ObjectCache

CATALOG_ROOT = "labbase_catalog"
COUNTERS_ROOT = "labbase_counters"

#: Material, step and step-version counts, and whether they are dirty.
_Counters = tuple[dict[str, int], dict[str, int], dict[int, int], bool]


class Catalog:
    """In-memory image of the catalog record, persisted on change.

    ``sm`` is LabBase's cache-backed store handle (any object with the
    storage-manager object API works, e.g. a raw storage manager).
    Counters an update leaves dirty inside a transaction are written by
    :meth:`write_counters`, which LabBase hooks to the checkpoint.
    """

    def __init__(self, sm: ObjectCache, segment: str | None) -> None:
        self._sm = sm
        self._segment = segment
        self._at_begin: _Counters | None = None
        self.reload()

    def _clear(self) -> None:
        """The image of an empty catalog."""
        self.material_classes: dict[str, MaterialClass] = {}
        self.step_classes: dict[str, StepClass] = {}
        self.key_index: dict[str, list[int]] = {}      # class -> bucket oids
        self.set_directory: dict[str, int] = {}        # set name -> set oid
        self.material_counts: dict[str, int] = {}
        self.step_counts: dict[str, int] = {}          # per class name
        self.version_step_counts: dict[int, int] = {}  # per version id
        self._next_version_id = 1

    # -- persistence -----------------------------------------------------------

    def reload(self) -> None:
        """(Re-)read the catalog through the store's roots.

        Runs at construction, after an aborted transaction (the image
        may hold what the abort rolled back) and after crash recovery,
        which may have rolled the record back to an older checkpointed
        image — or dropped it together with its root.  Without a root a
        fresh, empty catalog is bootstrapped: what an older image named
        may be gone as well.
        """
        root = self._sm.get_root(CATALOG_ROOT)
        if root is None:
            self._clear()
            self._oid = self._sm.allocate_write(self._record(), segment=self._segment)
            self._sm.set_root(CATALOG_ROOT, self._oid)
            self._counters_oid = self._sm.allocate_write(
                self._counters_record(), segment=self._segment
            )
            self._sm.set_root(COUNTERS_ROOT, self._counters_oid)
        else:
            self._oid = root
            self._restore(self._sm.read(self._oid))
            counters_root = self._sm.get_root(COUNTERS_ROOT)
            assert counters_root is not None, "catalog without counters record"
            self._counters_oid = counters_root
            self._restore_counters(self._sm.read(self._counters_oid))
        self._counters_dirty = False

    def begin(self) -> None:
        """Remember the counters as a transaction finds them, for
        :meth:`rollback`."""
        self._at_begin = (
            dict(self.material_counts),
            dict(self.step_counts),
            dict(self.version_step_counts),
            self._counters_dirty,
        )

    def rollback(self) -> None:
        """Undo an aborted transaction's changes to the image.

        The catalog record is re-read: the transaction's writes to it
        were buffered, and the abort dropped them.  The counters are put
        back as :meth:`begin` found them instead — their record waits
        for a checkpoint, so it may be older than the last commit.
        Without a :meth:`begin` this is a :meth:`reload`.
        """
        counters, self._at_begin = self._at_begin, None
        if counters is None:
            self.reload()
            return
        self._restore(self._sm.read(self._oid))
        (
            self.material_counts,
            self.step_counts,
            self.version_step_counts,
            self._counters_dirty,
        ) = counters

    def _record(self) -> dict:
        return {
            "kind": model.KIND_CATALOG,
            "material_classes": {
                name: {
                    "name": cls.name,
                    "key_attribute": cls.key_attribute,
                    "description": cls.description,
                    "parent": cls.parent,
                }
                for name, cls in self.material_classes.items()
            },
            "step_classes": {
                name: [version.to_meta() for version in cls.versions]
                for name, cls in self.step_classes.items()
            },
            "key_index": {name: list(oids) for name, oids in self.key_index.items()},
            "set_directory": dict(self.set_directory),
            "next_version_id": self._next_version_id,
        }

    def _counters_record(self) -> dict:
        # Counters change on every tracked step, so they live in their
        # own small record: bumping a counter must not rewrite the whole
        # catalog (schema + index buckets) each time.
        return {
            "kind": "labbase_counters",
            "material_counts": dict(self.material_counts),
            "step_counts": dict(self.step_counts),
            "version_step_counts": dict(self.version_step_counts),
        }

    def _restore_counters(self, record: dict) -> None:
        self.material_counts = dict(record["material_counts"])
        self.step_counts = dict(record["step_counts"])
        self.version_step_counts = dict(record["version_step_counts"])

    def _restore(self, record: dict) -> None:
        self.material_classes = {
            name: MaterialClass(**meta)
            for name, meta in record["material_classes"].items()
        }
        self.step_classes = {}
        for name, version_metas in record["step_classes"].items():
            versions = [StepClassVersion.from_meta(m) for m in version_metas]
            self.step_classes[name] = StepClass(name=name, versions=versions)
        self.key_index = {n: list(o) for n, o in record["key_index"].items()}
        self.set_directory = dict(record["set_directory"])
        self._next_version_id = record["next_version_id"]

    def save(self) -> None:
        """Write the catalog record back to the store."""
        self._sm.write(self._oid, self._record())

    def save_counters(self) -> None:
        """Persist the counters after an update changed them.

        Outside a transaction or served unit the record is written now,
        like every other write-through.  Inside one it is only marked
        dirty: :meth:`write_counters` writes it at the next durability
        boundary, once however many updates ran before it.
        """
        if self._sm.in_transaction:
            self._counters_dirty = True
        else:
            self._write_counters()

    def write_counters(self) -> None:
        """Write the counters record if an update left it dirty.

        LabBase runs this on the storage manager's checkpoint
        notification, ahead of the drain that precedes the checkpoint.
        """
        if self._counters_dirty:
            self._write_counters()

    def _write_counters(self) -> None:
        self._sm.write(self._counters_oid, self._counters_record())
        self._counters_dirty = False

    # -- material classes ---------------------------------------------------------

    def register_material_class(self, material_class: MaterialClass) -> None:
        existing = self.material_classes.get(material_class.name)
        if existing is not None:
            if existing != material_class:
                raise SchemaError(
                    f"material class {material_class.name!r} already registered "
                    "with a different definition"
                )
            return
        if material_class.parent is not None:
            if material_class.parent not in self.material_classes:
                raise SchemaError(
                    f"material class {material_class.name!r}: unknown parent "
                    f"{material_class.parent!r}"
                )
        self.material_classes[material_class.name] = material_class
        self.material_counts.setdefault(material_class.name, 0)
        # Key-index buckets are allocated lazily on first insert; an empty
        # list marks the class as present.
        self.key_index.setdefault(material_class.name, [])
        self.save()
        self.save_counters()

    def material_class(self, name: str) -> MaterialClass:
        try:
            return self.material_classes[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def is_subclass(self, name: str, ancestor: str) -> bool:
        """EER is-a: whether ``name`` equals or specialises ``ancestor``."""
        current: str | None = name
        while current is not None:
            if current == ancestor:
                return True
            current = self.material_class(current).parent
        return False

    def subclasses(self, ancestor: str) -> list[str]:
        """Every class equal to or below ``ancestor`` in the is-a tree."""
        return [
            name for name in self.material_classes
            if self.is_subclass(name, ancestor)
        ]

    # -- step classes & schema evolution -----------------------------------------------

    def register_step_class(
        self,
        name: str,
        attributes: tuple[str, ...],
        involves_classes: tuple[str, ...] = (),
        description: str = "",
    ) -> StepClassVersion:
        """Register a step class; returns the matching or new version.

        This is LabFlow-1's schema-change operation (U4): if ``name``
        exists and the attribute set differs from every stored version, a
        new version is appended; identical attribute sets are reused.
        """
        for class_name in involves_classes:
            if class_name not in self.material_classes:
                raise UnknownClassError(class_name)
        step_class = self.step_classes.get(name)
        if step_class is None:
            step_class = StepClass(name=name)
            self.step_classes[name] = step_class
            self.step_counts.setdefault(name, 0)
            self.save_counters()
        existing = step_class.find_version(frozenset(attributes))
        if existing is not None:
            return existing
        version = StepClassVersion(
            version_id=self._next_version_id,
            name=name,
            attributes=tuple(attributes),
            involves_classes=tuple(involves_classes),
            description=description,
        )
        self._next_version_id += 1
        step_class.versions.append(version)
        self.version_step_counts.setdefault(version.version_id, 0)
        self.save()
        self.save_counters()
        return version

    def step_class(self, name: str) -> StepClass:
        try:
            return self.step_classes[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def step_version(self, version_id: int) -> StepClassVersion:
        for step_class in self.step_classes.values():
            for version in step_class.versions:
                if version.version_id == version_id:
                    return version
        raise SchemaError(f"no step-class version {version_id}")
