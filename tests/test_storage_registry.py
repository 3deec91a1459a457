"""The backend registry: registration, lookup, capability queries.

Also pins the PR's structural acceptance criterion: outside
``repro.storage.registry`` no source module may *enumerate* backend
names — the registry is the single place the server-version list
exists, so the AST sweep at the bottom fails the moment someone
hard-codes ``("OStore", "Texas", ...)`` in harness or CLI code again.
"""

import ast
import os

import pytest

import repro
from repro.errors import StorageError, UnknownBackendError
from repro.benchmark.config import SERVER_ORDER
from repro.storage import registry
from repro.storage.base import StorageManager
from repro.storage.memstore import MainMemorySM
from repro.storage.objectstore import ObjectStoreSM

#: The paper's Section 10 table, left to right.
PAPER_FIVE = ("OStore", "Texas+TC", "Texas", "OStore-mm", "Texas-mm")


def test_the_five_paper_versions_are_registered_in_order():
    assert registry.backend_names() == PAPER_FIVE


def test_server_order_is_derived_from_the_registry():
    assert SERVER_ORDER == registry.backend_names()


def test_backend_lookup_returns_info():
    info = registry.backend("OStore")
    assert info.cls is ObjectStoreSM
    assert info.persistent and info.concurrent and info.segments
    assert info.crash_matrix


def test_unknown_backend_error_lists_known_names():
    with pytest.raises(UnknownBackendError) as excinfo:
        registry.backend("GemStone")
    assert excinfo.value.name == "GemStone"
    assert excinfo.value.known == registry.backend_names()
    for name in registry.backend_names():
        assert name in str(excinfo.value)


def test_capability_filters():
    names = lambda **kw: [info.name for info in registry.backends(**kw)]
    assert names() == list(registry.backend_names())
    assert names(persistent=True) == ["OStore", "Texas+TC", "Texas"]
    assert names(persistent=False) == ["OStore-mm", "Texas-mm"]
    assert names(concurrent=True) == ["OStore"]
    assert names(crash_matrix=True) == ["OStore", "Texas+TC", "Texas"]
    assert names(segments=True, persistent=True) == ["OStore", "Texas+TC"]
    assert names(persistent=False, crash_matrix=True) == []


def test_duplicate_registration_rejected():
    with pytest.raises(StorageError, match="already registered"):
        registry.register_backend("OStore", order=99)(ObjectStoreSM)


def test_name_mismatch_rejected():
    with pytest.raises(StorageError, match="has name"):
        registry.register_backend("NotItsName", order=99)(ObjectStoreSM)


def test_registration_roundtrip_and_capability_flags():
    class ProbeSM(MainMemorySM):
        name = "probe"

    try:
        returned = registry.register_backend(
            "probe", order=999, description="test probe"
        )(ProbeSM)
        assert returned is ProbeSM
        info = registry.backend("probe")
        assert info.cls is ProbeSM
        assert not info.persistent and not info.crash_matrix
        assert registry.backend_names()[-1] == "probe"
        built = info.make(None, 8)
        assert isinstance(built, ProbeSM)
        built.close()
    finally:
        registry._REGISTRY.pop("probe", None)
    with pytest.raises(UnknownBackendError):
        registry.backend("probe")


def test_factory_builds_each_backend(tmp_path):
    for info in registry.backends():
        path = os.path.join(tmp_path, info.name.replace("+", "_") + ".db")
        sm = info.make(path, 16)
        assert isinstance(sm, StorageManager)
        assert sm.name == info.name
        oid = sm.allocate_write({"probe": info.name})
        sm.commit()
        assert sm.read(oid) == {"probe": info.name}
        sm.close()
        assert os.path.exists(path) == info.persistent


def test_create_by_name(tmp_path, monkeypatch):
    """The registry seam's contract, kept alive by this test alone: a
    backend subclass that decorates itself joins the name list, every
    capability query its class flags grant, and the by-name factory —
    with no edit anywhere else."""
    registry.backend_names()  # the shipped backends register first
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

    @registry.register_backend("probe-store", order=5, description="throwaway")
    class ProbeStoreSM(ObjectStoreSM):
        name = "probe-store"

    assert registry.backend_names() == (*PAPER_FIVE, "probe-store")
    for capability in ("persistent", "concurrent", "crash_matrix", "segments"):
        found = registry.backends(**{capability: True})
        assert found[-1].cls is ProbeStoreSM, capability
    assert ProbeStoreSM not in [
        info.cls for info in registry.backends(persistent=False)
    ]

    path = os.path.join(tmp_path, "p.db")
    sm = registry.create("probe-store", path)
    assert isinstance(sm, ProbeStoreSM)
    sm.close()
    assert os.path.exists(path)
    with pytest.raises(UnknownBackendError):
        registry.create("Versant")


# -- the structural acceptance check ----------------------------------------


def _container_strings(tree: ast.AST):
    """String constants inside list/tuple/set/dict literals."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            elements = node.elts
        elif isinstance(node, ast.Dict):
            elements = [key for key in node.keys if key is not None]
        else:
            continue
        group = [
            element.value
            for element in elements
            if isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ]
        if group:
            yield group


def test_no_module_outside_the_registry_enumerates_backend_names():
    """No source module may hold 2+ backend names in one literal.

    A single name is a backend's own identity (``name = "Texas"`` in its
    module); two or more names in one list/tuple/set/dict literal is an
    enumeration of the server-version set, which belongs to the
    registry alone.
    """
    names = set(registry.backend_names())
    src_root = os.path.dirname(os.path.abspath(repro.__file__))
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for group in _container_strings(tree):
                hits = names.intersection(group)
                if len(hits) >= 2:
                    offenders.append((os.path.relpath(path, src_root),
                                      sorted(hits)))
    assert not offenders, (
        "backend-name enumerations outside the registry: "
        f"{offenders}"
    )
