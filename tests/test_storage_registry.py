"""The server versions: one tuple, one lookup, the class flags.

Also pins a structural property: no source module may *enumerate*
backend names — ``repro.storage.SERVER_VERSIONS`` (a tuple of classes)
is the single place the server-version list exists, so the AST sweep at
the bottom fails the moment someone hard-codes ``("OStore", "Texas",
...)`` in harness or CLI code again.
"""

import ast
import os

import pytest

import repro
from repro.benchmark import BenchmarkConfig, server_spec
from repro.benchmark.config import SERVER_ORDER
from repro.errors import UnknownBackendError
from repro.storage import SERVER_VERSIONS, ObjectStoreSM, server_class
from repro.storage.base import StorageManager

#: The paper's Section 10 table, left to right.
PAPER_FIVE = ("OStore", "Texas+TC", "Texas", "OStore-mm", "Texas-mm")


def test_the_five_paper_versions_are_registered_in_order():
    assert tuple(cls.name for cls in SERVER_VERSIONS) == PAPER_FIVE


def test_server_order_is_derived_from_the_registry():
    assert SERVER_ORDER == PAPER_FIVE


def test_backend_lookup_returns_info():
    cls = server_class("OStore")
    assert cls is ObjectStoreSM
    assert cls.persistent and cls.supports_concurrency and cls.supports_segments


def test_unknown_backend_error_lists_known_names():
    with pytest.raises(UnknownBackendError) as excinfo:
        server_class("GemStone")
    assert excinfo.value.name == "GemStone"
    assert excinfo.value.known == PAPER_FIVE
    for name in PAPER_FIVE:
        assert name in str(excinfo.value)


def test_capability_filters():
    def names(flag):
        return [cls.name for cls in SERVER_VERSIONS if getattr(cls, flag)]

    assert names("persistent") == ["OStore", "Texas+TC", "Texas"]
    assert names("supports_concurrency") == ["OStore"]
    assert names("supports_segments") == ["OStore", "Texas+TC", "OStore-mm"]


def test_factory_builds_each_backend(tmp_path):
    config = BenchmarkConfig(db_dir=str(tmp_path), buffer_pages=16)
    for cls in SERVER_VERSIONS:
        sm = server_spec(cls.name).make(config)
        assert type(sm) is cls
        oid = sm.allocate_write({"probe": cls.name})
        sm.commit()
        assert sm.read(oid) == {"probe": cls.name}
        sm.close()
        filename = cls.name.replace("+", "_").lower() + ".db"
        assert os.path.exists(tmp_path / filename) == cls.persistent


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


def test_no_source_module_enumerates_server_names():
    """No source module may hold 2+ backend names in one literal.

    A single name is a backend's own identity (``name = "Texas"`` in its
    module); two or more names in one list/tuple/set/dict literal is an
    enumeration of the server-version set, which belongs to
    ``SERVER_VERSIONS`` alone.
    """
    names = set(PAPER_FIVE)
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
        "backend-name enumerations outside SERVER_VERSIONS: "
        f"{offenders}"
    )
