"""Contract tests for the exception hierarchy."""

import inspect

import pytest

from repro import errors


def _exception_classes():
    return [
        obj for _name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, Exception)
    ]


def test_every_library_exception_derives_from_repro_error():
    for cls in _exception_classes():
        assert issubclass(cls, errors.ReproError), cls


def test_subsystem_branches():
    assert issubclass(errors.PageOverflowError, errors.StorageError)
    assert issubclass(errors.UnknownOidError, errors.StorageError)
    assert issubclass(errors.LockError, errors.StorageError)
    assert issubclass(errors.DuplicateKeyError, errors.LabBaseError)
    assert issubclass(errors.UnknownClassError, errors.SchemaError)
    assert issubclass(errors.ParseError, errors.QueryError)
    assert issubclass(errors.InstantiationError, errors.EvaluationError)
    assert issubclass(errors.TransitionError, errors.WorkflowError)
    assert issubclass(errors.ConfigError, errors.BenchmarkError)


def test_structured_errors_carry_context():
    unknown = errors.UnknownOidError(42)
    assert unknown.oid == 42 and "42" in str(unknown)

    duplicate = errors.DuplicateKeyError("clone", "c-1")
    assert duplicate.class_name == "clone" and duplicate.key == "c-1"

    missing = errors.UnknownAttributeError("material 7", "quality")
    assert missing.attribute == "quality"

    lex = errors.LexError("bad char", 3, 9)
    assert lex.line == 3 and lex.column == 9 and "line 3" in str(lex)

    parse = errors.ParseError("oops", 2, 5)
    assert "line 2" in str(parse)
    bare = errors.ParseError("oops")
    assert "line" not in str(bare)


def test_catching_the_base_class_catches_everything():
    with pytest.raises(errors.ReproError):
        raise errors.PageOverflowError("full")
    with pytest.raises(errors.ReproError):
        raise errors.InstantiationError("length/2")

