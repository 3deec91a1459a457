"""The plain-data grammar of stored records.

Objects handed to a storage manager must be *plain data*: combinations of
``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``, ``list``,
``tuple``, ``dict`` and ``set``.  This mirrors what the 1996 storage
managers persisted (C structs plus collections) and keeps stored state
independent of Python class definitions, which is what lets LabBase
implement schema evolution *above* the storage layer.

``validate_plain_data`` rejects arbitrary objects up front so a class
instance can never sneak into a page.  Turning records into bytes is
:class:`repro.storage.codec.RecordCodec`'s job alone.
"""

from __future__ import annotations

from repro.errors import StorageError

_PLAIN_SCALARS = (type(None), bool, int, float, str, bytes)

#: The exact scalar types: what one ``map(type, ...)`` sweep can clear
#: without a Python-level call per element.
_EXACT_SCALARS = frozenset(_PLAIN_SCALARS)

_CONTAINERS = (list, tuple, set, frozenset, dict)

_MAX_DEPTH = 100


def validate_plain_data(obj: object, _depth: int = 0) -> None:
    """Raise :class:`StorageError` unless ``obj`` is plain data.

    The accepted grammar, exactly:

    * scalars — ``None``, ``bool``, ``int``, ``float``, ``str`` and
      ``bytes`` (subclasses included — they survive a pickle round-trip
      as their subclass, which is all the storage contract promises);
    * containers — ``list``, ``tuple``, ``dict``, ``set`` and
      ``frozenset`` of plain data, nested at most 100 levels deep.

    Dict keys may be any *hashable* plain data, which lets container
    keys (tuples, frozensets of plain data) through.  Note that ``set``
    and ``frozenset`` iteration order — and therefore their encoded
    bytes — follows the process hash seed for ``str``/``bytes``
    elements: records that must encode bit-identically across processes
    should store sorted lists instead.

    Depth is bounded to catch pathological self-referencing structures
    before pickle recurses into them.

    A flat container is cleared by one C-speed sweep over its element
    types; only elements that are not exact scalars (containers, scalar
    subclasses, offenders) are visited in Python, in iteration order, so
    the first error found is the one a full element-by-element walk
    would find.
    """
    if _depth > _MAX_DEPTH:
        raise StorageError("record nests deeper than 100 levels (cycle?)")
    if isinstance(obj, _PLAIN_SCALARS):
        return
    if not isinstance(obj, _CONTAINERS):
        raise StorageError(
            f"records must be plain data; got {type(obj).__name__}"
        )
    if obj and _depth >= _MAX_DEPTH:  # whatever it holds is too deep
        raise StorageError("record nests deeper than 100 levels (cycle?)")
    exact = _EXACT_SCALARS
    if isinstance(obj, dict):
        if exact.issuperset(map(type, obj)) and exact.issuperset(
            map(type, obj.values())
        ):
            return
        for key, value in obj.items():
            if type(key) not in exact:
                validate_plain_data(key, _depth + 1)
            if type(value) not in exact:
                validate_plain_data(value, _depth + 1)
    elif not exact.issuperset(map(type, obj)):
        for item in obj:
            if type(item) not in exact:
                validate_plain_data(item, _depth + 1)

