"""Exception hierarchy for the LabFlow-1 reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Subsystems get their own
branches (storage, LabBase, query language, workflow, benchmark) to keep
error handling local and messages precise.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Storage-manager errors
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-manager failures."""


class PageError(StorageError):
    """A page-level problem: overflow, bad slot, corrupt payload."""


class PageOverflowError(PageError):
    """An object does not fit in a page (and cannot be chunked)."""


class UnknownOidError(StorageError):
    """An object identifier does not name any stored object."""

    def __init__(self, oid: int) -> None:
        super().__init__(f"unknown oid: {oid}")
        self.oid = oid


class UnknownSegmentError(StorageError):
    """A segment name or id does not exist in this store."""


class StorageClosedError(StorageError):
    """The storage manager has been closed and cannot serve requests."""


class TransactionError(StorageError):
    """Misuse of the transaction protocol (nested begin, commit w/o begin)."""


class LockError(StorageError):
    """A page-lock request could not be granted."""


class InjectedCrashError(StorageError):
    """A deterministic fault injector killed the simulated disk.

    Raised by ``repro.storage.faultinject.FaultyPageFile`` at its
    configured write point and on every access afterwards — a dead
    process cannot keep serving I/O.
    """


class ConcurrencyUnsupportedError(StorageError):
    """The storage manager does not support concurrent clients.

    The simulated Texas store raises this when a second client attaches,
    mirroring the real Texas v0.3 restriction the paper notes (Texas
    programs access their database files directly, without a lock server).
    """


class UnknownBackendError(StorageError):
    """A server-version name matches none of the paper's five.

    Raised by ``repro.storage.server_class`` (and therefore by
    ``server_spec`` / the CLI ``--server`` paths); the message lists the
    five names so a typo is a one-glance fix.
    """

    def __init__(self, name: str, known: tuple[str, ...] = ()) -> None:
        message = f"unknown storage backend {name!r}"
        if known:
            message += f"; server versions: {', '.join(known)}"
        super().__init__(message)
        self.name = name
        self.known = tuple(known)


# ---------------------------------------------------------------------------
# LabBase errors
# ---------------------------------------------------------------------------


class LabBaseError(ReproError):
    """Base class for LabBase (workflow-DBMS wrapper) failures."""


class SchemaError(LabBaseError):
    """Invalid user-level schema definition or usage."""


class UnknownClassError(SchemaError):
    """A step or material class name is not in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown class: {name!r}")
        self.name = name


class DuplicateKeyError(LabBaseError):
    """A material with the same (class, key) already exists."""

    def __init__(self, class_name: str, key: str) -> None:
        super().__init__(f"duplicate material key {key!r} in class {class_name!r}")
        self.class_name = class_name
        self.key = key


class UnknownMaterialError(LabBaseError):
    """No material with the given oid or (class, key) exists."""


class UnknownAttributeError(LabBaseError):
    """A material has no recorded value for the requested attribute."""

    def __init__(self, subject: str, attribute: str) -> None:
        super().__init__(f"{subject} has no value for attribute {attribute!r}")
        self.subject = subject
        self.attribute = attribute


class StateError(LabBaseError):
    """Illegal workflow-state operation (e.g. retracting an absent state)."""


# ---------------------------------------------------------------------------
# Deductive query language errors
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for deductive-query-language failures."""


class LexError(QueryError):
    """Tokenizer failure, with position information."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class ParseError(QueryError):
    """Parser failure, with position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            message = f"{message} at line {line}, column {column}"
        super().__init__(message)
        self.line = line
        self.column = column


class EvaluationError(QueryError):
    """Runtime failure while resolving a query (bad builtin call, etc.)."""


class InstantiationError(EvaluationError):
    """A builtin required a bound argument but got an unbound variable."""

    def __init__(self, context: str) -> None:
        super().__init__(f"arguments insufficiently instantiated in {context}")


# ---------------------------------------------------------------------------
# Workflow errors
# ---------------------------------------------------------------------------


class WorkflowError(ReproError):
    """Base class for workflow-model failures."""


class InvalidWorkflowError(WorkflowError):
    """The workflow graph is malformed (unknown state, unreachable, etc.)."""


class TransitionError(WorkflowError):
    """A step was applied to a material whose state does not allow it."""


# ---------------------------------------------------------------------------
# Benchmark errors
# ---------------------------------------------------------------------------


class BenchmarkError(ReproError):
    """Base class for benchmark-harness failures."""


class ConfigError(BenchmarkError):
    """Invalid benchmark configuration parameters."""


# ---------------------------------------------------------------------------
# Server errors
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for served-session failures."""


class ProtocolError(ServerError):
    """A malformed or unanswerable client/server message."""


class SessionError(ServerError):
    """A request against an unknown or closed served session."""
