"""Error hierarchy for the relational engine.

Mirrors the coarse error classes a SQL Server client would see: syntax
errors from the front end, binding errors from the catalog/planner,
runtime execution errors, and storage/constraint failures.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by :mod:`repro.engine`."""


class SqlSyntaxError(EngineError):
    """The SQL text could not be tokenised or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class BindError(EngineError):
    """A name (table, column, function, type) could not be resolved,
    or was used in a way its definition does not allow."""


class TypeMismatchError(EngineError):
    """A value is incompatible with the declared SQL type."""


class ConstraintViolation(EngineError):
    """A PRIMARY KEY, FOREIGN KEY, or NOT NULL constraint was violated."""


class DuplicateKeyError(ConstraintViolation):
    """A unique/primary key already contains the inserted key."""


class StorageError(EngineError):
    """Low-level storage failure (page overflow, bad record id, ...)."""


class FileStreamError(StorageError):
    """Failure inside the FileStream BLOB store."""


class ExecutionError(EngineError):
    """Runtime failure while executing a physical plan."""


class UdfError(ExecutionError):
    """A user-defined function, aggregate, or type misbehaved."""
