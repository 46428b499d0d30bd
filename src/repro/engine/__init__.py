"""An extensible relational engine modelled on the SQL Server 2008
features the paper relies on: FILESTREAM BLOBs, CLR-style UDF/TVF/UDA/UDT
contracts, row/page compression, and parallel query plans."""

from .database import Database
from .errors import (
    BindError,
    ConstraintViolation,
    DuplicateKeyError,
    EngineError,
    ExecutionError,
    FileStreamError,
    SqlSyntaxError,
    StorageError,
    TypeMismatchError,
    UdfError,
)
from .filestream import FileStreamStore
from .schema import Column, ForeignKey, TableSchema
from .uda_library import register_statistics
from .types import SqlType, UdtCodec
from .udf import (
    FunctionLibrary,
    ScalarUdf,
    SimpleTvf,
    TableValuedFunction,
    UserDefinedAggregate,
)

__all__ = [
    "BindError",
    "Column",
    "ConstraintViolation",
    "Database",
    "DuplicateKeyError",
    "EngineError",
    "ExecutionError",
    "FileStreamError",
    "FileStreamStore",
    "ForeignKey",
    "FunctionLibrary",
    "ScalarUdf",
    "register_statistics",
    "SimpleTvf",
    "SqlSyntaxError",
    "SqlType",
    "StorageError",
    "TableSchema",
    "TableValuedFunction",
    "TypeMismatchError",
    "UdfError",
    "UdtCodec",
    "UserDefinedAggregate",
]
