"""Expression compilation and SQL semantics (three-valued logic,
built-ins, LIKE)."""

import uuid

import pytest
from hypothesis import given, strategies as st

from repro.engine import expressions
from repro.engine.errors import BindError, ExecutionError
from repro.engine.expressions import (
    Between,
    BinaryOp,
    BoundRef,
    Case,
    ColumnRef,
    ExpressionCompiler,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Parameter,
    UnaryOp,
    batch_safe,
    expression_to_sql,
    like_match,
    rewrite,
)
from repro.engine.udf import FunctionLibrary

COLUMNS = {"a": 0, "b": 1, "s": 2}


def compile_expr(expr, library=None):
    binder = lambda ref: COLUMNS[ref.name]
    return ExpressionCompiler(binder, library).compile(expr)


def evaluate(expr, row=(1, 2, "text"), library=None):
    return compile_expr(expr, library)(row)


def col(name):
    return ColumnRef(name)


class TestArithmetic:
    def test_basic_ops(self):
        assert evaluate(BinaryOp("+", col("a"), col("b"))) == 3
        assert evaluate(BinaryOp("-", col("a"), col("b"))) == -1
        assert evaluate(BinaryOp("*", col("b"), Literal(10))) == 20
        assert evaluate(BinaryOp("%", Literal(7), Literal(3))) == 1

    def test_integer_division_truncates_toward_zero(self):
        assert evaluate(BinaryOp("/", Literal(7), Literal(2))) == 3
        assert evaluate(BinaryOp("/", Literal(-7), Literal(2))) == -3

    def test_float_division(self):
        assert evaluate(BinaryOp("/", Literal(7.0), Literal(2))) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate(BinaryOp("/", Literal(1), Literal(0)))

    def test_null_propagates(self):
        assert evaluate(BinaryOp("+", Literal(None), Literal(1))) is None
        assert evaluate(UnaryOp("-", Literal(None))) is None

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_comparison_matches_python(self, x, y):
        assert evaluate(BinaryOp("<", Literal(x), Literal(y))) == (x < y)
        assert evaluate(BinaryOp("=", Literal(x), Literal(y))) == (x == y)


class TestThreeValuedLogic:
    T, F, N = Literal(True), Literal(False), Literal(None)

    @pytest.mark.parametrize(
        "left,right,expected",
        [
            ("T", "T", True), ("T", "F", False), ("T", "N", None),
            ("F", "T", False), ("F", "F", False), ("F", "N", False),
            ("N", "T", None), ("N", "F", False), ("N", "N", None),
        ],
    )
    def test_and_kleene(self, left, right, expected):
        expr = BinaryOp("AND", getattr(self, left), getattr(self, right))
        assert evaluate(expr) is expected

    @pytest.mark.parametrize(
        "left,right,expected",
        [
            ("T", "T", True), ("T", "F", True), ("T", "N", True),
            ("F", "T", True), ("F", "F", False), ("F", "N", None),
            ("N", "T", True), ("N", "F", None), ("N", "N", None),
        ],
    )
    def test_or_kleene(self, left, right, expected):
        expr = BinaryOp("OR", getattr(self, left), getattr(self, right))
        assert evaluate(expr) is expected

    def test_not_of_null(self):
        assert evaluate(UnaryOp("NOT", Literal(None))) is None

    def test_null_comparison_is_null(self):
        assert evaluate(BinaryOp("=", Literal(None), Literal(None))) is None

    def test_is_null(self):
        assert evaluate(IsNull(Literal(None))) is True
        assert evaluate(IsNull(Literal(1))) is False
        assert evaluate(IsNull(Literal(None), negated=True)) is False

    def test_in_list_with_null(self):
        # 1 IN (2, NULL) => NULL; 1 IN (1, NULL) => TRUE
        assert (
            evaluate(InList(Literal(1), (Literal(2), Literal(None)))) is None
        )
        assert (
            evaluate(InList(Literal(1), (Literal(1), Literal(None)))) is True
        )

    def test_between_null(self):
        assert evaluate(Between(Literal(None), Literal(1), Literal(2))) is None
        assert evaluate(Between(Literal(5), Literal(1), Literal(9))) is True


class TestBuiltins:
    def call(self, name, *args):
        return evaluate(FuncCall(name, tuple(Literal(a) for a in args)))

    def test_charindex_one_based(self):
        assert self.call("CHARINDEX", "N", "ACGTN") == 5
        assert self.call("CHARINDEX", "N", "ACGT") == 0
        assert self.call("CHARINDEX", "N", None) is None

    def test_charindex_empty_needle_is_not_found(self):
        # T-SQL: 0; Python's ``"abc".find("")`` is 0, i.e. position 1
        assert self.call("CHARINDEX", "", "abc") == 0
        assert self.call("CHARINDEX", "", "abc", 2) == 0
        assert self.call("CHARINDEX", "", "") == 0
        assert self.call("CHARINDEX", "", None) is None

    def test_charindex_start(self):
        assert self.call("CHARINDEX", "A", "ACGTA", 2) == 5
        assert self.call("CHARINDEX", "A", "ACGTA", 6) == 0

    def test_substring(self):
        assert self.call("SUBSTRING", "hello", 2, 3) == "ell"

    def test_len_ignores_trailing_spaces(self):
        assert self.call("LEN", "ab  ") == 2

    def test_datalength(self):
        assert self.call("DATALENGTH", "abc") == 3
        assert self.call("DATALENGTH", b"\x00\x01") == 2
        assert self.call("DATALENGTH", 5) == 4
        assert self.call("DATALENGTH", uuid.uuid4()) == 16
        assert self.call("DATALENGTH", None) is None

    def test_isnull_and_coalesce(self):
        assert self.call("ISNULL", None, 7) == 7
        assert self.call("ISNULL", 1, 7) == 1
        assert self.call("COALESCE", None, None, 3) == 3

    def test_string_functions(self):
        assert self.call("UPPER", "acgt") == "ACGT"
        assert self.call("REVERSE", "abc") == "cba"
        assert self.call("REPLACE", "aXa", "X", "b") == "aba"
        assert self.call("LEFT", "hello", 2) == "he"
        assert self.call("RIGHT", "hello", 2) == "lo"

    def test_newid_distinct(self):
        first = evaluate(FuncCall("NEWID", ()))
        second = evaluate(FuncCall("NEWID", ()))
        assert isinstance(first, uuid.UUID) and first != second

    def test_unknown_function(self):
        with pytest.raises(BindError):
            evaluate(FuncCall("NoSuchFn", ()))

    def test_udf_overrides_builtin(self):
        library = FunctionLibrary()
        library.register_scalar("UPPER", lambda s: "overridden")
        assert evaluate(FuncCall("UPPER", (Literal("x"),)), library=library) == (
            "overridden"
        )


class TestLike:
    @pytest.mark.parametrize(
        "value,pattern,expected",
        [
            ("hello", "hello", True),
            ("hello", "h%", True),
            ("hello", "%llo", True),
            ("hello", "h_llo", True),
            ("hello", "H%", False),
            ("", "%", True),
            ("a.b", "a.b", True),
            ("axb", "a.b", False),
        ],
    )
    def test_patterns(self, value, pattern, expected):
        assert like_match(value, pattern) is expected

    def test_null(self):
        assert like_match(None, "%") is None

    def test_negated(self):
        assert evaluate(Like(Literal("abc"), Literal("a%"), negated=True)) is False

    def test_pattern_compiled_once(self):
        from repro.engine.expressions import _like_regex

        _like_regex.cache_clear()
        for value in ("hello", "help", "world") * 5:
            like_match(value, "hel%")
        info = _like_regex.cache_info()
        assert (info.misses, info.hits) == (1, 14)
        assert info.maxsize is not None  # bounded


class TestCase:
    def test_first_matching_when(self):
        expr = Case(
            (
                (BinaryOp(">", col("a"), Literal(10)), Literal("big")),
                (BinaryOp(">", col("a"), Literal(0)), Literal("small")),
            ),
            Literal("neg"),
        )
        assert evaluate(expr, (5, 0, "")) == "small"
        assert evaluate(expr, (50, 0, "")) == "big"
        assert evaluate(expr, (-1, 0, "")) == "neg"

    def test_no_else_yields_null(self):
        expr = Case(((Literal(False), Literal(1)),))
        assert evaluate(expr) is None


class TestRewrite:
    def test_replaces_matching_nodes(self):
        expr = BinaryOp("+", col("a"), col("b"))
        replaced = rewrite(
            expr,
            lambda node: BoundRef(9) if node == col("a") else None,
        )
        assert replaced == BinaryOp("+", BoundRef(9), col("b"))

    def test_bound_ref_compiles(self):
        fn = compile_expr(BoundRef(2))
        assert fn((0, 0, "hit")) == "hit"

    def test_expression_to_sql_round_readable(self):
        expr = BinaryOp(
            "AND",
            BinaryOp("=", col("a"), Literal(1)),
            Like(col("s"), Literal("x%")),
        )
        text = expression_to_sql(expr)
        assert "a = 1" in text and "LIKE" in text


class TestBinderErrors:
    def test_unknown_column(self):
        def binder(ref):
            raise BindError(f"unknown {ref.name}")

        compiler = ExpressionCompiler(binder)
        with pytest.raises(BindError):
            compiler.compile(col("missing"))


# ---------------------------------------------------------------------------
# batch compilation: vectorised pure built-ins
# ---------------------------------------------------------------------------

#: column positions of the batch tests' rows: a string, an int, a float
BATCH_COLUMNS = {"s": 0, "i": 1, "f": 2}


def batch_compiler(library=None):
    return ExpressionCompiler(lambda ref: BATCH_COLUMNS[ref.name], library)


def outcome(fn):
    """What an evaluation did: its value, or the error it raised."""
    try:
        return ("value", repr(fn()))
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return ("raised", type(exc).__name__, str(exc))


def assert_modes_agree(expr, batch, library=None):
    """Row mode and batch mode give the same values (to the repr, so
    ``1`` and ``1.0`` differ) or raise the same error."""
    compiler = batch_compiler(library)
    row_fn = compiler.compile(expr)
    batch_fn = compiler.compile_batch(expr)
    expected = outcome(lambda: [row_fn(row) for row in batch])
    assert outcome(lambda: batch_fn(batch)) == expected
    return expected


#: one call per pure built-in, over the batch columns
BUILTIN_CALLS = {
    "charindex": FuncCall("CHARINDEX", (Literal("N"), col("s"))),
    "substring": FuncCall("SUBSTRING", (col("s"), Literal(2), Literal(3))),
    "datalength": FuncCall("DATALENGTH", (col("s"),)),
    "isnull": FuncCall("ISNULL", (col("s"), Literal("?"))),
    "coalesce": FuncCall("COALESCE", (col("s"), col("i"), Literal(0))),
    "len": FuncCall("LEN", (col("s"),)),
    "upper": FuncCall("UPPER", (col("s"),)),
    "lower": FuncCall("LOWER", (col("s"),)),
    "ltrim": FuncCall("LTRIM", (col("s"),)),
    "rtrim": FuncCall("RTRIM", (col("s"),)),
    "abs": FuncCall("ABS", (col("i"),)),
    "round": FuncCall("ROUND", (col("f"), Literal(1))),
    "replace": FuncCall("REPLACE", (col("s"), Literal("A"), Literal("x"))),
    "reverse": FuncCall("REVERSE", (col("s"),)),
    "str": FuncCall("STR", (col("i"),)),
    "floor": FuncCall("FLOOR", (col("f"),)),
    "ceiling": FuncCall("CEILING", (col("f"),)),
    "sqrt": FuncCall("SQRT", (col("f"),)),
    "log": FuncCall("LOG", (col("f"),)),
    "power": FuncCall("POWER", (col("i"), Literal(2))),
    "sign": FuncCall("SIGN", (col("i"),)),
    "left": FuncCall("LEFT", (col("s"), Literal(2))),
    "right": FuncCall("RIGHT", (col("s"), Literal(2))),
    "concat": FuncCall("CONCAT", (col("s"), col("i"))),
}

_TAGS = ["ACGT", "ACNT ", " acgt", "", None]

BATCHES = {
    # ~5 distinct values over 60 rows: the once-per-distinct path
    "repeated": [
        (_TAGS[n % 5], (n % 4) - 1 if n % 7 else None, (n % 3) + 0.5)
        for n in range(60)
    ],
    # every value its own: the per-row path
    "all_distinct": [
        (f"AC{n}N"[n % 3 :], n - 30, n + 0.25) for n in range(60)
    ],
    # equal-but-distinguishable values must not share a result
    "mixed_numeric": [
        ("x", value, value)
        for value in (1, 1.0, True, 0, 0.0, -0.0, False) * 8
    ],
    "all_null": [(None, None, None)] * 8,
    "empty": [],
}


class TestBatchBuiltins:
    def test_every_pure_builtin_is_exercised(self):
        assert set(BUILTIN_CALLS) == set(expressions._PURE_BUILTINS)
        assert set(expressions._BUILTINS) - set(BUILTIN_CALLS) == {"newid"}

    @pytest.mark.parametrize("shape", sorted(BATCHES))
    @pytest.mark.parametrize("name", sorted(BUILTIN_CALLS))
    def test_row_and_batch_agree(self, name, shape):
        expr = BUILTIN_CALLS[name]
        assert batch_safe(expr)
        assert_modes_agree(expr, BATCHES[shape])

    def test_raising_batch_raises_row_modes_error(self):
        # LOG(0.0) raises on the row that holds it, in both modes
        batch = [("x", 1, 2.5)] * 5 + [("x", 1, 0.0)] + [("x", 1, 1.5)] * 5
        result = assert_modes_agree(BUILTIN_CALLS["log"], batch)
        assert result[0] == "raised"

    def test_unhashable_values_evaluate_per_row(self):
        batch = [(bytearray(b"ab"), 1, 1.0)] * 10
        for name in ("len", "reverse", "datalength"):
            result = assert_modes_agree(BUILTIN_CALLS[name], batch)
            assert result[0] == "value"

    def test_called_once_per_distinct_value(self, monkeypatch):
        calls = []
        real = expressions._BUILTINS["len"]
        monkeypatch.setitem(
            expressions._BUILTINS,
            "len",
            lambda v: calls.append(v) or real(v),
        )
        fn = batch_compiler().compile_batch(BUILTIN_CALLS["len"])
        assert fn(BATCHES["repeated"]) == [
            real(row[0]) for row in BATCHES["repeated"]
        ]
        assert sorted(calls, key=repr) == sorted(set(_TAGS), key=repr)
        del calls[:]
        fn(BATCHES["all_distinct"])
        assert len(calls) == len(BATCHES["all_distinct"])

    # SUBSTRING(s, 'x', 1) raises on every non-NULL s; row mode never
    # calls it where the earlier arm already decided
    BAD = FuncCall("SUBSTRING", (col("s"), Literal("x"), Literal(1)))
    HAS_TEXT = BinaryOp(">", FuncCall("LEN", (col("s"),)), Literal(0))

    @pytest.mark.parametrize(
        "expr",
        [
            BinaryOp("AND", HAS_TEXT, BinaryOp("=", BAD, Literal("A"))),
            BinaryOp(
                "OR",
                UnaryOp("NOT", HAS_TEXT),
                BinaryOp("=", BAD, Literal("A")),
            ),
            Case(((HAS_TEXT, BAD),), Literal("z")),
        ],
        ids=["and", "or", "case"],
    )
    def test_discarded_arm_never_raises(self, expr):
        guarded = [("", 1, 1.0), ("  ", 2, 1.0)] * 6
        result = assert_modes_agree(expr, guarded)
        assert result[0] == "value"
        # and with a row the guard lets through, row mode's error
        result = assert_modes_agree(expr, guarded + [("ACGT", 3, 1.0)])
        assert result[0] == "raised"

    def test_newid_is_never_vectorised(self):
        batch = [("x", 1, 1.0)] * 16
        for expr in (
            FuncCall("NEWID", ()),
            FuncCall("STR", (FuncCall("NEWID", ()),)),
        ):
            assert not batch_safe(expr)
            values = batch_compiler().compile_batch(expr)(batch)
            assert len(set(values)) == len(batch)

    def test_udf_under_a_builtin_name_is_never_vectorised(self):
        calls = []
        library = FunctionLibrary()
        # data-accessing like the engine's own DATALENGTH override over
        # FILESTREAM pointers, so the row closure does not memoise it
        library.register_scalar(
            "LEN",
            lambda v: calls.append(v) or "udf",
            permission_set="EXTERNAL_ACCESS",
            data_access="READ",
        )
        expr = BUILTIN_CALLS["len"]
        assert batch_safe(expr) and not batch_safe(expr, library)
        fn = batch_compiler(library).compile_batch(expr)
        batch = BATCHES["repeated"]
        assert fn(batch) == ["udf"] * len(batch)
        assert len(calls) == len(batch)  # once per row, not per distinct

    def test_constants_are_read_at_execute_time(self):
        # a cached plan's literals are parameter slots: one compiled
        # closure must follow the slot from execution to execution
        slots = ["N", 0]
        expr = BinaryOp(
            "=",
            FuncCall("CHARINDEX", (Parameter(0, slots), col("s"))),
            Parameter(1, slots),
        )
        fn = batch_compiler().compile_batch(expr)
        batch = [("ACGT", 0, 0.0), ("ACNT", 0, 0.0), (None, 0, 0.0)] * 4
        assert fn(batch) == [True, False, None] * 4
        slots[0] = "A"
        assert fn(batch) == [False, False, None] * 4
        slots[1] = 1
        assert fn(batch) == [True, True, None] * 4
        slots[1] = None
        assert fn(batch) == [None] * 12
