"""Coverage for remaining corners: CLI main loop, checker modes, executor
timing hooks, constraint helpers, and stacked components."""

import io

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache


def make_cache():
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))"
    )
    backend.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    backend.refresh_statistics()
    cache = MTCache(backend)
    cache.create_region("r1", 10, 2, heartbeat_interval=1)
    cache.create_matview("t_copy", "t", ["id", "v"], region="r1")
    cache.run_for(11)
    return cache


class TestCliMain:
    def test_main_loop_quits(self, monkeypatch, capsys):
        import repro.cli as cli

        inputs = iter(["\\now", "\\quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(inputs))
        monkeypatch.setattr(
            "repro.workloads.experiment.build_paper_setup",
            lambda **kw: type("S", (), {"cache": make_cache()})(),
        )
        assert cli.main([]) == 0
        out = capsys.readouterr().out
        assert "simulated time" in out

    def test_main_loop_handles_eof(self, monkeypatch, capsys):
        import repro.cli as cli

        def raise_eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", raise_eof)
        monkeypatch.setattr(
            "repro.workloads.experiment.build_paper_setup",
            lambda **kw: type("S", (), {"cache": make_cache()})(),
        )
        assert cli.main([]) == 0


class TestCheckerModes:
    def test_shallow_mode_skips_equivalence(self):
        from repro.semantics.checker import ResultChecker

        cache = make_cache()
        # Corrupt the view: shallow mode won't notice, deep mode will.
        view = cache.catalog.matview("t_copy")
        rid = view.table.pk_lookup((1,))
        view.table.update(rid, (1, 777))
        sql = "SELECT x.id, x.v FROM t x CURRENCY BOUND 600 SEC ON (x)"
        result = cache.execute(sql)
        assert ResultChecker(cache, deep=False).check(sql, result).ok
        assert not ResultChecker(cache, deep=True).check(sql, result).ok

    def test_order_by_query_checks_cardinality_only(self):
        from repro.semantics.checker import ResultChecker

        cache = make_cache()
        sql = (
            "SELECT x.id FROM t x CURRENCY BOUND 600 SEC ON (x) "
        )
        sql_ordered = (
            "SELECT x.id FROM t x ORDER BY x.id LIMIT 2 "
        )
        result = cache.execute(sql_ordered)
        report = ResultChecker(cache).check(sql_ordered, result)
        assert report.ok

    def test_derived_table_queries_skip_deep_check(self):
        from repro.semantics.checker import ResultChecker

        cache = make_cache()
        sql = "SELECT s.id FROM (SELECT id FROM t) s"
        result = cache.execute(sql)
        report = ResultChecker(cache).check(sql, result)
        assert report.ok  # shallow checks only; no crash


class TestExecutorHooks:
    def test_custom_timer(self):
        from repro.engine import Materialized, OutputCol, RowBinding
        from repro.engine.executor import Executor

        ticks = iter(range(100))
        executor = Executor(timer=lambda: float(next(ticks)))
        binding = RowBinding([OutputCol("x")])
        result = executor.execute(Materialized([(1,)], binding))
        assert result.timings.setup == 1.0
        assert result.timings.run == 1.0
        assert result.timings.shutdown == 1.0


class TestConstraintHelpers:
    def test_repr_readable(self):
        from repro.cc.constraint import CCConstraint, CCTuple

        constraint = CCConstraint([CCTuple(600.0, ["b", "r"])])
        text = repr(constraint)
        assert "600" in text
        assert "b" in text and "r" in text

    def test_tuple_equality_ignores_by_columns(self):
        from repro.cc.constraint import CCTuple
        from repro.sql.ast import ColumnRef

        a = CCTuple(5.0, ["x"], by_columns=(ColumnRef("k"),))
        b = CCTuple(5.0, ["x"])
        assert a == b
        assert hash(a) == hash(b)

    def test_operands_property(self):
        from repro.cc.constraint import CCConstraint, CCTuple

        constraint = CCConstraint([CCTuple(1.0, ["a"]), CCTuple(2.0, ["b", "c"])])
        assert constraint.operands == {"a", "b", "c"}


class TestWorkloadQueriesHelpers:
    def test_acctbal_ranges_scale_free(self):
        from repro.workloads.queries import _acctbal_range, Q6_FRACTION, Q7_FRACTION

        a6, b6 = _acctbal_range(Q6_FRACTION)
        a7, b7 = _acctbal_range(Q7_FRACTION)
        assert b6 - a6 < b7 - a7
        assert a6 == a7 == 500.0

    def test_k_for_fraction_monotone(self):
        from repro.workloads.queries import _k_for

        assert _k_for(0.001) < _k_for(0.2) < _k_for(1.0)


class TestBackendEstimateFallback:
    def test_complex_query_estimate_defaults(self):
        backend = BackendServer()
        backend.create_table(
            "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))"
        )
        backend.execute("INSERT INTO t VALUES (1)")
        backend.refresh_statistics()
        cost, rows, width = backend.estimate(
            "SELECT s.id FROM (SELECT id FROM t) s"
        )
        assert cost > 0 and rows > 0 and width > 0
