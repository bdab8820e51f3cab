"""Smoke tests for the public package surface: every documented export is
importable and the README quickstart actually works."""

import importlib

import pytest


PACKAGES = [
    "repro",
    "repro.common",
    "repro.storage",
    "repro.txn",
    "repro.catalog",
    "repro.sql",
    "repro.cc",
    "repro.engine",
    "repro.optimizer",
    "repro.replication",
    "repro.cache",
    "repro.semantics",
    "repro.workloads",
    "repro.fleet",
    "repro.cli",
]


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_version(self):
        import repro

        assert repro.__version__


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        from repro import BackendServer, MTCache

        backend = BackendServer()
        backend.create_table(
            "CREATE TABLE products (pid INT NOT NULL, name VARCHAR(30) NOT NULL, "
            "price FLOAT NOT NULL, PRIMARY KEY (pid))"
        )
        backend.execute("INSERT INTO products VALUES (1, 'widget', 9.99)")
        backend.refresh_statistics()

        cache = MTCache(backend)
        cache.create_region("r1", update_interval=10, update_delay=2)
        cache.create_matview(
            "products_copy", "products", ["pid", "name", "price"], region="r1"
        )
        cache.run_for(11)

        result = cache.execute(
            "SELECT p.pid, p.price FROM products p CURRENCY BOUND 60 SEC ON (p)"
        )
        assert result.rows == [(1, 9.99)]
        assert result.plan.summary() == "guarded(products_copy)"
        assert cache.execute("SELECT p.price FROM products p").plan.summary() == "remote"

    def test_module_docstring_example(self):
        import repro

        assert "CURRENCY BOUND" in repro.__doc__


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro.common import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
                assert issubclass(obj, errors.ReproError), name

    def test_parse_error_position(self):
        from repro.common.errors import ParseError

        error = ParseError("bad token", position=17)
        assert "17" in str(error)
        assert error.position == 17

    def test_catchable_as_repro_error(self):
        from repro import BackendServer, ReproError

        backend = BackendServer()
        with pytest.raises(ReproError):
            backend.execute("SELECT FROM nothing")
