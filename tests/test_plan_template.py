"""Plan templates: an ad-hoc statement binds its literals into a compiled
plan shared by every statement of its shape (repro.plan.template).

The contract under test: sharing a plan is *invisible* — a statement run
through a warm template answers, routes, explains and ships remote SQL
exactly as if it alone had been optimized — and a literal's value can
never leak into a shared plan unnoticed.
"""

import ast as pyast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.common.errors import ParseError
from repro.engine import ir
from repro.engine.operators import RemoteQuery
from repro.fleet import CacheFleet
from repro.optimizer import placement
from repro.plan.template import BoundPlan
from repro.shard.backend import ShardedBackend
from repro.sql import ast
from repro.sql.lexer import Lexer, TokenType, fingerprint
from repro.sql.parser import parse
from tests.conftest import EXECUTION_PATHS

TESTS = Path(__file__).parent


# ----------------------------------------------------------------------
# Environment: a paper-like customer/orders pair plus the ledger, over 1
# or 2 partitions, with a full copy, a predicate view and a view index.
# ----------------------------------------------------------------------
def make_backend(engine="columnar", partitions=1, **backend_kwargs):
    kwargs = dict(engine=engine, **backend_kwargs)
    backend = (
        BackendServer(**kwargs) if partitions == 1
        else ShardedBackend(partitions, **kwargs)
    )
    backend.create_table(
        "CREATE TABLE customer (c_custkey INT NOT NULL, c_name STRING NOT NULL, "
        "c_nationkey INT NOT NULL, c_acctbal FLOAT NOT NULL, PRIMARY KEY (c_custkey))"
    )
    backend.create_table(
        "CREATE TABLE orders (o_orderkey INT NOT NULL, o_custkey INT NOT NULL, "
        "o_totalprice FLOAT NOT NULL, PRIMARY KEY (o_orderkey))"
    )
    backend.create_table(
        "CREATE TABLE ledger (tid INT NOT NULL, leg INT NOT NULL, "
        "account INT NOT NULL, delta INT NOT NULL, PRIMARY KEY (tid, leg))"
    )
    customers = ", ".join(
        f"({k}, 'cust#{k}', {k % 5}, {k * 10.5})" for k in range(1, 41)
    )
    orders = ", ".join(f"({k}, {k % 40 + 1}, {k * 3.25})" for k in range(1, 81))
    legs = ", ".join(
        f"({t}, 0, {t % 8}, {t}), ({t}, 1, {(t + 1) % 8}, -{t})" for t in range(1, 31)
    )
    backend.execute(f"INSERT INTO customer VALUES {customers}")
    backend.execute(f"INSERT INTO orders VALUES {orders}")
    backend.execute(f"INSERT INTO ledger VALUES {legs}")
    backend.refresh_statistics()
    return backend


def make_cache(engine="columnar", partitions=1, **cache_kwargs):
    backend = make_backend(engine, partitions)
    cache = MTCache(backend, engine=engine, **cache_kwargs)
    cache.create_region("r1", 10.0, 2.0, heartbeat_interval=1.0)
    cache.create_matview(
        "cust_copy", "customer",
        ["c_custkey", "c_name", "c_nationkey", "c_acctbal"], region="r1",
    )
    cache.create_matview(
        "cust_n3", "customer", ["c_custkey", "c_name", "c_nationkey"],
        predicate="c_nationkey = 3", region="r1",
    )
    cache.create_matview(
        "orders_copy", "orders", ["o_orderkey", "o_custkey", "o_totalprice"],
        region="r1",
    )
    cache.create_matview(
        "ledger_copy", "ledger", ["tid", "leg", "account", "delta"], region="r1"
    )
    cache.create_view_index("orders_copy", "ix_o_custkey", ["o_custkey"])
    cache.run_for(13.0)
    return cache


_ENVS = {}


def shared_cache(engine, partitions):
    """One long-lived cache per (engine, partitions): templates stay warm
    across hypothesis examples, which is the state worth testing."""
    key = (engine, partitions)
    if key not in _ENVS:
        _ENVS[key] = make_cache(engine, partitions)
    return _ENVS[key]


def events(cache, event):
    return cache.metrics.counter(
        "plan_cache_events_total", labels={"event": event}
    ).value


POINT = "SELECT c.c_custkey, c.c_name FROM customer c WHERE c.c_custkey = {}"
BOUND = " CURRENCY BOUND 600 SEC ON (c)"


# ----------------------------------------------------------------------
# (a) Differential: warm template == cold optimization of that statement
# ----------------------------------------------------------------------
ints = st.integers(min_value=0, max_value=45)
floats = st.sampled_from([10.5, 21.0, 52.5, 0.5, 105.0, 1.0])
names = st.sampled_from(["cust#1", "cust#7", "cust#40", "nobody", "it's"])


def quoted(value):
    return ast.Literal(value).to_sql()


@st.composite
def statements(draw):
    """One statement over the customer/orders/ledger schema."""
    kind = draw(st.sampled_from([
        "point", "string", "float", "negative", "inlist", "range", "between",
        "join", "view_eq", "view_and_key", "ledger", "ledger_in", "residual",
        "select_literal", "limit", "two_eq",
    ]))
    alias = "l" if kind.startswith("ledger") else "c"
    k, j, m = draw(ints), draw(ints), draw(ints)
    if kind == "point":
        sql = POINT.format(k)
    elif kind == "string":
        sql = f"SELECT c.c_custkey FROM customer c WHERE c.c_name = {quoted(draw(names))}"
    elif kind == "float":
        sql = f"SELECT c.c_custkey FROM customer c WHERE c.c_acctbal = {draw(floats)}"
    elif kind == "negative":
        sql = f"SELECT c.c_custkey FROM customer c WHERE c.c_custkey = -{k}"
    elif kind == "inlist":
        sql = (f"SELECT c.c_custkey, c.c_acctbal FROM customer c "
               f"WHERE c.c_custkey IN ({k}, {j}, {m})")
    elif kind == "range":
        sql = f"SELECT c.c_custkey FROM customer c WHERE c.c_custkey < {k}"
    elif kind == "between":
        sql = (f"SELECT c.c_custkey FROM customer c "
               f"WHERE c.c_custkey BETWEEN {min(k, j)} AND {max(k, j)}")
    elif kind == "join":
        sql = (f"SELECT c.c_name, o.o_totalprice FROM customer c, orders o "
               f"WHERE c.c_custkey = o.o_custkey AND c.c_custkey = {k}")
    elif kind == "view_eq":
        # equal / unequal to cust_n3's predicate constant
        sql = (f"SELECT c.c_custkey, c.c_name FROM customer c "
               f"WHERE c.c_nationkey = {draw(st.sampled_from([3, 3, 2, 4]))}")
    elif kind == "view_and_key":
        sql = (f"SELECT c.c_custkey, c.c_name FROM customer c "
               f"WHERE c.c_nationkey = {draw(st.sampled_from([3, 1]))} "
               f"AND c.c_custkey = {k}")
    elif kind == "ledger":
        sql = f"SELECT l.tid, l.leg, l.delta FROM ledger l WHERE l.tid = {k}"
    elif kind == "ledger_in":
        sql = f"SELECT l.tid, l.leg, l.delta FROM ledger l WHERE l.tid IN ({k}, {j})"
    elif kind == "residual":
        sql = (f"SELECT c.c_custkey FROM customer c "
               f"WHERE c.c_acctbal + 1 > {draw(floats)} AND c.c_nationkey = {k % 5}")
    elif kind == "select_literal":
        sql = f"SELECT c.c_custkey, {j} FROM customer c WHERE c.c_custkey = {k}"
    elif kind == "limit":
        sql = (f"SELECT c.c_custkey FROM customer c WHERE c.c_nationkey = {k % 5} "
               f"LIMIT {j % 4 + 1}")
    else:  # two_eq: the same column compared twice
        sql = (f"SELECT c.c_custkey FROM customer c "
               f"WHERE c.c_custkey = {k} AND c.c_custkey = {draw(st.sampled_from([k, j]))}")
    bound = draw(st.sampled_from([None, 0, 5, 600]))
    if bound is not None:
        targets = "c, o" if kind == "join" else alias
        sql += f" CURRENCY BOUND {bound} SEC ON ({targets})"
    return sql


def assert_warm_equals_cold(cache, sql):
    warm = cache.execute(sql)
    cold_plan = cache.optimize(sql, use_cache=False)
    cold = cache._execute_plan(cold_plan, sql_text=sql)
    assert Counter(warm.rows) == Counter(cold.rows), sql
    assert warm.columns == cold.columns, sql
    assert warm.routing == cold.routing, sql
    assert warm.context.branches == cold.context.branches, sql
    assert warm.context.remote_queries == cold.context.remote_queries, sql
    assert warm.plan.summary() == cold_plan.summary(), sql
    assert warm.plan.explain() == cold_plan.explain(), sql
    assert "\x00" not in warm.plan.explain()
    # The statement's own text is now a text-LRU hit on the same plan.
    assert cache.execute(sql).plan is warm.plan


@pytest.mark.parametrize("partitions", [1, 2])
@pytest.mark.parametrize("engine", EXECUTION_PATHS, indirect=True)
class TestDifferential:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(batch=st.lists(statements(), min_size=1, max_size=6))
    def test_warm_template_matches_cold_optimization(self, engine, partitions, batch):
        cache = shared_cache(engine, partitions)
        for sql in batch:
            assert_warm_equals_cold(cache, sql)

    def test_the_shapes_above_really_share_plans(self, engine, partitions):
        cache = make_cache(engine, partitions)
        for key in range(1, 13):
            result = cache.execute(POINT.format(key) + BOUND)
            assert result.rows == [(key, f"cust#{key}")]
        # One compile per shard class of the partition key, binds beyond.
        assert events(cache, "misses") == partitions
        assert events(cache, "binds") == 12 - partitions
        assert len(cache._plans.cache.templates) == partitions

    def test_snapshot_of_a_bound_plan_is_const_only(self, engine, partitions):
        from repro.plan import instantiate_snapshot, serialize_plan

        cache = make_cache(engine, partitions)
        cache.execute(POINT.format(3) + BOUND)
        bound = cache.optimize(POINT.format(9) + BOUND)  # binds slot 0 = 9
        assert isinstance(bound, BoundPlan)
        snapshot = serialize_plan(bound, engine=cache.engine)
        assert '"param"' not in repr(snapshot).replace("'", '"')
        replay = cache._execute_plan(instantiate_snapshot(snapshot, cache), sql_text="x")
        assert replay.rows == [(9, "cust#9")]


# ----------------------------------------------------------------------
# (b) The fingerprint agrees with the lexer
# ----------------------------------------------------------------------
def string_constants(path):
    tree = pyast.parse(path.read_text())
    return sorted({
        node.value for node in pyast.walk(tree)
        if isinstance(node, pyast.Constant) and isinstance(node.value, str)
    })


LEXER_FEED = string_constants(TESTS / "test_lexer.py") + string_constants(
    TESTS / "test_parser.py"
) + [
    "select 'it''s', 1., .5, t1.c2 from t1 -- 55 'x'\n where a in (1,2,3)",
    "x =.5 and y = t.c2 /* 7 'q' */ and z='/*' and w = '--' -- tail",
    "a1 = 1 and b_2=22 and c3c=3.50 and d = 'a''b''' and e<>''",
    "SELECT 1.5.3, 1..2, 12abc, abc12, 5e3 FROM t",
    "", "   ", "''", "'''", "1", ".", "a.b", "a .5", "(.5)", "-5", "5-3", "4/2", "4/*2*/2",
]


def literal_tokens(sql):
    return [
        t for t in Lexer(sql).tokens()
        if t.type in (TokenType.NUMBER, TokenType.STRING)
    ]


def check_fingerprint(sql):
    shape, literals = fingerprint(sql)  # never raises
    try:
        tokens = literal_tokens(sql)
    except ParseError:
        return
    assert [(type(v), v) for v in literals] == [(type(t.value), t.value) for t in tokens]
    assert [t.slot for t in tokens] == list(range(len(tokens)))
    pieces = shape.split("?")
    if len(pieces) != len(literals) + 1:
        return  # a '?' of the text's own (inside a comment): nothing to rebuild
    # Re-substituting each literal's spelling reproduces the text: the
    # pieces tile it around the lexer's literal tokens.
    ends = [t.pos - len(piece) for t, piece in zip(tokens[1:], pieces[1:])]
    ends.append(len(sql) - len(pieces[-1]))
    pos = 0
    for piece, token, end in zip(pieces, tokens, ends):
        assert sql[pos:token.pos] == piece
        (spelling,) = literal_tokens(sql[token.pos:end])
        assert spelling.value == token.value
        pos = end
    assert sql[pos:] == pieces[-1]


class TestFingerprint:
    @pytest.mark.parametrize("sql", LEXER_FEED)
    def test_everything_the_lexer_tests_feed_it(self, sql):
        check_fingerprint(sql)

    FRAGMENTS = [
        "select", "c_custkey2", "t1", "_x", "1", "12", "1.", ".5", "3.75", "007",
        "'a'", "'it''s'", "''", "'--'", "'/*'", "-- c 1 'x'\n", "/* 2 'y' */",
        "=", "<=", "<>", "!=", "-", "+", "*", "/", "%", "(", ")", ",", ".",
        " ", "  ", "\n", "\t",
    ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=12))
    def test_generated_token_soup(self, fragments):
        check_fingerprint("".join(fragments))

    def test_shape_and_literals_of_a_point_lookup(self):
        shape, literals = fingerprint(POINT.format(1234) + " CURRENCY BOUND 10 MIN ON (c)")
        assert shape == POINT.format("?") + " CURRENCY BOUND ? MIN ON (c)"
        assert literals == [1234, 10]

    def test_parser_numbers_literal_slots_like_the_fingerprint(self):
        sql = "SELECT 'a', x FROM t WHERE y = 2 AND z IN (3, 'b') LIMIT 5"
        select = parse(sql)
        literals = fingerprint(sql)[1]
        nodes = [select.items[0].expr] + [
            n for n in select.where.walk() if isinstance(n, ast.Literal)
        ]
        assert [(n.slot, n.value) for n in nodes] == [
            (0, "a"), (1, 2), (2, 3), (3, "b"),
        ]
        assert all(literals[n.slot] == n.value for n in nodes)
        assert literals[4] == 5  # LIMIT: no Literal node, pinned by construction
        assert ast.Literal(7) == ast.Literal(7, slot=3)  # slot is not identity


# ----------------------------------------------------------------------
# (c) A Param's value cannot be read at plan time
# ----------------------------------------------------------------------
VALUE_READS = {
    "value": lambda p: p.value,
    "eq": lambda p: p == 1,
    "eq_param": lambda p: p == ast.Param(1, p.params),
    "ne": lambda p: p != 1,
    "hash": lambda p: hash(p),
    "set": lambda p: {p},
    "lt": lambda p: p < 1,
    "le": lambda p: p <= 1,
    "gt": lambda p: p > 1,
    "ge": lambda p: p >= 1,
    "reflected_lt": lambda p: 1 < p,
    "sorted": lambda p: sorted([p, 3]),
    "add": lambda p: p + 1,
    "radd": lambda p: 1 + p,
    "sub": lambda p: p - 1,
    "rsub": lambda p: 1 - p,
    "mul": lambda p: p * 2,
    "rmul": lambda p: 2 * p,
    "truediv": lambda p: p / 2,
    "rtruediv": lambda p: 2 / p,
    "mod": lambda p: p % 2,
    "rmod": lambda p: 2 % p,
    "neg": lambda p: -p,
    "bool": lambda p: bool(p),
    "if": lambda p: 1 if p else 0,
    "int": lambda p: int(p),
    "float": lambda p: float(p),
    "index": lambda p: [10, 20][p],
    "literal_compare": lambda p: ast.Literal(5) == p,
    "in_list": lambda p: p in [1, 2],
}


class TestParamOpacity:
    @pytest.mark.parametrize("read", sorted(VALUE_READS))
    def test_every_value_read_raises(self, read):
        param = ast.Param(0, ast.Params([5, 6]))
        with pytest.raises(ast.ParamRead) as caught:
            VALUE_READS[read](param)
        assert caught.value.slot == 0

    def test_what_a_param_does_allow(self):
        params = ast.Params([5, "x"])
        param = ast.Param(0, params)
        assert param == param and param in [param]  # identity reads no value
        assert "5" not in repr(param) and "5" not in param.to_sql()
        assert ast.render_params(
            f"a = {param.to_sql()} AND b = {ast.Param(1, params).to_sql()}", params
        ) == "a = 5 AND b = 'x'"
        assert param.classify(lambda v: v % 2) == 1
        assert list(params.classes) == [0]
        conjunct = ast.BinaryOp("=", ast.ColumnRef("a"), param)
        assert hash(conjunct) == hash(conjunct)  # structural, value-free
        assert ir.from_ast(param, None) == ("param", 0)
        fn = ir.compile_ir(("bin", "+", ("param", 0), ("const", 1)), params=params)
        assert fn.row_fn(()) == 6
        params[:] = [7, "y"]
        assert fn.row_fn(()) == 8
        assert ir.to_obj(fn.ir, fn.params) == ["bin", "+", ["const", 7], ["const", 1]]

    def test_view_predicate_match_demotes_instead_of_guessing(self):
        cache = make_cache()
        by_nation = ("SELECT c.c_custkey, c.c_name FROM customer c "
                     "WHERE c.c_nationkey = {}" + BOUND)
        in_view = cache.execute(by_nation.format(3))
        assert in_view.plan.summary() == "guarded(cust_n3)"
        assert events(cache, "demotions") == 1
        assert "?0 pinned=3" in in_view.plan.describe_template()
        other = cache.execute(by_nation.format(2))
        assert other.plan.summary() == "guarded(cust_copy)"
        assert other.plan.template is not in_view.plan.template
        assert sorted(r[0] for r in other.rows) == [2, 7, 12, 17, 22, 27, 32, 37]
        assert sorted(r[0] for r in in_view.rows) == [3, 8, 13, 18, 23, 28, 33, 38]

    def test_planted_value_read_in_a_placement_rule_demotes_the_slot(self, monkeypatch):
        real = placement.estimate_selectivity

        def nosy(stats, conjuncts, sargs):
            for sarg in sargs:
                if sarg.op == "=" and sarg.value > 10**9:  # a "histogram probe"
                    return 1e-9
            return real(stats, conjuncts, sargs)

        monkeypatch.setattr(placement, "estimate_selectivity", nosy)
        cache = make_cache()
        first = cache.execute(POINT.format(4) + BOUND)
        second = cache.execute(POINT.format(5) + BOUND)
        assert (first.rows, second.rows) == ([(4, "cust#4")], [(5, "cust#5")])
        assert events(cache, "demotions") == 1  # learned once, kept in the recipe
        assert events(cache, "misses") == 2 and events(cache, "binds") == 0
        assert second.plan.template is not first.plan.template
        assert "?0 pinned=5" in second.plan.describe_template()

    def test_equality_prefix_of_a_range_scan_is_pinned(self):
        cache = make_cache()
        cache.create_view_index("orders_copy", "ix_cust_price", ["o_custkey", "o_totalprice"])
        sql = ("SELECT o.o_orderkey FROM orders o WHERE o.o_custkey = {} "
               "AND o.o_totalprice > 100.0 CURRENCY BOUND 600 SEC ON (o)")
        for key in (3, 4, 3):
            assert_warm_equals_cold(cache, sql.format(key))


# ----------------------------------------------------------------------
# (d) Templates live exactly as long as plans
# ----------------------------------------------------------------------
def warm(cache):
    cache.execute(POINT.format(1) + BOUND)
    cache.execute(POINT.format(2) + BOUND)
    store = cache._plans.cache
    assert len(store) == 2 and store.templates and store.recipes
    return store


def is_empty(store):
    return not (len(store) or store.templates or store.recipes)


INVALIDATIONS = {
    "backend ddl epoch": lambda c: (
        c.backend.create_index("CREATE INDEX ix_c_nation ON customer (c_nationkey)"),
        c._check_plan_epoch(),
    ),
    "statistics refresh": lambda c: c.refresh_shadow_stats(),
    "create matview": lambda c: c.create_matview(
        "cust_keys", "customer", ["c_custkey"], region="r1"),
    "drop matview": lambda c: c.drop_matview("cust_n3"),
    "create region": lambda c: c.create_region("r2", 5.0, 1.0),
    "drop region": lambda c: (c.create_region("r2", 5.0, 1.0), warm(c), c.drop_region("r2")),
    "alter region": lambda c: c.alter_region("r1", update_delay=3.0),
    "view index": lambda c: c.create_view_index("cust_copy", "ix_nation", ["c_nationkey"]),
    "table consistency": lambda c: c.declare_table_consistency("customer", "strict"),
    "fallback policy": lambda c: setattr(c, "fallback_policy", "error"),
    "invalidate_plans": lambda c: c.invalidate_plans(),
}


class TestLifetime:
    @pytest.mark.parametrize("path", sorted(INVALIDATIONS))
    def test_every_invalidation_path_empties_the_store(self, path):
        cache = make_cache()
        store = warm(cache)
        INVALIDATIONS[path](cache)
        assert is_empty(store)
        assert cache.execute(POINT.format(1) + BOUND).rows == [(1, "cust#1")]

    def test_node_crash_empties_the_store(self):
        fleet = CacheFleet(BackendServer(), 2)
        fleet.backend.create_table(
            "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))")
        fleet.backend.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        fleet.backend.refresh_statistics()
        fleet.create_region("r", 4.0, 1.0)
        fleet.create_matview("t_copy", "t", ["id", "v"], region="r")
        fleet.run_for(6.0)
        node = fleet.nodes[0]
        for key in (1, 2):
            node.execute(f"SELECT t.v FROM t WHERE t.id = {key} CURRENCY BOUND 60 SEC ON (t)")
        assert node._plans.cache.templates
        node.crash()
        assert is_empty(node._plans.cache)

    # (e)
    def test_no_part_of_the_store_outgrows_plan_cache_size(self):
        cache = make_cache(plan_cache_size=4)
        store = cache._plans.cache
        shapes = [
            POINT + BOUND,
            "SELECT c.c_custkey FROM customer c WHERE c.c_custkey < {}" + BOUND,
            "SELECT c.c_name FROM customer c WHERE c.c_custkey IN ({}, 2)" + BOUND,
            "SELECT c.c_name FROM customer c WHERE c.c_custkey IN ({}, 2, 3)" + BOUND,
            "SELECT c.c_acctbal FROM customer c WHERE c.c_custkey = {}",
            "SELECT c.c_custkey, {} FROM customer c",
            "SELECT l.delta FROM ledger l WHERE l.tid = {} CURRENCY BOUND 5 SEC ON (l)",
        ]
        for key in range(1, 10):
            for shape in shapes:
                cache.execute(shape.format(key))
                assert len(store) <= 4
                assert len(store.templates) <= 4
                assert len(store.recipes) <= 4
        assert events(cache, "template_evictions") > 0
        assert events(cache, "evictions") > 0


# ----------------------------------------------------------------------
# One parse per miss, shard-set keys, observability
# ----------------------------------------------------------------------
class TestOneParsePerMiss:
    def test_a_miss_parses_once_and_counts_it(self, monkeypatch):
        from repro.cache import mtcache

        calls = []
        real = mtcache.parse
        monkeypatch.setattr(
            mtcache, "parse", lambda *a, **kw: calls.append(a[0]) or real(*a, **kw))
        cache = make_cache()
        parsed = cache.metrics.counter("statements_parsed_total")
        cache.execute(POINT.format(1) + BOUND)
        assert (len(calls), parsed.value) == (1, 1)
        cache.execute(POINT.format(2) + BOUND)  # a bind: no parse at all
        cache.execute(POINT.format(1) + BOUND)  # a text hit
        assert (len(calls), parsed.value) == (1, 1)
        cache.optimize(POINT.format(1) + " CURRENCY BOUND 7 SEC ON (c)")
        assert (len(calls), parsed.value) == (2, 2)

    def test_execute_and_optimize_share_one_probe(self):
        source = (TESTS.parent / "src/repro/cache/mtcache.py").read_text()
        assert source.count(".probe(sql)") == 1


IN_LIST = ("SELECT l.tid, l.leg, l.delta FROM ledger l WHERE l.tid IN ({}, {}, {})"
           " CURRENCY BOUND {} SEC ON (l)")


def remote_pins(plan):
    """The shard pin of every RemoteQuery in a plan's operator tree."""
    pins, stack = [], [plan.root()]
    while stack:
        op = stack.pop()
        if isinstance(op, RemoteQuery):
            pins.append(op.shards)
        stack.extend(op.children())
    return pins


class TestShardSetKeys:
    """An IN-list's template key carries the *set* of shards its items
    live on, so every order of the same shards binds one plan."""

    def setup_method(self):
        self.cache = make_cache("columnar", 2)
        shard_of = self.cache.backend.shard_of
        self.keys = {0: [], 1: []}
        for tid in range(1, 31):
            self.keys[shard_of("ledger", tid)].append(tid)

    def lists(self, *patterns):
        """One IN-list per shard pattern, drawing fresh keys from each shard."""
        pools = {shard: iter(keys) for shard, keys in self.keys.items()}
        return [[next(pools[shard]) for shard in pattern] for pattern in patterns]

    def run(self, tids, bound):
        misses = events(self.cache, "misses")
        sql = IN_LIST.format(*tids, bound)
        assert_warm_equals_cold(self.cache, sql)
        plan = self.cache._plans.cache[sql]
        return events(self.cache, "misses") - misses, plan

    @pytest.mark.parametrize("bound", [600, 0])
    def test_shard_orders_share_one_template(self, bound):
        lists = self.lists((0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 0))
        compiled = [self.run(tids, bound)[0] for tids in lists]
        assert compiled == [1, 0, 0, 0]
        assert events(self.cache, "binds") == 3
        assert len(self.cache._plans.cache.templates) == 1

    def test_single_shard_list_compiles_a_pinned_template(self):
        lists = self.lists((0, 1, 0), (0, 0, 0), (0, 0, 0), (1, 1, 1))
        (_, spread), (one, pinned), (again, rebound), (other, _) = [
            self.run(tids, 600) for tids in lists
        ]
        assert (one, again, other) == (1, 0, 1)
        assert rebound.template is pinned.template is not spread.template
        # The pinned plan's remote branch goes to shard 0 alone; the
        # spread plan's to whichever shards the back-end routes it to.
        assert remote_pins(pinned) == [(0,)]
        assert remote_pins(spread) == [None]

    def test_the_remote_branch_binds_on_every_partition(self):
        # B = 0: every read takes the remote branch, which ShardedBackend
        # routes to the shards the list spans; each partition compiles its
        # leg's shape once and binds every later list.
        for tids in self.lists((0, 1, 0), (1, 0, 0), (0, 0, 1)):
            result = self.cache.execute(IN_LIST.format(*tids, 0))
            assert result.routing == "remote"
        for partition in self.cache.backend.partitions:
            templates = partition.plans.cache.templates
            assert len(templates) == 1
            assert len(partition.plans.cache) == 3

    def test_explain_names_the_set(self):
        (tids,) = self.lists((1, 0, 1))
        sql = IN_LIST.format(*tids, 5)
        lines = [row[0] for row in self.cache.execute("EXPLAIN " + sql).rows]
        assert [line for line in lines if line.startswith("template:")] == [
            "template: SELECT l.tid, l.leg, l.delta FROM ledger l "
            "WHERE l.tid IN (?, ?, ?) CURRENCY BOUND ? SEC ON (l) "
            "[?0,?1,?2 set={0, 1}, ?3 pinned=5]"
        ]


class TestObservability:
    def test_binds_are_a_subset_of_hits(self):
        cache = make_cache()
        for key in (1, 2, 3, 2):
            cache.execute(POINT.format(key) + BOUND)
        assert cache.plan_cache_stats == {
            "hits": 3, "misses": 1, "invalidations": 0, "evictions": 0,
        }
        assert events(cache, "binds") == 2

    def test_explain_prints_one_template_line(self):
        cache = make_cache("columnar", 2)
        sql = ("SELECT l.tid, l.delta FROM ledger l WHERE l.tid = 7 "
               "CURRENCY BOUND 5 SEC ON (l)")
        lines = [row[0] for row in cache.execute("EXPLAIN " + sql).rows]
        template = [line for line in lines if line.startswith("template:")]
        shard = cache.backend.shard_of("ledger", 7)
        assert template == [
            "template: SELECT l.tid, l.delta FROM ledger l WHERE l.tid = ? "
            f"CURRENCY BOUND ? SEC ON (l) [?0 class={shard}, ?1 pinned=5]"
        ]
        # EXPLAIN compiled the plan executing the text now hits.
        assert cache.execute(sql).plan is cache._plans.cache[sql]
        assert events(cache, "misses") == 1
        analyzed = [r[0] for r in cache.explain(sql, analyze=True).rows]
        assert [line for line in analyzed if line.startswith("template:")] == template
        parsed = [r[0] for r in cache.explain(parse(sql)).rows]
        assert "template: none (this text has no compiled template)" in parsed

    def test_free_slot_is_reported_free(self):
        cache = make_cache()
        result = cache.execute(POINT.format(3) + BOUND)
        assert result.plan.describe_template().endswith("[?0 free, ?1 pinned=600]")
