"""TPC-D-style workload generator (the paper's §4 database).

The paper used a TPCD database at scale factor 1.0: Customer with 150,000
rows (clustered on ``c_custkey``, secondary index on ``c_acctbal``) and
Orders with 1,500,000 rows (clustered on ``(o_custkey, o_orderkey)``, 10
orders per customer on average).  A pure-Python engine cannot hold SF 1.0
comfortably, so:

* data is generated at a configurable ``scale_factor`` (default 0.01), with
  all value distributions scale-free; and
* :func:`apply_paper_scale_stats` installs *statistics describing SF 1.0*
  so optimization decisions — which depend only on statistics — reproduce
  the paper's exactly, regardless of how much data is physically loaded.
"""

import random

SF1_CUSTOMERS = 150_000
SF1_ORDERS = 1_500_000
ORDERS_PER_CUSTOMER = 10

ACCTBAL_MIN = -999.99
ACCTBAL_MAX = 9999.99
TOTALPRICE_MIN = 900.0
TOTALPRICE_MAX = 450_000.0
NATIONS = 25

CUSTOMER_DDL = """
CREATE TABLE customer (
    c_custkey INT NOT NULL,
    c_name VARCHAR(25) NOT NULL,
    c_nationkey INT NOT NULL,
    c_acctbal FLOAT NOT NULL,
    c_mktsegment VARCHAR(10) NOT NULL,
    PRIMARY KEY (c_custkey)
)
"""

ORDERS_DDL = """
CREATE TABLE orders (
    o_custkey INT NOT NULL,
    o_orderkey INT NOT NULL,
    o_totalprice FLOAT NOT NULL,
    o_orderstatus VARCHAR(1) NOT NULL,
    PRIMARY KEY (o_custkey, o_orderkey)
)
"""

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
STATUSES = ["F", "O", "P"]


def customer_count(scale_factor):
    return max(1, int(round(SF1_CUSTOMERS * scale_factor)))


def generate_customers(scale_factor, seed=42):
    """Yield customer rows for the given scale factor."""
    rng = random.Random(seed)
    for key in range(1, customer_count(scale_factor) + 1):
        yield (
            key,
            f"Customer#{key:09d}",
            rng.randrange(NATIONS),
            round(rng.uniform(ACCTBAL_MIN, ACCTBAL_MAX), 2),
            rng.choice(SEGMENTS),
        )


def generate_orders(scale_factor, seed=42, skew=0.0):
    """Yield order rows: ~10 per customer, keyed (custkey, orderkey).

    ``skew`` in [0, 1) concentrates order volume on low-key customers
    (skew 0 = uniform ~10 each; higher values give heavy hitters), for
    experiments where uniform statistics mispredict — e.g. the histogram
    ablation.
    """
    rng = random.Random(seed + 1)
    n_customers = customer_count(scale_factor)
    orderkey = 0
    for custkey in range(1, n_customers + 1):
        if skew > 0.0:
            # Exponentially decaying expected volume, mean preserved
            # approximately for small tables.
            weight = (1.0 - skew) + skew * (n_customers / (custkey + n_customers * 0.05))
            n = max(1, int(round(rng.gauss(ORDERS_PER_CUSTOMER * weight, 2.0))))
        else:
            # Vary per-customer order counts around the mean of 10.
            n = rng.randint(ORDERS_PER_CUSTOMER - 3, ORDERS_PER_CUSTOMER + 3)
        for _ in range(n):
            orderkey += 1
            yield (
                custkey,
                orderkey,
                round(rng.uniform(TOTALPRICE_MIN, TOTALPRICE_MAX), 2),
                rng.choice(STATUSES),
            )


def load_tpcd(backend, scale_factor=0.01, seed=42, batch_size=2000):
    """Create and populate the TPCD tables on a back-end (one server or
    a :class:`~repro.shard.backend.ShardedBackend`).

    All rows go through the transaction manager, one commit per batch
    (``bulk_load``; on shards, one per batch per shard), so the
    replication log contains the full history — required both by the
    distribution agents and the semantics checker.
    """
    backend.create_table(CUSTOMER_DDL)
    backend.create_table(ORDERS_DDL)
    backend.create_index("CREATE INDEX idx_c_acctbal ON customer (c_acctbal)")

    for table, generate in (("customer", generate_customers), ("orders", generate_orders)):
        rows = list(generate(scale_factor, seed))
        for start in range(0, len(rows), batch_size):
            backend.bulk_load(table, rows[start:start + batch_size])
    backend.refresh_statistics()
    return backend


def apply_paper_scale_stats(backend, cache=None):
    """Install SF 1.0 statistics so plan choices match the paper's scale.

    The shadow statistics on the cache (and the view statistics) are scaled
    alongside.  Physical data is untouched.
    """
    from repro.catalog.statistics import ColumnStats, TableStats

    customer_stats = TableStats(
        row_count=SF1_CUSTOMERS,
        columns={
            "c_custkey": ColumnStats(min=1, max=SF1_CUSTOMERS, ndv=SF1_CUSTOMERS, avg_width=8),
            "c_name": ColumnStats(min="Customer#000000001", max="Customer#000150000",
                                  ndv=SF1_CUSTOMERS, avg_width=18),
            "c_nationkey": ColumnStats(min=0, max=NATIONS - 1, ndv=NATIONS, avg_width=8),
            "c_acctbal": ColumnStats(min=ACCTBAL_MIN, max=ACCTBAL_MAX,
                                     ndv=SF1_CUSTOMERS, avg_width=8),
            "c_mktsegment": ColumnStats(min="AUTOMOBILE", max="MACHINERY",
                                        ndv=len(SEGMENTS), avg_width=10),
        },
    )
    orders_stats = TableStats(
        row_count=SF1_ORDERS,
        columns={
            "o_custkey": ColumnStats(min=1, max=SF1_CUSTOMERS, ndv=SF1_CUSTOMERS, avg_width=8),
            "o_orderkey": ColumnStats(min=1, max=SF1_ORDERS, ndv=SF1_ORDERS, avg_width=8),
            "o_totalprice": ColumnStats(min=TOTALPRICE_MIN, max=TOTALPRICE_MAX,
                                        ndv=SF1_ORDERS, avg_width=8),
            "o_orderstatus": ColumnStats(min="F", max="P", ndv=len(STATUSES), avg_width=1),
        },
    )
    backend.catalog.table("customer").stats = customer_stats
    backend.catalog.table("orders").stats = orders_stats
    if cache is not None:
        cache.catalog.table("customer").stats = customer_stats
        cache.catalog.table("orders").stats = orders_stats
        for view in cache.catalog.matviews():
            base = {"customer": customer_stats, "orders": orders_stats}[view.base_table]
            view.stats = base.project(view.columns)
    return customer_stats, orders_stats
