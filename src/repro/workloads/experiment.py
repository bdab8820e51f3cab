"""The §4 experimental setup: back-end + MTCache + the two local views.

Reproduces Table 4.1:

====  ========  =====  ==========
cid   interval  delay  views
====  ========  =====  ==========
CR1   15        5      cust_prj
CR2   10        5      orders_prj
====  ========  =====  ==========

``cust_prj(c_custkey, c_name, c_nationkey, c_acctbal)`` is clustered on
``c_custkey`` with *no* secondary indexes (the reason Q6 goes remote);
``orders_prj(o_custkey, o_orderkey, o_totalprice)`` is clustered on
``(o_custkey, o_orderkey)``.
"""

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.workloads.tpcd import apply_paper_scale_stats, load_tpcd

#: Table 4.1 settings.
REGION_SETTINGS = [
    ("cr1", 15.0, 5.0, "cust_prj"),
    ("cr2", 10.0, 5.0, "orders_prj"),
]

CUST_PRJ_COLUMNS = ["c_custkey", "c_name", "c_nationkey", "c_acctbal"]
ORDERS_PRJ_COLUMNS = ["o_custkey", "o_orderkey", "o_totalprice"]


class PaperSetup:
    """Handle on the assembled experiment environment."""

    def __init__(self, backend, cache, scale_factor):
        self.backend = backend
        self.cache = cache
        self.scale_factor = scale_factor

    @property
    def clock(self):
        return self.backend.clock

    def run_for(self, seconds):
        return self.backend.run_for(seconds)

    def region_table(self):
        """Rows of Table 4.1 for reporting."""
        out = []
        for cid, interval, delay, view in REGION_SETTINGS:
            region = self.cache.catalog.region(cid)
            out.append((region.cid, region.update_interval, region.update_delay, view))
        return out


def build_paper_setup(
    scale_factor=0.01,
    seed=42,
    heartbeat_interval=2.0,
    paper_scale_stats=True,
    settle=True,
    engine=None,
):
    """Assemble the paper's experimental environment.

    ``paper_scale_stats=True`` installs SF 1.0 statistics so the optimizer
    reproduces the paper's plan choices even though less data is loaded.
    ``settle=True`` advances simulated time far enough for heartbeats to
    propagate, so currency guards can pass immediately.  ``engine`` picks
    the execution engine of both servers (``"row"`` / ``"columnar"``).
    """
    backend = BackendServer(engine=engine)
    load_tpcd(backend, scale_factor=scale_factor, seed=seed)
    cache = MTCache(backend, engine=engine)

    for cid, interval, delay, _view in REGION_SETTINGS:
        cache.create_region(cid, interval, delay, heartbeat_interval=heartbeat_interval)
    cache.create_matview("cust_prj", "customer", CUST_PRJ_COLUMNS, region="cr1")
    cache.create_matview("orders_prj", "orders", ORDERS_PRJ_COLUMNS, region="cr2")

    if paper_scale_stats:
        apply_paper_scale_stats(backend, cache)

    if settle:
        # One full propagation cycle of the slowest region: heartbeats have
        # beaten and both agents have propagated at least once.
        slowest = max(interval + delay for _, interval, delay, _ in REGION_SETTINGS)
        backend.run_for(slowest + heartbeat_interval)

    return PaperSetup(backend, cache, scale_factor)
