"""The two servers: the back-end (master) DBMS and MTCache, the mid-tier
database cache enforcing C&C constraints."""

from repro.cache.backend import BackendServer
from repro.cache.mtcache import FallbackPolicy, MTCache
from repro.cache.placement import CachePlacement

__all__ = [
    "BackendServer",
    "CachePlacement",
    "FallbackPolicy",
    "MTCache",
]
