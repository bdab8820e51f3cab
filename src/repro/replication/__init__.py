"""Replication: heartbeat service and distribution agents maintaining the
cache's materialized views one region at a time, in commit order — plus
the log tailer they share with the shard replicas and the durability
plumbing (checkpointed resume cutoffs, standby promotion) that keeps
regions maintained across agent death."""

from repro.replication.agent import DistributionAgent
from repro.replication.checkpoint import Checkpoint, CheckpointStore
from repro.replication.failover import AgentSupervisor
from repro.replication.heartbeat import (
    HEARTBEAT_TABLE,
    HeartbeatService,
    heartbeat_schema,
    local_heartbeat_name,
)

__all__ = [
    "AgentSupervisor",
    "Checkpoint",
    "CheckpointStore",
    "DistributionAgent",
    "HEARTBEAT_TABLE",
    "HeartbeatService",
    "heartbeat_schema",
    "local_heartbeat_name",
]
