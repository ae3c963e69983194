"""Client library: key-value API, workload generation, Zipf distributions,
popularity churn, and rate adaptation."""

from repro.client.api import NetCacheClient, SyncClient, WorkloadClient
from repro.client.bigvalues import BigValueClient, ChunkedValueCodec
from repro.client.dynamics import ChurnSchedule, PopularityMap
from repro.client.hashedkeys import HashedKeyCodec, VariableKeyClient
from repro.client.ratecontrol import AimdRateController
from repro.client.workload import Workload, WorkloadSpec
from repro.client.ycsb import ycsb_spec, ycsb_workload
from repro.client.zipf import KeySpace, ZipfDistribution, ZipfGenerator

__all__ = [
    "AimdRateController",
    "BigValueClient",
    "ChunkedValueCodec",
    "ChurnSchedule",
    "HashedKeyCodec",
    "VariableKeyClient",
    "KeySpace",
    "NetCacheClient",
    "PopularityMap",
    "SyncClient",
    "Workload",
    "WorkloadClient",
    "WorkloadSpec",
    "ZipfDistribution",
    "ZipfGenerator",
    "ycsb_spec",
    "ycsb_workload",
]
