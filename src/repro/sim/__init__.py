"""Experiment harness: cluster assembly, rate-equilibrium and hybrid
simulators, the switch microbenchmark, multi-rack scaling, and canned
per-figure experiments."""

from repro.sim.cluster import Cluster, ClusterConfig, default_workload, make_cluster
from repro.sim.emulation import (
    DynamicsEmulator,
    EmulationConfig,
    EmulationResult,
    run_dynamics,
)
from repro.sim.fabric import Fabric, FabricConfig
from repro.sim.rotation import RotationConfig, RotationResult, ServerRotation
from repro.sim.microbench import (
    SnakeCheck,
    pipeline_passes,
    snake_throughput,
    verify_pipeline,
)
from repro.sim.ratesim import (
    RateSimConfig,
    RateSimResult,
    fast_partition_vector,
    mask_from_keys,
    partition_vector,
    simulate,
    top_k_mask,
)
from repro.sim.scaling import ScalingConfig, ScalingPoint, sweep

__all__ = [
    "Cluster",
    "ClusterConfig",
    "DynamicsEmulator",
    "EmulationConfig",
    "EmulationResult",
    "Fabric",
    "FabricConfig",
    "RateSimConfig",
    "RateSimResult",
    "RotationConfig",
    "RotationResult",
    "ScalingConfig",
    "ServerRotation",
    "ScalingPoint",
    "SnakeCheck",
    "default_workload",
    "fast_partition_vector",
    "make_cluster",
    "mask_from_keys",
    "partition_vector",
    "pipeline_passes",
    "run_dynamics",
    "simulate",
    "snake_throughput",
    "sweep",
    "top_k_mask",
    "verify_pipeline",
]
