"""Hypothesis twin: the equilibrium solver against its per-item loop.

``reference_simulate`` is :func:`repro.sim.ratesim.simulate` as the plain
loop it was first written as: every pass recomputes every per-item array
with ``np.where`` over the cached mask, and a read-only point runs the
same pass twice before the fixed point sees the rate stand still.  The
solver must return the *same bits* — every :class:`RateSimResult` field,
floats by ``float.hex`` and the per-server vector by its bytes — because
it keeps every reduction over the full per-item arrays in item order.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.client.zipf import ZipfDistribution
from repro.errors import ConfigurationError
from repro.sim import ratesim
from repro.sim.ratesim import (
    RateSimConfig,
    RateSimResult,
    fast_partition_vector,
    partition_vector,
    simulate,
    top_k_mask,
)


def reference_simulate(read_probs, cached_mask, config, write_probs=None):
    """The solver as a per-item loop: every array, every pass."""
    n_items = len(read_probs)
    w = config.write_ratio
    if w > 0 and write_probs is None:
        raise ConfigurationError("write_ratio > 0 requires write_probs")
    if cached_mask is None:
        cached_mask = np.zeros(n_items, dtype=bool)

    if config.exact_partition:
        part = partition_vector(n_items, config.num_servers,
                                config.partition_seed)
    else:
        part = fast_partition_vector(n_items, config.num_servers,
                                     config.partition_seed)
    read_rate = (1.0 - w) * read_probs
    write_rate = (w * write_probs) if w > 0 else np.zeros(n_items)

    validity = np.ones(n_items)
    rate = 0.0
    for _ in range(50):
        hit_rate = np.where(cached_mask, read_rate * validity, 0.0)
        miss_read = read_rate - hit_rate
        server_write = write_rate * np.where(cached_mask,
                                             1.0 + config.coherence_overhead,
                                             1.0)
        server_traffic = miss_read + server_write
        per_server = np.bincount(part, weights=server_traffic,
                                 minlength=config.num_servers)
        max_load = per_server.max()

        bounds = {}
        if max_load > 0:
            bounds["server"] = config.server_rate / max_load
        total = hit_rate.sum() + server_traffic.sum()
        if total > 0:
            bounds["switch"] = config.switch_rate / total
        pipes = part % config.num_pipes
        pipe_load = float(np.bincount(pipes, weights=hit_rate + server_traffic,
                                      minlength=config.num_pipes).max())
        if pipe_load > 0:
            bounds["pipe"] = config.pipe_rate / pipe_load
        replies = read_rate.sum() + write_rate.sum()
        if replies > 0 and config.num_upstream_pipes > 0:
            bounds["upstream"] = (config.num_upstream_pipes
                                  * config.pipe_rate / replies)
        if not bounds:
            raise ConfigurationError("workload has no traffic")
        binding = min(bounds, key=bounds.get)
        new_rate = bounds[binding]

        if w > 0:
            window = (config.invalidation_window +
                      config.invalidation_service_factor / config.server_rate)
            inv = new_rate * write_rate * window
            new_validity = 1.0 / (1.0 + inv)
        else:
            new_validity = validity
        if abs(new_rate - rate) <= 1e-9 * max(1.0, new_rate):
            rate, validity = new_rate, new_validity
            break
        rate, validity = new_rate, new_validity

    hit_rate = np.where(cached_mask, read_rate * validity, 0.0)
    miss_read = read_rate - hit_rate
    server_write = write_rate * np.where(cached_mask,
                                         1.0 + config.coherence_overhead, 1.0)
    server_traffic = miss_read + server_write
    per_server = np.bincount(part, weights=server_traffic,
                             minlength=config.num_servers) * rate
    cache_tput = float(hit_rate.sum() * rate)
    served_by_servers = float((miss_read + write_rate).sum() * rate)
    total = cache_tput + served_by_servers
    return RateSimResult(
        throughput=total,
        cache_throughput=cache_tput,
        server_throughput=served_by_servers,
        per_server_load=per_server,
        bottleneck=int(per_server.argmax()),
        hit_ratio=cache_tput / total if total else 0.0,
        binding=binding,
    )


def differing_fields(got: RateSimResult, want: RateSimResult) -> list:
    """Names of the fields whose bits differ."""
    names = []
    for field in dataclasses.fields(RateSimResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            same = (isinstance(a, np.ndarray) and a.dtype == b.dtype
                    and a.shape == b.shape and a.tobytes() == b.tobytes())
        elif isinstance(b, float):
            same = isinstance(a, float) and a.hex() == b.hex()
        else:
            same = type(a) is type(b) and a == b
        if not same:
            names.append(field.name)
    return names


def _probs(rng, n, power):
    p = rng.random(n) ** power
    return p / p.sum()


@st.composite
def points(draw):
    """(read_probs, cached_mask, config, write_probs) of one solve."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    read_probs = _probs(rng, n, draw(st.sampled_from([1.0, 4.0, 16.0])))
    masks = {
        "none": None,
        "empty": np.zeros(n, dtype=bool),
        "full": np.ones(n, dtype=bool),
        "random": rng.random(n) < draw(st.floats(0.02, 0.9)),
    }
    mask = masks[draw(st.sampled_from(sorted(masks)))]
    write_ratio = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    write_probs = _probs(rng, n, draw(st.sampled_from([0.0, 1.0, 16.0])))
    if write_ratio == 0 and draw(st.booleans()):
        write_probs = None
    config = RateSimConfig(
        num_servers=draw(st.integers(1, 24)),
        server_rate=draw(st.sampled_from([1e3, 1e5, 1e7])),
        switch_rate=draw(st.sampled_from([1e4, 1e9])),
        pipe_rate=draw(st.sampled_from([1e3, 1e6, 1e9])),
        num_pipes=draw(st.integers(1, 4)),
        num_upstream_pipes=draw(st.integers(0, 3)),
        write_ratio=write_ratio,
        invalidation_service_factor=draw(st.sampled_from([0.0, 64.0,
                                                          5000.0])),
        coherence_overhead=draw(st.sampled_from([0.0, 0.3, 2.0])),
        partition_seed=draw(st.integers(0, 2 ** 16)),
        exact_partition=n <= 64 and draw(st.booleans()),
    )
    return read_probs, mask, config, write_probs


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(point=points())
def test_simulate_is_bitwise_the_per_item_loop(point):
    read_probs, mask, config, write_probs = point
    try:
        want = reference_simulate(read_probs, mask, config, write_probs)
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            simulate(read_probs, mask, config, write_probs)
        return
    got = simulate(read_probs, mask, config, write_probs)
    assert differing_fields(got, want) == []


@pytest.mark.parametrize("write_ratio", [0.0, 0.05, 0.3])
def test_figure_sized_point_is_bitwise_the_per_item_loop(write_ratio):
    """One Fig 10(d)-shaped point at 20 000 keys: long reductions, many
    equal-probability tail items, skewed writes onto the cached head."""
    probs = ZipfDistribution(20_000, 0.99).probs
    mask = top_k_mask(probs, 200)
    config = RateSimConfig(write_ratio=write_ratio)
    want = reference_simulate(probs, mask, config, probs)
    assert differing_fields(simulate(probs, mask, config, probs), want) == []


def test_stopping_one_pass_early_is_named(monkeypatch):
    """Sabotage: end the fixed point one pass before it settles.  The twin
    must notice and name what moved."""
    probs = ZipfDistribution(2_000, 0.99).probs
    mask = top_k_mask(probs, 100)
    config = RateSimConfig(num_servers=16, server_rate=1e5,
                           write_ratio=0.2)
    want = reference_simulate(probs, mask, config, probs)
    assert differing_fields(simulate(probs, mask, config, probs), want) == []

    settled = ratesim._settled
    passes = []
    monkeypatch.setattr(ratesim, "_settled",
                        lambda new, old: passes.append(1) or settled(new, old))
    simulate(probs, mask, config, probs)
    assert len(passes) >= 3     # a point the fixed point has to iterate on

    seen = []
    monkeypatch.setattr(
        ratesim, "_settled",
        lambda new, old: seen.append(1) or len(seen) == len(passes) - 1)
    got = simulate(probs, mask, config, probs)
    assert "throughput" in differing_fields(got, want)
