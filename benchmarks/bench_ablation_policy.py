"""Ablation A3: cache-update policies under an update-rate budget (§4.3).

The paper rejects LRU/LFU because "commodity switches are able to update
more than 10K table entries per second" while the data plane sees a billion
queries: per-query policies want orders of magnitude more updates than the
driver can apply.  This benchmark runs LRU, LFU, and NetCache's
threshold-insertion policy on identical Zipf streams under (i) an unlimited
budget and (ii) a realistic budget, reporting hit ratio and updates used.
"""

from repro.baselines.policies import (
    LfuPolicy,
    LruPolicy,
    ThresholdPolicy,
    run_policy,
)
from repro.client.zipf import ZipfGenerator
from repro.sim.experiments import format_table

NUM_KEYS = 20_000
QUERIES = 100_000
CAPACITY = 1_000
INTERVAL = 2_000


def stream():
    gen = ZipfGenerator(NUM_KEYS, 0.99, seed=21)
    return (str(gen.next_rank()).encode() for _ in range(QUERIES))


def run():
    rows = []
    for budget_name, budget in (("unlimited", 10**9), ("realistic", 40)):
        for policy in (LruPolicy(CAPACITY), LfuPolicy(CAPACITY),
                       ThresholdPolicy(CAPACITY, threshold=3)):
            hit_ratio, updates = run_policy(policy, stream(), INTERVAL,
                                            budget)
            rows.append([budget_name, policy.name, hit_ratio, updates])
    return rows


def test_ablation_policy(report):
    rows = run()
    report("Ablation A3 - update policies vs table-update budget",
           format_table(
               ["budget", "policy", "hit_ratio", "updates_applied"], rows))
    data = {(r[0], r[1]): (r[2], r[3]) for r in rows}
    lru_free = data[("unlimited", "lru")]
    thr_free = data[("unlimited", "netcache-threshold")]
    # Threshold insertion ~matches LRU's hit ratio at a tiny update cost.
    assert thr_free[0] > 0.8 * lru_free[0]
    assert thr_free[1] < 0.05 * lru_free[1]
    # Under the realistic budget the threshold policy wins outright.
    assert data[("realistic", "netcache-threshold")][0] >= \
        data[("realistic", "lru")][0]
