"""Ablation A4: sampling rate vs detection quality (§4.4.3).

The sampler in front of the statistics module lets 16-bit counters survive
line rate, at the cost of statistical resolution.  This ablation sweeps the
sample rate on a fixed Zipf 0.99 stream and reports, for each rate:

* recall of the true top-K keys among reported heavy hitters;
* total reports (with proportionally lower thresholds, heavy sampling lets
  more marginal keys through — extra controller work);
* the counter head-room consumed (max Count-Min cell) — the reason the
  sampler exists: it keeps 16-bit counters from saturating at line rate.
"""

from collections import Counter

from repro.core.stats import QueryStatistics
from repro.client.zipf import ZipfGenerator
from repro.sim.experiments import format_table

NUM_KEYS = 50_000
QUERIES = 120_000
TOP_K = 50


def run():
    rows = []
    for rate in (1.0, 0.5, 0.25, 1 / 16, 1 / 64):
        gen = ZipfGenerator(NUM_KEYS, 0.99, seed=31)
        truth = Counter()
        # Threshold scaled to the sampled count of the rank-K boundary key.
        threshold = max(2, int(QUERIES * rate * 0.0016 * 0.5))
        stats = QueryStatistics(entries=1024, hot_threshold=threshold,
                                sample_rate=rate, seed=31)
        reported = set()
        first_report = None
        for i in range(QUERIES):
            key = str(gen.next_rank()).encode()
            truth[key] += 1
            hot = stats.heavy_hitter_count(key)
            if hot is not None:
                reported.add(hot)
                if first_report is None:
                    first_report = i
        true_top = {k for k, _ in truth.most_common(TOP_K)}
        recall = len(reported & true_top) / TOP_K
        max_cell = max(stats.sketch.estimate(k) for k in true_top)
        rows.append([rate, threshold, recall, len(reported),
                     first_report if first_report is not None else -1,
                     max_cell])
    return rows


def test_ablation_sampling(report):
    rows = run()
    report("Ablation A4 - sampling rate vs heavy-hitter detection",
           format_table(
               ["sample_rate", "threshold", "recall@50", "reports",
                "first_report_after", "max_cm_cell"], rows))
    by_rate = {r[0]: r for r in rows}
    # Full counting and paper-style 1/16 sampling both find the hot set...
    assert by_rate[1.0][2] >= 0.95
    assert by_rate[1 / 16][2] >= 0.9
    # ...but heavy sampling needs proportionally lower thresholds, which
    # admit more marginal/noise keys into the reports (controller load)...
    assert by_rate[1 / 64][3] > by_rate[1.0][3]
    # ...while keeping the counters far from their 16-bit ceiling (the
    # reason the sampler exists, §4.4.3).
    assert by_rate[1 / 64][5] < by_rate[1.0][5]
    assert by_rate[1.0][5] < (1 << 16) - 1  # and even full rate fits here
