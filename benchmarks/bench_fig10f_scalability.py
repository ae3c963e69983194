"""Fig 10(f): scaling to multiple racks (simulation, as in the paper).

Paper: NoCache stays flat as servers are added (the hottest server always
binds); Leaf-Cache (ToR caches only) grows but flattens by tens of racks
because inter-rack imbalance remains; Leaf-Spine-Cache grows linearly to
4 096 servers.
"""

from repro.sim.experiments import fig10f_scalability, format_table


def run():
    return fig10f_scalability()


def test_fig10f(report):
    points = run()
    report("Fig 10(f) - scaling to 32 racks (4096 servers)", format_table(
        ["design", "racks", "servers", "BQPS"],
        [[p.design, p.num_racks, p.num_servers, p.throughput / 1e9]
         for p in points],
    ))
    series = {}
    for p in points:
        series.setdefault(p.design, {})[p.num_racks] = p.throughput
    # NoCache flat: 32x servers buys < 30% more throughput.
    assert series["NoCache"][32] < 1.3 * series["NoCache"][1]
    # Leaf-Cache grows but clearly sublinearly.
    leaf_growth = series["Leaf-Cache"][32] / series["Leaf-Cache"][1]
    assert 2 < leaf_growth < 20
    # Leaf-Spine scales linearly (>= 24x for 32x servers).
    spine_growth = series["Leaf-Spine-Cache"][32] / \
        series["Leaf-Spine-Cache"][1]
    assert spine_growth > 24
    # Ordering at scale.
    assert series["NoCache"][32] < series["Leaf-Cache"][32] < \
        series["Leaf-Spine-Cache"][32]
