"""Fig 9(b): switch throughput vs cache size (snake test).

Paper: 2.24 BQPS, flat up to the 64K-item lookup-table limit; cache size
does not affect the pipeline's packet rate.
"""

from repro.sim.experiments import fig09b_cache_size, format_table


def run():
    return fig09b_cache_size()


def test_fig09b(report):
    rows = run()
    report("Fig 9(b) - throughput vs cache size (snake test)", format_table(
        ["cache_items", "read_BQPS", "update_BQPS", "verified"],
        [[r.x, r.read_bqps, r.update_bqps, r.verified] for r in rows],
    ))
    assert len({r.read_bqps for r in rows}) == 1
    assert all(r.verified for r in rows)
