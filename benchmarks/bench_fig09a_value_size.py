"""Fig 9(a): switch throughput vs value size (snake test).

Paper: 2.24 BQPS, flat for value sizes up to 128 B (bottlenecked by the two
traffic generators, not the switch); larger values recirculate and halve the
chip's effective rate.  Reads and updates behave identically.
"""

from repro.sim.experiments import fig09a_value_size, format_table


def run():
    return fig09a_value_size()


def test_fig09a(report):
    rows = run()
    report("Fig 9(a) - throughput vs value size (snake test)", format_table(
        ["value_bytes", "read_BQPS", "update_BQPS", "passes", "verified"],
        [[r.x, r.read_bqps, r.update_bqps, r.pipeline_passes, r.verified]
         for r in rows],
    ))
    one_pass = [r for r in rows if r.x <= 128]
    assert all(r.read_bqps == one_pass[0].read_bqps for r in one_pass)
    assert abs(one_pass[0].read_bqps - 2.24) < 1e-9
    assert all(r.verified for r in rows)
