"""Shared helpers for the benchmark harness.

Every ``bench_*`` file regenerates one table/figure from the paper's
evaluation (§7), asserts its shape and prints the series the paper
reports; the printed tables are the reproduction artifact (recorded in
EXPERIMENTS.md).  Host timing is ``benchmarks/e2e``'s job.
"""

import pytest


def emit(title, text):
    """Print one experiment's table under a banner (shown with -s, and in
    captured output otherwise)."""
    banner = "=" * len(title)
    print(f"\n{banner}\n{title}\n{banner}\n{text}\n")


@pytest.fixture()
def report():
    return emit
