"""Implementation resource table (§6).

Paper: lookup table 64K x 16-byte keys; value arrays 8 stages x 64K x 16 B
(8 MB); Count-Min sketch 4 x 64K x 16 bit; Bloom filter 3 x 256K x 1 bit;
all together under 50% of the Tofino's on-chip memory.
"""

from repro.core.resources import paper_prototype_report


def run():
    return paper_prototype_report()


def test_resources(report):
    result = run()
    report("§6 - switch SRAM footprint (paper prototype geometry)",
           result.render())
    assert result.fits_half_chip
    values = next(l for l in result.lines if l.component == "value_arrays")
    assert values.sram_bytes == 8 * 1024 * 1024
