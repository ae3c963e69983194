"""Golden: the figure model's numbers, bit for bit.

The shape tests (``test_experiments.py``, the benchmark's predicates) say
*what* the figures show; this file pins *the numbers themselves*, so a
change that is meant to be behaviour-preserving (vectorising the
equilibrium solver, memoising emulation steps, bulk key parsing) is held to
exact equality.  Every float is compared as ``float.hex``; the Fig 10(b)
per-server vectors, which are 128 floats a row, by the SHA-256 of their
little-endian float64 bytes.

Sizes are cut down from the paper's so the file runs in tier-1: the static
figures use 50 000 keys and a 500-item cache (the paper's 1% ratio), and
Fig 11 is a short hot-in run with one switch reboot and one controller
stall window.  A change that moves the model on purpose regenerates
``EXPECTED`` from :func:`figures_fingerprint` and says so.
"""

import hashlib

import numpy as np
import pytest

from repro.sim import experiments
from repro.sim.emulation import DynamicsEmulator, EmulationConfig
from repro.sim.scaling import ScalingConfig

NUM_KEYS = 50_000
CACHE_ITEMS = 500
CACHE_SIZES = (10, 100, 1_000, 10_000)

FIG11 = EmulationConfig(
    num_keys=4_000, cache_items=200, num_servers=16, server_rate=10_000.0,
    churn_kind="hot-in", churn_n=50, churn_interval=2.0, duration=5.0,
    samples_per_step=800, hot_threshold=3, reboot_times=(2.5,),
    controller_stall_windows=((3.5, 4.2),), seed=5)


def _hex(x) -> str:
    return float(x).hex()


def _digest(arr: np.ndarray) -> str:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:24]


def figures_fingerprint() -> dict:
    """Every row of Figs 10(a/b/d/e/f) at the reduced size, as literals."""
    fig10f = experiments.fig10f_scalability(config=ScalingConfig(
        num_keys=NUM_KEYS, leaf_cache_items=CACHE_ITEMS,
        spine_cache_items=CACHE_ITEMS))
    return {
        "fig10a": [
            (r.workload, _hex(r.nocache_bqps), _hex(r.netcache_bqps),
             _hex(r.cache_portion_bqps), _hex(r.server_portion_bqps),
             _hex(r.improvement))
            for r in experiments.fig10a_throughput(CACHE_ITEMS, NUM_KEYS)],
        "fig10b": [
            (r.workload, r.cached, _digest(r.per_server_normalized),
             _hex(r.imbalance))
            for r in experiments.fig10b_breakdown(CACHE_ITEMS, NUM_KEYS)],
        "fig10d": [
            (r.write_dist, r.write_ratio, _hex(r.nocache_bqps),
             _hex(r.netcache_bqps))
            for r in experiments.fig10d_write_ratio(
                cache_items=CACHE_ITEMS, num_keys=NUM_KEYS)],
        "fig10e": [
            (r.skew, r.cache_items, _hex(r.throughput_bqps),
             _hex(r.cache_portion_bqps))
            for r in experiments.fig10e_cache_size(CACHE_SIZES,
                                                   num_keys=NUM_KEYS)],
        "fig10f": [(p.design, p.num_racks, p.num_servers, _hex(p.throughput))
                   for p in fig10f],
    }


def fig11_fingerprint() -> dict:
    """The short Fig 11 run: every step's delivered rate, as literals."""
    result = DynamicsEmulator(FIG11).run()
    return {
        "throughput": [_hex(x) for x in result.throughput],
        "offered": _digest(np.asarray(result.offered)),
        "cache_size": result.cache_size,
        "insertions": result.insertions,
        "churn_times": result.churn_times,
        "reboot_times": result.reboot_times,
        "stall_times": [_hex(t) for t in result.stall_times],
    }


@pytest.fixture(scope="module")
def figures():
    return figures_fingerprint()


@pytest.mark.parametrize("figure",
                         ["fig10a", "fig10b", "fig10d", "fig10e", "fig10f"])
def test_static_figure_rows_are_bit_identical(figures, figure):
    expected = EXPECTED[figure]
    assert len(figures[figure]) == len(expected)
    for got, want in zip(figures[figure], expected):
        assert got == want


def test_fig11_trace_is_bit_identical():
    got = fig11_fingerprint()
    for field, want in EXPECTED_FIG11.items():
        assert got[field] == want, field


EXPECTED = {'fig10a': [('uniform',
             '0x1.2197bf2197c00p+0',
             '0x1.2593f69b0259fp+0',
             '0x1.77c7a20e177d7p-7',
             '0x1.22a46756e62afp+0',
             '0x1.0385df1e88383p+0'),
            ('zipf-0.9',
             '0x1.70e8ace77dbb2p-3',
             '0x1.ce2be2c040b9ep+0',
             '0x1.a710d73c462e7p-1',
             '0x1.f546ee443b454p-1',
             '0x1.40b7ec24a25bbp+3'),
            ('zipf-0.95',
             '0x1.1b6c020c49592p-3',
             '0x1.e4b56e690d4f5p+0',
             '0x1.fea759256a18fp-1',
             '0x1.cac383acb085ap-1',
             '0x1.b5cfcca852c98p+3'),
            ('zipf-0.99',
             '0x1.d05e6b0ba8df0p-4',
             '0x1.dd7ebb50f57c0p+0',
             '0x1.160999308d4eep+0',
             '0x1.8eea4440d05a4p-1',
             '0x1.073c7e5cd902dp+4')],
 'fig10b': [('zipf-0.9',
             False,
             '214092d4b6f1507fec914e9b',
             '0x1.c6c7863f2aef2p+2'),
            ('zipf-0.9',
             True,
             '35e7eb5998a8528ea0922604',
             '0x1.4eb081601b673p+0'),
            ('zipf-0.95',
             False,
             '14b60b287b3a4e2e25feeaf7',
             '0x1.27f9daa512785p+3'),
            ('zipf-0.95',
             True,
             'b56ffe6ceb9b7163921589ef',
             '0x1.54404bacd1e6cp+0'),
            ('zipf-0.99',
             False,
             'd64e8be6fbd6805ffe87605b',
             '0x1.694a6ea6ee9d9p+3'),
            ('zipf-0.99',
             True,
             '0868464292793f1eab4fcb29',
             '0x1.58f8111ae4e5ep+0')],
 'fig10d': [('uniform',
             0.0,
             '0x1.d05e6b0ba8df0p-4',
             '0x1.dd7ebb50f57c0p+0'),
            ('uniform',
             0.05,
             '0x1.e688835ebaf81p-4',
             '0x1.bb40e6c012d65p+0'),
            ('uniform',
             0.1,
             '0x1.feeb68b270116p-4',
             '0x1.66daf77b20c4bp+0'),
            ('uniform',
             0.2,
             '0x1.1bebeb1efc923p-3',
             '0x1.1fd668021055dp+0'),
            ('uniform',
             0.4,
             '0x1.6d5392762c68ep-3',
             '0x1.de87108a42041p-1'),
            ('uniform',
             0.6,
             '0x1.00167435aa2dcp-2',
             '0x1.cb90e89f78e3bp-1'),
            ('uniform',
             0.8,
             '0x1.ac375dd0b1a49p-2',
             '0x1.ed63ccb4e108ep-1'),
            ('uniform',
             1.0,
             '0x1.2197bf2197c00p+0',
             '0x1.20075fa024df0p+0'),
            ('zipf-0.99',
             0.0,
             '0x1.d05e6b0ba8df0p-4',
             '0x1.dd7ebb50f57c0p+0'),
            ('zipf-0.99',
             0.05,
             '0x1.d05e6b0ba8df0p-4',
             '0x1.0087c90b515b9p-3'),
            ('zipf-0.99',
             0.1,
             '0x1.d05e6b0ba8df0p-4',
             '0x1.e10457c68870ep-4'),
            ('zipf-0.99',
             0.2,
             '0x1.d05e6b0ba8df0p-4',
             '0x1.c5f9ae9bcc772p-4'),
            ('zipf-0.99',
             0.4,
             '0x1.d05e6b0ba8df0p-4',
             '0x1.a68de5b5ea65cp-4'),
            ('zipf-0.99',
             0.6,
             '0x1.d05e6b0ba8df0p-4',
             '0x1.8eb4a99b640d7p-4'),
            ('zipf-0.99',
             0.8,
             '0x1.d05e6b0ba8df0p-4',
             '0x1.7a5751b066b99p-4'),
            ('zipf-0.99',
             1.0,
             '0x1.d05e6b0ba8df0p-4',
             '0x1.6856b0d012773p-4')],
 'fig10e': [(0.9, 10, '0x1.9ad95828b3205p-1', '0x1.07b1141c256dcp-3'),
            (0.9, 100, '0x1.37f3e55852120p+0', '0x1.8f78114542373p-2'),
            (0.9, 1000, '0x1.ec5e2c56ecfb8p+0', '0x1.021a938af6221p+0'),
            (0.9, 10000, '0x1.ec5e2c56ecfb7p+0', '0x1.80cab13973a3ep+0'),
            (0.99, 10, '0x1.7baa921a11351p-1', '0x1.7602220be3755p-3'),
            (0.99, 100, '0x1.5f1b6e2e798e3p+0', '0x1.35bdcdd259326p-1'),
            (0.99, 1000, '0x1.dd7ebb50f57bfp+0', '0x1.3375c005adc1cp+0'),
            (0.99, 10000, '0x1.dd7ebb50f57bfp+0', '0x1.96ba5f01e6381p+0')],
 'fig10f': [('NoCache', 1, 128, '0x1.b07a278a5598cp+26'),
            ('Leaf-Cache', 1, 128, '0x1.dcd6500000004p+30'),
            ('Leaf-Spine-Cache', 1, 128, '0x1.ac7fe44c486d9p+31'),
            ('NoCache', 2, 256, '0x1.b8c622425e349p+26'),
            ('Leaf-Cache', 2, 256, '0x1.d369a67e2e04cp+31'),
            ('Leaf-Spine-Cache', 2, 256, '0x1.d6e06ed7d5d5fp+32'),
            ('NoCache', 4, 512, '0x1.c1cce77a0e85ap+26'),
            ('Leaf-Cache', 4, 512, '0x1.94aa6718b3d27p+32'),
            ('Leaf-Spine-Cache', 4, 512, '0x1.0ae8b7622945ap+34'),
            ('NoCache', 8, 1024, '0x1.c4cd3356db555p+26'),
            ('Leaf-Cache', 8, 1024, '0x1.465050b8d386bp+33'),
            ('Leaf-Spine-Cache', 8, 1024, '0x1.1237916373a0cp+35'),
            ('NoCache', 16, 2048, '0x1.c5ea0810c2312p+26'),
            ('Leaf-Cache', 16, 2048, '0x1.da698be1c2736p+33'),
            ('Leaf-Spine-Cache', 16, 2048, '0x1.0d33923946d10p+36'),
            ('NoCache', 32, 4096, '0x1.c637165c83215p+26'),
            ('Leaf-Cache', 32, 4096, '0x1.0ce682a8fa84bp+34'),
            ('Leaf-Spine-Cache', 32, 4096, '0x1.002a683ee5d38p+37')]}

EXPECTED_FIG11 = {'throughput': ['0x1.3880000000000p+17', '0x1.9640000000000p+17',
                '0x1.0810000000000p+18', '0x1.5748000000000p+18',
                '0x1.72be6fd58b9c6p+18', '0x1.3862cccccccccp+18',
                '0x1.5be48723f582dp+18', '0x1.1c456d916872ap+18',
                '0x1.600b30d9a9a68p+18', '0x1.5baf604d51745p+18',
                '0x1.02afd1c970f7ap+18', '0x1.504af71f7941fp+18',
                '0x1.5c2253e5e03a1p+18', '0x1.3206c74829397p+18',
                '0x1.5d30916c13658p+18', '0x1.167bedaaa064ep+18',
                '0x1.5b96dbbc31204p+18', '0x1.5e0a957b5db56p+18',
                '0x1.58296d763a79ap+18', '0x1.60c45c89dbab3p+18',
                '0x1.27c4a1842cd21p+16', '0x1.2834e3af8f6cbp+16',
                '0x1.21e55bdb879f0p+17', '0x1.f0b448914d632p+16',
                '0x1.2e7b34840b294p+17', '0x1.06dca5fd3c6a9p+16',
                '0x1.3c668d7522310p+16', '0x1.9b521e4b793fbp+16',
                '0x1.0b5bc6e442030p+17', '0x1.5b90e8f58903fp+17',
                '0x1.c3d5fba598852p+17', '0x1.25b17d2ba3235p+18',
                '0x1.6e8b0bc1fbf77p+18', '0x1.6ea128212fe88p+18',
                '0x1.6324f3e3d4a55p+18', '0x1.0b42cb814f55fp+18',
                '0x1.5b706ef4e722fp+18', '0x1.6fe26e5c84b62p+18',
                '0x1.3c2b6f35e6d07p+18', '0x1.6fe26e5c84b62p+18',
                '0x1.248f2778db9f8p+16', '0x1.248f2778db9f8p+16',
                '0x1.248f2778db9f8p+16', '0x1.22d15cac0771ep+16',
                '0x1.145226e04e5ffp+16', '0x1.22aadba5c3e1bp+16',
                '0x1.f6e76fb6f50acp+15', '0x1.22df35e999074p+16',
                '0x1.c9a486f0bb25ep+15', '0x1.22aadba5c3e1bp+16'],
 'offered': '0bc751c61dc6b3d36525fa04',
 'cache_size': [200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200,
                200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200,
                200, 44, 83, 142, 183, 200, 200, 200, 200, 200, 200, 200,
                200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200,
                200, 200],
 'insertions': [201, 207, 217, 234, 266, 301, 335, 381, 434, 479, 525, 526,
                542, 559, 580, 620, 654, 697, 741, 777, 862, 894, 906, 927,
                950, 994, 1033, 1092, 1133, 1174, 1228, 1228, 1238, 1259,
                1292, 1292, 1292, 1292, 1292, 1292, 1292, 1292, 1656, 1695,
                1734, 1773, 1811, 1845, 1892, 1926],
 'churn_times': [2.0, 4.0],
 'reboot_times': [2.5],
 'stall_times': ['0x1.c000000000000p+1', '0x1.ccccccccccccdp+1',
                 '0x1.d99999999999ap+1', '0x1.e666666666667p+1',
                 '0x1.f333333333334p+1', '0x1.0000000000000p+2',
                 '0x1.0666666666667p+2']}
