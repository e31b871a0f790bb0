"""Opt-in full-scale checks (V=12, G=4, S=3): set LSL_RUN_EXPENSIVE=1.

A full case12 sweep visits 106,444,800 candidates; these tests verify the
throughput needed to make that tractable and, separately, that the search
locks onto the hidden structure within a few hundred samples at full scale.
The V=12, G=3, S=4 enumeration tables are also checked against the slow
table-walk oracle here.
"""

import os
import time

import numpy as np
import pytest

from latent_structure_lab.rng import RngState, derive_seed
from latent_structure_lab.search import (
    SearchConfig,
    _EnumTables,
    _ScoreContext,
    _score_range,
    candidate_count,
    in_truth_orbit,
    search,
)
from latent_structure_lab.simulate import BitsConfig, build_bitvector_truth, draw_bitvector, true_joint
from oracles import assert_enum_tables_match_oracle

pytestmark = pytest.mark.skipif(
    os.environ.get("LSL_RUN_EXPENSIVE") != "1",
    reason="full-scale benchmarks are opt-in (LSL_RUN_EXPENSIVE=1)",
)


def test_throughput_at_least_1e5_candidates_per_second_per_worker():
    rng = np.random.default_rng(1)
    patterns = [int(x) for x in rng.integers(0, 1 << 12, size=100)]
    cfg = SearchConfig(v=12, g=4, s=3, num_types=2, mode="case12", top_k=10)
    ctx = _ScoreContext(patterns, cfg)
    n = 2_000_000
    _score_range(ctx, 0, 100_000, 10)  # warm up
    start = time.perf_counter()
    _score_range(ctx, 0, n, 10)
    rate = n / (time.perf_counter() - start)
    print(f"single-worker scoring rate: {rate:,.0f} candidates/s")
    assert rate >= 1e5


def test_full_scale_lock_in_within_order_of_magnitude():
    # single full-scale run; lock-in near 125 samples is the expected scale,
    # checked here only as an order-of-magnitude bound (lock by 1250)
    truth = build_bitvector_truth(BitsConfig(v=12, g=4, s=3, min_separation=0.6), 424242)
    joint = true_joint(truth)
    rng = RngState(derive_seed(424242, 2))
    patterns = []
    for _ in range(1250):
        p, rng = draw_bitvector(truth, rng)
        patterns.append(p)
    workers = os.cpu_count() or 1
    cfg = SearchConfig(
        v=12,
        g=4,
        s=3,
        num_types=2,
        mode="case12",
        scorer="dirichlet_marginal",
        workers=workers,
        top_k=1,
    )
    print(f"space: {candidate_count(cfg):,} candidates; workers={workers}")
    locked_at = None
    for n in (125, 250, 500, 1250):
        start = time.perf_counter()
        top = search(patterns[:n], cfg)[0]
        elapsed = time.perf_counter() - start
        hit = in_truth_orbit(top.candidate, joint)
        print(f"n={n}: top rank {top.rank} in-orbit={hit} ({elapsed:.0f}s)")
        if hit and locked_at is None:
            locked_at = n
    assert locked_at is not None and locked_at <= 1250


@pytest.mark.parametrize("arrangements", (False, True))
def test_v12_g3_s4_tables_match_oracle(arrangements):
    # the oracle's walk takes about 1.6 s for the case12 tables
    assert_enum_tables_match_oracle(_EnumTables(12, 3, 4, arrangements), arrangements)
