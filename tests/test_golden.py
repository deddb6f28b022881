"""Byte-identity pins for seeded outputs.

Each test hashes an output that a fixed seed determines completely: sweep CSV
bytes, a mempool CSV, Merkle roots and the exact ``repr`` of mechanism
outcomes (values, their Python types and dict order).  A changed digest means
a seeded output moved; the change that moves it must say which one and why.
"""

import hashlib

from tfmlab import (
    BidDistribution,
    ExperimentConfig,
    MechanismSpec,
    Mempool,
    Transaction,
    emit_csv,
    run_mechanism,
    run_rtfm_sweep,
    run_stfm_sweep,
    sample_mempool,
)
from tfmlab.alloc import rtfm_sample
from tfmlab.txpool import mempool_to_csv

RTFM_SWEEP_CSV = "e73e520b1533523588f1f314b835e5a19f2fa86800d28903a519a48794cfac4b"
STFM_SWEEP_CSV = "d39bc49ab108f7f6c7dd54ad8a94d9ce413a4018af85aa4ab673dea14cdbe226"
MEMPOOL_CSV = "912c06eb83798326b4037c641b612ad5a7e93ac81f75f88b9eea0d03fa67eec6"
RTFM_ROOTS = "da477b7940092a68fad6df08d5859c5b0cfdcee179a400c3eac946cd035a7852"
EIP1559_OUTCOME = "db4455f7eed6367c56c66dee2fa091826638560fd32e0f5ecf77afa13d56f831"
SPLIT_BLOCK_OUTCOME = "c88db28e12666ba8aa61dc2812b7608ba134be0bb7a8109e50231b18097077ca"


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_repr(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _outcome_repr(out):
    return (out.allocation.selected, out.payment_per_unit, out.burn_per_unit,
            out.user_utilities, out.miner_utility)


def test_rtfm_sweep_csv_bytes(tmp_path):
    cfg = ExperimentConfig(
        mechanism=MechanismSpec.rtfm(0.5), n=200, capacity=20.0,
        bid_dist=BidDistribution.censored_gaussian(4, 3), size_dist=BidDistribution.constant(1),
        sweep_param="phi", sweep_values=tuple(round(0.1 * i, 1) for i in range(11)),
        runs=50, seed=7,
    )
    path = tmp_path / "rtfm.csv"
    emit_csv(run_rtfm_sweep(cfg), str(path))
    assert _sha256_file(path) == RTFM_SWEEP_CSV


def test_stfm_sweep_csv_bytes_with_unequal_sizes(tmp_path):
    cfg = ExperimentConfig(
        mechanism=MechanismSpec.stfm(1.0), n=200,
        bid_dist=BidDistribution.uniform(0, 5), size_dist=BidDistribution.exponential(1),
        sweep_param="gamma", sweep_values=(0.5, 2.0, 10.0), size_ratio=10.0, runs=20, seed=5,
    )
    path = tmp_path / "stfm.csv"
    emit_csv(run_stfm_sweep(cfg), str(path))
    assert _sha256_file(path) == STFM_SWEEP_CSV


def test_sampled_mempool_csv_bytes(tmp_path):
    m = sample_mempool(50, BidDistribution.censored_gaussian(4, 3),
                       BidDistribution.exponential(1), seed=3,
                       valuations=BidDistribution.uniform(0, 8))
    path = tmp_path / "pool.csv"
    mempool_to_csv(m, str(path))
    assert _sha256_file(path) == MEMPOOL_CSV


def test_rtfm_sample_roots():
    m = sample_mempool(300, BidDistribution.zero_inflated(0.2, BidDistribution.uniform(0, 6)),
                       BidDistribution.exponential(2), seed=11)
    roots = []
    for seed in (1, 2, 3):
        sample = rtfm_sample(m, 30.0, seed)
        roots.append((sample.rand_root.hex(), sample.opt_root.hex()))
    assert _sha256_repr(roots) == RTFM_ROOTS


def test_eip1559_outcome_with_a_fake():
    m = sample_mempool(40, BidDistribution.censored_gaussian(3, 2),
                       BidDistribution.exponential(1), seed=21,
                       valuations=BidDistribution.uniform(0, 6))
    fakes = [Transaction(100, 0.5, 4.0, 4.0, fake=True)]
    out = run_mechanism(MechanismSpec.eip1559(2.0), m, 8.0, fakes=fakes, seed=4)
    assert _sha256_repr(_outcome_repr(out)) == EIP1559_OUTCOME


def test_split_block_outcome_with_fakes():
    bids = [1.0, 3.0, 1.0, 0.0, 5.0, 1.0, 2.5, 1.0, 4.0, 0.5]
    m = Mempool([Transaction(i, 1.0 + 0.25 * (i % 3), b, b + 1.0) for i, b in enumerate(bids)])
    fakes = [Transaction(20, 1.0, 1.0, 1.0, fake=True), Transaction(21, 1.0, 0.0, 0.0, fake=True)]
    out = run_mechanism(MechanismSpec.split_block(0.5, delta=1), m, 8.0, fakes=fakes, seed=9)
    assert _sha256_repr(_outcome_repr(out)) == SPLIT_BLOCK_OUTCOME
