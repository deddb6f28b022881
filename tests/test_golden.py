"""Byte-identity pins for seeded outputs.

Each test hashes an output that a fixed seed determines completely: sweep CSV
bytes, a mempool CSV, Merkle roots, the exact ``repr`` of mechanism
outcomes (values, their Python types and dict order), audit report text and
CLI audit output.  A changed digest means a seeded output moved; the change
that moves it must say which one and why.
"""

import hashlib
from fractions import Fraction
import math
import os

import pytest

from tfmlab import (
    AllocationKind,
    BidDistribution,
    ExperimentConfig,
    MechanismSpec,
    Mempool,
    PaymentKind,
    Transaction,
    check_uic,
    emit_csv,
    empirical_cof,
    estimate_monotonicity,
    estimate_zti,
    run_mechanism,
    run_rtfm_sweep,
    run_stfm_sweep,
    sample_mempool,
    search_mic_deviation,
    tune_gamma,
)
from tfmlab.alloc import (
    SplitBlockConfig,
    optimal_allocate,
    rtfm_sample,
    splitblock_allocate,
    stfm_allocate,
    uniform_allocate,
)
from tfmlab.cli import main as cli_main
from tfmlab.txpool import mempool_to_csv

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

RTFM_SWEEP_CSV = "e73e520b1533523588f1f314b835e5a19f2fa86800d28903a519a48794cfac4b"
STFM_SWEEP_CSV = "d39bc49ab108f7f6c7dd54ad8a94d9ce413a4018af85aa4ab673dea14cdbe226"
RATIO_STFM_SWEEP_CSV = "2d791f9f213256aa06d82bb9b79f2b259379faa9ba94d425756d046e767d8c2f"
POSTED_STFM_SWEEP_CSV = "6503c68c446fcc7d8cef099a93579cc9dfbcdb3c33378301cb8210d6c8058b6b"
NO_CANDIDATE_STFM_SWEEP_CSV = "7b291789b9467da53ddfd199c1420d7497fd385fb63cad3029d8daa344430533"
FLOAT_POOL_WALKS = "b1eb77124675d5b4bfefe1d684b7fdd99d19d689c6f906bb2da1c98b4195c7b6"
MEMPOOL_CSV = "912c06eb83798326b4037c641b612ad5a7e93ac81f75f88b9eea0d03fa67eec6"
RTFM_ROOTS = "da477b7940092a68fad6df08d5859c5b0cfdcee179a400c3eac946cd035a7852"
EIP1559_OUTCOME = "db4455f7eed6367c56c66dee2fa091826638560fd32e0f5ecf77afa13d56f831"
SPLIT_BLOCK_OUTCOME = "c88db28e12666ba8aa61dc2812b7608ba134be0bb7a8109e50231b18097077ca"
POSTED_SPLIT_BLOCK = "24bf5aa2b92c7945445efed16a3a0452218ee6cebefbbe82df55c97da1694b96"
ONE_TRIAL_SOFTMAX = "b15552246a939160fbc014fd14b1627096c7418a0636d4425cc898687c73c11b"
SMALL_RTFM_SWEEP_CSV = "516b6b9bf268d25345ca9d8a0c732e02acea5e9498dd3fc025c01d28dd85b17f"
POSTED_RTFM_SWEEP_CSV = "575478fd3e1c0c9e43e057ce45f91449f85f963ef6c20a044eb58f4afdc153a5"
UNSTRATIFIED_RTFM_SWEEP_CSV = "e83c61d6e557004491b3e807e8c0e047dbe914cc92215df055a5b308eacd8c84"
TUNE_GAMMA_REPR = "12323955d6fc5c6f0f6514e3c96e8786afd89f74ee958e2c56e7fa9cad1eaf20"
CLI_AUDIT_OUTPUT = "eb7665aef0456454cba2f2bb5c3993aa5c2b66aeadbb26e85fb659979f7b9b9e"
AUDIT_DIGESTS = {
    "zti.softmax": "d84807e120a7a6290b0065e670fe5c8f7a90d5930c526e423b93ff76a161d31f",
    "zti.uniform": "5f3d9b6e8687de8111cdd76b46e9d323dbf7d938ee7035abba716ae37c5d84e2",
    "zti.rtfm": "8a88d73139734ce2a801935722d580badbc61d3e0c0870e8b809959772e2f0c9",
    "zti.split_block_sampling": "900066f7d65c1ab46a0517b09785012ebf732530a396efff2eb9e879fd542754",
    "monotonicity.softmax": "19112d00047844730e665fc386ec79b0708b87c20f7dfc420aa3b22204ed2730",
    "monotonicity.uniform": "19112d00047844730e665fc386ec79b0708b87c20f7dfc420aa3b22204ed2730",
    "monotonicity.rtfm": "19112d00047844730e665fc386ec79b0708b87c20f7dfc420aa3b22204ed2730",
    "monotonicity.split_block": "3bcb1ba795b5fdbbe0b0f67d42b8e6b05ee3a3b70453c7be33f2613ba6614c47",
    "uic.split_block_reproducer": "c0de54a2dc56312a91c12850a160e8e05c76c73f3ddbd8f351a625abaced9c49",
    "uic.eip1559": "e334a5a47a335a6a59e4809b27a2dd61b81d70b0a1c02e9de25044599cb3fef7",
    "uic.softmax": "87a2bed720999ebb67dc9e99fecc8c60da7500d7ca0f74b9090618bad558b116",
    "mic.split_block_posted_fee": "596db01b706b6c80afd6d4440907cecaa0908c1969e9b930032bad4024014fb0",
    "mic.first_price": "70fbbfb7bb87c5619ee709f648762931d2b0897c50e1bf361a385682ffb7b6d8",
    "mic.rtfm": "70fbbfb7bb87c5619ee709f648762931d2b0897c50e1bf361a385682ffb7b6d8",
    "mic.softmax_greedy_override": "f1ca0fdc1490614c3359c211e060bb45222ad3cc56938b3deab617028c2b5f69",
    "cof.softmax": "90ca5e9234b979e0670bcd7833ed9c77f3b21db9efa81fbd396ad4b4a960398a",
    "cof.split_block": "721b7fc919215abae6351dceb94d06e1886660e890421551f4edf7b334e357cd",
    "cof.rtfm": "a593315c6bab3d2bf185287683b387bee68dfad43db9cbe647e1a1fcb993bda2",
}


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


def _stfm_sweep_csv(tmp_path, spec, sweep_param, sweep_values):
    cfg = ExperimentConfig(
        mechanism=spec, n=150,
        bid_dist=BidDistribution.zero_inflated(0.3, BidDistribution.uniform(0, 5)),
        size_dist=BidDistribution.exponential(1), sweep_param=sweep_param,
        sweep_values=sweep_values, size_ratio=5.0, runs=20, seed=11,
    )
    path = tmp_path / f"stfm_{sweep_param}.csv"
    emit_csv(run_stfm_sweep(cfg), str(path))
    return _sha256_file(path)


def test_stfm_sweep_csv_bytes_over_size_ratios_with_a_repeated_value(tmp_path):
    # the repeated ratio must give the same row as its first occurrence
    assert _stfm_sweep_csv(tmp_path, MechanismSpec.stfm(2.0), "size_ratio",
                           (2.0, 5.0, 10.0, 5.0)) == RATIO_STFM_SWEEP_CSV


def test_stfm_sweep_csv_bytes_under_the_posted_price(tmp_path):
    spec = MechanismSpec.stfm(1.0, PaymentKind.POSTED_PRICE, 1.0)
    assert _stfm_sweep_csv(tmp_path, spec, "gamma", (0.5, 2.0, 10.0)) == POSTED_STFM_SWEEP_CSV


def test_stfm_sweep_csv_bytes_when_the_posted_fee_is_above_every_bid(tmp_path):
    # no row is a candidate, so no block holds anything and no noise is drawn
    cfg = ExperimentConfig(
        mechanism=MechanismSpec.stfm(1.0, PaymentKind.POSTED_PRICE, 6.0), n=200,
        bid_dist=BidDistribution.uniform(0, 5), size_dist=BidDistribution.exponential(1),
        sweep_param="size_ratio", sweep_values=(2.0, 5.0), runs=10, seed=3,
    )
    rows = run_stfm_sweep(cfg)
    assert [(row.normalized_miner_revenue, row.empirical_cof) for row in rows] == \
        [(0.0, math.inf)] * 2
    path = tmp_path / "stfm_no_candidates.csv"
    emit_csv(rows, str(path))
    assert _sha256_file(path) == NO_CANDIDATE_STFM_SWEEP_CSV


def test_uniform_and_greedy_walks_on_a_float_pool():
    # a thousand exponential sizes, a tenth of them fitting: most rows are walked past the cut
    m = sample_mempool(1000, BidDistribution.uniform(0, 5), BidDistribution.exponential(1),
                       seed=17)
    capacity = m.total_size() / 10
    results = [uniform_allocate(m, capacity, seed) for seed in range(3)]
    results += [optimal_allocate(m, capacity, payment_per_unit=payment, exact=False)
                for payment in (None, m.columns.bids - 2.5)]
    assert _sha256_repr([(r.selected, r.total_size) for r in results]) == FLOAT_POOL_WALKS


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


def test_split_block_under_a_posted_price_with_fakes():
    # bids below the fee (0.0, 0.5, 1.5), at delta (1.0), at the fee (2.0) and above
    # both; one fake at delta, one above the fee and one at zero
    bids = [1.0, 3.0, 0.5, 1.0, 2.0, 4.5, 1.5, 1.0, 6.0, 1.0, 2.5, 0.0]
    m = Mempool([Transaction(i, 0.5 + 0.25 * (i % 4), b, b + 1.5) for i, b in enumerate(bids)])
    fakes = [Transaction(30, 1.0, 1.0, 1.0, fake=True), Transaction(31, 0.75, 3.0, 3.0, fake=True),
             Transaction(32, 0.5, 0.0, 0.0, fake=True)]
    pinned = []
    for seed in (3, 5, 9):  # seed 9 demotes the bid at the fee into the reserved section
        out = run_mechanism(MechanismSpec.split_block(0.5, delta=1.0, base_fee=2.0), m, 6.0,
                            fakes=fakes, seed=seed)
        res = splitblock_allocate(m, 6.0, SplitBlockConfig(0.5, 1.0), fake_fill=fakes, seed=seed)
        pinned.append((_outcome_repr(out), out.allocation.total_size,
                       sorted(out.allocation.sections.items()),
                       res.selected, res.total_size, sorted(res.sections.items())))
    assert _sha256_repr(pinned) == POSTED_SPLIT_BLOCK


# 24 float rows of four bids and three sizes, so equal bids hold equal keys at
# gamma 1e-17 (bid/gamma swallows the noise), and 20 rows of ints
TIED_FLOAT_POOL = Mempool([Transaction(i, 0.5 * (1 + i % 3), float(i % 4), float(i % 4) + 1.0)
                           for i in range(24)])
INT_POOL = Mempool([Transaction(i, 1 + i % 3, i * 7 % 5, i * 7 % 5 + 1) for i in range(20)])


def test_one_trial_softmax_outcomes():
    # the selected order, the total's repr, the prices and the utilities of single
    # softmax runs: wide and narrow rows, tied keys, Fraction and int columns, and a
    # posted fee above every bid, which leaves no candidate and totals the int 0
    fractions = Mempool([Transaction(i, Fraction(1 + i % 3, 2), Fraction(b, 2),
                                     Fraction(b + 1, 2))
                         for i, b in enumerate([6, 0, 3, 9, 2, 5, 1])])
    arms = [(TIED_FLOAT_POOL, 8.0, 1.0, PaymentKind.FIRST_PRICE, None),
            (TIED_FLOAT_POOL, 8.0, 1e-17, PaymentKind.FIRST_PRICE, None),
            (TIED_FLOAT_POOL, 8.0, 0.5, PaymentKind.SECOND_PRICE, None),
            (TIED_FLOAT_POOL, 8.0, 0.5, PaymentKind.POSTED_PRICE, 1.0),
            (TIED_FLOAT_POOL, 8.0, 1.0, PaymentKind.POSTED_PRICE, 10.0),
            (INT_POOL, 12, 1.0, PaymentKind.FIRST_PRICE, None),
            (INT_POOL, 12, 1e-17, PaymentKind.SECOND_PRICE, None),
            (fractions, Fraction(5, 2), 1.5, PaymentKind.FIRST_PRICE, None),
            (fractions, Fraction(5, 2), 1.5, PaymentKind.POSTED_PRICE, Fraction(1, 2))]
    pinned = []
    for m, capacity, gamma, payment, base_fee in arms:
        for seed in (0, 1, 2):
            out = run_mechanism(MechanismSpec.stfm(gamma, payment, base_fee), m, capacity,
                                seed=seed)
            res = stfm_allocate(m, capacity, gamma, seed)
            pinned.append((_outcome_repr(out), repr(out.allocation.total_size),
                           res.selected, repr(res.total_size)))
    assert _sha256_repr(pinned) == ONE_TRIAL_SOFTMAX


def _unit(bids):
    return Mempool([Transaction(i, 1.0, float(b), float(b)) for i, b in enumerate(bids)])


FAIRNESS_POOL = _unit([0, 0, 1, 2])
# few runs over many zero bids leave some out, so the zti reports carry frequencies
ZERO_POOL = _unit([0, 0, 0, 0, 0, 0, 3, 4, 5])
# zero-fee split block samples its reserved section among the zero bids
SAMPLING_SPLIT_POOL = Mempool([Transaction(i, 1.0 + 0.5 * (i % 2), b, b)
                               for i, b in enumerate([0, 3, 0, 5, 0, 2, 0, 4, 0, 1])])
# split block with a posted fee: under-bidding to the fee pays in expectation
UIC_REPRODUCER = Mempool([Transaction(i, 1.0, 1.0, 3.0) for i in range(6)]
                         + [Transaction(6, 1.0, 5.0, 5.0)])
COF_POOL = _unit([5 + (i % 7) for i in range(16)] + [0, 0, 0, 0])

# name -> a seeded audit; a PropertyReport's text, or a CofReport's repr
AUDITS = {
    "zti.softmax": lambda: estimate_zti(MechanismSpec.stfm(1.0), ZERO_POOL, 2.0, 30, 42),
    "zti.uniform": lambda: estimate_zti(MechanismSpec.uniform(), ZERO_POOL, 2.0, 4, 42),
    "zti.rtfm": lambda: estimate_zti(MechanismSpec.rtfm(0.5), ZERO_POOL, 2.0, 6, 42),
    "zti.split_block_sampling": lambda: estimate_zti(
        MechanismSpec.split_block(0.5), SAMPLING_SPLIT_POOL, 4.0, 3, 42),
    "monotonicity.softmax": lambda: estimate_monotonicity(
        MechanismSpec.stfm(1.0), FAIRNESS_POOL, 3, [0.5, 1.0], 200, 42, capacity=2.0,
        use_certificates=False),
    "monotonicity.uniform": lambda: estimate_monotonicity(
        MechanismSpec.uniform(), FAIRNESS_POOL, 3, [1.0], 200, 42, capacity=2.0,
        use_certificates=False),
    "monotonicity.rtfm": lambda: estimate_monotonicity(
        MechanismSpec.rtfm(0.5), FAIRNESS_POOL, 2, [1.0, 2.0], 200, 42, capacity=2.0,
        use_certificates=False),
    # a zero bid shares the reserved section; a small raise moves it into the paid one
    "monotonicity.split_block": lambda: estimate_monotonicity(
        MechanismSpec.split_block(0.5), SAMPLING_SPLIT_POOL, 0, [0.5], 200, 42, capacity=4.0,
        use_certificates=False),
    "uic.split_block_reproducer": lambda: check_uic(
        MechanismSpec.split_block(0.5, delta=1.0), UIC_REPRODUCER, 4.0, 0, [1.0, 3.0], 500, 42),
    "uic.eip1559": lambda: check_uic(
        MechanismSpec.eip1559(2.0), _unit([5, 5, 5, 3]), 2.0, 3, [2.0, 3.0, 5.0], 1, 42),
    "uic.softmax": lambda: check_uic(
        MechanismSpec.stfm(1.0), _unit([4, 3, 3, 2, 0]), 2.0, 1, [1.5, 2.5, 3.0, 4.0], 300, 42),
    "mic.split_block_posted_fee": lambda: search_mic_deviation(
        MechanismSpec.split_block(0.75, delta=1.0), _unit([2, 3, 4, 5, 6]), 8.0,
        fake_budget=2, fake_bid_grid=[0.0, 1.0], seed=42),
    "mic.first_price": lambda: search_mic_deviation(
        MechanismSpec.first_price(), _unit([5, 3, 2]), 2.0, 2, [0.0, 1.0, 5.0], seed=42),
    "mic.rtfm": lambda: search_mic_deviation(
        MechanismSpec.rtfm(0.4), _unit([5, 3, 2]), 2.0, 2, [0.0, 1.0, 5.0], seed=42),
    "mic.softmax_greedy_override": lambda: search_mic_deviation(
        MechanismSpec.stfm(1.0), _unit([5, 5, 4, 4, 0, 0]), 2.0, 2, [0.0, 5.0], seed=42,
        trials=2000),
    "cof.softmax": lambda: empirical_cof(MechanismSpec.stfm(2.0), COF_POOL, 8.0, 300, 42),
    "cof.split_block": lambda: empirical_cof(MechanismSpec.split_block(0.5), COF_POOL, 8.0, 300,
                                             42),
    "cof.rtfm": lambda: empirical_cof(MechanismSpec.rtfm(0.3), COF_POOL, 8.0, 300, 42),
}


def _audit_bytes(name: str) -> bytes:
    report = AUDITS[name]()
    text = repr(report) if name.startswith("cof.") else report.to_text()
    return text.encode()


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_audit_report_bytes(name):
    assert hashlib.sha256(_audit_bytes(name)).hexdigest() == AUDIT_DIGESTS[name]


def _tune_gamma_demo_shape(seed=3):
    """tune_gamma on the pool, interval and trials of demos/tune_gamma.cfg."""
    m = sample_mempool(60, BidDistribution.zero_inflated(0.3, BidDistribution.uniform(0, 5)),
                       BidDistribution.constant(1), seed=3)
    return tune_gamma(m, 15.0, alpha_target=0.2, phi_ratio=2.0, gamma_lo=0.1, gamma_hi=50.0,
                      trials=400, seed=seed)


def test_tune_gamma_repr():
    assert _sha256_repr(_tune_gamma_demo_shape()) == TUNE_GAMMA_REPR


# The pins above seed one uint32 word; trial i's stream is seeded from the words
# of [seed, i], so these also cover seed 0 and a seed of two words.
OTHER_SEED_AUDITS = {
    "zti.softmax": lambda seed: estimate_zti(MechanismSpec.stfm(1.0), ZERO_POOL, 2.0, 30,
                                             seed).to_text(),
    # the two-set rule's paying branch draws nothing, so this one reads the same at any seed
    "cof.rtfm": lambda seed: repr(empirical_cof(MechanismSpec.rtfm(0.3), COF_POOL, 8.0, 300,
                                                seed)),
    "cof.softmax": lambda seed: repr(empirical_cof(MechanismSpec.stfm(2.0), COF_POOL, 8.0, 300,
                                                   seed)),
    "tune_gamma": lambda seed: repr(_tune_gamma_demo_shape(seed)),
}
OTHER_SEED_DIGESTS = {
    ("zti.softmax", 0):
        "5181ec5cfc213a056ea8ad97ed474c3b1c54d28fb6ee71eb02539e4239220e75",
    ("zti.softmax", 2**40 + 3):
        "c24a16c014059c40bc7acea6ab24ad5beb724cb7e521dd5c1ab7628b82a96d3a",
    ("cof.rtfm", 0):
        "a593315c6bab3d2bf185287683b387bee68dfad43db9cbe647e1a1fcb993bda2",
    ("cof.rtfm", 2**40 + 3):
        "a593315c6bab3d2bf185287683b387bee68dfad43db9cbe647e1a1fcb993bda2",
    ("cof.softmax", 0):
        "a7ab1b8a520ff76d231b9ff04a981c27d59728cd8252cb8e18e52fb4c83d1d3c",
    ("cof.softmax", 2**40 + 3):
        "68178e4a948388b131b7c9e77d5fb2390e0169aa7264f9b0dddfbf2761018e7a",
    ("tune_gamma", 0):
        "07f4167f3050bcc676e10ebe4a14c6744e56cfbb73eafdbf1d24480c54989a6a",
    ("tune_gamma", 2**40 + 3):
        "87bfeddd7f69c4d8f36b06a5b6e365e727d076149604a82c3ed7a9128e0779be",
}


@pytest.mark.parametrize("name, seed", sorted(OTHER_SEED_DIGESTS))
def test_audit_bytes_at_seed_0_and_a_two_word_seed(name, seed):
    text = OTHER_SEED_AUDITS[name](seed)
    assert hashlib.sha256(text.encode()).hexdigest() == OTHER_SEED_DIGESTS[name, seed]


def _cli_audit_output(capsys) -> bytes:
    """`tfmlab audit` stdout for all five properties on demos/zti_audit.cfg."""
    out = []
    for prop in ("zti", "monotonicity", "uic", "mic", "cof"):
        assert cli_main(["audit", "--config", os.path.join(DEMOS, "zti_audit.cfg"),
                         "--property", prop]) == 0
        out.append(capsys.readouterr().out)
    return "".join(out).encode()


def test_cli_audit_output_on_the_demo_config(capsys):
    assert hashlib.sha256(_cli_audit_output(capsys)).hexdigest() == CLI_AUDIT_OUTPUT


def _rtfm_sweep_csv(tmp_path, n, payment=PaymentKind.FIRST_PRICE, base_fee=None,
                    stratified_toss=True):
    cfg = ExperimentConfig(
        mechanism=MechanismSpec.rtfm(0.5, payment, base_fee), n=n, capacity=6.0,
        bid_dist=BidDistribution.zero_inflated(0.2, BidDistribution.uniform(0, 5)),
        size_dist=BidDistribution.uniform(0.5, 1.5),
        sweep_values=(0.0, 0.25, 0.5, 0.75, 1.0), runs=40, seed=13,
        stratified_toss=stratified_toss,
    )
    path = tmp_path / f"rtfm_{n}.csv"
    emit_csv(run_rtfm_sweep(cfg), str(path))
    return _sha256_file(path)


def test_rtfm_sweep_csv_bytes_with_exact_small_pools(tmp_path):
    # below EXHAUSTIVE_LIMIT the paying branch is exact and the sweep's optimum greedy
    assert _rtfm_sweep_csv(tmp_path, 20) == SMALL_RTFM_SWEEP_CSV


def test_rtfm_sweep_csv_bytes_under_the_posted_price(tmp_path):
    assert _rtfm_sweep_csv(tmp_path, 40, PaymentKind.POSTED_PRICE, 1.0) == POSTED_RTFM_SWEEP_CSV


def test_rtfm_sweep_csv_bytes_with_independent_tosses(tmp_path):
    # each grid value tosses every run from default_rng([seed, 7])
    assert _rtfm_sweep_csv(tmp_path, 40, stratified_toss=False) == UNSTRATIFIED_RTFM_SWEEP_CSV


# Softmax audit paths the pins above leave out: unequal sizes (walks that go on past
# the cut of the cumulative sizes, on pools below and above the walk's short length),
# second-price and posted-price payment with fakes, Fraction columns, posted-price arms
# with no candidates, and tune_gamma on unequal and Fraction sizes.
MIXED_POOL = Mempool([Transaction(i, 0.5 + (i * 7 % 5) / 4, float(b), float(b) + 1.0)
                      for i, b in enumerate([4, 0, 3, 5, 1, 0, 2, 6, 3, 1])])
LONG_MIXED_POOL = sample_mempool(40, BidDistribution.zero_inflated(0.2,
                                                                 BidDistribution.uniform(0, 6)),
                                 BidDistribution.exponential(1), seed=8,
                                 valuations=BidDistribution.uniform(0, 8))
FRACTION_POOL = Mempool([Transaction(i, Fraction(1 + i % 3, 2), Fraction(b, 2), Fraction(b + 1, 2))
                         for i, b in enumerate([6, 0, 3, 9, 2, 5, 1])])
SECOND_PRICE = PaymentKind.SECOND_PRICE
POSTED = PaymentKind.POSTED_PRICE

SOFTMAX_AUDITS = {
    "mic.softmax_mixed_sizes": lambda: search_mic_deviation(
        MechanismSpec.stfm(1.0), MIXED_POOL, 3.0, 2, [0.0, 2.0], seed=42, trials=300),
    "mic.softmax_second_price_fakes": lambda: search_mic_deviation(
        MechanismSpec.stfm(1.0, SECOND_PRICE), _unit([5, 4, 3, 1, 0]), 3.0, 2, [0.0, 3.0],
        seed=42, trials=300),
    "mic.softmax_posted_fakes": lambda: search_mic_deviation(
        MechanismSpec.stfm(1.0, POSTED, 1.0), MIXED_POOL, 3.0, 2, [0.0, 1.0, 3.0], seed=42,
        trials=300),
    "mic.softmax_fractions": lambda: search_mic_deviation(
        MechanismSpec.stfm(1.5), FRACTION_POOL, Fraction(5, 2), 2, [0.0, 2.0], seed=42,
        trials=200),
    "mic.softmax_posted_fractions": lambda: search_mic_deviation(
        MechanismSpec.stfm(1.5, POSTED, Fraction(1, 2)), FRACTION_POOL, Fraction(5, 2), 1,
        [0.0, 2.0], seed=42, trials=200),
    "mic.softmax_posted_no_candidates": lambda: search_mic_deviation(
        MechanismSpec.stfm(1.0, POSTED, 10.0), _unit([2, 3, 4]), 2.0, 1, [0.0, 1.0], seed=42),
    "uic.softmax_second_price": lambda: check_uic(
        MechanismSpec.stfm(1.0, SECOND_PRICE), MIXED_POOL, 3.0, 2, [1.0, 3.0, 4.0, 5.0], 300, 42),
    "uic.softmax_posted": lambda: check_uic(
        MechanismSpec.stfm(1.0, POSTED, 1.0), MIXED_POOL, 3.0, 2, [1.0, 3.0, 4.0, 5.0], 300, 42),
    "uic.softmax_fractions": lambda: check_uic(
        MechanismSpec.stfm(1.5, SECOND_PRICE), FRACTION_POOL, Fraction(5, 2), 2,
        [Fraction(1, 2), Fraction(2), Fraction(5, 2)], 200, 42),
    "uic.softmax_posted_no_candidates": lambda: check_uic(
        MechanismSpec.stfm(1.0, POSTED, 10.0), _unit([2, 3, 4]), 2.0, 0, [1.0, 2.0, 3.0], 100,
        42),
    "cof.softmax_mixed_sizes": lambda: empirical_cof(
        MechanismSpec.stfm(2.0), LONG_MIXED_POOL, 10.0, 200, 42),
    "cof.softmax_posted_fractions": lambda: empirical_cof(
        MechanismSpec.stfm(1.5, POSTED, Fraction(1, 2)), FRACTION_POOL, Fraction(5, 2), 200, 42),
    "monotonicity.softmax_mixed_sizes": lambda: estimate_monotonicity(
        MechanismSpec.stfm(1.0), LONG_MIXED_POOL, 5, [0.5, 2.0], 200, 42, capacity=10.0,
        use_certificates=False),
    "monotonicity.softmax_fractions": lambda: estimate_monotonicity(
        MechanismSpec.stfm(1.5), FRACTION_POOL, 4, [Fraction(1, 2)], 200, 42,
        capacity=Fraction(5, 2), use_certificates=False),
    "tune_gamma.mixed_sizes": lambda: tune_gamma(
        sample_mempool(60, BidDistribution.zero_inflated(0.3, BidDistribution.uniform(0, 5)),
                       BidDistribution.exponential(1), seed=3),
        15.0, alpha_target=0.2, phi_ratio=2.0, gamma_lo=0.1, gamma_hi=50.0, trials=300,
        seed=42),
    "tune_gamma.fractions": lambda: tune_gamma(
        FRACTION_POOL, Fraction(5, 2), alpha_target=0.2, phi_ratio=1.0, gamma_lo=0.1,
        gamma_hi=50.0, trials=300, seed=42),
}
SOFTMAX_DIGESTS = {
    "cof.softmax_mixed_sizes":
        "6e825fd1021c40b7617bd475046b296be17efd1a17decb893052e5a43c7e1fae",
    "cof.softmax_posted_fractions":
        "40da1993accbdbd40e1903b9f5c61626fd8eb8bd220d5788aadae565ae0792a1",
    "mic.softmax_fractions":
        "9bf69caa3111cf71881602fbfcbbade771dd6ee997a82aa1dfec9038e70e57cd",
    "mic.softmax_mixed_sizes":
        "ad030d6c2cc22e1f1fd807e487507dce767f48f1d3d6500e79e3ba71dc0a378c",
    "mic.softmax_posted_fakes":
        "b32c29fd3d7d3a85133a7b106220de95660d0e1258639896f6849dbe13f8a1b0",
    "mic.softmax_posted_fractions":
        "a18229d12c9f673073d1d05015b1df390bf78efec2d6f5a874ebb1dcfdf30bb3",
    "mic.softmax_posted_no_candidates":
        "c1eb5c40d28bea4d91354c35f150f2af98cf0dc3887139ba7c881ba556b6a995",
    "mic.softmax_second_price_fakes":
        "ed10f12ca285af9a545d24cb10a9491013f4345c354237039c2cce13b9c97697",
    "monotonicity.softmax_fractions":
        "e18c1029e55da0c7d289ab357e2e732b7bb40d0b72bbaf73dad03781d60422b4",
    "monotonicity.softmax_mixed_sizes":
        "19112d00047844730e665fc386ec79b0708b87c20f7dfc420aa3b22204ed2730",
    "tune_gamma.fractions":
        "a725967899951ec9558c90fb77dda756339569085a9bb5e8d2aae1bf5ce09edb",
    "tune_gamma.mixed_sizes":
        "bde93d3e0b974c1001c7dcb8035bc2934c724030e49e4216418eed3b6feddc12",
    "uic.softmax_fractions":
        "3240ef1975806b11b6dfa55f24f8a07b0d2e49ba8a12d4a106ef1429f270d4b5",
    "uic.softmax_posted":
        "035efad07d68517b3741842f472f584f530e6093378f393c3d549e44cd397562",
    "uic.softmax_posted_no_candidates":
        "e334a5a47a335a6a59e4809b27a2dd61b81d70b0a1c02e9de25044599cb3fef7",
    "uic.softmax_second_price":
        "64c17696e0431d8db23674d37dbc66a29b34ff949cf167fd23991563fad6c87c",
}


def _softmax_audit_text(name: str) -> str:
    report = SOFTMAX_AUDITS[name]()
    return report.to_text() if hasattr(report, "to_text") else repr(report)


@pytest.mark.parametrize("name", sorted(SOFTMAX_AUDITS))
def test_softmax_audit_bytes(name):
    assert hashlib.sha256(_softmax_audit_text(name).encode()).hexdigest() == SOFTMAX_DIGESTS[name]


# Every rule's outcome of one run, on float, int and Fraction pools, with and without a
# fake: repr(outcome) and its three dicts, so the values, their Python types and the
# dicts' order are pinned whichever of them a run reads first.
OUTCOME_BIDS = [3, 0, 1, 4, 0, 2, 5, 1]
OUTCOME_POOLS = {
    float: (Mempool([Transaction(i, 0.5 + 0.25 * (i % 3), float(b), b + 1.0)
                     for i, b in enumerate(OUTCOME_BIDS)]), 4.0),
    int: (Mempool([Transaction(i, 1 + i % 2, b, b + 1) for i, b in enumerate(OUTCOME_BIDS)]), 6),
    Fraction: (Mempool([Transaction(i, Fraction(1 + i % 3, 2), Fraction(b), Fraction(b + 1))
                        for i, b in enumerate(OUTCOME_BIDS)]), Fraction(7, 2)),
}
OUTCOME_RULES = {
    "first_price": lambda number: MechanismSpec.first_price(),
    "second_price": lambda number: MechanismSpec.second_price(),
    "eip1559": lambda number: MechanismSpec.eip1559(number(1)),
    "uniform": lambda number: MechanismSpec.uniform(),
    "uniform_posted": lambda number: MechanismSpec(AllocationKind.UNIFORM, POSTED,
                                                   base_fee=number(1)),
    "softmax": lambda number: MechanismSpec.stfm(1.0),
    "softmax_second_price": lambda number: MechanismSpec.stfm(1.0, SECOND_PRICE),
    "rtfm": lambda number: MechanismSpec.rtfm(0.5),
    "rtfm_posted": lambda number: MechanismSpec.rtfm(0.5, POSTED, number(1)),
    "split_block": lambda number: MechanismSpec.split_block(0.5, delta=number(1)),
    "split_block_posted": lambda number: MechanismSpec.split_block(0.5, delta=number(1),
                                                                   base_fee=number(2)),
}
OUTCOME_DIGESTS = {
    "eip1559": "95e15f3db0479d0630acce1a79f7052c9ad0be9bb1ba0284697eceff84cf0f2c",
    "first_price": "5d2d9d275d1000a2fd90f475b15026483fdea73a484d43418e11c6c75447a531",
    "rtfm": "4898362ad128950067aa11779e2c332fd61cf934abc64038546dc76a34c6fa9c",
    "rtfm_posted": "95bee1016000f10e21983bd0dbb8e5b5613ac40df5dc8f590bea96ca9156e936",
    "second_price": "c217b8d2bd8673045c3e8ccdc9336b5160e7d22a9132897b127907afd65b2db3",
    "softmax": "cdd39c0dbc919d843b9fde2e5f8cd8c8a8392fe690dfccaa3ee524b739fc05a8",
    "softmax_second_price": "b1705d3168ac545e9a93a905a3a107a032dfe51911490f1d2962f6caaa1e3c87",
    "split_block": "68e15589882f0c6dbc38525c478c65872aa6059531cf1a54c2d5fb2d5942235c",
    "split_block_posted": "7db60d4cb13c8fe9c6a54213da40b5e60235459fbc24371d8928f7fe27d13564",
    "uniform": "d7fc6d54cd4ab1b6ec6a53faeda3f05a8fb5c9051a14a144bab79f182a551fe5",
    "uniform_posted": "aeb813264f38d4bc38e2de188f63de921e456d2d5fa6818b426cfe51969552e9",
}


def _outcomes(rule: str, dicts_first: bool = False) -> list:
    pinned = []
    for number, (m, capacity) in OUTCOME_POOLS.items():
        spec = OUTCOME_RULES[rule](number)
        for fakes in ((), (Transaction(100, number(1), number(1), number(1), fake=True),)):
            for seed in (0, 1, 2):
                out = run_mechanism(spec, m, capacity, fakes=fakes, seed=seed)
                # the dicts read before the miner's utility, then read again from the cache
                first = (out.user_utilities, out.burn_per_unit) if dicts_first else ()
                pinned.append((repr(out), repr(out.payment_per_unit), repr(out.burn_per_unit),
                               repr(out.user_utilities)))
                assert all(a is b for a, b in zip(first, (out.user_utilities, out.burn_per_unit)))
    return pinned


@pytest.mark.parametrize("rule", sorted(OUTCOME_RULES))
def test_outcome_repr_and_dicts_of_every_rule(rule):
    pinned = _outcomes(rule)
    assert _sha256_repr(pinned) == OUTCOME_DIGESTS[rule]
    assert _outcomes(rule, dicts_first=True) == pinned
