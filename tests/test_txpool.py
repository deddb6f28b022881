import csv
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from tfmlab import (
    BidDistribution,
    Mempool,
    ParameterError,
    Transaction,
    mempool_to_csv,
    parse_distribution,
    sample_mempool,
    zero_fee_subset,
)
from tfmlab import txpool
from tfmlab.txpool import resolve_rng


def test_sample_mempool_empty():
    m = sample_mempool(0, BidDistribution.uniform(0, 5), BidDistribution.constant(1), seed=7)
    assert len(m) == 0


def test_sample_mempool_deterministic():
    args = (50, BidDistribution.censored_gaussian(4, 3), BidDistribution.exponential(1))
    a = sample_mempool(*args, seed=123)
    b = sample_mempool(*args, seed=123)
    assert [tx.bid for tx in a] == [tx.bid for tx in b]
    assert [tx.size for tx in a] == [tx.size for tx in b]
    c = sample_mempool(*args, seed=124)
    assert [tx.bid for tx in a] != [tx.bid for tx in c]


def test_sample_mempool_censored_pool():
    m = sample_mempool(1000, BidDistribution.censored_gaussian(4, 3),
                       BidDistribution.constant(1), seed=1)
    assert len(m) == 1000
    assert m.ids() == tuple(range(1000))
    assert all(tx.size == 1.0 for tx in m)
    assert all(tx.bid >= 0 for tx in m)
    assert len(zero_fee_subset(m)) > 0


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None, [3, -1], (0.5,), np.array([1.0])])
def test_seeds_must_be_non_negative_integers(seed):
    with pytest.raises(ParameterError, match="seed"):
        resolve_rng(seed)
    with pytest.raises(ParameterError, match="seed"):
        sample_mempool(5, BidDistribution.constant(1), BidDistribution.constant(1), seed=seed)


def test_integral_seeds_of_any_type_seed_as_numpy_does():
    for seed in (0, np.uint32(5), 2**100 + 1, [1, 2], (np.int64(3), 4), np.array([5, 6])):
        assert resolve_rng(seed).random() == np.random.default_rng(seed).random()


def test_sample_mempool_constant():
    m = sample_mempool(100, BidDistribution.constant(5), BidDistribution.constant(1), seed=3)
    assert all(tx.bid == 5.0 and tx.size == 1.0 for tx in m)
    # valuations default to bids
    assert all(tx.valuation == 5.0 for tx in m)


def test_separate_valuation_distribution():
    m = sample_mempool(40, BidDistribution.constant(1), BidDistribution.constant(1), seed=0,
                       valuations=BidDistribution.constant(9))
    assert all(tx.valuation == 9.0 for tx in m)


def test_censored_zero_atom_matches_quadrature_oracle():
    """Probability mass at zero equals the normal left tail below zero.

    The reference value is computed by numerical quadrature of the normal
    density, independent of the sampling path.
    """
    pdf = lambda x: math.exp(-0.5 * ((x - 4) / 3) ** 2) / (3 * math.sqrt(2 * math.pi))
    expected, _ = integrate.quad(pdf, -60, 0)
    draws = BidDistribution.censored_gaussian(4, 3).sample(np.random.default_rng(10), 1_000_000)
    atom = float(np.mean(draws == 0.0))
    assert abs(atom - expected) < 0.002
    assert abs(expected - 0.0912) < 5e-4


def test_truncated_gaussian_has_no_zero_atom():
    draws = BidDistribution.truncated_gaussian(4, 3).sample(np.random.default_rng(2), 200_000)
    assert draws.min() >= 0
    assert not np.any(draws == 0.0)


def test_truncated_gaussian_far_below_zero_raises_instead_of_looping():
    with pytest.raises(ParameterError, match="too far below zero"):
        BidDistribution.truncated_gaussian(-8, 1).sample(np.random.default_rng(0), 10)


@pytest.mark.parametrize("mean,n", [(-8, 1000), (-8, 1), (-5, 1000)])
def test_hopeless_truncated_gaussian_fails_at_once(mean, n):
    started = time.perf_counter()
    with pytest.raises(ParameterError, match="too far below zero"):
        BidDistribution.truncated_gaussian(mean, 1).sample(np.random.default_rng(0), n)
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("mean,sd,n", [(5, 4, 5000), (-3, 1, 1000)])
def test_truncated_gaussian_round_bound_leaves_draws_unchanged(mean, sd, n):
    """The bounded loop gives the same draws as rejecting until none is
    negative, also where that takes thousands of rounds (mean -3 sd)."""
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    draws = BidDistribution.truncated_gaussian(mean, sd).sample(rng, n)
    ref = ref_rng.normal(mean, sd, n)
    while (ref < 0).any():
        ref[ref < 0] = ref_rng.normal(mean, sd, int((ref < 0).sum()))
    assert np.array_equal(draws, ref)


def test_zero_inflated_atom():
    dist = BidDistribution.zero_inflated(0.3, BidDistribution.uniform(0, 5))
    draws = dist.sample(np.random.default_rng(3), 200_000)
    assert abs(float(np.mean(draws == 0.0)) - 0.3) < 0.005
    assert dist.zero_probability() == pytest.approx(0.3)


@pytest.mark.parametrize("bad", [
    lambda: BidDistribution.uniform(3, 1),
    lambda: BidDistribution.uniform(-1, 1),
    lambda: BidDistribution.truncated_gaussian(0, 0),
    lambda: BidDistribution.exponential(0),
    lambda: BidDistribution.constant(-2),
    lambda: BidDistribution.zero_inflated(1.5, BidDistribution.constant(1)),
    lambda: BidDistribution.uniform(0, math.inf),
    lambda: BidDistribution.uniform(math.nan, 1),
    lambda: BidDistribution.truncated_gaussian(math.nan, 1),
    lambda: BidDistribution.censored_gaussian(4, math.inf),
    lambda: BidDistribution.censored_gaussian(-math.inf, 1),
    lambda: BidDistribution.exponential(math.inf),
    lambda: BidDistribution.constant(math.nan),
    lambda: BidDistribution.zero_inflated(math.nan, BidDistribution.constant(1)),
])
def test_invalid_distribution_parameters(bad):
    with pytest.raises(ParameterError):
        bad()


def test_parse_distribution_round_trip():
    for text in ["uniform(0,5)", "censored_gaussian(4,3)", "exponential(1.5)",
                 "constant(1)", "zero_inflated(0.3,exponential(1))"]:
        dist = parse_distribution(text)
        assert parse_distribution(dist.spec_string()) == dist
    with pytest.raises(ParameterError):
        parse_distribution("gaussian(1,2)")
    with pytest.raises(ParameterError):
        parse_distribution("uniform(0,5")


def test_transaction_invariants():
    with pytest.raises(ParameterError):
        Transaction(0, 0.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        Transaction(0, 1.0, -1.0, 1.0)
    with pytest.raises(ParameterError):
        Transaction(0, 1.0, 1.0, -1.0)
    for size, bid, valuation in [(1.0, math.nan, 1.0), (1.0, math.inf, 1.0), (math.nan, 1.0, 1.0),
                                 (math.inf, 1.0, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)]:
        with pytest.raises(ParameterError):
            Transaction(0, size, bid, valuation)


@pytest.mark.parametrize("big", [10**400, Fraction(10**400)], ids=["int", "fraction"])
def test_a_number_no_double_holds_is_refused(big):
    # the pool's readers (bids(), the knapsack's ranking, the softmax keys) take doubles
    for size, bid, valuation, name in [(big, 1, 1, "size"), (1, big, 1, "bid"),
                                       (1, 1, big, "valuation")]:
        with pytest.raises(ParameterError, match=name):
            Transaction(0, size, bid, valuation)
    largest = type(big)(int(sys.float_info.max))  # a double holds it
    m = Mempool([Transaction(0, largest, largest, largest), Transaction(1, 1, 2, 2)])
    assert m.bids().tolist() == [sys.float_info.max, 2.0]


@pytest.mark.parametrize("tx_id, error", [
    (1.5, "transaction id must be an integer, got 1.5"),
    (1.0, "transaction id must be an integer, got 1.0"),
    ("1", "transaction id must be an integer"),
    (-1, "transaction id must be at least 0"),
    (2**63, "transaction id must be at most 9223372036854775807"),
])
def test_a_transaction_id_is_an_integer_the_int64_id_column_holds(tx_id, error):
    # the id column is int64, which would read 1.5 back as id 1 and cannot hold 2**63
    with pytest.raises(ParameterError, match=error):
        Mempool([Transaction(tx_id, 1.0, 0.0, 0.0), Transaction(2, 1.0, 1.0, 1.0)])
    for tx_id in (0, 2**63 - 1, np.int64(7)):
        assert Mempool([Transaction(tx_id, 1.0, 0.0, 0.0)]).columns.ids.tolist() == [tx_id]


@pytest.mark.parametrize("n", [2.5, 2.0, "2", None, -1])
def test_sample_counts_are_non_negative_integers(n):
    with pytest.raises(ParameterError, match="n must be"):
        sample_mempool(n, BidDistribution.constant(1), BidDistribution.constant(1), seed=0)
    with pytest.raises(ParameterError, match="n must be"):
        BidDistribution.constant(1).sample(np.random.default_rng(0), n)
    assert len(sample_mempool(np.int64(2), BidDistribution.constant(1),
                              BidDistribution.constant(1), seed=0)) == 2


def test_mempool_rejects_duplicate_ids():
    with pytest.raises(ParameterError):
        Mempool([Transaction(1, 1.0, 0.0, 0.0), Transaction(1, 1.0, 1.0, 1.0)])


def test_zero_fee_subset_cases():
    txs = [Transaction(0, 1.0, 0.0, 0.0), Transaction(1, 1.0, 1.0, 1.0),
           Transaction(2, 1.0, 0.0, 0.0)]
    m = Mempool(txs)
    assert [t.id for t in zero_fee_subset(m)] == [0, 2]
    assert zero_fee_subset(Mempool(txs[1:2])) == []
    assert len(zero_fee_subset(Mempool([txs[0], txs[2]]))) == 2


def test_mempool_csv_round_trip(tmp_path):
    m = sample_mempool(30, BidDistribution.censored_gaussian(4, 3),
                       BidDistribution.exponential(1), seed=9)
    path = tmp_path / "pool.csv"
    mempool_to_csv(m, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "id,size,bid,valuation"
    with open(path, newline="") as fh:
        back = [(int(r[0]), *map(float, r[1:])) for r in list(csv.reader(fh))[1:]]
    assert back == [(tx.id, tx.size, tx.bid, tx.valuation) for tx in m]


def test_mempool_columns_and_cached_row_views():
    m = sample_mempool(30, BidDistribution.uniform(0, 5), BidDistribution.exponential(1), seed=4)
    c = m.columns
    assert c.ids.tolist() == list(range(30)) and c.sizes.dtype == float
    assert not c.bids.flags.writeable
    first = m.get(7)
    assert m.get(7) is first and m.transactions[7] is first
    assert type(first.bid) is float and first.bid == c.bids[7]
    assert [tx.id for tx in m.take(c.bids > 2.5)] == c.ids[c.bids > 2.5].tolist()
    assert m.rows_of((9, 2)).tolist() == [9, 2]
    with pytest.raises(ParameterError):
        m.rows_of((30,))


def test_exact_values_keep_object_columns():
    from fractions import Fraction

    txs = [Transaction(5, 1, Fraction(1, 3), Fraction(2, 3)), Transaction(2, 2, Fraction(3), 1)]
    m = Mempool(txs)
    assert m.columns.bids.dtype == object and m.columns.sizes.tolist() == [1, 2]
    assert m.total_size() == 3 and type(m.total_size()) is int
    assert list(m) == txs and m.get(2) is txs[1]
    assert m.with_bid(5, Fraction(1, 2)).get(5).bid == Fraction(1, 2)


def test_with_bid_and_extend_validate_like_transactions():
    m = Mempool([Transaction(i, 1.0, 2.0, 2.0) for i in range(3)])
    assert m.with_bid(1, 4.0).bids().tolist() == [2.0, 4.0, 2.0]
    assert m.bids().tolist() == [2.0, 2.0, 2.0]
    with pytest.raises(ParameterError):
        m.with_bid(1, -1.0)
    with pytest.raises(ParameterError):
        m.with_bid(9, 1.0)
    fakes = (Transaction(10, 1.0, 0.0, 0.0, fake=True),)
    assert m.extend(()) is m
    assert m.extend(fakes).columns.fake.tolist() == [False, False, False, True]
    with pytest.raises(ParameterError):
        m.extend([Transaction(2, 1.0, 0.0, 0.0, fake=True)])


def test_extend_rejects_a_duplicate_id_within_the_extra_set_or_against_the_pool():
    m = Mempool([Transaction(i, 1.0, 2.0, 2.0) for i in range(3)])
    twice = [Transaction(10, 1.0, 0.0, 0.0, fake=True), Transaction(10, 2.0, 1.0, 1.0, fake=True)]
    with pytest.raises(ParameterError, match=r"^duplicate transaction id 10$"):
        m.extend(twice)
    with pytest.raises(ParameterError, match=r"^duplicate transaction id 2$"):
        m.extend([Transaction(11, 1.0, 0.0, 0.0, fake=True), Transaction(2, 1.0, 0.0, 0.0)])
    assert len(m) == 3 and m.ids() == (0, 1, 2)
    # the appended columns keep the number types of their values, and stay read-only
    pool = m.extend([Transaction(11, 0.5, 1.0, 1.5, fake=True),
                     Transaction(12, Fraction(1, 2), 0.0, 0.0, fake=True)])
    c = pool.columns
    assert c.ids.tolist() == [0, 1, 2, 11, 12] and c.fake.tolist() == [False] * 3 + [True] * 2
    assert c.sizes.dtype == object and c.sizes.tolist() == [1.0, 1.0, 1.0, 0.5, Fraction(1, 2)]
    assert c.bids.dtype == float and c.valuations.tolist() == [2.0, 2.0, 2.0, 1.5, 0.0]
    assert not any(col.flags.writeable for col in c)
    assert pool.get(12).size == Fraction(1, 2) and 11 in pool


LEAF_VALUES = [0.0, 5e-324, 0.1, 1 / 3, 1e16, 1e22, 123456789.0, sys.float_info.max]


@pytest.mark.skipif(txpool._float_leaves is None, reason="the C helper is not available")
def test_c_leaf_encoder_matches_the_python_leaf_byte_for_byte(monkeypatch):
    rows = [(i, s, b) for i in (0, 2**62) for s in LEAF_VALUES for b in LEAF_VALUES]
    ids, sizes, bids = zip(*rows)
    leaves = txpool._float_leaves(np.array(ids, dtype=np.int64), np.array(sizes), np.array(bids))
    assert leaves == [txpool._leaf(*row) for row in rows]

    calls = []
    c_leaves = txpool._float_leaves
    monkeypatch.setattr(txpool, "_float_leaves", lambda *cols: calls.append(cols) or c_leaves(*cols))
    m = Mempool([Transaction(i, s, b, b) for i, s, b in zip((0, 2**62), LEAF_VALUES[1:3],
                                                              LEAF_VALUES[6:8])])
    assert m.canonical_bytes(np.array([1, 0])) == [tx.canonical_bytes() for tx in m][::-1]
    assert len(calls) == 1


def test_int_and_fraction_pools_keep_the_python_leaf(monkeypatch):
    def no_c_leaves(*columns):
        raise AssertionError("object columns must not reach the C leaf encoder")

    monkeypatch.setattr(txpool, "_float_leaves", no_c_leaves)
    pools = [Mempool([Transaction(0, 2, 3, 3), Transaction(7, 1, 0, 0)]),
             Mempool([Transaction(0, 1.5, Fraction(1, 3), 1.0), Transaction(2**62, 0.1, 2.0, 2.0)])]
    for m in pools:
        assert m.canonical_bytes(np.arange(len(m))) == [tx.canonical_bytes() for tx in m]
