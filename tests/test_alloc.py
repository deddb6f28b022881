import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfmlab import (
    BidDistribution,
    DomainError,
    ExperimentConfig,
    MechanismSpec,
    Mempool,
    ParameterError,
    SolverLimitError,
    SplitBlockConfig,
    Transaction,
    allocation_value,
    alloc,
    emit_csv,
    optimal_allocate,
    rtfm_sample,
    run_rtfm_sweep,
    run_stfm_sweep,
    sample_mempool,
    splitblock_allocate,
    stfm_allocate,
    stfm_first_draw_distribution,
    uniform_allocate,
)
from tfmlab.alloc import _optimal_rows, _walk, _walk_rows
from tfmlab.txpool import PoolColumns, _column


def pool(pairs, sizes_equal=None):
    """Unit-size pool from bids, or (bid, size) pairs."""
    txs = []
    for i, entry in enumerate(pairs):
        bid, size = (entry, 1.0) if sizes_equal else entry
        txs.append(Transaction(i, float(size), float(bid), float(bid)))
    return Mempool(txs)


def brute_force_best(m, capacity):
    """Independent oracle: enumerate every subset."""
    txs = list(m)
    best = 0.0
    for k in range(len(txs) + 1):
        for combo in combinations(txs, k):
            if sum(t.size for t in combo) <= capacity:
                best = max(best, sum(t.size * t.bid for t in combo))
    return best


# ---------------------------------------------------------------------------
# optimal_allocate


def test_optimal_certificate_instance():
    m = pool([(10, 10), (10, 10), (5, 10), (0, 10), (0, 10)])
    res = optimal_allocate(m, 30.0, exact=True)
    assert res.selected == (0, 1, 2)
    assert sum(m.get(t).bid for t in res.selected) == 25
    assert allocation_value(m, res) == 250


def test_optimal_empty_mempool():
    res = optimal_allocate(Mempool([]), 30.0)
    assert res.selected == ()
    assert res.total_size == 0


def test_optimal_small_knapsack():
    # all 8 subsets enumerated by hand: {tx0, tx1} wins with value 8
    m = pool([(3, 2), (2, 1), (1, 2)])
    res = optimal_allocate(m, 3.0, exact=True)
    assert res.selected == (0, 1)
    assert allocation_value(m, res) == 8.0
    assert brute_force_best(m, 3.0) == 8.0


def test_exact_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        bids = rng.uniform(0, 5, n)
        sizes = rng.uniform(0.2, 3.0, n)
        m = Mempool([Transaction(i, float(sizes[i]), float(bids[i]), float(bids[i]))
                     for i in range(n)])
        capacity = float(rng.uniform(0.5, sizes.sum()))
        res = optimal_allocate(m, capacity, exact=True)
        assert allocation_value(m, res) == pytest.approx(brute_force_best(m, capacity), rel=1e-12)


def test_greedy_equals_exact_on_equal_sizes():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 21))
        bids = np.round(rng.uniform(0, 5, n), 3)
        m = pool(bids, sizes_equal=True)
        capacity = float(rng.integers(1, n + 1))
        exact = optimal_allocate(m, capacity, exact=True)
        greedy = optimal_allocate(m, capacity, exact=False)
        assert allocation_value(m, exact) == pytest.approx(allocation_value(m, greedy))


def test_optimal_tie_breaks_to_lowest_ids():
    m = pool([2, 2, 2, 2], sizes_equal=True)
    res = optimal_allocate(m, 2.0, exact=True)
    assert res.selected == (0, 1)
    res = optimal_allocate(m, 2.0, exact=False)
    assert res.selected == (0, 1)


def test_exact_limit_error():
    m = pool(range(1, 30), sizes_equal=True)
    with pytest.raises(SolverLimitError):
        optimal_allocate(m, 5.0, exact=True)


def test_default_knapsack_is_exact_up_to_the_limit_and_greedy_above():
    # greedy takes the densest item (3, 2) and then nothing fits; exact takes the two others
    items = [(3, 2), (2.8, 1.5), (2.8, 1.5)]
    m = pool(items)
    assert optimal_allocate(m, 3.0).selected == optimal_allocate(m, 3.0, exact=True).selected == (1, 2)
    assert optimal_allocate(m, 3.0, exact=False).selected == (0,)
    big = pool(items + [(0.1, 5)] * 22)  # 25 transactions: one past the limit
    assert optimal_allocate(big, 3.0).selected == optimal_allocate(big, 3.0, exact=False).selected
    with pytest.raises(SolverLimitError):
        optimal_allocate(big, 30.0, exact=True)


@pytest.mark.parametrize("allocate", [
    lambda m, c: optimal_allocate(m, c),
    lambda m, c: uniform_allocate(m, c, seed=0),
    lambda m, c: stfm_allocate(m, c, 1.0, seed=0),
    lambda m, c: splitblock_allocate(m, c, SplitBlockConfig(0.5), seed=0),
], ids=["optimal", "uniform", "softmax", "splitblock"])
def test_allocators_reject_a_nan_or_negative_capacity(allocate):
    m = pool([3, 0, 1], sizes_equal=True)
    for capacity in (math.nan, -1.0):
        with pytest.raises(ParameterError):
            allocate(m, capacity)


@pytest.mark.parametrize("gamma", [math.inf, math.nan, 0.0, -1.0, None])
def test_softmax_helpers_need_a_finite_temperature_above_zero(gamma):
    # the same rule as MechanismSpec's: an infinite gamma would sample a uniform block
    m = pool([3, 0, 1], sizes_equal=True)
    with pytest.raises(ParameterError, match="gamma must be finite and above 0"):
        stfm_allocate(m, 2.0, gamma, seed=0)
    with pytest.raises(ParameterError, match="gamma must be finite and above 0"):
        stfm_first_draw_distribution(m, gamma)


def test_optimal_never_selects_zero_weight():
    m = pool([0, 0, 3], sizes_equal=True)
    res = optimal_allocate(m, 3.0, exact=True)
    assert res.selected == (2,)


# ---------------------------------------------------------------------------
# uniform_allocate


def test_uniform_trivial_cases():
    m = pool([1, 2, 3], sizes_equal=True)
    assert uniform_allocate(m, 0.0, seed=1).selected == ()
    big = Mempool([Transaction(0, 10.0, 1.0, 1.0)])
    assert uniform_allocate(big, 5.0, seed=1).selected == ()


def test_uniform_fills_exactly_two_of_five():
    m = pool([5, 4, 3, 2, 1], sizes_equal=True)
    for s in range(200):
        res = uniform_allocate(m, 2.0, seed=s)
        assert len(res.selected) == 2


def test_uniform_symmetry_over_many_seeds():
    """Equal-size pools: inclusion frequency 2/5 for every transaction."""
    m = pool([5, 4, 3, 2, 1], sizes_equal=True)
    trials = 100_000
    counts = np.zeros(5)
    for s in range(trials):
        for t in uniform_allocate(m, 2.0, seed=s).selected:
            counts[t] += 1
    freq = counts / trials
    se = math.sqrt(0.4 * 0.6 / trials)
    assert np.all(np.abs(freq - 0.4) < 3 * se)


def test_uniform_keeps_filling_with_smaller_sizes():
    txs = [Transaction(0, 3.0, 1.0, 1.0), Transaction(1, 1.0, 1.0, 1.0),
           Transaction(2, 1.0, 1.0, 1.0)]
    m = Mempool(txs)
    # capacity 2: the size-3 transaction never fits, both unit ones always do
    for s in range(50):
        res = uniform_allocate(m, 2.0, seed=s)
        assert set(res.selected) == {1, 2}


# ---------------------------------------------------------------------------
# softmax sampling


def test_first_draw_single_tx():
    m = pool([7], sizes_equal=True)
    assert stfm_first_draw_distribution(m, 3.0) == {0: 1.0}


def test_first_draw_two_bids():
    m = pool([1, 0], sizes_equal=True)
    dist = stfm_first_draw_distribution(m, 1.0)
    e = math.e
    assert dist[0] == pytest.approx(e / (1 + e), abs=1e-12)
    assert dist[1] == pytest.approx(1 / (1 + e), abs=1e-12)


def test_first_draw_three_bids():
    dist = stfm_first_draw_distribution(pool([2, 1, 0], sizes_equal=True), 1.0)
    assert dist[0] == pytest.approx(0.6652, abs=1e-4)
    assert dist[1] == pytest.approx(0.2447, abs=1e-4)
    assert dist[2] == pytest.approx(0.0900, abs=1e-4)


def test_first_draw_uniform_limits():
    dist = stfm_first_draw_distribution(pool([0, 0, 0, 0], sizes_equal=True), 2.0)
    assert all(p == pytest.approx(0.25, abs=1e-12) for p in dist.values())
    dist = stfm_first_draw_distribution(pool([5, 1], sizes_equal=True), 1e6)
    assert dist[0] == pytest.approx(0.5, abs=1e-5)
    assert dist[1] == pytest.approx(0.5, abs=1e-5)


def test_first_draw_properties():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        bids = np.round(rng.uniform(0, 6, n), 2)
        bids[rng.integers(0, n)] = 0.0
        m = pool(bids, sizes_equal=True)
        gamma = float(rng.uniform(0.05, 20))
        dist = stfm_first_draw_distribution(m, gamma)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in dist.values())
        # strictly monotone in the bid
        for i in range(n):
            for j in range(n):
                if bids[i] > bids[j]:
                    assert dist[i] > dist[j]


def test_first_draw_large_bids_do_not_overflow():
    # max-shift keeps the dominant weight finite; the trailing weight stays
    # strictly positive for any gap inside the double-precision exponent range
    dist = stfm_first_draw_distribution(pool([700, 0], sizes_equal=True), 1.0)
    assert dist[0] == pytest.approx(1.0)
    assert dist[1] > 0


def test_first_draw_domain_errors():
    with pytest.raises(ParameterError):
        stfm_first_draw_distribution(pool([1], sizes_equal=True), 0.0)
    with pytest.raises(DomainError):
        stfm_first_draw_distribution(Mempool([]), 1.0)


def test_stfm_allocate_parameter_error():
    with pytest.raises(ParameterError):
        stfm_allocate(pool([1], sizes_equal=True), 1.0, 0.0, seed=0)


def test_stfm_allocate_feasible_and_exhaustive():
    rng = np.random.default_rng(4)
    for s in range(30):
        n = int(rng.integers(1, 30))
        sizes = rng.uniform(0.2, 2.0, n)
        bids = rng.uniform(0, 5, n)
        m = Mempool([Transaction(i, float(sizes[i]), float(bids[i]), float(bids[i]))
                     for i in range(n)])
        capacity = float(rng.uniform(0.5, sizes.sum() + 1))
        res = stfm_allocate(m, capacity, 1.0, seed=s)
        assert res.total_size <= capacity
        # nothing left fits
        leftover = [tx.size for tx in m if tx.id not in set(res.selected)]
        assert all(res.total_size + sz > capacity for sz in leftover)


def test_stfm_allocate_matches_first_draw_frequencies():
    m = pool([1, 0], sizes_equal=True)
    trials = 30_000
    hits = sum(stfm_allocate(m, 1.0, 1.0, seed=s).selected[0] == 0 for s in range(trials))
    p = math.e / (1 + math.e)
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3 * se


def sequential_softmax_reference(m, capacity, gamma, rng):
    """Literal re-normalizing sampler, kept independent of the library path."""
    remaining = list(m)
    total, picked = 0.0, []
    while True:
        fits = [tx for tx in remaining if total + tx.size <= capacity]
        if not fits:
            return picked
        w = np.array([math.exp(tx.bid / gamma) for tx in fits])
        choice = rng.choice(len(fits), p=w / w.sum())
        tx = fits[choice]
        picked.append(tx.id)
        total += tx.size
        remaining.remove(tx)


def test_stfm_allocate_matches_sequential_reference_with_size_skips():
    """Gumbel-walk sampler agrees with the literal sampler, including the
    capacity-restricted eligibility step."""
    txs = [Transaction(0, 2.0, 1.5, 1.5), Transaction(1, 1.0, 1.0, 1.0),
           Transaction(2, 1.0, 0.0, 0.0)]
    m = Mempool(txs)
    trials = 40_000
    lib_counts = np.zeros(3)
    ref_counts = np.zeros(3)
    ref_rng = np.random.default_rng(99)
    for s in range(trials):
        for t in stfm_allocate(m, 2.0, 1.0, seed=s).selected:
            lib_counts[t] += 1
        for t in sequential_softmax_reference(m, 2.0, 1.0, ref_rng):
            ref_counts[t] += 1
    for t in range(3):
        p = ref_counts[t] / trials
        se = math.sqrt(max(p * (1 - p), 1e-6) / trials)
        assert abs(lib_counts[t] / trials - p) < 4 * se


# ---------------------------------------------------------------------------
# split block


def test_splitblock_zero_fee_example():
    m = pool([5, 3, 0, 0, 0], sizes_equal=True)
    cfg = SplitBlockConfig(0.5)
    trials = 5000
    zero_counts = {2: 0, 3: 0, 4: 0}
    for s in range(trials):
        res = splitblock_allocate(m, 4.0, cfg, seed=s)
        assert res.section_of(0) == "alpha"
        assert res.section_of(1) == "alpha"
        included_zeros = [t for t in (2, 3, 4) if t in set(res.selected)]
        assert len(included_zeros) == 2
        for t in included_zeros:
            zero_counts[t] += 1
    se = math.sqrt((2 / 3) * (1 / 3) / trials)
    for t, c in zero_counts.items():
        assert abs(c / trials - 2 / 3) < 4 * se


def test_splitblock_oversized_zero_bid_never_included():
    m = Mempool([Transaction(0, 1.0, 5.0, 5.0), Transaction(1, 3.0, 0.0, 0.0)])
    for s in range(200):
        res = splitblock_allocate(m, 4.0, SplitBlockConfig(0.5), seed=s)
        assert 1 not in set(res.selected)


def test_splitblock_posted_fee_demotion():
    # five real transactions, eight slots, three quarters paid section:
    # the two lowest bids stand in for posted-fee entries
    m = pool([2, 3, 4, 5, 6], sizes_equal=True)
    res = splitblock_allocate(m, 8.0, SplitBlockConfig(0.75, delta=1.0), seed=0)
    assert res.sections == {0: "one_minus_alpha", 1: "one_minus_alpha",
                            2: "alpha", 3: "alpha", 4: "alpha"}
    # without demotion the reserved section stays empty and the paid one takes all five
    res = splitblock_allocate(m, 8.0, SplitBlockConfig(0.75, delta=1.0, demote=False), seed=0)
    assert res.sections == dict.fromkeys(range(5), "alpha")
    with pytest.raises(ParameterError):
        SplitBlockConfig(0.75, delta=1.0, demote="no")


def test_splitblock_fakes_take_the_reserved_section():
    m = pool([2, 3, 4, 5, 6], sizes_equal=True)
    fakes = [Transaction(100, 1.0, 1.0, 1.0, fake=True),
             Transaction(101, 1.0, 1.0, 1.0, fake=True)]
    res = splitblock_allocate(m, 8.0, SplitBlockConfig(0.75, delta=1.0),
                              fake_fill=fakes, seed=0)
    assert res.section_of(100) == "one_minus_alpha"
    assert res.section_of(101) == "one_minus_alpha"
    assert all(res.section_of(i) == "alpha" for i in range(5))
    with pytest.raises(ParameterError):  # a fake may not reuse a pool id
        splitblock_allocate(m, 8.0, SplitBlockConfig(0.75, delta=1.0),
                            fake_fill=[Transaction(4, 1.0, 1.0, 1.0, fake=True)], seed=0)


def test_splitblock_fake_fill_must_carry_the_fake_flag():
    # as run_mechanism's fakes must: an unflagged entry would take a reserved slot as a fake
    m = pool([0, 0, 3, 4], sizes_equal=True)
    with pytest.raises(ParameterError, match="must carry fake=True"):
        splitblock_allocate(m, 4.0, SplitBlockConfig(0.5),
                            fake_fill=[Transaction(9, 1.0, 0.0, 0.0)])


def test_payment_arrays_need_one_value_per_row():
    m = pool([2, 3, 4], sizes_equal=True)
    res = optimal_allocate(m, 2.0, payment_per_unit=np.array([5.0, 0.0, 1.0]))
    assert res.selected == (0, 2)
    with pytest.raises(ParameterError):
        optimal_allocate(m, 2.0, payment_per_unit=[1.0, 2.0])


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("payment", [
    [1.0, math.nan, 2.0, 3.0], [math.inf] * 4, [1, 2, 3, -math.inf], ["a"] * 4, [None] * 4,
    np.array([1.0, 2.0, math.nan, 3.0]), [Fraction(1, 2), Fraction(1, 3), 1, math.nan],
    [10**400, 1, 2, 3], [1.0, Fraction(10**400), 2, 3],
], ids=["nan", "inf", "int_and_minus_inf", "str", "none", "nan_array", "fraction_and_nan",
        "int_no_double_holds", "fraction_no_double_holds"])
def test_payments_that_are_not_finite_numbers_are_rejected(payment, exact):
    m = pool([1, 1, 1, 1], sizes_equal=True)
    with pytest.raises(ParameterError, match="payment_per_unit must be finite numbers"):
        optimal_allocate(m, 2.0, payment_per_unit=payment, exact=exact)
    # finite floats, ints and Fractions, negative ones too, are payments
    for finite in ([1.0, -0.5, 2.0, 3.0], [1, -1, 2, 3], [Fraction(1, 3), -1, 2, 3.0]):
        assert optimal_allocate(m, 2.0, payment_per_unit=finite, exact=exact).selected == (2, 3)


def test_splitblock_underfilled_reserved_section_is_allowed():
    m = pool([5, 4], sizes_equal=True)  # no zero bids to reserve
    res = splitblock_allocate(m, 4.0, SplitBlockConfig(0.5), seed=3)
    assert set(res.selected) == {0, 1}
    assert all(res.section_of(t) == "alpha" for t in res.selected)


# ---------------------------------------------------------------------------
# two-set sampling


def test_rtfm_single_tx():
    m = pool([3], sizes_equal=True)
    sample = rtfm_sample(m, 1.0, seed=0)
    assert set(sample.rand_set.selected) == set(sample.opt_set.selected) == {0}
    assert sample.rand_root == sample.opt_root


def test_rtfm_certificate_instance():
    m = pool([(10, 10), (10, 10), (5, 10), (0, 10), (0, 10)])
    trials = 4000
    counts = np.zeros(5)
    for s in range(trials):
        sample = rtfm_sample(m, 30.0, seed=s)
        assert sample.opt_set.selected == (0, 1, 2)
        assert len(sample.rand_set.selected) == 3
        for t in sample.rand_set.selected:
            counts[t] += 1
    se = math.sqrt(0.6 * 0.4 / trials)
    assert np.all(np.abs(counts / trials - 0.6) < 4 * se)


def test_rtfm_all_zero_bids():
    m = pool([0, 0, 0], sizes_equal=True)
    sample = rtfm_sample(m, 2.0, seed=1)
    assert allocation_value(m, sample.opt_set) == 0
    assert sample.rand_set.total_size <= 2.0
    assert sample.opt_set.total_size <= 2.0


def test_rtfm_deterministic_including_roots():
    m = pool([4, 2, 0, 1], sizes_equal=True)
    a = rtfm_sample(m, 2.0, seed=42)
    b = rtfm_sample(m, 2.0, seed=42)
    assert a.rand_set.selected == b.rand_set.selected
    assert a.rand_root == b.rand_root and a.opt_root == b.opt_root
    c = rtfm_sample(m, 2.0, seed=43)
    assert (a.rand_set.selected != c.rand_set.selected) or (a.rand_root != c.rand_root)


def test_infeasible_allocation_rejected():
    from tfmlab.alloc import AllocationResult

    with pytest.raises(ParameterError):
        AllocationResult((0,), 5.0, 4.0)


def _walk_by_loop(sizes, order, capacity, total):
    kept = []
    for row in order:
        if total + sizes[row] <= capacity:
            kept.append(row)
            total += sizes[row]
    return kept, total


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(0.01, 4.0), st.sampled_from([1, Fraction(1, 3), 0.5])),
                max_size=80),
       st.floats(0, 20), st.sampled_from([0, 0.75, Fraction(2, 3)]), st.integers(0, 2**32 - 1))
def test_walk_matches_the_sequential_loop(sizes, capacity, start, seed):
    """Short and long orders keep the rows, and add the sizes in the order, of a plain loop."""
    column = _column(sizes)
    order = np.random.default_rng(seed).permutation(len(sizes))
    rows, total = _walk(column, order, capacity, start)
    kept, expected = _walk_by_loop(sizes, order.tolist(), capacity, start)
    assert rows.tolist() == kept
    assert repr(total) == repr(expected)


LONG_ORDERS = ["softmax", "greedy", "alternating", "misfit_then_fit", "exact_fit",
               "exact_fit_at_cut"]


def _long_order(shape):
    """Integer sizes, an order and a capacity.

    "softmax" and "greedy" are the softmax sweep's two orders over 1000
    exponential sizes at a tenth of the pool's size.  In "alternating" tiny
    rows alternate with rows that fit only until the next tiny one is kept,
    and in "misfit_then_fit" every row after one misfit fits.  "exact_fit"
    and "exact_fit_at_cut" keep a row that fills the block exactly, late or
    just after the first misfit.  Each shape holds the C walk to the loop.
    """
    rng = np.random.default_rng(13)
    if shape in ("softmax", "greedy"):
        sizes = np.ceil(rng.exponential(1000, 1000)).astype(int)
        bids = rng.uniform(0, 5, 1000)
        if shape == "softmax":
            order = np.argsort(-(bids / 2 + rng.gumbel(size=1000)), kind="stable")
        else:
            order = np.lexsort((np.arange(1000), -bids))
        return sizes, order, int(sizes.sum()) // 10
    if shape == "alternating":
        sizes = np.array([500_000] * 100 + [10**8] + [2, 999_999] * 449 + [2])
        return sizes, np.arange(1000), 51_000_000
    if shape == "misfit_then_fit":
        sizes = np.array([1000] * 100 + [10**5] + [1] * 899)
        return sizes, np.arange(1000), 100_900
    if shape == "exact_fit":
        sizes = np.array([10] * 100 + [1000, 4, 9, 9, 9, 6, 1, 1])
    else:
        sizes = np.array([10] * 100 + [1000, 10, 1])
    return sizes, np.arange(len(sizes)), 1010


@pytest.mark.parametrize("start", [0, 0.75, Fraction(2, 3)])
@pytest.mark.parametrize("kind", [float, int, Fraction])
@pytest.mark.parametrize("shape", LONG_ORDERS)
def test_long_walks_match_the_sequential_loop(shape, kind, start):
    sizes, order, capacity = _long_order(shape)
    if kind is float:
        sizes, capacity = [s / 1000 for s in sizes.tolist()], capacity / 1000
    elif kind is Fraction:
        sizes, capacity = [Fraction(s, 1000) for s in sizes.tolist()], Fraction(capacity, 1000)
    else:
        sizes = sizes.tolist()
    column = _column(sizes)
    assert column.dtype == (float if kind is float else object)
    rows, total = _walk(column, order, capacity, start)
    kept, expected = _walk_by_loop(sizes, order.tolist(), capacity, start)
    assert rows.tolist() == kept
    assert repr(total) == repr(expected)


needs_c_row_walk = pytest.mark.skipif(alloc._walk_rows_c is None,
                                      reason="the C helper is not available")


def _recording(monkeypatch, calls):
    """Patch the C row walk to note the shape of each call's orders in `calls`."""
    c_walk = alloc._walk_rows_c
    monkeypatch.setattr(alloc, "_walk_rows_c",
                        lambda *args: calls.append(args[1].shape) or c_walk(*args))


@needs_c_row_walk
@pytest.mark.parametrize("start", [0, 0.75, 3])
@pytest.mark.parametrize("shape", LONG_ORDERS)
def test_c_walk_matches_the_python_walk(monkeypatch, shape, start):
    """A one-order walk on the C path is one call of the row walk, on a one-row order."""
    sizes, order, capacity = _long_order(shape)
    sizes, capacity = np.asarray(sizes) / 1000, capacity / 1000  # float64 sizes
    calls = []
    _recording(monkeypatch, calls)
    for rows in (order, order[:20]):  # a long order and a short one
        got_rows, got_total = _walk(sizes, rows, capacity, start)
        with monkeypatch.context() as python_only:
            python_only.setattr(alloc, "_walk_rows_c", None)
            rows_py, total_py = _walk(sizes, rows, capacity, start)
        assert got_rows.tolist() == rows_py.tolist()
        assert repr(got_total) == repr(total_py)
    assert calls == [(1, len(order)), (1, 20)]


@pytest.mark.parametrize("c_walk", [True, False])
def test_a_walk_that_keeps_nothing_returns_the_start_total_itself(monkeypatch, c_walk):
    calls = []
    if not c_walk:
        monkeypatch.setattr(alloc, "_walk_rows_c", None)
    elif alloc._walk_rows_c is None:
        pytest.skip("the C helper is not available")
    else:
        _recording(monkeypatch, calls)
    for n in (0, 3, 40):  # an empty order, a short one and a long one
        rows, total = _walk(np.full(n, 5.0), np.arange(n), 1.0)
        assert rows.tolist() == [] and type(total) is int and total == 0
    assert calls == ([(1, 0), (1, 3), (1, 40)] if c_walk else [])


@needs_c_row_walk
@pytest.mark.parametrize("row", [3, -1, 2**62])
def test_c_walk_rejects_an_order_row_outside_the_sizes(row):
    with pytest.raises(IndexError, match="outside the 3 sizes"):
        _walk(np.ones(3), np.array([0, row], dtype=np.intp), 10.0)


ORDERS = np.array([[0, 1], [2, 1]], dtype=np.intp)


@needs_c_row_walk
@pytest.mark.parametrize("row", [3, -1, 2**62])
def test_c_row_walk_rejects_an_order_row_outside_the_sizes(row):
    orders = np.array([[0, 1], [0, row]], dtype=np.intp)
    with pytest.raises(IndexError, match="outside the 3 sizes"):
        alloc._walk_rows_c(np.ones(3), orders, 10.0, 0, np.empty((2, 2), bool), np.empty(2))


@needs_c_row_walk
@pytest.mark.parametrize("sizes, orders, kept, totals", [
    (np.ones(3, np.float32), ORDERS, np.empty((2, 2), bool), np.empty(2)),
    (np.ones(3), ORDERS.astype(np.int32), np.empty((2, 2), bool), np.empty(2)),
    (np.ones(3), ORDERS.astype(np.uint64), np.empty((2, 2), bool), np.empty(2)),
    (np.ones(3), ORDERS, np.empty((2, 2), np.uint8), np.empty(2)),
    (np.ones(3), ORDERS, np.empty((2, 2), bool), np.empty(2, np.float32)),
    (np.ones((3, 1)), ORDERS, np.empty((2, 2), bool), np.empty(2)),  # 2-D sizes
    (np.ones(3), ORDERS[0], np.empty(2, bool), np.empty(1)),  # a 1-D order
    (np.ones(3), ORDERS, np.empty((2, 1), bool), np.empty(2)),  # no room in kept
    (np.ones(3), ORDERS, np.empty((2, 2), bool), np.empty(1)),  # no room in totals
    (np.ones(3), ORDERS, np.empty((2, 2), bool), np.empty(3)),
], ids=["float32_sizes", "int32_orders", "uint64_orders", "uint8_kept", "float32_totals",
        "2d_sizes", "1d_orders", "small_kept", "short_totals", "long_totals"])
def test_c_row_walk_rejects_a_wrong_dtype_shape_or_room(sizes, orders, kept, totals):
    with pytest.raises(ValueError, match="walk_rows needs"):
        alloc._walk_rows_c(sizes, orders, 10.0, 0, kept, totals)


def test_walks_a_double_cannot_hold_stay_off_the_c_loop(monkeypatch):
    def no_c_walk(*args):
        raise AssertionError("the C walk must not run here")

    monkeypatch.setattr(alloc, "_walk_rows_c", no_c_walk)
    sizes, order = np.array([0.5, 1.5, 2.5, 0.25]), np.arange(4)
    cases = [(sizes, order, Fraction(7, 3), 0),  # a Fraction capacity
             (sizes, order, 2.0, Fraction(1, 3)),  # a Fraction start
             (sizes, order, 2**60 + 1, 0),  # an int no double holds
             (sizes, order, 4.0, np.float64(0.5)),  # a numpy start keeps its type
             (sizes, order.astype(np.int32), 4.0, 0),
             (_column([1, 2, 3, 1]), order, 4, 0)]  # an int column
    for s, o, capacity, start in cases:
        rows, total = _walk(s, o, capacity, start)
        kept, expected = _walk_by_loop(s.tolist(), o.tolist(), capacity, start)
        assert rows.tolist() == kept
        assert repr(total) == repr(expected)
    # the row walk of the cases whose rest of a row, past the cut, cannot run in doubles
    # either (over float sizes, a Fraction start is a float from the first size on); the
    # order [1, 2, 3, 0] keeps 1.5, skips 2.5 and walks on past the cut to 0.25 and 0.5
    for s, capacity, start in [(sizes, Fraction(7, 3), 0), (sizes, 2**60 + 1, 0),
                               (_column([1, 2, 3, 1]), 4, 0), (_column([1, 2, 3, 1]), 4,
                                                                Fraction(1, 3))]:
        orders = np.array([[1, 2, 3, 0], [0, 1, 2, 3]])
        kept, totals = _walk_rows(s, orders, capacity, start)
        for o, row_kept, total in zip(orders, kept, totals):
            rows, expected = _walk_by_loop(s.tolist(), o.tolist(), capacity, start)
            assert o[row_kept].tolist() == rows
            assert total == expected


@needs_c_row_walk
@pytest.mark.parametrize("start", [0, 0.25, 3])
def test_a_numpy_float64_capacity_walks_on_the_c_loops(monkeypatch, start):
    """np.float64(c) walks as float(c) does, and on the C loop: the same rows, totals and
    total types, with a start total that nothing joins among them."""
    calls = []
    c_row_walk = alloc._walk_rows_c
    monkeypatch.setattr(alloc, "_walk_rows_c",
                        lambda *args: calls.append("rows") or c_row_walk(*args))
    sizes = np.array([0.5, 1.5, 2.5, 0.25])
    orders = np.array([[1, 2, 3, 0], [0, 1, 2, 3], [2, 0, 1, 3]])
    for capacity in (4.0, 2.75, 0.1):  # at 0.1 nothing fits
        got = []
        for cap in (float(capacity), np.float64(capacity)):
            rows, total = _walk(sizes, orders[0], cap, start)
            kept, totals = _walk_rows(sizes, orders, cap, start)
            got.append((rows.tolist(), repr(total), type(total), kept.tolist(),
                        totals.tolist(), totals.dtype))
        assert got[0] == got[1], capacity
    assert calls == ["rows", "rows"] * 6


def test_the_row_walk_walks_on_past_the_prefix_cut(monkeypatch):
    """A row whose cut leaves room for a later size: the same rows on the C loop and on
    its Python twin, which walks the rest of the row after the cut."""
    sizes, orders = np.array([2.0, 3.0, 1.0, 0.5]), np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
    got = []
    for c_walk in (alloc._walk_rows_c, None):
        monkeypatch.setattr(alloc, "_walk_rows_c", c_walk)
        kept, totals = _walk_rows(sizes, orders, 3.5, 0.25)
        got.append((kept.tolist(), totals.tolist()))
    assert got[0] == got[1] == ([[True, False, True, False], [True, False, False, False]],
                                [3.25, 3.25])


@needs_c_row_walk
def test_stfm_sweep_csv_bytes_do_not_depend_on_the_walk(monkeypatch, tmp_path):
    """Every caller of the walks gives the same bytes on the C loop and the Python loops:
    the softmax sweep (the row walk), the two-set sweep (greedy and uniform walks), the
    two-set rule's roots, and split block with fakes, whose walk starts at the fakes'
    total."""
    exponential = BidDistribution.exponential(1)
    stfm = ExperimentConfig(
        mechanism=MechanismSpec.stfm(1.0), n=300, bid_dist=BidDistribution.uniform(0, 5),
        size_dist=exponential, sweep_param="gamma", sweep_values=(0.5, 2.0, 10.0),
        size_ratio=10.0, runs=8, seed=4,
    )
    rtfm = ExperimentConfig(
        mechanism=MechanismSpec.rtfm(0.5), n=300, capacity=30.0,
        bid_dist=BidDistribution.uniform(0, 5), size_dist=exponential,
        sweep_values=(0.0, 0.5, 1.0), runs=8, seed=4,
    )
    rng = np.random.default_rng(5)
    m = Mempool([Transaction(i, float(rng.exponential(1)), bid, bid)
                 for i, bid in enumerate(rng.choice([0.0, 1.0, 2.0, 3.0], 300).tolist())])
    fakes = [Transaction(1000 + j, 0.5 + j, 1.0, 1.0, fake=True) for j in range(3)]
    c_row_walk, starts, row_walks = alloc._walk_rows_c, [], []

    def row_walk(*args):
        starts.append(args[3])
        row_walks.append(args[1].shape)
        return c_row_walk(*args)

    outputs = []
    for walk in (row_walk, None):
        monkeypatch.setattr(alloc, "_walk_rows_c", walk)
        got = []
        for run, cfg in ((run_stfm_sweep, stfm), (run_rtfm_sweep, rtfm)):
            path = tmp_path / f"{len(outputs)}_{len(got)}.csv"
            emit_csv(run(cfg), str(path))
            got.append(path.read_bytes())
        for seed in range(4):
            sample = rtfm_sample(m, 30.0, seed)
            got.append((sample.rand_set.selected, repr(sample.rand_set.total_size),
                        sample.opt_set.selected, sample.rand_root, sample.opt_root))
            res = splitblock_allocate(m, 30.0, SplitBlockConfig(0.5, 1.0), fakes, seed)
            got.append((res.selected, repr(res.total_size), sorted(res.sections.items())))
        outputs.append(got)
    assert outputs[0] == outputs[1]
    assert any(start != 0 for start in starts)  # the C loop ran, from a non-zero total too
    # the C row walk ran, one row a temperature over the sweep's 300 candidates
    assert (3, 300) in row_walks


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_optimal_allocate_selects_the_ids_of_the_row_core(exact, seed):
    rng = np.random.default_rng(seed)
    n = 16 if exact else 300
    ids = rng.permutation(4 * n)[:n].tolist()  # not in row order
    txs = [Transaction(tid, float(rng.exponential(1)), float(rng.uniform(0, 5)),
                       float(rng.uniform(0, 5)), fake=bool(rng.random() < 0.2)) for tid in ids]
    m = Mempool(txs)
    capacity = m.total_size() / 3
    c = m.columns
    for payment in (None, c.bids - 1.5):  # the bids, and the bids less a posted fee
        result = optimal_allocate(m, capacity, payment_per_unit=payment, exact=exact)
        rows, total = _optimal_rows(c, capacity, payment, exact)
        assert result.selected == tuple(c.ids[rows].tolist())
        assert rows.tolist() == m.rows_of(result.selected).tolist()
        assert list(result.selected) == sorted(result.selected)
        assert not c.fake[rows].any()
        assert repr(result.total_size) == repr(total)


def _full_sort_rows(c, capacity, payment=None):
    """The greedy knapsack over the full order: every candidate ranked by weight per unit
    size, highest first, then lowest id, and walked."""
    w = alloc._weights(c, payment)
    order = np.lexsort((c.ids, -(w / c.sizes)))
    order = order[(w[order] > 0) & (c.sizes[order] <= capacity)]
    rows, _ = _walk(c.sizes, order, capacity)
    rows = rows[c.ids[rows].argsort()]
    return rows, sum(c.sizes[rows].tolist())


GREEDY_SIZES = {
    "equal": lambda rng, n: np.ones(n),
    "tenths": lambda rng, n: np.full(n, 0.1),  # sums of 0.1 drift from capacity / 0.1
    "few": lambda rng, n: rng.choice([0.1, 0.2, 0.3, 1.0], n),
    "uniform": lambda rng, n: rng.uniform(0.5, 1.5, n),
    "exponential": lambda rng, n: rng.exponential(1, n),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(GREEDY_SIZES)), st.integers(0, 400), st.integers(0, 2),
       st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, 0.1]),
       st.sampled_from([0.0, 0.1, 0.37, 0.6, 1.2, math.inf]), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_greedy_rows_are_the_full_sorts(sizes, n, decimals, zeros, fakes, share, posted,
                                        permuted, seed):
    """Ranking only the rows the walk can reach keeps the full sort's rows and total, with
    ties at the cut, zero bids, fakes, a posted fee, an empty pool and an unbounded block,
    on both walks."""
    rng = np.random.default_rng(seed)
    bids = np.round(rng.normal(4, 3, n).clip(0), decimals)
    bids[rng.random(n) < zeros] = 0.0
    ids = (rng.permutation(3 * n)[:n] if permuted else np.arange(n)).astype(np.int64)
    c = PoolColumns(ids, GREEDY_SIZES[sizes](rng, n), bids, bids, rng.random(n) < fakes)
    capacity = share if share == math.inf else share * c.sizes.sum().item()
    payment = bids - 1.5 if posted else None
    for c_walk in {alloc._walk_rows_c, None}:
        with pytest.MonkeyPatch.context() as walk:
            walk.setattr(alloc, "_walk_rows_c", c_walk)
            rows, total = _optimal_rows(c, capacity, payment, exact=False)
            expected, expected_total = _full_sort_rows(c, capacity, payment)
        assert rows.tolist() == expected.tolist()
        assert repr(total) == repr(expected_total) and type(total) is type(expected_total)


def _on_walk(monkeypatch, c_walk):
    """Run the test on the C walk or, with the helper's walk patched away, on Python's."""
    if not c_walk:
        monkeypatch.setattr(alloc, "_walk_rows_c", None)
    elif alloc._walk_rows_c is None:
        pytest.skip("the C helper is not available")


def _ranking_spy(monkeypatch):
    """Patch the ranking to note, for each call, whether it ranked a subset of the rows."""
    ranked, subsets = alloc._ranked, []

    def spy(*args):
        subsets.append(len(args) > 4 and args[4] is not None)
        return ranked(*args)

    monkeypatch.setattr(alloc, "_ranked", spy)
    return subsets


@pytest.mark.parametrize("c_walk", [True, False])
def test_the_phi_sweep_knapsack_ranks_only_the_head(monkeypatch, c_walk):
    """On the bias sweep's pools (a thousand unit sizes, room for a hundred) the knapsack
    ranks the rows the walk can reach and no more: a fall-back to the full sort fails."""
    _on_walk(monkeypatch, c_walk)
    subsets = _ranking_spy(monkeypatch)
    for seed in range(3):
        c = sample_mempool(1000, BidDistribution.censored_gaussian(4, 3),
                           BidDistribution.constant(1), seed=seed).columns
        # the bids as drawn, and rounded to one decimal, so that ties straddle the cut: the
        # head keeps them all, so it holds the block
        for bids in (c.bids, np.round(c.bids, 1)):
            c = c._replace(bids=bids)
            rows, total = _optimal_rows(c, 100, exact=False)
            expected, expected_total = _full_sort_rows(c, 100)
            assert rows.tolist() == expected.tolist() and repr(total) == repr(expected_total)
            assert len(rows) == 100
    assert subsets == [True] * 6  # the head only: the full block leaves no room for the rest
    # half the bids zero and room for 600: the head's candidates run out with room left, so
    # the walk ranks the rest too and walks on from the head's total
    subsets.clear()
    for seed in range(3):
        bids = BidDistribution.zero_inflated(0.5, BidDistribution.uniform(0, 3))
        c = sample_mempool(1000, bids, BidDistribution.constant(1), seed=seed).columns
        rows, total = _optimal_rows(c, 600, exact=False)
        expected, expected_total = _full_sort_rows(c, 600)
        assert rows.tolist() == expected.tolist() and repr(total) == repr(expected_total)
    assert subsets == [True, True] * 3


def test_greedy_knapsacks_that_rank_every_row(monkeypatch):
    """An empty pool, an unbounded block (no warning), Fraction columns and a block with
    room for every row rank all rows in one call, as the full sort does."""
    subsets = _ranking_spy(monkeypatch)
    floats = sample_mempool(300, BidDistribution.uniform(0, 5), BidDistribution.constant(1),
                            seed=1).columns
    fractions = Mempool([Transaction(i, Fraction(1 + i % 3, 2), Fraction(i % 7), Fraction(i % 7))
                         for i in range(60)]).columns
    cases = [(PoolColumns(*(column[:0] for column in floats)), 5.0),
             (floats, math.inf), (floats, 300.0), (floats, np.float64(math.inf)),
             (fractions, Fraction(7, 2)), (fractions, math.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, capacity in cases:
            rows, total = _optimal_rows(c, capacity, exact=False)
            expected, expected_total = _full_sort_rows(c, capacity)
            assert rows.tolist() == expected.tolist()
            assert repr(total) == repr(expected_total) and type(total) is type(expected_total)
    assert subsets == [False] * len(cases)


@pytest.mark.parametrize("c_walk", [True, False])
def test_the_rest_is_walked_when_the_walk_would_keep_a_row_of_it(monkeypatch, c_walk):
    """The test for walking on past the head is the walk's own ``total + size <= capacity``:
    at 0.7 + 0.1 a row of 0.1 fits a block of 0.7 + 0.1, although the room left,
    capacity - 0.7, is below 0.1 in floats."""
    _on_walk(monkeypatch, c_walk)
    capacity = 0.7 + 0.1
    assert capacity - 0.7 < 0.1
    # room for 7 rows of the smallest size; the head of 8 holds the 0.7 row and seven rows
    # too large to fit, and the row of 0.1, ranked last, is the rest
    sizes = np.array([0.7] + [1.0] * 7 + [0.1])
    bids = np.array([9.0] + [8.0] * 7 + [1.0])
    c = PoolColumns(np.arange(9, dtype=np.int64), sizes, bids, bids, np.zeros(9, bool))
    subsets = _ranking_spy(monkeypatch)
    rows, total = _optimal_rows(c, capacity, exact=False)
    assert rows.tolist() == _full_sort_rows(c, capacity)[0].tolist() == [0, 8]
    assert total == capacity
    assert subsets == [True, True]
