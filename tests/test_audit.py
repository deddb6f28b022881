import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Tuple

import numpy as np
import pytest

from tfmlab import audit, mech
from tfmlab.audit import PropertyReport
from tfmlab.experiments import _mean_se
from tfmlab.mech import AllocationKind, run_mechanism
from tfmlab.txpool import zero_fee_subset
from tfmlab import (
    DomainError,
    MechanismSpec,
    Mempool,
    ParameterError,
    PaymentKind,
    SolverLimitError,
    Transaction,
    Verdict,
    check_uic,
    empirical_cof,
    estimate_monotonicity,
    estimate_zti,
    rtfm_cov_closed_form,
    search_mic_deviation,
    stfm_cof_bound,
    stfm_worstcase_draw_ratio,
    stfm_worstcase_instance,
    tune_gamma,
)


def unit_pool(bids):
    return Mempool([Transaction(i, 1.0, float(b), float(b)) for i, b in enumerate(bids)])


ZPOOL = unit_pool([0, 0, 1, 2])


# ---------------------------------------------------------------------------
# zero-fee inclusion


def test_zti_requires_a_zero_bid():
    with pytest.raises(ParameterError):
        estimate_zti(MechanismSpec.first_price(), unit_pool([1, 2]), 1.0, 10, 0)


def test_zti_posted_price_certificate():
    report = estimate_zti(MechanismSpec.eip1559(1.0), ZPOOL, 2.0, 100, 0)
    assert report.verdict is Verdict.VIOLATED
    assert "base fee" in report.witness["certificate"]
    assert set(report.witness["tx_ids"]) == {0, 1}


def test_zti_deterministic_optimal_certificate():
    report = estimate_zti(MechanismSpec.first_price(), ZPOOL, 2.0, 100, 0)
    assert report.verdict is Verdict.VIOLATED


def test_zti_satisfied_for_randomized_rules():
    assert estimate_zti(MechanismSpec.stfm(1.0), ZPOOL, 2.0, 3000, 1).verdict is Verdict.SATISFIED
    assert estimate_zti(MechanismSpec.rtfm(0.5), ZPOOL, 2.0, 1500, 1).verdict is Verdict.SATISFIED
    assert estimate_zti(MechanismSpec.uniform(), ZPOOL, 2.0, 1500, 1).verdict is Verdict.SATISFIED


def test_zti_splitblock_oversized_certificate():
    m = Mempool([Transaction(0, 1.0, 5.0, 5.0), Transaction(1, 3.0, 0.0, 0.0)])
    report = estimate_zti(MechanismSpec.split_block(0.5), m, 4.0, 50, 0)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness["tx_ids"] == [1]


def test_zti_splitblock_satisfied_when_sizes_fit():
    report = estimate_zti(MechanismSpec.split_block(0.5), unit_pool([5, 3, 0, 0, 0]), 4.0, 400, 1)
    assert report.verdict is Verdict.SATISFIED


def test_zti_splitblock_that_draws_nothing_is_violated():
    # the one posted-fee bidder always fills the one reserved slot, so the zero bid never enters
    report = estimate_zti(MechanismSpec.split_block(0.5, delta=1.0), unit_pool([5, 0, 3, 1]),
                          2.0, 100, 1)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness["tx_ids"] == [1]
    assert report.trials == 1


def _whole_runs(run, trials, seed) -> Tuple[list, bool]:
    """``run(rng)`` on ``default_rng([seed, i])`` for each trial i, or on trial 0 alone
    where that run draws nothing, and whether it drew."""
    rng = np.random.default_rng([seed, 0])
    state = rng.bit_generator.state
    first = run(rng)
    if rng.bit_generator.state == state:
        return [first], False
    return [first] + [run(np.random.default_rng([seed, i])) for i in range(1, trials)], True


def _zti_by_whole_runs(spec, m, capacity, trials, seed) -> str:
    """estimate_zti's report past its analytic certificates, made the plain way: one
    run_mechanism call per trial, each on numpy's own ``default_rng([seed, i])``."""
    zeros = zero_fee_subset(m)
    blocks, drew = _whole_runs(
        lambda rng: run_mechanism(spec, m, capacity, seed=rng).allocation.selected, trials, seed)
    excluded = [tx.id for tx in zeros if tx.id not in blocks[0]]
    if excluded and not drew:
        return PropertyReport(
            "zti", Verdict.VIOLATED,
            {"certificate": "the rule draws no randomness, so every seed leaves these zero bids "
                            "out of the block",
             "tx_ids": excluded},
            1, "certificate over one run that drew no randomness").to_text()
    runs = len(blocks)
    counts = {tx.id: sum(tx.id in b for b in blocks) for tx in zeros if tx.size <= capacity}
    missing = [tid for tid, c in counts.items() if c == 0]
    if not missing:
        return PropertyReport(
            "zti", Verdict.SATISFIED, None, runs,
            f"every feasible zero-bid transaction appeared at least once in {runs} runs").to_text()
    return PropertyReport(
        "zti", Verdict.INCONCLUSIVE,
        {"never_included": missing, "frequencies": {t: c / runs for t, c in counts.items()}},
        runs,
        "some zero-bid transactions never appeared; no analytic zero-probability certificate",
    ).to_text()


# sizes that leave room after a block's cut, and a zero bid too large for a 1.0 block
ZTI_ROWS = [(1.0, 0), (0.5, 0), (1.5, 1), (1.0, 2), (2.0, 0), (0.5, 3)]
ZTI_FLOATS = Mempool([Transaction(i, s, float(b), b + 1.0) for i, (s, b) in enumerate(ZTI_ROWS)])
ZTI_FRACTIONS = Mempool([Transaction(i, Fraction(s), Fraction(b), Fraction(b + 1))
                         for i, (s, b) in enumerate(ZTI_ROWS)])
ZTI_INTS = Mempool([Transaction(i, math.ceil(s), b, b + 1)  # sizes rounded up
                    for i, (s, b) in enumerate(ZTI_ROWS)])


@pytest.mark.parametrize("spec, m, capacity", [
    (MechanismSpec.stfm(1.0), ZTI_FLOATS, 1.0),  # every trial at once
    (MechanismSpec.stfm(1.0), ZTI_FLOATS, 3.0),
    (MechanismSpec.stfm(1.0), ZTI_FRACTIONS, 1.0),  # one trial at a time
    (MechanismSpec.stfm(1.0), ZTI_FRACTIONS, 3.0),
    (MechanismSpec.rtfm(0.0), ZTI_FLOATS, 3.0),
    (MechanismSpec.rtfm(0.3), ZTI_FLOATS, 1.0),
    (MechanismSpec.rtfm(0.3), ZTI_FLOATS, 3.0),
    (MechanismSpec.rtfm(1.0), ZTI_FLOATS, 3.0),
    # reserved sections of 2.25, which every zero bid fits
    (MechanismSpec.split_block(0.25), ZTI_FLOATS, 3.0),
    (MechanismSpec.split_block(0.25, base_fee=0.5), ZTI_FLOATS, 3.0),
    (MechanismSpec.split_block(0.5, delta=1.0), ZTI_FLOATS, 4.5),
    (MechanismSpec.stfm(1.0, PaymentKind.POSTED_PRICE, 0.0), ZTI_FLOATS, 3.0),
    (MechanismSpec.rtfm(0.3, PaymentKind.POSTED_PRICE, 0.0), ZTI_FLOATS, 3.0),
    (MechanismSpec.uniform(), ZTI_FLOATS, 3.0),
    (MechanismSpec.first_price(), ZTI_FLOATS, 3.0),  # draws nothing
], ids=["softmax_1", "softmax_3", "softmax_fractions_1", "softmax_fractions_3", "rtfm_0",
        "rtfm_0.3_1", "rtfm_0.3_3", "rtfm_1", "split_block", "split_block_posted",
        "split_block_fee", "softmax_posted_0", "rtfm_posted_0", "uniform", "knapsack"])
@pytest.mark.parametrize("trials", [1, 5, 500])
@pytest.mark.parametrize("seed", [0, 2**40 + 3])
def test_zti_reports_what_one_whole_run_per_trial_gives(spec, m, capacity, trials, seed):
    assert estimate_zti(spec, m, capacity, trials, seed).to_text() == \
        _zti_by_whole_runs(spec, m, capacity, trials, seed)


def test_two_set_zti_solves_the_paying_knapsack_at_most_once(monkeypatch):
    solves = []
    optimal_rows = mech._optimal_rows
    monkeypatch.setattr(mech, "_optimal_rows", lambda *a, **kw: solves.append(1) or
                        optimal_rows(*a, **kw))
    report = estimate_zti(MechanismSpec.rtfm(0.3), ZPOOL, 2.0, 3000, 42)
    assert report.trials == 3000 and len(solves) <= 1


# ---------------------------------------------------------------------------
# The audits of several arms against one run_mechanism call per trial


def _uic_by_whole_runs(spec, m, capacity, user, bid_grid, trials, seed) -> str:
    """check_uic's report, made from one run_mechanism call per trial at each bid."""
    stats = {}
    for b in bid_grid:
        utils, _ = _whole_runs(lambda rng: run_mechanism(spec, m.with_bid(user, b), capacity,
                                                         seed=rng).user_utilities[user],
                               trials, seed)
        stats[b] = (*_mean_se(utils), len(utils))
    n_runs = max(runs for _, _, runs in stats.values())
    theta = m.get(user).valuation
    best_bid = max(bid_grid, key=lambda b: stats[b][0])
    gain = stats[best_bid][0] - stats[theta][0]
    if gain > 2 * math.sqrt(stats[best_bid][1] ** 2 + stats[theta][1] ** 2) + audit._TOL:
        return PropertyReport(
            "uic", Verdict.VIOLATED,
            {"deviating_bid": best_bid, "expected_gain": gain,
             "truthful_utility": stats[theta][0], "deviating_utility": stats[best_bid][0]},
            n_runs, "a grid bid beats truthful bidding beyond the margin").to_text()
    return PropertyReport(
        "uic", Verdict.SATISFIED, None, n_runs,
        "no grid bid beats truthful bidding beyond the margin (grid-relative verdict)").to_text()


def _mic_by_whole_runs(spec, m, capacity, fake_budget, grid, seed, trials) -> str:
    """search_mic_deviation's report, made from one run_mechanism call per trial of the
    honest rule and of each deviation."""
    grid = list(grid)
    overrides = []  # the rule-level deviations the miner controls, by name
    if spec.allocation is AllocationKind.SOFTMAX:
        overrides = [("greedy_instead_of_sampling",
                      replace(spec, allocation=AllocationKind.OPTIMAL, gamma=None))]
    elif spec.allocation is AllocationKind.SPLIT_BLOCK:
        overrides = [("leave_reserved_section_empty",
                      replace(spec, split=replace(spec.split, demote=False)))]
        if spec.split.delta not in grid:
            grid.append(spec.split.delta)  # the posted fee, as a fake's bid
    next_id = max(m.ids()) + 1
    fake_sets = [({}, ())] + [
        ({"fake_bids": list(combo)},
         tuple(Transaction(next_id + j, 1.0, b, b, fake=True) for j, b in enumerate(combo)))
        for k in range(1, fake_budget + 1)
        for combo in combinations_with_replacement(sorted(set(grid)), k)]
    plays = [(desc, spec, fakes) for desc, fakes in fake_sets] + \
        [(dict(desc, override=name), override, fakes)
         for name, override in overrides for desc, fakes in fake_sets]
    stats = []
    for desc, run_spec, fakes in plays:
        utils, _ = _whole_runs(lambda rng: run_mechanism(run_spec, m, capacity, fakes=fakes,
                                                         seed=rng).miner_utility, trials, seed)
        stats.append((desc, *_mean_se(utils), len(utils)))
    n_runs = max(runs for *_, runs in stats)
    (_, honest, honest_se, _), *deviations = stats
    best = (honest, 0.0, None)
    for desc, value, se, _ in deviations:
        if value > best[0]:
            best = (value, se, desc)
    gain = best[0] - honest
    if gain > 2 * math.sqrt(best[1] ** 2 + honest_se ** 2) + audit._TOL:
        witness = dict(best[2], expected_utility=best[0], honest_utility=honest,
                       expected_gain=gain)
        return PropertyReport("mic", Verdict.VIOLATED, witness, n_runs,
                              "a bounded deviation beats the honest rule beyond the margin"
                              ).to_text()
    return PropertyReport(
        "mic", Verdict.SATISFIED, None, n_runs,
        f"no deviation within fake_budget={fake_budget} and the bid grid beats honesty "
        "(verdict relative to the search bounds)").to_text()


def _monotonicity_by_whole_runs(spec, m, target, epsilons, trials, seed, capacity) -> str:
    """Uncertified estimate_monotonicity's report, made from one run_mechanism call per
    trial at each bid."""
    def rate(bid):
        hits, _ = _whole_runs(lambda rng: target in run_mechanism(
            spec, m.with_bid(target, bid), capacity, seed=rng).allocation.selected, trials, seed)
        p = sum(hits) / len(hits)
        return p, math.sqrt(p * (1 - p) / len(hits)), len(hits)

    base = m.get(target).bid
    p0, se0, runs = rate(base)
    increases = []
    for eps in epsilons:
        p1, se1, runs1 = rate(base + eps)
        runs = max(runs, runs1)
        margin = 2 * math.sqrt(se0 ** 2 + se1 ** 2)
        if p1 - p0 < -margin:
            return PropertyReport(
                "monotonicity", Verdict.VIOLATED,
                {"epsilon": eps, "rate_at_bid": p0, "rate_at_bid_plus_eps": p1}, runs,
                "estimated inclusion dropped by more than two pooled standard errors").to_text()
        increases.append(p1 - p0 > margin)
    if all(increases):
        return PropertyReport(
            "monotonicity", Verdict.SATISFIED, None, runs,
            "every epsilon raised inclusion by more than two pooled standard errors").to_text()
    return PropertyReport("monotonicity", Verdict.INCONCLUSIVE, None, runs,
                          "differences inside the two-standard-error margin").to_text()


def _reports_of(name, spec, m, capacity, trials, seed):
    """The audit's report text on `spec` and its oracle's."""
    if name == "uic":
        args = (spec, m, capacity, 1, [type(m.get(1).bid)(b) for b in (0, 1, 2)], trials, seed)
        return check_uic(*args).to_text(), _uic_by_whole_runs(*args)
    if name == "mic":
        args = (spec, m, capacity, 2, [0.0, 2.0], seed, trials)
        return search_mic_deviation(*args).to_text(), _mic_by_whole_runs(*args)
    args = (spec, m, 0, [1, 3], trials, seed, capacity)
    return (estimate_monotonicity(*args, use_certificates=False).to_text(),
            _monotonicity_by_whole_runs(*args))


MULTI_ARM_POOLS = pytest.mark.parametrize(
    "m, capacity", [(ZTI_FLOATS, 3.0), (ZTI_FRACTIONS, Fraction(3)), (ZTI_INTS, 3)],
    ids=["floats", "fractions", "ints"])


@pytest.mark.parametrize("name", ["mic", "monotonicity", "uic"])
@MULTI_ARM_POOLS
@pytest.mark.parametrize("trials", [1, 5, 300])
@pytest.mark.parametrize("seed", [2, 5])
def test_multi_arm_audits_report_what_one_whole_run_per_trial_gives(name, m, capacity, trials,
                                                                    seed):
    # softmax arms, which step every trial at once; under the posted fee the arms of one
    # call differ in width, since a bid below the fee leaves its row out of the candidates
    posted = MechanismSpec.stfm(1.5, PaymentKind.POSTED_PRICE, 0.5)
    spec = MechanismSpec.stfm(1.0) if name == "mic" else posted
    report, by_whole_runs = _reports_of(name, spec, m, capacity, trials, seed)
    assert report == by_whole_runs


REPLAYED = {  # the rules whose arms replay one fresh trial generator per trial
    "two_set": MechanismSpec.rtfm(0.3),
    "split_block": MechanismSpec.split_block(0.25),
    "split_block_posted": MechanismSpec.split_block(0.25, base_fee=0.5),
    "split_block_fee": MechanismSpec.split_block(0.25, delta=1.0),  # a fee the grid lacks
    "uniform": MechanismSpec.uniform(),
    "knapsack": MechanismSpec.first_price(),
}


@pytest.mark.parametrize("name, rule", [
    *((name, rule) for name in ("monotonicity", "uic")
      for rule in ("two_set", "split_block", "split_block_posted", "uniform", "knapsack")),
    ("mic", "split_block"), ("mic", "split_block_fee"), ("mic", "uniform"),
])
@MULTI_ARM_POOLS
@pytest.mark.parametrize("trials", [1, 5, 300])
@pytest.mark.parametrize("seed", [2, 5])
def test_replayed_audits_report_what_one_whole_run_per_trial_gives(name, rule, m, capacity,
                                                                   trials, seed):
    report, by_whole_runs = _reports_of(name, REPLAYED[rule], m, capacity, trials, seed)
    assert report == by_whole_runs


MEMORY_POOL = unit_pool([i % 5 for i in range(200)])
SOFTMAX_AUDITS = {
    "zti": lambda trials: estimate_zti(MechanismSpec.stfm(1.0), MEMORY_POOL, 50.0, trials, 3),
    "cof": lambda trials: empirical_cof(MechanismSpec.stfm(1.0), MEMORY_POOL, 50.0, trials, 3),
    "mic": lambda trials: search_mic_deviation(MechanismSpec.stfm(1.0), MEMORY_POOL, 50.0, 1,
                                               [0.0], seed=3, trials=trials),
    "uic": lambda trials: check_uic(MechanismSpec.stfm(1.0), MEMORY_POOL, 50.0, 1, [1.0, 2.0],
                                    trials, 3),
    "monotonicity": lambda trials: estimate_monotonicity(
        MechanismSpec.stfm(1.0), MEMORY_POOL, 1, [1.0], trials, 3, 50.0, use_certificates=False),
}


@pytest.mark.parametrize("name", sorted(SOFTMAX_AUDITS))
def test_softmax_audits_draw_their_noise_a_slice_at_a_time(name):
    trials = 4096
    tracemalloc.start()
    try:
        SOFTMAX_AUDITS[name](trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = trials * len(MEMORY_POOL) * 8  # the whole trials x rows matrix of float64 noise
    assert peak < held / 2, (peak, held)


# ---------------------------------------------------------------------------
# monotonicity


def test_monotonicity_certificates():
    cases = [
        (MechanismSpec.uniform(), Verdict.VIOLATED),
        (MechanismSpec.stfm(1.0), Verdict.SATISFIED),
        (MechanismSpec.rtfm(0.3), Verdict.SATISFIED),
        (MechanismSpec.eip1559(1.0), Verdict.SATISFIED),
        (MechanismSpec.first_price(), Verdict.SATISFIED),
    ]
    for spec, expected in cases:
        report = estimate_monotonicity(spec, ZPOOL, 3, [1.0], 100, 1, capacity=2.0)
        assert report.verdict is expected, spec


def test_monotonicity_monte_carlo_detects_softmax_increase():
    m = unit_pool([2, 0, 0])
    report = estimate_monotonicity(MechanismSpec.stfm(1.0), m, 1, [4.0], 4000, 3,
                                   capacity=1.0, use_certificates=False)
    assert report.verdict is Verdict.SATISFIED


def test_monotonicity_monte_carlo_inconclusive_for_uniform():
    report = estimate_monotonicity(MechanismSpec.uniform(), ZPOOL, 3, [1.0], 800, 3,
                                   capacity=2.0, use_certificates=False)
    assert report.verdict is Verdict.INCONCLUSIVE


def test_monotonicity_validation():
    with pytest.raises(ParameterError):
        estimate_monotonicity(MechanismSpec.uniform(), ZPOOL, 99, [1.0], 10, 0, capacity=2.0)
    with pytest.raises(ParameterError):
        estimate_monotonicity(MechanismSpec.uniform(), ZPOOL, 0, [-1.0], 10, 0, capacity=2.0)


@pytest.mark.parametrize("epsilon", [0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("use_certificates", [True, False])
def test_monotonicity_rejects_an_epsilon_that_is_not_positive_and_finite(epsilon,
                                                                        use_certificates):
    with pytest.raises(ParameterError, match="epsilons"):
        estimate_monotonicity(MechanismSpec.uniform(), ZPOOL, 0, [1.0, epsilon], 10, 0,
                              capacity=2.0, use_certificates=use_certificates)


@pytest.mark.parametrize("use_certificates", [True, False])
def test_monotonicity_rejects_an_empty_epsilon_list(use_certificates):
    # with no epsilon there is no comparison, and no verdict to give
    with pytest.raises(ParameterError, match="epsilons"):
        estimate_monotonicity(MechanismSpec.uniform(), ZPOOL, 0, [], 10, 0, capacity=2.0,
                              use_certificates=use_certificates)


# ---------------------------------------------------------------------------
# user incentive compatibility


def test_uic_first_price_underbidding():
    m = unit_pool([2, 5])
    report = check_uic(MechanismSpec.first_price(), m, 1.0, user=1,
                       bid_grid=[3.0, 4.0, 5.0], trials=1, seed=0)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness["deviating_bid"] == 3.0
    assert report.witness["expected_gain"] == pytest.approx(2.0)


def test_uic_posted_price_competitive_base_fee():
    m = unit_pool([5, 5, 5, 3])
    report = check_uic(MechanismSpec.eip1559(2.0), m, 2.0, user=3,
                       bid_grid=[2.0, 3.0, 5.0], trials=1, seed=0)
    assert report.verdict is Verdict.SATISFIED


def test_uic_rtfm_inherits_payment_rule_verdict():
    m = unit_pool([5, 5, 5, 3])
    spec = MechanismSpec.rtfm(0.5, payment=PaymentKind.POSTED_PRICE, base_fee=2.0)
    report = check_uic(spec, m, 2.0, user=3, bid_grid=[2.0, 3.0, 5.0], trials=400, seed=0)
    assert report.verdict is Verdict.SATISFIED
    spec = MechanismSpec.rtfm(0.5)  # first-price payment stays manipulable
    m2 = unit_pool([2, 5])
    report = check_uic(spec, m2, 1.0, user=1, bid_grid=[3.0, 5.0], trials=3000, seed=0)
    assert report.verdict is Verdict.VIOLATED


@pytest.mark.parametrize("seed", [42, 876866727, 13])
def test_uic_split_block_underbidding_to_the_posted_fee(seed):
    """Six posted-fee bids of 1 share two reserved slots at random, so a user
    valuing 3 gains about 0.72 in expectation by bidding 1 and nothing by
    bidding 3: one run cannot show this."""
    m = Mempool([Transaction(i, 1.0, 1.0, 3.0) for i in range(6)]
                + [Transaction(6, 1.0, 5.0, 5.0)])
    report = check_uic(MechanismSpec.split_block(0.5, delta=1.0), m, 4.0, user=0,
                       bid_grid=[1.0, 3.0], trials=500, seed=seed)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness["deviating_bid"] == 1.0
    assert report.trials == 500


def test_audit_run_count_follows_whether_the_rule_draws():
    """One run where the rule draws nothing from its seed, `trials` runs where it draws."""
    plain = unit_pool([2, 3, 5])
    posted_fee_pair = unit_pool([2, 1, 1, 3])
    cases = [
        (MechanismSpec.first_price(), plain, 1),
        (MechanismSpec.eip1559(1.0), plain, 1),
        (MechanismSpec.split_block(0.5, delta=1.0), plain, 1),  # no posted-fee bidder
        (MechanismSpec.uniform(), plain, 50),
        (MechanismSpec.stfm(1.0), plain, 50),
        (MechanismSpec.rtfm(0.5), plain, 50),
        (MechanismSpec.split_block(0.5, delta=1.0), posted_fee_pair, 50),
    ]
    for spec, m, runs in cases:
        report = check_uic(spec, m, 2.0, user=0, bid_grid=[2.0], trials=50, seed=0)
        assert report.trials == runs, spec


def test_audits_need_a_trial():
    with pytest.raises(ParameterError):
        check_uic(MechanismSpec.first_price(), unit_pool([2, 5]), 1.0, 1, [5.0], 0, 0)
    with pytest.raises(ParameterError):
        empirical_cof(MechanismSpec.rtfm(0.5), unit_pool([2, 5]), 1.0, 0, 0)


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("spec", [MechanismSpec.rtfm(0.4), MechanismSpec.first_price()],
                         ids=["rtfm", "first_price"])
def test_a_mic_search_needs_a_trial(spec, trials):
    # the two-set rule's miner utility is an exact mixture of one run, but the budget still counts
    with pytest.raises(ParameterError, match="trials must be at least 1"):
        search_mic_deviation(spec, unit_pool([5, 3, 2]), 2.0, 2, [0.0, 1.0, 5.0], seed=1,
                             trials=trials)


# every audit that takes a trial count, and the search that takes a fake budget
COUNTED_AUDITS = {
    "zti": lambda trials: estimate_zti(MechanismSpec.stfm(1.0), ZPOOL, 2.0, trials, 0),
    "tune_gamma": lambda trials: tune_gamma(ZPOOL, 2.0, 0.2, 2.0, 0.1, 50.0, trials, 0),
    "cof": lambda trials: empirical_cof(MechanismSpec.rtfm(0.5), unit_pool([2, 5]), 1.0, trials,
                                        0),
    "worstcase_draw_ratio": lambda trials: stfm_worstcase_draw_ratio(10, 2, 5.0, 1.0, trials, 0),
    "fake_budget": lambda budget: search_mic_deviation(MechanismSpec.first_price(),
                                                       unit_pool([5, 3]), 1.0, budget, [0.0], 0,
                                                       trials=10),
}


@pytest.mark.parametrize("name", sorted(COUNTED_AUDITS))
@pytest.mark.parametrize("count", [2.5, 2.0, "3", None])
def test_audit_counts_must_be_whole_numbers(name, count):
    parameter = "fake_budget" if name == "fake_budget" else "trials"
    with pytest.raises(ParameterError, match=f"{parameter} must be an integer"):
        COUNTED_AUDITS[name](count)
    COUNTED_AUDITS[name](np.int64(2))  # any integral type


def test_an_audit_rejects_more_than_two_to_the_32_trials_before_drawing():
    # first price draws nothing, so only the budget check stands before a verdict
    with pytest.raises(ParameterError, match="trials must be at most 4294967296"):
        estimate_zti(MechanismSpec.first_price(), ZPOOL, 2.0, 2**32 + 1, 0)


@pytest.mark.parametrize("capacity", [math.nan, -1.0])
def test_certified_audits_reject_a_capacity_outside_the_model(capacity):
    with pytest.raises(ParameterError, match="capacity must be non-negative"):
        estimate_zti(MechanismSpec.eip1559(1.0), ZPOOL, capacity, 10, 0)
    for spec in (MechanismSpec.first_price(), MechanismSpec.uniform(), MechanismSpec.stfm(1.0),
                 MechanismSpec.rtfm(0.3), MechanismSpec.split_block(0.5)):
        with pytest.raises(ParameterError, match="capacity must be non-negative"):
            estimate_monotonicity(spec, ZPOOL, 3, [1.0], 10, 1, capacity=capacity)


def test_certified_audits_take_an_unbounded_block():
    report = estimate_zti(MechanismSpec.eip1559(1.0), ZPOOL, math.inf, 10, 0)
    assert report.verdict is Verdict.VIOLATED and report.trials == 0
    report = estimate_monotonicity(MechanismSpec.uniform(), ZPOOL, 3, [1.0], 10, 1,
                                   capacity=math.inf)
    assert report.verdict is Verdict.VIOLATED and report.trials == 0


BAD_SEEDS = [-1, -2**40, 1.5, 2.0, "3", None]
# every public audit that takes a seed, on inputs it would otherwise accept
SEEDED_AUDITS = {
    "zti": lambda seed: estimate_zti(MechanismSpec.stfm(1.0), ZPOOL, 2.0, 10, seed),
    "monotonicity": lambda seed: estimate_monotonicity(MechanismSpec.stfm(1.0), ZPOOL, 3, [1.0],
                                                       10, seed, capacity=2.0),
    "uic": lambda seed: check_uic(MechanismSpec.first_price(), unit_pool([2, 5]), 1.0, 1, [5.0],
                                  10, seed),
    "mic": lambda seed: search_mic_deviation(MechanismSpec.first_price(), unit_pool([5, 3]), 1.0,
                                             1, [0.0], seed, trials=10),
    "cof": lambda seed: empirical_cof(MechanismSpec.rtfm(0.5), unit_pool([2, 5]), 1.0, 10, seed),
    "tune_gamma": lambda seed: tune_gamma(unit_pool([0, 0, 1, 2]), 2.0, 0.2, 2.0, 0.1, 50.0, 10,
                                          seed),
    "worstcase_draw_ratio": lambda seed: stfm_worstcase_draw_ratio(10, 2, 5.0, 1.0, 10, seed),
}


@pytest.mark.parametrize("name", sorted(SEEDED_AUDITS))
def test_audits_reject_negative_and_non_integral_seeds(name):
    for seed in BAD_SEEDS:
        with pytest.raises(ParameterError, match="seed"):
            SEEDED_AUDITS[name](seed)
    SEEDED_AUDITS[name](np.int64(2**40 + 3))  # any integral type


def test_uic_grid_must_contain_truthful_bid():
    with pytest.raises(ParameterError):
        check_uic(MechanismSpec.first_price(), unit_pool([2, 5]), 1.0, 1, [1.0, 2.0], 1, 0)


# ---------------------------------------------------------------------------
# miner incentive compatibility


def test_mic_splitblock_posted_fee_deviation():
    m = unit_pool([2, 3, 4, 5, 6])
    report = search_mic_deviation(MechanismSpec.split_block(0.75, delta=1.0), m, 8.0,
                                  fake_budget=2, fake_bid_grid=[0.0, 1.0], seed=2)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness["fake_bids"] == [1.0, 1.0]
    assert report.witness["expected_gain"] == pytest.approx(3.0)


def test_mic_first_price_optimal_is_clean():
    m = unit_pool([5, 3, 2])
    report = search_mic_deviation(MechanismSpec.first_price(), m, 2.0,
                                  fake_budget=2, fake_bid_grid=[0.0, 1.0, 5.0], seed=2)
    assert report.verdict is Verdict.SATISFIED


def test_mic_rtfm_is_clean():
    m = unit_pool([5, 3, 2])
    report = search_mic_deviation(MechanismSpec.rtfm(0.4), m, 2.0,
                                  fake_budget=2, fake_bid_grid=[0.0, 1.0, 5.0], seed=2)
    assert report.verdict is Verdict.SATISFIED


def test_mic_softmax_prefers_greedy_override():
    m = unit_pool([5, 5, 4, 4, 0, 0])
    report = search_mic_deviation(MechanismSpec.stfm(1.0), m, 2.0,
                                  fake_budget=2, fake_bid_grid=[0.0, 5.0], seed=2, trials=2000)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness["override"] == "greedy_instead_of_sampling"


@pytest.mark.parametrize("spec", [MechanismSpec.first_price(), MechanismSpec.rtfm(0.4)],
                         ids=["first_price", "rtfm"])
def test_mic_without_fakes_and_overrides_is_clean(spec):
    """Budget 0 plays only the named overrides; a rule with none has nothing to beat honesty."""
    report = search_mic_deviation(spec, unit_pool([5, 3, 2]), 2.0, fake_budget=0,
                                  fake_bid_grid=[0.0, 1.0], seed=2)
    assert report.verdict is Verdict.SATISFIED


def test_mic_budget_zero_still_plays_named_overrides():
    report = search_mic_deviation(MechanismSpec.stfm(1.0), unit_pool([5, 5, 4, 4, 0, 0]), 2.0,
                                  fake_budget=0, fake_bid_grid=[0.0], seed=2, trials=2000)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness["override"] == "greedy_instead_of_sampling"
    assert "fake_bids" not in report.witness


@pytest.mark.parametrize("spec, runs", [
    (MechanismSpec.first_price(), 1),
    (MechanismSpec.eip1559(1.0), 1),
    (MechanismSpec.rtfm(0.4), 1),  # the exact two-point mixture of one paying run
    (MechanismSpec.uniform(), 40),
    (MechanismSpec.stfm(1.0), 40),
], ids=["first_price", "eip1559", "rtfm", "uniform", "softmax"])
def test_mic_reports_the_runs_it_made(spec, runs):
    report = search_mic_deviation(spec, unit_pool([5, 3, 2, 0]), 2.0, fake_budget=1,
                                  fake_bid_grid=[0.0, 5.0], seed=2, trials=40)
    assert report.trials == runs


def test_mic_search_bounds():
    with pytest.raises(ParameterError):
        search_mic_deviation(MechanismSpec.first_price(), unit_pool([1]), 1.0, -1, [0.0], 0)
    with pytest.raises(SolverLimitError):
        search_mic_deviation(MechanismSpec.first_price(), unit_pool([1]), 1.0, 5, [0.0], 0)
    with pytest.raises(SolverLimitError):
        search_mic_deviation(MechanismSpec.first_price(), unit_pool([1]), 1.0, 1,
                             list(range(9)), 0)


def test_mic_witness_replays():
    m = unit_pool([2, 3, 4, 5, 6])
    spec = MechanismSpec.split_block(0.75, delta=1.0)
    report = search_mic_deviation(spec, m, 8.0, 2, [0.0, 1.0], seed=2)
    fakes = [Transaction(100 + j, 1.0, b, b, fake=True)
             for j, b in enumerate(report.witness["fake_bids"])]
    from tfmlab import run_mechanism

    replay = run_mechanism(spec, m, 8.0, fakes=fakes, seed=0)
    honest = run_mechanism(spec, m, 8.0, seed=0)
    assert replay.miner_utility - honest.miner_utility == pytest.approx(
        report.witness["expected_gain"])


# ---------------------------------------------------------------------------
# cost of fairness


def test_cof_split_block_equal_bids_hits_closed_form():
    m = unit_pool([3, 3, 3, 3, 0, 0])
    report = empirical_cof(MechanismSpec.split_block(0.5), m, 4.0, trials=1, seed=0)
    assert report.cof == pytest.approx(2.0)
    assert report.closed_form == pytest.approx(2.0)


def test_cof_rtfm_matches_mixture():
    m = unit_pool([6, 5, 4, 3, 2, 1])
    report = empirical_cof(MechanismSpec.rtfm(0.5), m, 3.0, trials=10_000, seed=0)
    assert report.cof == pytest.approx(2.0, rel=0.05)
    assert report.closed_form == pytest.approx(2.0)
    assert report.cov == pytest.approx(1.0, rel=0.1)


def test_cof_rtfm_on_a_single_transaction_is_the_mixture():
    # neither branch draws on a one-transaction pool; the stratified tosses still mix them
    report = empirical_cof(MechanismSpec.rtfm(0.5), unit_pool([4]), 2.0, trials=400, seed=3)
    assert report.mech_utility_mean == 2.0
    assert report.cof == report.closed_form == 2.0


@pytest.mark.parametrize("capacity", [7.0, math.inf])
def test_cof_softmax_block_larger_than_the_pool_has_no_closed_form(capacity):
    # the softmax bound holds for blocks of 1 to n rows; past n the audit still runs
    report = empirical_cof(MechanismSpec.stfm(1.0), unit_pool([5, 4, 3, 2, 1, 0]), capacity,
                           50, 1)
    assert report.cof == 1.0 and report.closed_form is None
    assert empirical_cof(MechanismSpec.stfm(1.0), unit_pool([5, 4, 3, 2, 1, 0]), 6.0, 50,
                         1).closed_form == stfm_cof_bound(6, 6, 5.0, 1.0)


def test_cof_deterministic_optimal_is_one():
    report = empirical_cof(MechanismSpec.first_price(), unit_pool([5, 4, 3]), 2.0, 1, 0)
    assert report.cof == pytest.approx(1.0)


def test_cof_degenerate_instance_rejected():
    with pytest.raises(DomainError):
        empirical_cof(MechanismSpec.first_price(), unit_pool([0, 0]), 1.0, 1, 0)


def test_stfm_cof_bound_values():
    assert stfm_cof_bound(1000, 100, 1e9, 1.0) == pytest.approx(11.0)
    assert stfm_cof_bound(10, 10, 0.0, 1.0) == pytest.approx(1.0)
    assert stfm_cof_bound(100, 10, 2.0, 1.0) == pytest.approx(11 - math.exp(-2), abs=1e-12)
    with pytest.raises(DomainError):
        stfm_cof_bound(10, 0, 1.0, 1.0)


@pytest.mark.parametrize("args, name", [
    ((3, 1.5, 1.0, 1.0), "c must be an integer"),
    ((3.0, 1, 1.0, 1.0), "n must be an integer"),
    ((3, 1, math.nan, 1.0), "bid must be non-negative"),
    ((3, 1, 1.0, math.nan), "gamma must be finite and above 0"),
    ((3, 1, 1.0, math.inf), "gamma must be finite and above 0"),
    ((2, 3, 1.0, 1.0), "need 1 <= c <= n"),
])
def test_stfm_cof_bound_rejects_inputs_outside_the_model(args, name):
    with pytest.raises(ParameterError, match=name):
        stfm_cof_bound(*args)


@pytest.mark.parametrize("n, c, name", [
    (3, 1.5, "c must be an integer"),
    (3.0, 1, "n must be an integer"),
    (3, 0, "c must be at least 1"),
    (2, 3, "need 1 <= c <= n"),
])
def test_stfm_worstcase_instance_rejects_a_block_outside_the_pool(n, c, name):
    with pytest.raises(ParameterError, match=name):
        stfm_worstcase_instance(n, c, 1.0)


def test_stfm_worstcase_instance_shape():
    m = stfm_worstcase_instance(10, 3, 5.0)
    bids = [tx.bid for tx in m]
    assert bids == [5.0] * 3 + [0.0] * 7
    assert all(tx.size == 1.0 for tx in m)


def test_stfm_worstcase_draw_ratio_tracks_bound():
    report = stfm_worstcase_draw_ratio(100, 10, 5.0, 1.0, trials=20_000, seed=4)
    assert report.cof == pytest.approx(report.closed_form, rel=0.05)


# ---------------------------------------------------------------------------
# coefficient of variation


def test_cov_closed_forms():
    assert rtfm_cov_closed_form(0.5) == pytest.approx(1.0)
    assert rtfm_cov_closed_form(0.2) == pytest.approx(2.0)
    assert rtfm_cov_closed_form(0.999) < 0.05  # vanishes as the bias approaches one
    for bad in (0.0, 1.0, -1, 2):
        with pytest.raises(DomainError):
            rtfm_cov_closed_form(bad)


def test_sampled_cov_matches_complementary_labeling():
    """Realized utilities keep the optimal set with probability 1 - phi, so
    their sample CoV equals the closed form evaluated at the complement."""
    m = unit_pool([6, 5, 4, 3])
    phi = 0.2
    report = empirical_cof(MechanismSpec.rtfm(phi), m, 2.0, trials=4000, seed=1)
    assert report.cov == pytest.approx(rtfm_cov_closed_form(1 - phi), rel=0.05)


# ---------------------------------------------------------------------------
# temperature tuning


def tuning_pool():
    return unit_pool([5.0] * 10 + [0.0] * 10)


def test_tune_gamma_vacuous_constraint():
    assert tune_gamma(tuning_pool(), 10.0, 0.2, math.inf, 0.1, 50.0, 10, 0) == 0.1


def test_tune_gamma_all_zero_bids():
    m = unit_pool([0.0] * 8)
    gamma = tune_gamma(m, 4.0, 0.5, 1.0, 0.1, 50.0, 200, 0)
    assert gamma == 0.1  # any temperature satisfies the ratio on a zero-fee pool


def test_tune_gamma_finds_interior_temperature():
    m = tuning_pool()
    gamma = tune_gamma(m, 10.0, 0.2, 2.0, 0.1, 50.0, trials=400, seed=3)
    assert 0.1 < gamma < 50.0
    tighter = tune_gamma(m, 10.0, 0.2, 0.5, 0.1, 50.0, trials=400, seed=3)
    assert tighter >= gamma


def test_tune_gamma_validation():
    with pytest.raises(ParameterError):
        tune_gamma(tuning_pool(), 10.0, 0.2, 2.0, 5.0, 1.0, 10, 0)
    with pytest.raises(ParameterError):
        tune_gamma(tuning_pool(), 10.0, 2.0, 2.0, 0.1, 1.0, 10, 0)


@pytest.mark.parametrize("phi_ratio, gamma_lo, gamma_hi", [
    (2.0, 0.1, math.inf), (2.0, math.inf, math.inf), (2.0, math.nan, 50.0),
    (2.0, 0.1, math.nan), (math.nan, 0.1, 50.0),
])
def test_tune_gamma_rejects_an_infinite_bound_or_a_nan_ratio(phi_ratio, gamma_lo, gamma_hi):
    # an infinite bound once kept the bisection at an infinite midpoint forever, and a
    # NaN ratio compared false everywhere and settled on gamma_hi
    with pytest.raises(ParameterError):
        tune_gamma(tuning_pool(), 10.0, 0.2, phi_ratio, gamma_lo, gamma_hi, 10, 0)


# ---------------------------------------------------------------------------
# report serialization


def test_report_serialization():
    report = estimate_zti(MechanismSpec.eip1559(1.0), ZPOOL, 2.0, 10, 0)
    text = report.to_text()
    assert "property=zti" in text and "verdict=violated" in text
