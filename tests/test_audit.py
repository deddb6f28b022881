import math

import numpy as np
import pytest

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
