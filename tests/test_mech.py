import math
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest

from tfmlab import (
    AllocationKind,
    BaseFeeState,
    BidDistribution,
    ConfigError,
    MechanismSpec,
    Mempool,
    ParameterError,
    PaymentKind,
    SplitBlockConfig,
    Transaction,
    estimate_monotonicity,
    is_excessively_low,
    run_mechanism,
    sample_mempool,
    spec_from_config,
    spec_from_fields,
    spec_to_config,
    tune_gamma,
    uniform_allocate,
    update_base_fee,
)
from tfmlab import _trials, mech
from tfmlab.mech import MechanismOutcome, _arm
from tfmlab._trials import _Blocks, _batched


def unit_pool(bids):
    return Mempool([Transaction(i, 1.0, float(b), float(b)) for i, b in enumerate(bids)])


def test_first_price_certificate_instance():
    m = Mempool([Transaction(i, 10.0, float(b), float(b))
                 for i, b in enumerate([10, 10, 5, 0, 0])])
    out = run_mechanism(MechanismSpec.first_price(), m, 30.0)
    assert out.miner_utility == 250.0
    assert out.allocation.selected == (0, 1, 2)
    for t in out.allocation.selected:
        assert out.payment_per_unit[t] == m.get(t).bid
        assert out.burn_per_unit[t] == 0.0


def test_second_price_lowest_winning_bid():
    out = run_mechanism(MechanismSpec.second_price(), unit_pool([5, 4, 3]), 2.0)
    assert out.allocation.selected == (0, 1)
    assert out.payment_per_unit == {0: 4.0, 1: 4.0}


def test_second_price_single_winner_pays_own_bid():
    out = run_mechanism(MechanismSpec.second_price(), unit_pool([5]), 1.0)
    assert out.payment_per_unit == {0: 5.0}


def test_posted_price_payment_and_burn():
    m = Mempool([Transaction(0, 2.0, 5.0, 5.0)])
    out = run_mechanism(MechanismSpec.eip1559(2.0), m, 10.0)
    assert out.payment_per_unit[0] == 3.0
    assert out.burn_per_unit[0] == 2.0
    assert out.user_utilities[0] == 0.0
    assert out.miner_utility == 6.0


def test_posted_price_filters_low_bids():
    m = unit_pool([5, 1, 0])
    out = run_mechanism(MechanismSpec.eip1559(2.0), m, 3.0)
    assert out.allocation.selected == (0,)
    # payment plus burn exhausts the bid for everything included
    for t in out.allocation.selected:
        assert out.payment_per_unit[t] + out.burn_per_unit[t] == m.get(t).bid


def test_budget_decomposition_without_fakes():
    rng = np.random.default_rng(3)
    for spec in (MechanismSpec.first_price(), MechanismSpec.second_price(),
                 MechanismSpec.eip1559(1.0), MechanismSpec.stfm(1.0),
                 MechanismSpec.uniform()):
        m = sample_mempool(12, BidDistribution.uniform(0, 5),
                           BidDistribution.exponential(1), seed=int(rng.integers(1 << 30)))
        out = run_mechanism(spec, m, 4.0, seed=5)
        spend = sum(m.get(t).size * (out.payment_per_unit[t] + out.burn_per_unit[t])
                    for t in out.allocation.selected)
        burn = sum(m.get(t).size * out.burn_per_unit[t] for t in out.allocation.selected)
        assert out.miner_utility + burn == pytest.approx(spend, abs=1e-9)


def test_rtfm_rand_branch_pays_nothing():
    m = unit_pool([5, 4, 3, 0])
    out = run_mechanism(MechanismSpec.rtfm(0.5), m, 2.0, seed=1, rtfm_toss=0)
    assert out.coin_toss == 0
    assert out.miner_utility == 0.0
    assert all(v == 0.0 for v in out.payment_per_unit.values())
    out = run_mechanism(MechanismSpec.rtfm(0.5), m, 2.0, seed=1, rtfm_toss=1)
    assert out.coin_toss == 1
    assert out.miner_utility == 9.0


def test_deterministic_specs_repeat_exactly():
    m = unit_pool([5, 4, 3, 2])
    for spec in (MechanismSpec.first_price(), MechanismSpec.eip1559(1.0)):
        a = run_mechanism(spec, m, 2.0, seed=1)
        b = run_mechanism(spec, m, 2.0, seed=999)
        assert a.allocation.selected == b.allocation.selected
        assert a.payment_per_unit == b.payment_per_unit
        assert a.miner_utility == b.miner_utility


def test_fakes_route_payment_back_to_miner():
    m = unit_pool([5, 4])
    fakes = [Transaction(10, 1.0, 6.0, 6.0, fake=True)]
    out = run_mechanism(MechanismSpec.uniform(), m, 3.0, fakes=fakes, seed=2)
    assert 10 in set(out.allocation.selected)
    # the fake's first-price payment does not count as revenue
    assert out.miner_utility == sum(m.get(t).bid for t in set(out.allocation.selected) & {0, 1})


def test_fake_validation():
    m = unit_pool([5])
    with pytest.raises(ParameterError):
        run_mechanism(MechanismSpec.first_price(), m, 1.0,
                      fakes=[Transaction(3, 1.0, 1.0, 1.0)])
    with pytest.raises(ParameterError):
        run_mechanism(MechanismSpec.first_price(), m, 1.0,
                      fakes=[Transaction(0, 1.0, 1.0, 1.0, fake=True)])


def test_update_base_fee():
    assert update_base_fee(BaseFeeState(8.0), 11, 10).lam == pytest.approx(9.0)
    assert update_base_fee(BaseFeeState(8.0), 10, 10).lam == pytest.approx(7.0)
    assert update_base_fee(BaseFeeState(0.0), 99, 10).lam == 0.0
    assert update_base_fee(BaseFeeState(8.0, step=0.25), 11, 10).lam == pytest.approx(10.0)
    with pytest.raises(ParameterError):
        BaseFeeState(8.0, step=1.5)


def test_is_excessively_low():
    m = unit_pool([5, 5, 5])
    assert is_excessively_low(6.0, m, 3.0)          # nothing valued above the fee
    assert is_excessively_low(4.0, m, 3.0)          # demand 3 fits capacity 3
    assert not is_excessively_low(0.0, m, 2.0)      # demand 3 exceeds capacity 2


def test_base_fee_helpers_reject_nan():
    # NaN compares false, which would lower the fee and read as an excessively low fee
    m = unit_pool([5, 5, 5])
    with pytest.raises(ParameterError, match="block size"):
        update_base_fee(BaseFeeState(1.0), math.nan, 1.0)
    with pytest.raises(ParameterError, match="capacity"):
        update_base_fee(BaseFeeState(1.0), 1.0, math.nan)
    with pytest.raises(ParameterError, match="lambda"):
        is_excessively_low(math.nan, m, 1.0)
    with pytest.raises(ParameterError, match="capacity"):
        is_excessively_low(1.0, m, math.nan)


def test_spec_validation():
    with pytest.raises(ParameterError):
        MechanismSpec(AllocationKind.SOFTMAX)  # missing gamma
    with pytest.raises(ParameterError):
        MechanismSpec(AllocationKind.RTFM, phi=1.5)
    with pytest.raises(TypeError):  # the burn follows the payment rule; there is no knob
        MechanismSpec(AllocationKind.OPTIMAL, PaymentKind.FIRST_PRICE, burning="posted")
    with pytest.raises(ParameterError):
        MechanismSpec(AllocationKind.OPTIMAL, PaymentKind.POSTED_PRICE)  # missing lambda


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    pytest.param(lambda: MechanismSpec.eip1559(NAN), id="base_fee-nan"),
    pytest.param(lambda: MechanismSpec.eip1559(INF), id="base_fee-inf"),
    pytest.param(lambda: MechanismSpec.split_block(0.5, 1.0, base_fee=NAN), id="split-base_fee-nan"),
    pytest.param(lambda: MechanismSpec.stfm(INF), id="gamma-inf"),
    pytest.param(lambda: MechanismSpec.split_block(0.5, delta=NAN), id="delta-nan"),
    pytest.param(lambda: MechanismSpec.split_block(0.5, delta=INF), id="delta-inf"),
    pytest.param(lambda: SplitBlockConfig(0.5, INF), id="config-delta-inf"),
    pytest.param(lambda: BaseFeeState(NAN), id="lam-nan"),
    pytest.param(lambda: BaseFeeState(INF), id="lam-inf"),
])
def test_non_finite_mechanism_parameters_are_parameter_errors(make):
    # each once gave a silent degenerate block: an empty reserved section, an empty block
    with pytest.raises(ParameterError, match="finite"):
        make()


def test_spec_config_round_trip():
    specs = [
        MechanismSpec.first_price(),
        MechanismSpec.eip1559(1.5),
        MechanismSpec.stfm(2.0),
        MechanismSpec.rtfm(0.3),
        MechanismSpec.split_block(0.75, delta=1.0),
    ]
    for spec in specs:
        assert spec_from_config(spec_to_config(spec)) == spec
    text = spec_to_config(MechanismSpec.stfm(2.0))
    assert "allocation=softmax" in text and "gamma=2" in text


def test_split_block_keeps_a_zero_posted_fee():
    # a zero fee is still a posted price: it is written as lambda=0, and it pays floats
    spec = MechanismSpec.split_block(0.5, 1.0, base_fee=0.0)
    posted = MechanismSpec(AllocationKind.SPLIT_BLOCK, PaymentKind.POSTED_PRICE,
                           split=SplitBlockConfig(0.5, 1.0), base_fee=0.0)
    assert spec == posted
    assert "payment=posted\nlambda=0\n" in spec_to_config(spec)
    assert spec_from_config(spec_to_config(spec)) == spec
    m = Mempool([Transaction(i, Fraction(1), Fraction(b), Fraction(b))
                 for i, b in enumerate([3, 2, 1, 0])])
    out = run_mechanism(spec, m, 4, seed=0)
    assert out.allocation.selected == (0, 1, 2)
    assert [repr(p) for p in out.payment_per_unit.values()] == ["3.0", "1.0", "1.0"]


def test_spec_to_config_rejects_a_demotion_the_format_cannot_state():
    for demote in (False, True):
        spec = MechanismSpec(AllocationKind.SPLIT_BLOCK, split=SplitBlockConfig(0.5, 1.0, demote))
        with pytest.raises(ParameterError, match="demotion"):
            spec_to_config(spec)


def test_spec_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        spec_from_config("allocation=softmax\ngamma=2\nbogus=1\n")
    with pytest.raises(ConfigError):
        spec_from_config("allocation=warp\n")
    with pytest.raises(ConfigError):
        spec_from_config("payment=fpa\n")
    with pytest.raises(ConfigError, match="not mechanism"):
        spec_from_config("allocation = rtfm\nphi = 0.5\nn = 100\n")
    for text in ("allocation = optimal\npayment = dutch", "allocation = rtfm\nphi = half",
                 "allocation = splitblock\nalpha = x", "allocation = splitblock\nalpha = 2",
                 "allocation = optimal\nburning = sometimes"):
        with pytest.raises(ConfigError):
            spec_from_config(text)


@pytest.mark.parametrize("value", ["none", "posted"])
def test_burning_is_not_a_config_key(value):
    # the burn follows the payment rule: posted price burns the base fee, nothing else burns
    with pytest.raises(ConfigError, match="unknown config key 'burning'"):
        spec_from_config(f"allocation = optimal\npayment = posted\nlambda = 1\nburning = {value}\n")
    out = run_mechanism(spec_from_config("allocation = optimal\npayment = posted\nlambda = 1\n"),
                        unit_pool([3, 2]), 2.0)
    assert out.burn_per_unit == {0: 1.0, 1: 1.0}
    assert "burning" not in spec_to_config(MechanismSpec.eip1559(1.0))


def test_spec_config_accepts_inline_comments_like_the_sweep_parser():
    from tfmlab.experiments import parse_config_text

    text = "allocation = rtfm  # two-set\nphi = 0.5\n"
    assert spec_from_config(text) == MechanismSpec.rtfm(0.5)
    assert spec_from_fields(parse_config_text(text)) == MechanismSpec.rtfm(0.5)


F = Fraction
FPA, SPA, POSTED = PaymentKind.FIRST_PRICE, PaymentKind.SECOND_PRICE, PaymentKind.POSTED_PRICE
# By hand, for the block of rows 2, 0, the fake 3 and 1 (sizes 1, 1, 1 and 2, bids 2, 3, 2
# and 1), with row 1 in the reserved section or not, at delta = base fee = 1/2: payment and
# burn per unit in block order, the miner's utility and users 0, 1 and 2's, each as a
# Fraction pool gives it; a float pool gives every one as a float.
HAND_PRICES = {
    (FPA, False): ([F(2), F(3), F(2), F(1)], [0.0] * 4, 7.0, [1.0, 1.0, 3.0]),
    (FPA, True): ([F(2), F(3), F(2), F(1, 2)], [0.0] * 4, 6.0, [1.0, 2.0, 3.0]),
    (SPA, False): ([F(1)] * 4, [0.0] * 4, 4.0, [3.0, 1.0, 4.0]),
    (SPA, True): ([F(2), F(2), F(2), F(1, 2)], [0.0] * 4, 5.0, [2.0, 2.0, 3.0]),
    (POSTED, False): ([F(3, 2), F(5, 2), F(3, 2), F(1, 2)], [F(1, 2)] * 4, 4.5,
                      [F(1), F(1), F(3)]),
    (POSTED, True): ([F(3, 2), F(5, 2), F(3, 2), F(1, 2)], [F(1, 2)] * 3 + [0.0], 4.5,
                     [F(1), 2.0, F(3)]),
}
NO_PAY = ([0.0] * 4, [0.0] * 4, 0.0, [4.0, 3.0, 5.0])  # the two-set zero-pay branch
# the miner's and the users' utilities when the block takes rows 2 and 0 alone, with or
# without the reserved section (None: no pay)
HAND_FIRST_TWO = {FPA: (5.0, [1.0, 0.0, 3.0]), SPA: (4.0, [2.0, 0.0, 3.0]),
                  POSTED: (4.0, [F(1), 0.0, F(3)]), None: (0.0, [4.0, 0.0, 5.0])}


@pytest.mark.parametrize("number", [float, Fraction])
@pytest.mark.parametrize("pays", [True, False])
@pytest.mark.parametrize("payment, reserved", list(HAND_PRICES))
def test_prices_by_hand_in_one_block_and_in_a_batch(payment, reserved, pays, number):
    half = number(1) / 2
    m = Mempool([Transaction(i, number(size), number(bid), number(value))
                 for i, (size, bid, value) in enumerate([(1, 3, 4), (2, 1, 3 * half), (1, 2, 5)])])
    fake = Transaction(3, number(1), number(2), number(2), fake=True)
    spec = MechanismSpec(AllocationKind.SPLIT_BLOCK, payment, split=SplitBlockConfig(0.5, half),
                         base_fee=half if payment is POSTED else None)
    arm = _arm(spec, m, number(5), [fake])
    rows, total = np.array([2, 0, 3, 1]), number(5)
    section = np.array([False, False, False, True]) if reserved else None
    expected = (HAND_PRICES[payment, reserved] if pays else NO_PAY) \
        + HAND_FIRST_TWO[payment if pays else None]
    if number is float:
        expected = tuple(float(v) if not isinstance(v, list) else [float(x) for x in v]
                         for v in expected)
    pay, burn, miner, users, first_two_miner, first_two_users = (repr(v) for v in expected)

    toss = None if pays else 0
    one = _Blocks(arm, rows[None], np.ones((1, 4), bool), np.array([total]),
                  None if section is None else section[None], toss)
    out = MechanismOutcome(one.allocation, toss, arm, one)  # the reserved row is last already
    assert (repr(list(out.payment_per_unit.values())),
            repr(list(out.burn_per_unit.values()))) == (pay, burn)
    assert repr(out.miner_utility) == miner
    assert repr([out.user_utilities[i] for i in range(3)]) == users

    one = _Blocks(arm, rows[None], np.ones((1, 4), bool), np.array([total]),
                  None if section is None else section[None], toss)
    # the block reversed, then with rows 2 and 0 taken alone, then as it is
    three = _Blocks(arm, np.stack([rows[::-1], rows, rows]),
                    np.array([[True] * 4, [True, True, False, False], [True] * 4]),
                    np.array([total] * 3),
                    None if section is None else np.stack([section[::-1], section, section]),
                    toss)
    for blocks, t in ((one, 0), (three, 0), (three, 2)):
        assert repr(blocks.miner_utility.tolist()[t]) == miner
        assert repr(blocks.user_utility[t].tolist()) == users
    assert repr(three.miner_utility.tolist()[1]) == first_two_miner
    assert repr(three.user_utility[1].tolist()) == first_two_users


def test_one_split_block_step_serves_every_trial():
    # the posted-fee rows' order decides whether the demoted bids 2 and 3 still
    # fit the reserved section, and with them what is left for the paid knapsack
    m = Mempool([Transaction(0, 2.5, 1.0, 1.0), Transaction(1, 1.0, 1.0, 1.0),
                 Transaction(2, 1.0, 1.0, 1.0), Transaction(3, 1.0, 2.0, 2.0),
                 Transaction(4, 1.0, 3.0, 3.0), Transaction(5, 2.0, 4.0, 4.0)])
    spec = MechanismSpec.split_block(0.5, delta=1.0)
    arm = _arm(spec, m, 8.0)
    kind, width, step = _batched(arm)
    blocks = step(np.array([np.random.default_rng(seed).permutation(width) for seed in range(12)]))
    selected = set()
    for seed in range(12):
        out = run_mechanism(spec, m, 8.0, seed=seed)
        rows = blocks.rows[seed][blocks.taken[seed]]
        assert tuple(arm.pool.columns.ids[rows].tolist()) == out.allocation.selected
        assert blocks.miner_utility[seed] == out.miner_utility
        selected.add(out.allocation.selected)
    assert len(selected) > 1


# the two-set rule's step, against the uniform allocator and the knapsack rule it replaces
TWO_SET_NUMBERS = {"float": float, "int": int, "fraction": lambda v: Fraction(v, 2)}


def _two_set_case(number, posted: bool):
    """A two-set spec, pool, capacity and fake, of `number` values, under first or posted
    price."""
    m = Mempool([Transaction(i, number(1 + i % 3), number(b), number(b))
                 for i, b in enumerate([4, 0, 3, 5, 1, 0, 2, 6])])
    fakes = (Transaction(8, number(1), number(2), number(2), fake=True),)
    spec = MechanismSpec.rtfm(0.5, PaymentKind.POSTED_PRICE, number(2)) if posted \
        else MechanismSpec.rtfm(0.5)
    return spec, m, number(7), fakes


@pytest.mark.parametrize("posted", [False, True], ids=["first_price", "posted"])
@pytest.mark.parametrize("number", sorted(TWO_SET_NUMBERS))
def test_the_two_set_zero_pay_branch_is_the_uniform_allocator_over_the_pool(number, posted):
    spec, m, capacity, fakes = _two_set_case(TWO_SET_NUMBERS[number], posted)
    pool = m.extend(fakes)
    for seed in range(20):
        stepped, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        out = run_mechanism(spec, m, capacity, fakes, seed=stepped, rtfm_toss=0)
        expected = uniform_allocate(pool, capacity, oracle)
        assert out.allocation.selected == expected.selected
        assert out.allocation.total_size == expected.total_size
        assert type(out.allocation.total_size) is type(expected.total_size)
        assert out.coin_toss == 0 and out.miner_utility == 0.0
        assert not any(out.payment_per_unit.values()) and not any(out.burn_per_unit.values())
        assert stepped.bit_generator.state == oracle.bit_generator.state
        # a drawn toss comes first, then the same permutation on either branch
        stepped, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        out = run_mechanism(spec, m, capacity, fakes, seed=stepped)
        if oracle.random() < spec.phi:
            assert out.coin_toss == 0
            assert out.allocation.selected == uniform_allocate(pool, capacity, oracle).selected
        else:
            assert out.coin_toss == 1
            oracle.permutation(len(pool))
        assert stepped.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("posted", [False, True], ids=["first_price", "posted"])
@pytest.mark.parametrize("number", sorted(TWO_SET_NUMBERS))
def test_the_two_set_paying_branch_is_one_block_whatever_the_generator(number, posted):
    spec, m, capacity, fakes = _two_set_case(TWO_SET_NUMBERS[number], posted)
    knapsack = run_mechanism(replace(spec, allocation=AllocationKind.OPTIMAL, phi=None), m,
                             capacity, fakes)
    paying = run_mechanism(spec, m, capacity, fakes, seed=0, rtfm_toss=1)
    assert paying.coin_toss == 1 and knapsack.coin_toss is None
    assert paying.allocation.selected == knapsack.allocation.selected
    assert repr(paying.allocation.total_size) == repr(knapsack.allocation.total_size)
    assert repr(paying.payment_per_unit) == repr(knapsack.payment_per_unit)
    assert repr(paying.burn_per_unit) == repr(knapsack.burn_per_unit)
    assert repr(paying.miner_utility) == repr(knapsack.miner_utility)
    for seed in range(1, 10):
        zero_pay, paid = np.random.default_rng(seed), np.random.default_rng(seed)
        run_mechanism(spec, m, capacity, fakes, seed=zero_pay, rtfm_toss=0)
        assert run_mechanism(spec, m, capacity, fakes, seed=paid,
                             rtfm_toss=1)._block is paying._block
        # both branches make the same generator calls
        assert zero_pay.bit_generator.state == paid.bit_generator.state


# run_mechanism reuses the arm it ran last when it gets the very same inputs


def _everything(out):
    """All an outcome tells, each number by its repr, so that types and signs count."""
    a = out.allocation
    return (a.selected, repr(a.total_size), repr(a.capacity), sorted(a.sections.items()),
            repr(out.miner_utility), out.coin_toss, repr(out.payment_per_unit),
            repr(out.burn_per_unit), repr(out.user_utilities))


def _fresh(*args, **kwargs):
    """run_mechanism on an arm armed for this call alone."""
    mech._last_run = ((), None)
    return run_mechanism(*args, **kwargs)


@pytest.fixture
def prepared(monkeypatch):
    """The arms run_mechanism arms from here on."""
    arms, one_trial = [], mech._one_trial
    monkeypatch.setattr(mech, "_one_trial", lambda arm: arms.append(arm) or one_trial(arm))
    monkeypatch.setattr(mech, "_last_run", ((), None))
    return arms


@pytest.mark.parametrize("spec", [
    MechanismSpec.first_price(), MechanismSpec.second_price(), MechanismSpec.eip1559(1.0),
    MechanismSpec.uniform(), MechanismSpec.stfm(1.0), MechanismSpec.rtfm(0.4),
    MechanismSpec.split_block(0.5, delta=1.0), MechanismSpec.split_block(0.5, 1.0, 0.5),
], ids=["first_price", "second_price", "eip1559", "uniform", "softmax", "rtfm", "split_block",
        "split_block_posted"])
def test_a_reused_arm_gives_what_a_fresh_call_gives(prepared, spec):
    m = Mempool([Transaction(i, s, b, b + 1) for i, (s, b) in
                 enumerate([(1.0, 0.0), (0.5, 1.0), (1.5, 2.0), (1.0, 3.0), (2.0, 1.0)])])
    fakes = [Transaction(9, 1.0, 1.0, 1.0, fake=True)]
    tosses = (None, 0, 1) if spec.allocation is AllocationKind.RTFM else (None,)
    calls = [(seed, tosses[seed % len(tosses)]) for seed in range(9)]
    reused = [run_mechanism(spec, m, 4.0, fakes, seed=seed, rtfm_toss=toss)
              for seed, toss in calls]
    assert len(prepared) == 1
    for (seed, toss), out in zip(calls, reused):
        assert _everything(out) == _everything(
            _fresh(spec, m, 4.0, fakes, seed=seed, rtfm_toss=toss))


def test_equal_but_distinct_inputs_prepare_their_own_arm(prepared):
    m = Mempool([Transaction(i, 1 + i % 2, b, b) for i, b in enumerate([3, 0, 2, 1])])
    calls = [(spec, capacity, ())
             for spec in (MechanismSpec.uniform(), MechanismSpec.split_block(0.5, delta=1))
             for capacity in (2, 2.0, Fraction(2))]
    # equal fakes, one with int and one with float numbers
    fakes = [(Transaction(9, 1, 1, 1, fake=True),), (Transaction(9, 1.0, 1.0, 1.0, fake=True),)]
    assert fakes[0] == fakes[1]
    calls += [(MechanismSpec.uniform(), 3, f) for f in fakes]
    for seed in range(6):
        for spec, capacity, f in calls:
            out = run_mechanism(spec, m, capacity, f, seed=seed)
            assert _everything(out) == _everything(_fresh(spec, m, capacity, f, seed=seed))
    assert len(prepared) == 2 * len(calls) * 6
    # the float fake turns the total into a float whenever it is taken
    totals = {type(run_mechanism(MechanismSpec.uniform(), m, 3, f, seed=seed).allocation
                   .total_size) for f in fakes for seed in range(6)}
    assert totals == {int, float}


def test_a_nan_capacity_raises_on_every_call():
    m, nan = unit_pool([1, 2]), float("nan")
    for spec in (MechanismSpec.first_price(), MechanismSpec.uniform()):
        run_mechanism(spec, m, 2.0)
        for _ in range(3):
            with pytest.raises(ParameterError, match="capacity"):
                run_mechanism(spec, m, nan)


def test_a_reused_uniform_arm_looks_up_the_allocator_at_call_time(prepared, monkeypatch):
    spec, m = MechanismSpec.uniform(), unit_pool([0, 1, 2])
    first = run_mechanism(spec, m, 2.0, seed=1)
    calls = []
    monkeypatch.setattr(mech, "uniform_allocate",
                        lambda *args: calls.append(args) or uniform_allocate(*args))
    second = run_mechanism(spec, m, 2.0, seed=1)
    assert len(prepared) == 1 and len(calls) == 1
    assert second.allocation.selected == first.allocation.selected


def _counting_prices(monkeypatch) -> list:
    """The calls of ``_unit_prices`` that blocks make from here on."""
    calls, unit_prices = [], _trials._unit_prices
    monkeypatch.setattr(_trials, "_unit_prices",
                        lambda *args, **kw: calls.append(1) or unit_prices(*args, **kw))
    return calls


def test_a_reused_uniform_run_read_for_its_allocation_prices_nothing(prepared, monkeypatch):
    spec, m = MechanismSpec.uniform(), unit_pool([0, 0, 1, 2])
    run_mechanism(spec, m, 2.0, seed=1)
    calls = _counting_prices(monkeypatch)
    out = run_mechanism(spec, m, 2.0, seed=2)
    assert len(out.allocation.selected) == 2 and out.allocation.total_size == 2.0
    assert len(prepared) == 1 and calls == []


@pytest.mark.parametrize("spec", [MechanismSpec.uniform(), MechanismSpec.second_price(),
                                  MechanismSpec.split_block(0.5, delta=1.0)],
                         ids=["uniform", "second_price", "split_block"])
def test_the_miner_utility_and_the_payments_share_one_pricing(spec, monkeypatch):
    m = unit_pool([1, 0, 1, 2, 3])
    calls = _counting_prices(monkeypatch)
    out = run_mechanism(spec, m, 3.0, seed=4)
    read = [len(calls)]
    for field in ("miner_utility", "payment_per_unit", "burn_per_unit", "user_utilities"):
        getattr(out, field)
        read.append(len(calls))
    assert read == [0, 1, 1, 1, 1]
    assert out.miner_utility == sum(out.payment_per_unit.values())


def test_a_uniform_outcome_holds_the_allocators_own_result(prepared, monkeypatch):
    spec, m = MechanismSpec.uniform(), unit_pool([0, 1, 2, 3])
    returned = []
    monkeypatch.setattr(mech, "uniform_allocate",
                        lambda *args: returned.append(uniform_allocate(*args)) or returned[-1])
    outs = [run_mechanism(spec, m, 2.0, seed=seed) for seed in range(3)]
    assert len(prepared) == 1 and len(returned) == 3
    assert all(out.allocation is result for out, result in zip(outs, returned))


OUTCOME_FIELDS = ("payment_per_unit", "burn_per_unit", "user_utilities", "miner_utility",
                  "__repr__")


@pytest.mark.parametrize("first", OUTCOME_FIELDS)
@pytest.mark.parametrize("spec", [
    MechanismSpec.uniform(),
    MechanismSpec(AllocationKind.UNIFORM, PaymentKind.POSTED_PRICE, base_fee=0.5),
], ids=["first_price", "posted"])
def test_a_uniform_outcome_reads_the_same_whichever_field_comes_first(spec, first):
    # ids out of row order and a fake: the block looks up its rows on the first read
    m = Mempool([Transaction(i, s, b, b + 1) for i, s, b in
                 [(40, 1.0, 0.0), (7, 0.5, 1.0), (23, 1.5, 2.0), (5, 1.0, 3.0), (11, 2.0, 1.0)]])
    fakes = [Transaction(2, 1.0, 1.0, 1.0, fake=True)]

    def read(out, name):
        return repr(out) if name == "__repr__" else repr(getattr(out, name))

    for seed in range(6):
        reference = _fresh(spec, m, 4.0, fakes, seed=seed)
        expected = {name: read(reference, name) for name in OUTCOME_FIELDS}
        out = run_mechanism(spec, m, 4.0, fakes, seed=seed)
        got = {first: read(out, first)}
        got.update((name, read(out, name)) for name in OUTCOME_FIELDS if name != first)
        assert got == expected
    for name in ("allocation", "coin_toss", "payment_per_unit", "miner_utility"):
        with pytest.raises(FrozenInstanceError):  # cached or not, a field stays read-only
            setattr(out, name, None)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_split_block_at_an_infinite_capacity_is_split_block_at_a_huge_one(alpha):
    # the reserved section is capacity - alpha * capacity, which must not be inf - inf here
    cfg = SplitBlockConfig(alpha)
    assert cfg.one_minus_alpha_capacity(math.inf) == (math.inf if alpha < 1 else 0.0)
    m = Mempool([Transaction(0, 1.0, 0.0, 0.0), Transaction(1, 1.0, 3.0, 3.0)])
    at_inf, at_huge = (run_mechanism(MechanismSpec.split_block(alpha), m, capacity)
                       for capacity in (math.inf, 1e300))
    assert at_inf.allocation.selected == at_huge.allocation.selected == \
        ((0, 1) if alpha < 1 else (1,))
    assert at_inf.allocation.sections == at_huge.allocation.sections


# a parameter that is no number, which used to raise a bare TypeError
NOT_NUMBERS = {
    "capacity": lambda: run_mechanism(MechanismSpec.first_price(), unit_pool([1, 2]), "2"),
    "capacity_none": lambda: run_mechanism(MechanismSpec.first_price(), unit_pool([1, 2]), None),
    "gamma": lambda: MechanismSpec.stfm("1"),
    "phi": lambda: MechanismSpec.rtfm("0.5"),
    "base_fee": lambda: MechanismSpec.eip1559("1"),
    "alpha": lambda: SplitBlockConfig("0.5"),
    "delta": lambda: SplitBlockConfig(0.5, "1"),
    "lam": lambda: BaseFeeState("1"),
    "step": lambda: BaseFeeState(1.0, "0.1"),
    "transaction size": lambda: Transaction(0, "1", 1.0, 1.0),
    "bid": lambda: Transaction(0, 1.0, "1", 1.0),
    "valuation": lambda: Transaction(0, 1.0, 1.0, None),
    "epsilons": lambda: estimate_monotonicity(MechanismSpec.uniform(), unit_pool([0, 1]), 0,
                                              ["1"], 10, 0, 2.0, use_certificates=False),
    "alpha_target": lambda: tune_gamma(unit_pool([0, 1, 2]), 2.0, "0.2", 2.0, 0.1, 50.0, 10, 0),
    "phi_ratio": lambda: tune_gamma(unit_pool([0, 1, 2]), 2.0, 0.2, "2", 0.1, 50.0, 10, 0),
    "gamma_lo": lambda: tune_gamma(unit_pool([0, 1, 2]), 2.0, 0.2, 2.0, "0.1", 50.0, 10, 0),
    "gamma_hi": lambda: tune_gamma(unit_pool([0, 1, 2]), 2.0, 0.2, 2.0, 0.1, "50", 10, 0),
}


@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_a_parameter_that_is_no_number_raises_parameter_error_naming_it(case):
    with pytest.raises(ParameterError, match=f"^{case.split('_none')[0]} must be a real number"):
        NOT_NUMBERS[case]()
