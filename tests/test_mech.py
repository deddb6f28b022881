import math
from dataclasses import replace
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
    is_excessively_low,
    run_mechanism,
    sample_mempool,
    spec_from_config,
    spec_from_fields,
    spec_to_config,
    uniform_allocate,
    update_base_fee,
)
from tfmlab.mech import _arm, _prepare


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


def test_one_prepared_split_block_step_serves_every_trial():
    # the posted-fee rows' order decides whether the demoted bids 2 and 3 still
    # fit the reserved section, and with them what is left for the paid knapsack
    m = Mempool([Transaction(0, 2.5, 1.0, 1.0), Transaction(1, 1.0, 1.0, 1.0),
                 Transaction(2, 1.0, 1.0, 1.0), Transaction(3, 1.0, 2.0, 2.0),
                 Transaction(4, 1.0, 3.0, 3.0), Transaction(5, 2.0, 4.0, 4.0)])
    spec = MechanismSpec.split_block(0.5, delta=1.0)
    step = _prepare(_arm(spec, m, 8.0))
    blocks = set()
    for seed in range(12):
        block = step(np.random.default_rng(seed))
        out = run_mechanism(spec, m, 8.0, seed=seed)
        assert tuple(block.columns.ids[block.rows].tolist()) == out.allocation.selected
        assert block.miner_utility == out.miner_utility
        blocks.add(out.allocation.selected)
    assert len(blocks) > 1


# the two-set rule's step, against the uniform allocator and the knapsack rule it replaces
TWO_SET_NUMBERS = {"float": float, "int": int, "fraction": lambda v: Fraction(v, 2)}


def _two_set_arm(number, posted: bool):
    """A two-set arm with a fake, over a pool of `number` values, under first or posted price."""
    m = Mempool([Transaction(i, number(1 + i % 3), number(b), number(b))
                 for i, b in enumerate([4, 0, 3, 5, 1, 0, 2, 6])])
    fakes = (Transaction(8, number(1), number(2), number(2), fake=True),)
    spec = MechanismSpec.rtfm(0.5, PaymentKind.POSTED_PRICE, number(2)) if posted \
        else MechanismSpec.rtfm(0.5)
    return _arm(spec, m, number(7), fakes)


@pytest.mark.parametrize("posted", [False, True], ids=["first_price", "posted"])
@pytest.mark.parametrize("number", sorted(TWO_SET_NUMBERS))
def test_the_two_set_zero_pay_branch_is_the_uniform_allocator_over_the_pool(number, posted):
    arm = _two_set_arm(TWO_SET_NUMBERS[number], posted)
    step, ids = _prepare(arm), arm.pool.columns.ids
    for seed in range(20):
        stepped, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        block = step(stepped, 0)
        expected = uniform_allocate(arm.pool, arm.capacity, oracle)
        assert tuple(ids[block.rows].tolist()) == expected.selected
        assert block.total == expected.total_size
        assert type(block.total) is type(expected.total_size)
        assert block.toss == 0 and not block.payment.any() and not block.burn.any()
        assert stepped.bit_generator.state == oracle.bit_generator.state
        # a drawn toss comes first, then the same permutation on either branch
        stepped, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        block = step(stepped)
        if oracle.random() < arm.spec.phi:
            assert block.toss == 0
            assert tuple(ids[block.rows].tolist()) == \
                uniform_allocate(arm.pool, arm.capacity, oracle).selected
        else:
            assert block.toss == 1
            oracle.permutation(len(arm.pool))
        assert stepped.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("posted", [False, True], ids=["first_price", "posted"])
@pytest.mark.parametrize("number", sorted(TWO_SET_NUMBERS))
def test_the_two_set_paying_branch_is_one_block_whatever_the_generator(number, posted):
    arm = _two_set_arm(TWO_SET_NUMBERS[number], posted)
    step = _prepare(arm)
    paying = step(np.random.default_rng(0), 1)
    knapsack = _prepare(arm._replace(spec=replace(arm.spec, allocation=AllocationKind.OPTIMAL,
                                                  phi=None)))(None)
    assert paying.toss == 1 and knapsack.toss is None
    assert paying.rows.tolist() == knapsack.rows.tolist() and paying.total == knapsack.total
    assert paying.payment.tolist() == knapsack.payment.tolist()
    assert paying.burn.tolist() == knapsack.burn.tolist()
    assert repr(paying.miner_utility) == repr(knapsack.miner_utility)
    for seed in range(1, 10):
        zero_pay, paid = np.random.default_rng(seed), np.random.default_rng(seed)
        step(zero_pay, 0)
        assert step(paid, 1) is paying
        # both branches make the same generator calls
        assert zero_pay.bit_generator.state == paid.bit_generator.state
