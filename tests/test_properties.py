"""Property tests of the mechanism invariants, over every allocation kind.

Pools are small (the exact knapsack) or just above ``EXHAUSTIVE_LIMIT`` (the
greedy rule).  Sizes, bids and fees are multiples of 1/4, so the posted-price
utility ``(valuation - (bid - base_fee) - base_fee) * size`` is computed
exactly and a truthful user's zero utility cannot round below zero.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from tfmlab import (
    AllocationKind,
    MechanismSpec,
    Mempool,
    ParameterError,
    PaymentKind,
    SplitBlockConfig,
    Transaction,
    allocation_value,
    audit,
    check_uic,
    optimal_allocate,
    run_mechanism,
    search_mic_deviation,
    splitblock_allocate,
    tune_gamma,
)
from tfmlab.alloc import EXHAUSTIVE_LIMIT, SECTION_ONE_MINUS_ALPHA, SECTION_RAND, _walk, _walk_rows
from tfmlab._streams import _BATCH, _START_BYTES, _TrialStreams, _pcg64_starts
from tfmlab.audit import _replay
from tfmlab.audit import _replay_arm
from tfmlab.mech import _arm, _prepare
from tfmlab._trials import _softmax_trials

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

quarters = st.integers(0, 40).map(lambda k: k / 4)
sizes = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
pool_sizes = st.one_of(st.integers(0, 10), st.integers(EXHAUSTIVE_LIMIT + 1, EXHAUSTIVE_LIMIT + 8))

MECHANISMS = {
    "first_price": lambda fee: MechanismSpec.first_price(),
    "second_price": lambda fee: MechanismSpec.second_price(),
    "eip1559": lambda fee: MechanismSpec.eip1559(fee),
    "uniform": lambda fee: MechanismSpec.uniform(),
    "softmax": lambda fee: MechanismSpec.stfm(1.5),
    "softmax_posted": lambda fee: MechanismSpec.stfm(1.5, PaymentKind.POSTED_PRICE, fee),
    "rtfm": lambda fee: MechanismSpec.rtfm(0.5),
    "rtfm_posted": lambda fee: MechanismSpec.rtfm(0.5, PaymentKind.POSTED_PRICE, fee),
    "split_block": lambda fee: MechanismSpec.split_block(0.5),
    "split_block_delta": lambda fee: MechanismSpec.split_block(0.75, delta=1.0),
    "split_block_posted": lambda fee: MechanismSpec.split_block(0.5, delta=1.0, base_fee=fee),
}


@st.composite
def instances(draw):
    """A truthful pool, miner fakes, a capacity, a seed and a mechanism."""
    n = draw(pool_sizes)
    txs = []
    for i in range(n):
        bid = draw(quarters)
        txs.append(Transaction(i, draw(sizes), bid, bid))
    fakes = [Transaction(100 + j, draw(sizes), bid, bid, fake=True)
             for j, bid in enumerate(draw(st.lists(st.sampled_from([0.0, 1.0, 5.0]), max_size=2)))]
    name = draw(st.sampled_from(sorted(MECHANISMS)))
    spec = MECHANISMS[name](draw(st.integers(1, 12).map(lambda k: k / 4)))
    capacity = draw(st.integers(0, 24).map(lambda k: k / 2))
    return Mempool(txs), fakes, capacity, draw(st.integers(0, 2**32 - 1)), spec


def _outcome(out):
    return repr((out.allocation.selected, out.allocation.total_size, out.payment_per_unit,
                 out.burn_per_unit, out.user_utilities, out.miner_utility, out.coin_toss))


@PROPERTY_SETTINGS
@given(instances())
def test_block_is_feasible_without_duplicates(case):
    m, fakes, capacity, seed, spec = case
    out = run_mechanism(spec, m, capacity, fakes=fakes, seed=seed)
    selected = out.allocation.selected
    assert len(set(selected)) == len(selected)
    size_of = {tx.id: tx.size for tx in list(m) + fakes}
    assert set(selected) <= set(size_of)
    assert math.fsum(size_of[t] for t in selected) <= capacity
    assert out.allocation.total_size <= capacity


@PROPERTY_SETTINGS
@given(instances())
def test_same_seed_same_outcome(case):
    m, fakes, capacity, seed, spec = case
    first = run_mechanism(spec, m, capacity, fakes=fakes, seed=seed)
    again = run_mechanism(spec, m, capacity, fakes=fakes, seed=seed)
    assert _outcome(first) == _outcome(again)


@PROPERTY_SETTINGS
@given(instances())
def test_payments_non_negative_and_burns_only_under_the_posted_price(case):
    m, fakes, capacity, seed, spec = case
    out = run_mechanism(spec, m, capacity, fakes=fakes, seed=seed)
    assert set(out.payment_per_unit) == set(out.allocation.selected)
    assert all(p >= 0 for p in out.payment_per_unit.values())
    if spec.payment is not PaymentKind.POSTED_PRICE:
        assert all(q == 0 for q in out.burn_per_unit.values())


@PROPERTY_SETTINGS
@given(instances())
def test_truthful_users_gain_nothing_negative_under_the_posted_price(case):
    # every mechanism, split block included: a demoted row pays delta <= its bid
    m, fakes, capacity, seed, spec = case
    out = run_mechanism(spec, m, capacity, fakes=fakes, seed=seed)
    assert set(out.user_utilities) == {tx.id for tx in m}
    assert all(u >= 0 for u in out.user_utilities.values())


@st.composite
def prepared_cases(draw):
    """Every allocation kind under every payment rule, a pinned toss and demotion."""
    m, fakes, capacity, seed, _ = draw(instances())
    kind = draw(st.sampled_from(list(AllocationKind)))
    payment = draw(st.sampled_from(list(PaymentKind)))
    fee = draw(st.integers(0, 12).map(lambda k: k / 4)) if payment is PaymentKind.POSTED_PRICE \
        else None
    split = SplitBlockConfig(0.5, draw(st.sampled_from([0.0, 1.0])),
                             draw(st.sampled_from([None, False, True])))
    spec = MechanismSpec(kind, payment, gamma=1.5, phi=0.5, split=split, base_fee=fee)
    toss = draw(st.sampled_from([None, 0, 1]))
    return m, fakes, capacity, seed, spec, toss


@PROPERTY_SETTINGS
@given(prepared_cases())
def test_a_prepared_step_replays_run_mechanism(case):
    # audits prepare an arm once and step it once per trial
    m, fakes, capacity, seed, spec, toss = case
    step = _prepare(_arm(spec, m, capacity, fakes))
    for trial in range(3):
        stepped, ran = np.random.default_rng([seed, trial]), np.random.default_rng([seed, trial])
        block = step(stepped, toss)
        out = run_mechanism(spec, m, capacity, fakes=fakes, seed=ran, rtfm_toss=toss)
        assert tuple(block.columns.ids[block.rows].tolist()) == out.allocation.selected
        assert repr(block.miner_utility) == repr(out.miner_utility)
        assert block.toss == out.coin_toss
        assert stepped.bit_generator.state == ran.bit_generator.state


fraction_bids = st.builds(Fraction, st.integers(0, 12), st.integers(1, 4))


@st.composite
def fraction_instances(draw):
    n = draw(st.integers(1, 10))
    txs = []
    for i in range(n):
        bid = draw(fraction_bids)
        txs.append(Transaction(i, draw(st.integers(1, 3)), bid, bid))
    name = draw(st.sampled_from(sorted(MECHANISMS)))
    spec = MECHANISMS[name](draw(st.integers(1, 8).map(lambda k: Fraction(k, 4))))
    return Mempool(txs), draw(st.integers(0, 12)), draw(st.integers(0, 2**32 - 1)), spec


@PROPERTY_SETTINGS
@given(fraction_instances())
def test_fraction_bids_give_fraction_payments(case):
    m, capacity, seed, spec = case
    out = run_mechanism(spec, m, capacity, seed=seed)
    for t, p in out.payment_per_unit.items():
        if out.allocation.section_of(t) == SECTION_RAND:
            continue  # the zero-pay branch of the two-set rule pays the float 0.0
        if out.allocation.section_of(t) == SECTION_ONE_MINUS_ALPHA:
            continue  # the reserved section pays the spec's own delta
        assert isinstance(p, Fraction), (t, p)
    result = optimal_allocate(m, capacity)
    value = allocation_value(m, result)
    assert isinstance(value, Fraction) or not result.selected
    for alpha in (Fraction(1, 4), Fraction(1, 2)):
        split = splitblock_allocate(m, capacity, SplitBlockConfig(alpha), seed=seed)
        assert split.total_size <= capacity
        assert isinstance(split.total_size, (int, Fraction))


def _seeds_of(words):
    """Seeds that numpy's SeedSequence splits into exactly `words` uint32 words."""
    return st.integers(0 if words == 1 else 1 << 32 * (words - 1), (1 << 32 * words) - 1)


@pytest.mark.parametrize("words", [1, 2, 3, 4, 5])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_trial_streams_start_where_numpy_seeds_them(words, data):
    # audits ask for trial 0 alone, then for the rest: check both sides of every cut
    seed = data.draw(_seeds_of(words))
    trials = data.draw(st.integers(2, 3 * _BATCH + 3).filter(lambda n: n & (n - 1)))
    cut = data.draw(st.integers(1, trials))
    streams = _TrialStreams(seed, trials)
    streams(0)
    streams.prepare(cut)
    streams.prepare(trials)
    assert len(streams._start) == trials * _START_BYTES
    cuts = {cut, trials} | set(range(1, cut, _BATCH)) | set(range(cut, trials, _BATCH))
    for i in sorted({0, 1} | {c + d for c in cuts for d in (-1, 0)} - {trials}):
        expected = np.random.default_rng([seed, i]).bit_generator.state
        assert streams(i).bit_generator.state == expected, (seed, i)


def test_trial_starts_reach_the_last_uint32_index():
    for seed in (0, 2**40 + 3, 2**100 + 1):
        words = _TrialStreams(seed, 1)._words
        starts = _pcg64_starts(words, 2**32 - 3, 2**32)
        for i, row in zip(range(2**32 - 3, 2**32), starts):
            pcg = np.random.PCG64([seed, i]).state["state"]
            assert int.from_bytes(row.tobytes(), "little") == pcg["state"] | pcg["inc"] << 128
    with pytest.raises(ParameterError):
        _pcg64_starts([0], 2**32 - 1, 2**32 + 1)


@pytest.mark.parametrize("trials, error", [
    (2**32 + 1, "trials must be at most 4294967296"),
    (0, "trials must be at least 1"),
    (2.5, "trials must be an integer"),
])
def test_trial_streams_check_the_budget_when_built(trials, error):
    # checked here, before an audit would compute 2**32 trial starts and then fail
    with pytest.raises(ParameterError, match=error):
        _TrialStreams(0, trials)
    assert _TrialStreams(0, 2**32).trials == 2**32  # nothing is computed until asked for


@pytest.mark.parametrize("seed", [0, 2**40 + 3])
def test_a_rule_that_draws_nothing_runs_and_seeds_one_trial(seed):
    streams = _TrialStreams(seed, 500)
    results, drew = _replay(lambda rng: "same", streams)
    assert list(results) == ["same"] and not drew and len(streams._start) == _START_BYTES
    results, drew = _replay(lambda rng: rng.random(), streams)
    assert len(list(results)) == 500 and drew and len(streams._start) == 500 * _START_BYTES


# ---------------------------------------------------------------------------
# Every softmax trial at once: the Gumbel matrix, the row-wise walk and the
# batched step, each against its one-trial oracle


@pytest.mark.parametrize("words", [1, 2])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gumbel_rows_are_the_trial_streams_draws(words, data):
    seed = data.draw(_seeds_of(words))
    n = data.draw(st.integers(0, 12))
    gumbel = _TrialStreams(seed, 3001).gumbel(n)
    assert gumbel.shape == (3001, n)
    for i in (0, 1023, 1024, 3000):
        expected = np.random.default_rng([seed, i]).gumbel(size=n)
        assert gumbel[i].tobytes() == expected.tobytes(), (seed, i)


@PROPERTY_SETTINGS
@given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(0, 12), st.integers(0, 12))
def test_a_gumbel_prefix_is_the_shorter_draw(seed, trials, k, extra):
    # an arm over k candidates reads the first k columns of the widest arm's draw
    narrow = _TrialStreams(seed, trials).gumbel(k).copy()
    streams = _TrialStreams(seed, trials)
    wide = streams.gumbel(k + extra)
    assert streams.gumbel(k).tobytes() == narrow.tobytes()
    assert wide[:, :k].tobytes() == narrow.tobytes()
    for i in (0, trials - 1):
        assert narrow[i].tobytes() == np.random.default_rng([seed, i]).gumbel(size=k).tobytes()


@PROPERTY_SETTINGS
@given(st.lists(st.one_of(sizes, st.floats(0.01, 4.0)), max_size=70),
       st.integers(1, 4), st.one_of(st.integers(0, 60).map(lambda k: k / 2), st.just(math.inf)),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_the_row_walk_is_the_walk_of_each_row(row_sizes, trials, capacity, unit, seed):
    column = np.ones(len(row_sizes)) if unit else np.array(row_sizes, dtype=float)
    rng = np.random.default_rng(seed)
    orders = np.array([rng.permutation(len(column)) for _ in range(trials)]).reshape(trials, -1)
    kept, totals = _walk_rows(column, orders, capacity)
    for order, row_kept, total in zip(orders, kept, totals):
        rows, expected = _walk(column, order, capacity)
        assert order[row_kept].tolist() == rows.tolist()
        assert repr(float(total)) == repr(float(expected))


@st.composite
def softmax_arms(draw):
    """A float pool, fakes and capacity under every payment rule of the softmax rule.

    Bids in thirds make the folds of income round, so that they must be made
    in block order to match.
    """
    m, fakes, capacity, seed, _ = draw(instances())
    if draw(st.booleans()):
        m = Mempool([Transaction(tx.id, tx.size, tx.bid / 3, tx.valuation / 3) for tx in m])
    capacity = draw(st.one_of(st.just(capacity), st.just(math.inf)))
    payment = draw(st.sampled_from(list(PaymentKind)))
    fee = draw(quarters) if payment is PaymentKind.POSTED_PRICE else None
    return m, fakes, capacity, seed, MechanismSpec.stfm(draw(st.sampled_from([0.5, 1.5, 4.0])),
                                                         payment, fee)


@PROPERTY_SETTINGS
@given(softmax_arms())
def test_the_batched_softmax_step_is_each_trials_draw(case):
    m, fakes, capacity, seed, spec = case
    pool = m.extend(fakes)
    trials = 5
    gumbel = np.array([np.random.default_rng([seed, t]).gumbel(size=len(pool))
                       for t in range(trials)]).reshape(trials, -1)
    arm = _arm(spec, m, capacity, fakes)
    step_all, step = _softmax_trials(arm), _prepare(arm)
    if step_all is None:  # no candidates: the one-trial step draws nothing, and runs once
        rng = np.random.default_rng([seed, 0])
        state = rng.bit_generator.state
        assert not len(step(rng).rows) and rng.bit_generator.state == state
        return
    blocks = step_all(gumbel)
    assert len(blocks.total) == trials
    for t in range(trials):
        block = step(np.random.default_rng([seed, t]))
        included = np.zeros(len(pool), dtype=bool)
        included[block.rows] = True
        assert blocks.included[t].tolist() == included.tolist()
        assert repr(blocks.total.item(t)) == repr(float(block.total))
        assert repr(blocks.miner_utility.item(t)) == repr(block.miner_utility)
        users = block.user_utilities()
        assert [repr(u) for u in blocks.user_utility[t].tolist()] == \
            [repr(users[tx_id]) for tx_id in m.ids()]


def _replays_every_trial_at_once(spec, m):
    """Whether an audit's replay of the arm takes the step of every trial at once."""
    batched = []
    _replay_arm(spec, m, 2.0, _TrialStreams(0, 3), lambda block: 0,
                lambda blocks: batched.append(blocks) or blocks.total)
    return bool(batched)


def test_only_softmax_over_float_columns_steps_every_trial_at_once():
    floats = Mempool([Transaction(i, 1.0, float(i), float(i)) for i in range(4)])
    fractions = Mempool([Transaction(i, 1, Fraction(i), Fraction(i)) for i in range(4)])
    assert _replays_every_trial_at_once(MechanismSpec.stfm(1.0), floats)
    for spec, m in ((MechanismSpec.stfm(1.0), fractions),
                    (MechanismSpec.stfm(1.0, PaymentKind.POSTED_PRICE, 1), floats),
                    (MechanismSpec.uniform(), floats)):
        assert not _replays_every_trial_at_once(spec, m)


@pytest.mark.parametrize("chunk", [1, 24, 100])
def test_batched_audits_read_the_same_in_any_chunks(monkeypatch, chunk):
    # the batched step takes the trials a slice of at most _CHUNK draws at a time
    m = Mempool([Transaction(i, 0.5 + (i % 3) / 2, float(b), float(b) + 1.0)
                 for i, b in enumerate([4, 0, 3, 5, 1, 0, 2, 6])])
    runs = {
        "mic": lambda: search_mic_deviation(MechanismSpec.stfm(1.0, PaymentKind.SECOND_PRICE),
                                            m, 3.0, 2, [0.0, 2.0], seed=5, trials=300).to_text(),
        "uic": lambda: check_uic(MechanismSpec.stfm(1.0), m, 3.0, 2, [1.0, 3.0, 4.0], 300,
                                 5).to_text(),
        "tune": lambda: repr(tune_gamma(m, 3.0, 0.2, 2.0, 0.1, 50.0, 300, 5)),
    }
    expected = {name: run() for name, run in runs.items()}
    monkeypatch.setattr(audit, "_CHUNK", chunk)
    assert {name: run() for name, run in runs.items()} == expected
