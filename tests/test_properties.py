"""Property tests of the mechanism invariants, over every allocation kind.

Pools are small (the exact knapsack) or just above ``EXHAUSTIVE_LIMIT`` (the
greedy rule).  Sizes, bids and fees are multiples of 1/4, so the posted-price
utility ``(valuation - (bid - base_fee) - base_fee) * size`` is computed
exactly and a truthful user's zero utility cannot round below zero.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
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
from tfmlab import _streams, _trials, alloc
from tfmlab.alloc import (
    EXHAUSTIVE_LIMIT, SECTION_ONE_MINUS_ALPHA, SECTION_RAND, _softmax_rows, _walk, _walk_rows)
from tfmlab._streams import (
    _BATCH, _CHUNK, GUMBEL, PERMUTATION, TOSS, _TrialSeed, _TrialStreams, _trial_words)
from tfmlab.audit import _step_arms
from tfmlab.mech import _arm
from tfmlab._trials import _Blocks, _batched, _draws

import sequential

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
    streams = _TrialStreams(seed, trials)
    cuts = {trials} | set(range(1, trials, _BATCH))
    for i in sorted({c + d for c in cuts for d in (-1, 0)} - {trials}):
        expected = np.random.default_rng([seed, i]).bit_generator.state
        assert streams(i).bit_generator.state == expected, (seed, i)
    assert sum(map(len, streams._blocks)) == trials


def test_trial_starts_reach_the_last_uint32_index():
    for seed in (0, 2**40 + 3, 2**100 + 1):
        words = _trial_words(_TrialStreams(seed, 1)._seed_words, 2**32 - 3, 2**32)
        for i, row in zip(range(2**32 - 3, 2**32), words):
            expected = np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist(), (seed, i)
    with pytest.raises(ParameterError):
        _trial_words([0], 2**32 - 1, 2**32 + 1)


def test_trial_generators_held_at_once_draw_their_own_streams():
    seed = 2**40 + 3
    streams = _TrialStreams(seed, 10)
    held = [streams(3), streams(4)]
    expected = [np.random.default_rng([seed, 3]), np.random.default_rng([seed, 4])]
    for _ in range(3):
        for rng, oracle in zip(held, expected):
            assert rng.gumbel(size=2).tobytes() == oracle.gumbel(size=2).tobytes()
            assert rng.permutation(5).tolist() == oracle.permutation(5).tolist()


def test_a_trial_seed_gives_pcg64_its_words_only():
    words = _trial_words([7], 0, 1)[0]
    seed = _TrialSeed(words)
    state = seed.generate_state(4, np.uint64)
    assert state.dtype == np.uint64 and state.dtype.isnative and state.flags.c_contiguous
    assert state.tolist() == np.random.SeedSequence([7, 0]).generate_state(4, np.uint64).tolist()
    for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ParameterError):
            seed.generate_state(n_words, dtype)


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
def test_a_rule_that_draws_nothing_runs_and_seeds_one_trial(monkeypatch, seed):
    # estimate_zti's uniform arm, on one row (numpy permutes it without a draw) and on two
    made, runs = [], []
    monkeypatch.setattr(audit, "_TrialStreams",
                        lambda *args: made.append(_TrialStreams(*args)) or made[-1])
    run = audit.run_mechanism
    monkeypatch.setattr(audit, "run_mechanism",
                        lambda *args, **kwargs: runs.append(kwargs["seed"]) or run(*args, **kwargs))
    for bids, trials in (([0], 1), ([0, 1], 500)):
        runs.clear()
        m = Mempool([Transaction(i, 1.0, float(b), float(b)) for i, b in enumerate(bids)])
        report = audit.estimate_zti(MechanismSpec.uniform(), m, 1.0, 500, seed)
        streams, = made[-1:]
        assert report.trials == trials and len(runs) == trials
        assert sum(map(len, streams._blocks)) == trials  # one trial's seeding words each


# ---------------------------------------------------------------------------
# Every softmax trial at once: the Gumbel slices, the row-wise walk and the
# batched step, each against its one-trial oracle


def _gumbel_rows(streams, n):
    """Every slice of ``streams.slices(GUMBEL, n)``, stacked, after checking each holds at
    most _CHUNK draws or one trial."""
    slices = list(streams.slices(GUMBEL, n))
    assert all(s.size <= _CHUNK or len(s) == 1 for s in slices)
    return np.concatenate(slices)


@pytest.mark.parametrize("words", [1, 2])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gumbel_rows_are_the_trial_streams_draws(words, data):
    seed = data.draw(_seeds_of(words))
    n = data.draw(st.integers(0, 12))
    gumbel = _gumbel_rows(_TrialStreams(seed, 3001), n)
    assert gumbel.shape == (3001, n)
    for i in (0, 1023, 1024, 3000):
        expected = np.random.default_rng([seed, i]).gumbel(size=n)
        assert gumbel[i].tobytes() == expected.tobytes(), (seed, i)


@PROPERTY_SETTINGS
@given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(0, 12), st.integers(0, 12))
def test_a_gumbel_prefix_is_the_shorter_draw(seed, trials, k, extra):
    # an arm over k candidates reads the first k columns of the widest arm's slices
    narrow = _gumbel_rows(_TrialStreams(seed, trials), k)
    wide = _gumbel_rows(_TrialStreams(seed, trials), k + extra)
    assert wide[:, :k].tobytes() == narrow.tobytes()
    for i in (0, trials - 1):
        assert narrow[i].tobytes() == np.random.default_rng([seed, i]).gumbel(size=k).tobytes()


# ---------------------------------------------------------------------------
# The trials' draws as arrays: the C helper's PCG64 lanes and the fallback
# that stacks each trial's own generator, both against numpy's Generator


needs_c_draws = pytest.mark.skipif(_streams._draws_c is None,
                                   reason="the C helper is not available")
DRAW_SEEDS = [0, 42, 2**32 + 5, 2**64 + 3]  # one, two and three uint32 words
BOUNDARY_TRIALS = [0, 1, 1023, 1024, 1025, 3000]  # about the _BATCH and _CHUNK cuts
PERMUTATION_WIDTHS = [0, 1, 2, 3, 5, 33, 60]  # at 5 and 33 about half the masked draws miss


def _rows_of(kind, draws):
    """Each trial's draws in a slice of ``_TrialStreams.slices``, as comparable values."""
    if kind == GUMBEL:
        return [row.tobytes() for row in draws]
    if kind == PERMUTATION:
        return [(None, row.tolist()) for row in draws]
    return [(toss, row.tolist()) for toss, row in zip(draws[0].tolist(), draws[1])]


def _generator_rows(kind, seed, trials, n):
    """What ``default_rng([seed, i])`` draws of `kind` for each of `trials`, as _rows_of."""
    rows = []
    for i in trials:
        rng = np.random.default_rng([seed, i])
        if kind == GUMBEL:
            rows.append(rng.gumbel(size=n).tobytes())
        else:
            toss = rng.random() if kind == TOSS else None
            rows.append((toss, rng.permutation(n).tolist()))
    return rows


@needs_c_draws
@pytest.mark.parametrize("seed", DRAW_SEEDS)
@pytest.mark.parametrize("kind, n", [(GUMBEL, 1), (GUMBEL, 4), (GUMBEL, 60)]
                         + [(kind, n) for kind in (TOSS, PERMUTATION) for n in PERMUTATION_WIDTHS])
def test_the_c_draws_are_numpys(seed, kind, n):
    seed_words = _TrialStreams(seed, 1)._seed_words
    words = np.concatenate([_trial_words(seed_words, i, i + 1) for i in BOUNDARY_TRIALS])
    out = np.empty((len(words), n), float if kind == GUMBEL else np.intp)
    toss = np.empty(len(words)) if kind == TOSS else None
    _streams._draws_c(kind, words, n, out, toss)
    got = _rows_of(kind, out if toss is None else (toss, out))
    assert got == _generator_rows(kind, seed, BOUNDARY_TRIALS, n)


@needs_c_draws
@pytest.mark.parametrize("low", [0, 1, 2047])
def test_the_c_gumbel_draw_redraws_a_uniform_of_one(low):
    # invert set_seed and one step so that the first output is `low` < 2**11: its double
    # is 0.0 and U = 1 - 0.0 is 1, which numpy's random_gumbel draws again
    mult = 0x2360ED051FC65DA4_4385DF649FCCF645
    inverse, mask = pow(mult, -1, 1 << 128), (1 << 128) - 1
    inc = 1  # from sequence words 0 and 0
    before = (low - inc) * inverse & mask  # the seeded state: one step reaches `low`
    seed = ((before - inc) * inverse - inc) & mask  # set_seed: (seed + inc) * mult + inc
    words = np.array([[seed >> 64, seed & (2**64 - 1), 0, 0]], dtype=np.uint64)
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    assert np.random.PCG64(_TrialSeed(words[0])).state == bits.state
    out = np.empty((1, 3))
    _streams._draws_c(GUMBEL, words, 3, out, None)
    assert bits.random_raw() == low
    bits.state = np.random.PCG64(_TrialSeed(words[0])).state
    assert out[0].tobytes() == np.random.Generator(bits).gumbel(size=3).tobytes()


@needs_c_draws
def test_the_c_draws_reject_what_they_cannot_fill():
    words = _trial_words([7], 0, 2)
    with pytest.raises(ValueError, match="room for n values"):
        _streams._draws_c(GUMBEL, words, 3, np.empty((2, 2)), None)
    with pytest.raises(ValueError, match="room for a value a trial"):
        _streams._draws_c(TOSS, words, 3, np.empty((2, 3), np.intp), np.empty(1))
    with pytest.raises(ValueError, match="four uint64 words"):
        _streams._draws_c(PERMUTATION, words[:, :3].copy(), 3, np.empty((2, 3), np.intp), None)
    with pytest.raises(ValueError, match="a kind of 0, 1 or 2"):
        _streams._draws_c(3, words, 3, np.empty((2, 3)), None)


@pytest.mark.parametrize("backend", ["C", "python"])
@pytest.mark.parametrize("kind, n", [(GUMBEL, 4), (TOSS, 5), (PERMUTATION, 33), (PERMUTATION, 0)])
def test_draw_slices_are_each_trials_draws(monkeypatch, backend, kind, n):
    if backend == "python":
        monkeypatch.setattr(_streams, "_draws_c", None)
    elif _streams._draws_c is None:
        pytest.skip("the C helper is not available")
    seed, trials = 2**32 + 5, BOUNDARY_TRIALS[-1] + 1
    rows = []
    for draws in _TrialStreams(seed, trials).slices(kind, n):
        got = _rows_of(kind, draws)
        assert len(got) * n <= _CHUNK or len(got) == 1
        rows += got
    assert len(rows) == trials
    assert [rows[i] for i in BOUNDARY_TRIALS] == _generator_rows(kind, seed, BOUNDARY_TRIALS, n)


@pytest.mark.parametrize("backend", ["C", "python"])
@PROPERTY_SETTINGS
@given(st.lists(st.one_of(sizes, st.floats(0.01, 4.0)), max_size=70),
       st.integers(1, 4), st.one_of(st.integers(0, 60).map(lambda k: k / 2), st.just(math.inf)),
       st.sampled_from([0, 0.75, 3, 2.5]), st.booleans(), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.integers(1, 70)))
def test_the_row_walk_is_the_walk_of_each_row(backend, row_sizes, trials, capacity, start, unit,
                                              seed, exact):
    """The C loop's rows, and its Python twin's, which cuts each row's prefix that fits and
    walks the rest of a row with room left past the cut; an `exact` capacity is the total
    of the first row's first sizes, which that row meets with equality."""
    if backend == "C" and alloc._walk_rows_c is None:
        pytest.skip("the C helper is not available")
    column = np.ones(len(row_sizes)) if unit else np.array(row_sizes, dtype=float)
    rng = np.random.default_rng(seed)
    orders = np.array([rng.permutation(len(column)) for _ in range(trials)]).reshape(trials, -1)
    if exact is not None and len(column):
        capacity = start
        for size in column[orders[0, :exact]].tolist():
            capacity += size
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        c_walk = alloc._walk_rows_c if backend == "C" else None
        patch.setattr(alloc, "_walk_rows_c",
                      c_walk and (lambda *args: calls.append(args) or c_walk(*args)))
        kept, totals = _walk_rows(column, orders, capacity, start)
    assert len(calls) == (backend == "C")
    for order, row_kept, total in zip(orders, kept, totals):
        rows, expected = _walk(column, order, capacity, start)
        assert order[row_kept].tolist() == rows.tolist()
        assert repr(float(total)) == repr(float(expected))


@pytest.mark.parametrize("ties", ["distinct", "repeated", "signed_zeros", "infinite"])
@PROPERTY_SETTINGS
@given(st.integers(1, 80), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_the_softmax_rows_sort_each_row_stably(ties, width, trials, seed):
    """Wide rows sort on numpy's default argsort and narrow ones on the stable sort; either
    way each order is the stable sort of the row's negated keys, through equal keys: a
    repeated Gumbel value on equal bids, keys of +0.0 and -0.0, or infinite keys from a
    tiny temperature."""
    rng = np.random.default_rng(seed)
    bids = rng.choice([0.0, 1.0, 2.5], width)
    gumbel = rng.gumbel(size=(trials, width))
    gamma = 1.0
    if ties == "repeated":
        for i, j in rng.integers(0, width, (3, 2)).tolist():
            bids[j], gumbel[:, j] = bids[i], gumbel[:, i]
    elif ties == "signed_zeros":  # -0.0 + -0.0 is the only sum that keeps the sign
        bids = np.where(rng.random(width) < 0.5, 0.0, -0.0)
        zero = rng.random((trials, width)) < 0.7
        gumbel[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, 0.0, -0.0)
    elif ties == "infinite":
        gamma = 1e-310  # a bid of 1.0 or more over it overflows to inf
    with np.errstate(over="ignore"):
        scaled = bids / gamma
    sizes = rng.choice([0.5, 1.0, 2.0], width)
    orders, kept, totals = _softmax_rows(sizes, scaled, gumbel, 3.0)
    expected = np.negative(gumbel + scaled).argsort(axis=1, kind="stable")
    assert orders.tolist() == expected.tolist()
    walked, walked_totals = _walk_rows(sizes, expected, 3.0)
    assert kept.tolist() == walked.tolist() and totals.tolist() == walked_totals.tolist()


def _as(kind, value):
    """`value`, a multiple of 1/12, as a float, a Fraction or an int rounded up."""
    if kind is int:
        return math.ceil(value)
    return Fraction(value).limit_denominator(12) if kind is Fraction else value


DRAWING_KINDS = [AllocationKind.SOFTMAX, AllocationKind.RTFM, AllocationKind.SPLIT_BLOCK,
                 AllocationKind.UNIFORM]


@st.composite
def typed_arms(draw, kinds=DRAWING_KINDS):
    """A pool, fakes and capacity of floats, ints or Fractions under every payment rule of
    a rule that draws, with a float, int or Fraction posted fee and split-block delta.

    Bids in thirds make the folds of income round, so that they must be made
    in block order to match.
    """
    m, fakes, capacity, seed, _ = draw(instances())
    kind = draw(st.sampled_from([float, int, Fraction]))
    third = kind is not int and draw(st.booleans())

    def typed(tx):
        bid = tx.bid / 3 if third else tx.bid
        return Transaction(tx.id, _as(kind, tx.size), _as(kind, bid), _as(kind, bid),
                           fake=tx.fake)
    m = Mempool([typed(tx) for tx in m])
    fakes = [typed(tx) for tx in fakes]
    capacity = draw(st.one_of(st.just(_as(kind, capacity)), st.just(math.inf)))
    payment = draw(st.sampled_from(list(PaymentKind)))
    fee = None
    if payment is PaymentKind.POSTED_PRICE:
        fee = _as(draw(st.sampled_from([float, int, Fraction])), draw(quarters))
    delta = _as(draw(st.sampled_from([float, int, Fraction])), draw(st.sampled_from([0.0, 1.0])))
    split = SplitBlockConfig(0.5, delta, draw(st.sampled_from([None, False, True])))
    spec = MechanismSpec(draw(st.sampled_from(kinds)), payment,
                         gamma=draw(st.sampled_from([0.5, 1.5, 4.0])), phi=0.5, split=split,
                         base_fee=fee)
    return m, fakes, capacity, seed, spec


def _numpy_draws(kind, seed, trials, width):
    """The draws of `kind` that ``default_rng([seed, t])`` makes for trials t = 0, ...,
    trials - 1, shaped as a slice of ``_TrialStreams.slices`` holds them."""
    rngs = [np.random.default_rng([seed, t]) for t in range(trials)]
    if kind == GUMBEL:
        return np.array([rng.gumbel(size=width) for rng in rngs]).reshape(trials, -1)
    toss = np.array([rng.random() for rng in rngs]) if kind == TOSS else None
    perms = np.array([rng.permutation(width) for rng in rngs], dtype=np.intp).reshape(trials, -1)
    return perms if toss is None else (toss, perms)


@pytest.mark.parametrize("rule", DRAWING_KINDS + [AllocationKind.OPTIMAL],
                         ids=lambda kind: kind.value)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_the_batched_step_is_each_trials_draw(rule, data):
    m, fakes, capacity, seed, spec = data.draw(typed_arms([rule]))
    pool = m.extend(fakes)
    arm = _arm(spec, m, capacity, fakes)
    kind, width, step_all = _batched(arm)

    def step(rng):  # the sequential reference
        return sequential.one_trial(arm, rng)
    rng = np.random.default_rng([seed, 0])
    state = rng.bit_generator.state
    step(rng)
    drew = _draws(kind, width)
    assert drew == (rng.bit_generator.state != state)
    if drew:
        trials, draws = 5, _numpy_draws(kind, seed, 5, width)
    else:  # the audits step such an arm once, on one trial's empty draws
        trials, draws = 1, np.zeros((1, width), float if kind == GUMBEL else np.intp)
    blocks = step_all(draws)
    assert len(blocks.total) == trials
    for t in range(trials):
        block = step(np.random.default_rng([seed, t]))
        included = np.zeros(len(pool), dtype=bool)
        included[block.rows] = True
        assert blocks.included[t].tolist() == included.tolist()
        total = blocks.total.tolist()[t]
        if type(block.total) is int and blocks.total.dtype == float:
            # a walk that keeps nothing totals the int 0, which a float array holds as 0.0
            assert (block.total, repr(total)) == (0, "0.0")
        else:
            assert (type(total), repr(total)) == (type(block.total), repr(block.total))
        miner = blocks.miner_utility.tolist()[t]
        assert repr(miner) == repr(block.miner_utility)
        assert type(miner) is type(block.miner_utility)
        users = block.user_utilities()
        assert [repr(u) for u in blocks.user_utility[t].tolist()] == \
            [repr(users[tx_id]) for tx_id in m.ids()]


def _everything(out):
    """All an outcome tells, as :meth:`sequential.Block.outcome` lists it."""
    a = out.allocation
    return (a.selected, repr(a.total_size), repr(a.capacity), sorted(a.sections.items()),
            repr(out.miner_utility), out.coin_toss, repr(out.payment_per_unit),
            repr(out.burn_per_unit), repr(out.user_utilities))


@pytest.mark.parametrize("rule", list(AllocationKind), ids=lambda kind: kind.value)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_run_mechanism_is_the_sequential_reference(rule, data):
    # every payment rule on float, int and Fraction pools with fakes: every field of the
    # outcome by its repr, and the state of the caller's generator after the call
    m, fakes, capacity, seed, spec = data.draw(typed_arms([rule]))
    toss = data.draw(st.sampled_from([None, 0, 1]))
    arm = _arm(spec, m, capacity, fakes)
    for trial in range(3):
        ran, stepped = np.random.default_rng([seed, trial]), np.random.default_rng([seed, trial])
        out = run_mechanism(spec, m, capacity, fakes, seed=ran, rtfm_toss=toss)
        assert _everything(out) == sequential.one_trial(arm, stepped, toss).outcome()
        assert ran.bit_generator.state == stepped.bit_generator.state


# pools of no candidate and of one: one with none, one of one row, and two where a posted
# fee of 2 (split block: the posted fee 1) leaves a single candidate
FEW_CANDIDATES = {
    "empty": (Mempool([]), None),
    "one_row": (Mempool([Transaction(0, 1.0, 1.0, 2.0)]), None),
    "one_at_the_fee": (Mempool([Transaction(i, 1.0, b, b) for i, b in enumerate([0.0, 3.0, 1.5])]),
                       2.0),
    "none_at_the_fee": (Mempool([Transaction(i, 1.0, b, b) for i, b in enumerate([0.0, 0.5])]),
                        2.0),
}


@pytest.mark.parametrize("toss", [None, 0, 1])
@pytest.mark.parametrize("pool", sorted(FEW_CANDIDATES))
@pytest.mark.parametrize("rule", list(AllocationKind), ids=lambda kind: kind.value)
def test_a_run_over_no_or_one_candidate_is_the_sequential_reference(rule, pool, toss):
    # where a rule walks fewer than two rows its permutation draws nothing, and a softmax
    # run over no candidate draws no noise
    m, fee = FEW_CANDIDATES[pool]
    payment = PaymentKind.FIRST_PRICE if fee is None else PaymentKind.POSTED_PRICE
    spec = MechanismSpec(rule, payment, gamma=1.0, phi=0.5, split=SplitBlockConfig(0.5, 1.0),
                         base_fee=fee)
    arm = _arm(spec, m, 2.0)
    for seed in range(3):
        ran, stepped = np.random.default_rng(seed), np.random.default_rng(seed)
        out = run_mechanism(spec, m, 2.0, seed=ran, rtfm_toss=toss)
        assert _everything(out) == sequential.one_trial(arm, stepped, toss).outcome()
        assert ran.bit_generator.state == stepped.bit_generator.state


@pytest.mark.parametrize("reserved", [False, True], ids=["no_section", "reserved_section"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_a_slice_folds_its_miner_utility_as_its_one_trial_slices(reserved, data):
    # 40 random blocks of a pool with fakes: the slice is wider than _SMALL values, so it
    # folds as running sums, and each one-trial slice, no wider, folds in the loop
    m, fakes, capacity, seed, spec = data.draw(typed_arms(list(AllocationKind)))
    assume(fakes and len(m) > 0)
    arm = _arm(spec, m, capacity, fakes)
    rng, width = np.random.default_rng(seed), len(arm.pool)
    rows = np.array([rng.permutation(width) for _ in range(40)])
    taken = rng.random(rows.shape) < 0.6
    sections = rng.random(rows.shape) < 0.3 if reserved else None
    assert taken.size > _trials._SMALL >= width

    def unread(trials):
        return _Blocks(arm, rows[trials], taken[trials], np.zeros(40)[trials],
                       None if sections is None else sections[trials])
    whole = unread(slice(None)).miner_utility.tolist()
    joined = [unread(slice(t, t + 1)).miner_utility.tolist()[0] for t in range(40)]
    assert [(type(u), repr(u)) for u in whole] == [(type(u), repr(u)) for u in joined]


def _steps_every_trial_at_once(spec, m):
    """Whether :func:`audit._step_arms` asks the trial streams for the arm's draws, the
    runs it makes, and whether the rule drew."""
    streams, asked = _TrialStreams(0, 3), []
    streams.slices = lambda kind, n: asked.append(kind) or _TrialStreams.slices(streams, kind, n)
    (runs, drew), = _step_arms([_arm(spec, m, 2.0)], streams, lambda blocks: blocks.total)
    return bool(asked), len(runs), drew


def test_every_arm_that_draws_steps_its_trials_at_once():
    floats = Mempool([Transaction(i, 1.0, float(i % 3), float(i % 3)) for i in range(4)])
    fractions = Mempool([Transaction(i, 1, Fraction(i, 3), Fraction(i, 3)) for i in range(4)])
    for spec, m in ((MechanismSpec.stfm(1.0), floats),
                    (MechanismSpec.stfm(1.0), fractions),
                    (MechanismSpec.stfm(1.0, PaymentKind.POSTED_PRICE, 1), floats),
                    (MechanismSpec.stfm(1.0, PaymentKind.POSTED_PRICE, Fraction(1, 3)), fractions),
                    (MechanismSpec.uniform(), floats),
                    (MechanismSpec.rtfm(0.5), fractions),
                    (MechanismSpec.split_block(0.5), floats),  # two zero bids to sample from
                    (MechanismSpec.split_block(0.5, delta=1.0), floats.with_bid(0, 1.0))):
        assert _steps_every_trial_at_once(spec, m) == (True, 3, True), spec
    # rules that draw nothing run once, on no draws: the knapsack, softmax without
    # candidates, split block with 0 or 1 posted-fee bidder and uniform sampling over one
    # candidate
    for spec, m in ((MechanismSpec.first_price(), floats),
                    (MechanismSpec.stfm(1.0, PaymentKind.POSTED_PRICE, 10), fractions),
                    (MechanismSpec.split_block(0.5, delta=5.0), floats),
                    (MechanismSpec.split_block(0.5, delta=1.0), floats),
                    (MechanismSpec.uniform(), floats.take(np.arange(1))),
                    (MechanismSpec(AllocationKind.UNIFORM, PaymentKind.POSTED_PRICE, base_fee=2.0),
                     floats)):
        assert _steps_every_trial_at_once(spec, m) == (False, 1, False), spec


def test_the_arms_of_one_call_share_each_slice_of_draws(monkeypatch):
    m = Mempool([Transaction(i, 1.0, float(i), float(i)) for i in range(4)])
    fake = [Transaction(9, 1.0, 2.0, 2.0, fake=True)]
    asked = []
    slices = _TrialStreams.slices
    monkeypatch.setattr(_TrialStreams, "slices",
                        lambda self, kind, n: asked.append((kind, n)) or slices(self, kind, n))
    arms = [_arm(MechanismSpec.stfm(1.0), m, 2.0, fakes) for fakes in ((), fake)]
    arms.append(_arm(MechanismSpec.first_price(), m, 2.0, fake))
    arms += [_arm(MechanismSpec.uniform(), m.with_bid(0, bid), 2.0) for bid in (0.0, 5.0)]
    arms.append(_arm(MechanismSpec.uniform(), m, 2.0, fake))
    arms.append(_arm(MechanismSpec.rtfm(0.5), m, 2.0))
    values = _step_arms(arms, _TrialStreams(0, 300), lambda blocks: blocks.miner_utility)
    # the softmax arms at the widest, the uniform arms by width, the two-set arm alone
    assert asked == [(GUMBEL, 5), (PERMUTATION, 4), (PERMUTATION, 5), (TOSS, 4)]
    assert [(len(runs), drew) for runs, drew in values] == \
        [(300, True), (300, True), (1, False), (300, True), (300, True), (300, True), (300, True)]


@pytest.mark.parametrize("chunk", [1, 24, 100])
def test_batched_audits_read_the_same_in_any_chunks(monkeypatch, chunk):
    # the batched steps take the trials a slice of at most _CHUNK draws at a time
    m = Mempool([Transaction(i, 0.5 + (i % 3) / 2, float(b), float(b) + 1.0)
                 for i, b in enumerate([4, 0, 3, 5, 1, 0, 2, 6])])
    runs = {
        "mic": lambda: search_mic_deviation(MechanismSpec.stfm(1.0, PaymentKind.SECOND_PRICE),
                                            m, 3.0, 2, [0.0, 2.0], seed=5, trials=300).to_text(),
        "uic": lambda: check_uic(MechanismSpec.stfm(1.0), m, 3.0, 2, [1.0, 3.0, 4.0], 300,
                                 5).to_text(),
        "tune": lambda: repr(tune_gamma(m, 3.0, 0.2, 2.0, 0.1, 50.0, 300, 5)),
        "uic_two_set": lambda: check_uic(MechanismSpec.rtfm(0.4), m, 3.0, 2, [1.0, 3.0, 4.0],
                                         300, 5).to_text(),
        "mic_split_block": lambda: search_mic_deviation(
            MechanismSpec.split_block(0.5), m, 3.0, 2, [0.0, 2.0], seed=5, trials=300).to_text(),
        "mic_uniform": lambda: search_mic_deviation(
            MechanismSpec.uniform(), m, 3.0, 1, [0.0, 2.0], seed=5, trials=300).to_text(),
    }
    expected = {name: run() for name, run in runs.items()}
    monkeypatch.setattr(_streams, "_CHUNK", chunk)
    assert {name: run() for name, run in runs.items()} == expected
