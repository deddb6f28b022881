"""Mechanism layer: allocation + payment + burning rules and the utilities.

A mechanism is specified by :class:`MechanismSpec` and executed through
:func:`run_mechanism`, which returns per-transaction payments/burns, the
miner's utility (fee income from real transactions minus burn on the miner's
own fakes), and each user's quasi-linear utility
``(valuation - payment - burn) * size`` when included, zero otherwise.

Payment rules:

* first price: every included transaction pays its own per-unit bid;
* second price: every included transaction pays the lowest winning bid;
* posted price: pays ``bid - base_fee`` to the miner and burns ``base_fee``
  per unit.  Transactions bidding below the base fee are filtered out of the
  candidate set up front: including them would force a negative payment.

The split-block rule prices its reserved section at the posted constant
``delta`` and the randomized two-set rule pays nothing on the uniformly
sampled branch.  The burn follows the payment rule: only the posted price
burns.  ``_unit_prices`` gives these prices per unit for a trials x rows
slice of blocks.

The spec alone describes an arm: a rule-level deviation such as split
block's demotion is a field of the spec (:attr:`SplitBlockConfig.demote`),
not an extra argument.  ``_arm`` checks the inputs, appends the fakes to the
pool and picks the candidates.  Each allocation rule is one step in
:mod:`._trials`, over a slice of trials: :func:`run_mechanism` arms, draws
one trial's values from its generator, steps, and wraps that slice of one
trial in a :class:`MechanismOutcome`, which prices it only when read.  The
uniform rule's block is the :class:`~.alloc.AllocationResult` that
:func:`~.alloc.uniform_allocate` returns, since the zero-fee inclusion
audit calls :func:`run_mechanism` once a trial on it, as the benchmark's
tracing test counts.  A call on the very objects of the call before reuses
its arm.

The flat ``key = value`` config format lives here too: one table of keys,
:data:`CONFIG_KEYS`, and one parser serve :func:`spec_from_config`, the
sweep experiments and every CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import is_
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .alloc import (
    AllocationResult,
    SplitBlockConfig,
    _SplitBlock,
    _optimal_rows,
    _with_fakes,
    uniform_allocate,
)
from .errors import ConfigError, ParameterError, _check_capacity, _check_gamma, _check_int
from .errors import _check_real
from ._streams import _draw_trial
from .txpool import (
    BidDistribution,
    Mempool,
    PoolColumns,
    SeedLike,
    Transaction,
    parse_distribution,
    resolve_rng,
)


class AllocationKind(Enum):
    OPTIMAL = "optimal"
    UNIFORM = "uniform"
    SPLIT_BLOCK = "splitblock"
    SOFTMAX = "softmax"
    RTFM = "rtfm"


class PaymentKind(Enum):
    FIRST_PRICE = "fpa"
    SECOND_PRICE = "spa"
    POSTED_PRICE = "posted"


@dataclass(frozen=True)
class MechanismSpec:
    """Complete description of a fee mechanism."""

    allocation: AllocationKind
    payment: PaymentKind = PaymentKind.FIRST_PRICE
    gamma: Optional[float] = None
    phi: Optional[float] = None
    split: Optional[SplitBlockConfig] = None
    base_fee: Optional[float] = None

    def __post_init__(self) -> None:
        if self.allocation is AllocationKind.SOFTMAX:
            _check_gamma(self.gamma)
        if self.allocation is AllocationKind.RTFM:
            if self.phi is None or not 0 <= _check_real("phi", self.phi) <= 1:
                raise ParameterError("randomized two-set allocation needs phi in [0, 1]")
        if self.allocation is AllocationKind.SPLIT_BLOCK and self.split is None:
            raise ParameterError("split-block allocation needs a SplitBlockConfig")
        if self.payment is PaymentKind.POSTED_PRICE:
            if self.base_fee is None or not 0 <= _check_real("base_fee", self.base_fee) < math.inf:
                raise ParameterError(f"posted price needs finite lambda >= 0, got {self.base_fee}")

    # Common mechanisms, by their usual names.
    @classmethod
    def first_price(cls) -> "MechanismSpec":
        return cls(AllocationKind.OPTIMAL, PaymentKind.FIRST_PRICE)

    @classmethod
    def second_price(cls) -> "MechanismSpec":
        return cls(AllocationKind.OPTIMAL, PaymentKind.SECOND_PRICE)

    @classmethod
    def eip1559(cls, base_fee: float) -> "MechanismSpec":
        return cls(AllocationKind.OPTIMAL, PaymentKind.POSTED_PRICE, base_fee=base_fee)

    @classmethod
    def split_block(cls, alpha: float, delta: float = 0.0, base_fee: Optional[float] = None) -> "MechanismSpec":
        """BitcoinF-style split block; delta=0 is the zero-fee variant."""
        if base_fee is not None:
            return cls(AllocationKind.SPLIT_BLOCK, PaymentKind.POSTED_PRICE,
                       split=SplitBlockConfig(alpha, delta), base_fee=base_fee)
        return cls(AllocationKind.SPLIT_BLOCK, split=SplitBlockConfig(alpha, delta))

    @classmethod
    def uniform(cls) -> "MechanismSpec":
        return cls(AllocationKind.UNIFORM, PaymentKind.FIRST_PRICE)

    @classmethod
    def stfm(cls, gamma: float, payment: PaymentKind = PaymentKind.FIRST_PRICE,
             base_fee: Optional[float] = None) -> "MechanismSpec":
        return cls(AllocationKind.SOFTMAX, payment, gamma=gamma, base_fee=base_fee)

    @classmethod
    def rtfm(cls, phi: float, payment: PaymentKind = PaymentKind.FIRST_PRICE,
             base_fee: Optional[float] = None) -> "MechanismSpec":
        return cls(AllocationKind.RTFM, payment, phi=phi, base_fee=base_fee)


class _cached:
    """``functools.cached_property`` without the lock it takes on each first read (Python
    3.11): the value goes into the instance's ``__dict__``, past a frozen dataclass's
    ``__setattr__``, which still refuses assignment."""

    def __init__(self, compute: Callable):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass(frozen=True, eq=False, repr=False, init=False)
class MechanismOutcome:
    """One block of a mechanism.

    `payment_per_unit` and `burn_per_unit` map each included id to its price
    per unit (the main section first, then split block's reserved section),
    and `user_utilities` maps every real pool id to the user's utility.  The
    block, a :class:`._trials._Blocks` slice of one trial, prices itself when
    one of these or `miner_utility` is first read, and each dict is built on
    its first read and cached: the zero-fee inclusion audit reads only the
    allocation, and prices nothing.
    """

    allocation: AllocationResult
    coin_toss: Optional[int]

    def __init__(self, allocation: AllocationResult, coin_toss: Optional[int], arm: _Arm,
                 block: Optional[_Blocks] = None):
        # each run makes one: its fields go straight into __dict__, as the cached ones
        # do, past the frozen __setattr__ the generated __init__ would call a field
        fields = self.__dict__
        fields["allocation"], fields["coin_toss"], fields["_arm"] = allocation, coin_toss, arm
        if block is not None:
            fields["_block"] = block

    @_cached
    def _block(self) -> _Blocks:
        """An allocator's block, its rows looked up from the selected ids on first read."""
        rows = self._arm.pool.rows_of(self.allocation.selected)
        return _Blocks(self._arm, rows[None], np.ones((1, len(rows)), bool),
                       np.array([self.allocation.total_size]))

    @property
    def miner_utility(self) -> float:
        return self._block.miner_utility.item(0)

    def _by_id(self, values: np.ndarray) -> Dict[int, float]:
        """The block's `values` by included id, the main section first, then the reserved
        one."""
        block = self._block
        taken = block.taken[0]
        rows, values = block.rows[0][taken], values[0][taken]
        if block.reserved is not None:
            listed = block.reserved[0][taken].argsort(kind="stable")
            rows, values = rows[listed], values[listed]
        return dict(zip(self._arm.pool.columns.ids[rows].tolist(), values.tolist()))

    @_cached
    def payment_per_unit(self) -> Dict[int, float]:
        return self._by_id(self._block.payment)

    @_cached
    def burn_per_unit(self) -> Dict[int, float]:
        return self._by_id(self._block.burn)

    @_cached
    def user_utilities(self) -> Dict[int, float]:
        ids = self._arm.pool.columns.ids[:len(self._arm.m)]
        return dict(zip(ids.tolist(), self._block.user_utility[0].tolist()))

    def __repr__(self) -> str:
        return (f"MechanismOutcome(allocation={self.allocation!r}, "
                f"miner_utility={self.miner_utility!r}, coin_toss={self.coin_toss!r})")


@dataclass(frozen=True)
class BaseFeeState:
    """Dynamic posted price; nudged up or down by block fullness."""

    lam: float
    step: float = 0.125

    def __post_init__(self) -> None:
        if not 0 <= _check_real("lam", self.lam) < math.inf:
            raise ParameterError(f"base fee must be non-negative and finite, got {self.lam}")
        if not 0 < _check_real("step", self.step) < 1:
            raise ParameterError("step must lie in (0, 1)")


def update_base_fee(state: BaseFeeState, block_total_size, capacity_target) -> BaseFeeState:
    """Raise the base fee by `step` on an over-target block, lower it otherwise."""
    if not _check_real("block size", block_total_size) >= 0:
        raise ParameterError(f"block size must be non-negative, got {block_total_size}")
    _check_capacity(capacity_target)
    factor = 1 + state.step if block_total_size > capacity_target else 1 - state.step
    return BaseFeeState(state.lam * factor, state.step)


def is_excessively_low(lam: float, m: Mempool, capacity) -> bool:
    """True when all demand valued above the base fee already fits the block."""
    if math.isnan(_check_real("base fee lambda", lam)):
        raise ParameterError("base fee lambda must be a number, got nan")
    _check_capacity(capacity)
    c = m.columns
    return sum(c.sizes[c.valuations > lam].tolist()) <= capacity


def _filled(value, shape) -> np.ndarray:
    """Copies of `value` in `shape`, which keep its Python type unless it is a float."""
    return np.full(shape, value, dtype=float if type(value) is float else object)


def _unit_prices(spec: MechanismSpec, bids: np.ndarray, taken: np.ndarray,
                 reserved: Optional[np.ndarray] = None, pays: bool = True):
    """Payment and burn per unit of `bids`, a trials x rows slice of blocks, each made of
    its rows where `taken`.  Rows marked `reserved` (split block's posted-fee section)
    pay ``delta`` and burn nothing; a two-set block whose toss was 0 `pays` nothing.
    Second price charges each block its main section's lowest bid, 0.0 if that section
    is empty.  Every price keeps the number type of the bid, fee or ``delta`` it comes
    from."""
    zeros = np.zeros(bids.shape)
    if not pays:
        return zeros, zeros
    if spec.payment is PaymentKind.FIRST_PRICE:
        p, q = bids, zeros
    elif spec.payment is PaymentKind.SECOND_PRICE:
        main = taken if reserved is None else taken & ~reserved
        low = np.where(main, bids, np.inf).min(axis=-1, initial=np.inf, keepdims=True)
        p, q = np.where(low == np.inf, zeros, low), zeros
    else:
        p, q = bids - spec.base_fee, _filled(spec.base_fee, bids.shape)
    if reserved is None:
        return p, q
    return np.where(reserved, _filled(spec.split.delta, bids.shape), p), np.where(reserved, 0.0, q)


class _Arm(NamedTuple):
    """What the trials of one arm share: the spec, the pool and the capacity."""

    spec: MechanismSpec
    m: Mempool
    pool: Mempool  # m with the fakes appended
    capacity: object
    kept: np.ndarray  # the candidate rows: under a posted price, those bidding at least the fee

    def candidates(self) -> PoolColumns:
        """The columns of the candidate rows, copied only when some row is left out."""
        c = self.pool.columns
        return c if len(self.kept) == len(c.ids) else PoolColumns(*(col[self.kept] for col in c))


def _objective(spec: MechanismSpec, c: PoolColumns) -> Optional[np.ndarray]:
    """The knapsack's payment per unit: the bid less a posted base fee, else the bid."""
    return c.bids - spec.base_fee if spec.payment is PaymentKind.POSTED_PRICE else None


def _knapsack(arm: _Arm):
    """The revenue-optimal set of the candidates, as pool rows, and its total size."""
    c = arm.candidates()
    rows, total = _optimal_rows(c, arm.capacity, _objective(arm.spec, c))
    return arm.kept[rows], total


def _split_block(arm: _Arm) -> _SplitBlock:
    """The split-block rule over the arm's pool: under a posted price, the real rows
    bidding at least the base fee or exactly the posted fee are its candidates."""
    spec, c, n = arm.spec, arm.pool.columns, len(arm.m)
    real = np.arange(n)
    if spec.payment is PaymentKind.POSTED_PRICE:
        real = real[(c.bids[:n] >= spec.base_fee) | (c.bids[:n] == spec.split.delta)]
    return _SplitBlock(c, real, np.arange(n, len(c.ids)), arm.capacity, spec.split,
                       _objective(spec, c))


def _arm(spec: MechanismSpec, m: Mempool, capacity, fakes: Sequence[Transaction] = ()) -> _Arm:
    """The arm of the mechanism over the pool plus miner fakes, its inputs checked."""
    pool = _with_fakes(m, fakes)
    _check_capacity(capacity)
    kept = np.arange(len(pool))
    if spec.payment is PaymentKind.POSTED_PRICE:
        kept = np.flatnonzero(pool.columns.bids >= spec.base_fee)
    return _Arm(spec, m, pool, capacity, kept)


# the inputs of the last arm run_mechanism ran, held so that no other object takes
# their identities, and its one-trial run
_last_run: Tuple[tuple, Optional[Callable]] = ((), None)


def _one_trial(arm: _Arm) -> Callable:
    """``run(rng, toss)``: one trial of the arm, as a :class:`MechanismOutcome`; a rule
    that draws nothing gives its one block in every trial.  `toss` pins the two-set
    rule's branch, and every other rule ignores it."""
    if arm.spec.allocation is AllocationKind.UNIFORM:
        cand = arm.pool if len(arm.kept) == len(arm.pool) else arm.pool.take(arm.kept)
        return lambda rng, toss: MechanismOutcome(uniform_allocate(cand, arm.capacity, rng),
                                                  None, arm)
    kind, width, step = _batched(arm)
    fixed = _fixed(kind, width, step)
    if fixed is not None:
        block = fixed.one
        return lambda rng, toss: MechanismOutcome(block.allocation, block.toss, arm, block)

    def run(rng, toss) -> MechanismOutcome:
        block = step(_draw_trial(rng, kind, width, toss)).one
        return MechanismOutcome(block.allocation, block.toss, arm, block)
    return run


def run_mechanism(
    spec: MechanismSpec,
    m: Mempool,
    capacity,
    fakes: Sequence[Transaction] = (),
    seed: SeedLike = 0,
    rtfm_toss: Optional[int] = None,
) -> MechanismOutcome:
    """Execute one block of the mechanism over the pool plus miner fakes.

    `fakes` must carry ``fake=True`` and ids disjoint from the real pool; they
    participate in allocation like anyone else, their payments route back to
    the miner, and only their burn is a real cost.  For the randomized
    two-set rule, `rtfm_toss` can pin the branch (0 = zero-pay uniform set,
    1 = optimal set) instead of drawing it from the seed.

    A call given the very objects of the previous call's spec, pool, capacity
    and fakes reuses that call's arm.  Equal objects do not: 2, 2.0
    and Fraction(2) compare equal, but each computes in its own number type.
    """
    global _last_run
    if rtfm_toss not in (None, 0, 1):
        raise ParameterError(f"rtfm_toss must be 0, 1 or None, got {rtfm_toss!r}")
    inputs = (spec, m, capacity, *fakes)
    held, run = _last_run
    if len(held) != len(inputs) or not all(map(is_, held, inputs)):
        run = _one_trial(_arm(spec, m, capacity, inputs[3:]))
        _last_run = inputs, run
    return run(resolve_rng(seed), rtfm_toss)


def spec_to_config(spec: MechanismSpec) -> str:
    """Flat ``key=value`` text for a mechanism spec.  Each number is spelled as ``:g``
    spells its double (``gamma=2``) where ``float()`` reads that back, else as its
    ``repr``."""
    numbers = {"gamma": spec.gamma, "phi": spec.phi, "lambda": spec.base_fee}
    if spec.split is not None:
        if spec.split.demote is not None:
            raise ParameterError("the config format has no key for split-block demotion")
        numbers.update(alpha=spec.split.alpha, delta=spec.split.delta)
    lines = [f"allocation={spec.allocation.value}", f"payment={spec.payment.value}"]
    for key, value in numbers.items():
        if value is not None:
            short = f"{float(value):g}"
            lines.append(f"{key}={short if float(short) == float(value) else repr(float(value))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The flat ``key = value`` config format, shared by every subcommand

MECHANISM, POOL, SWEEP, AUDIT = "mechanism", "pool", "sweep", "audit"


def _float_list(text: str) -> Tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


class ConfigKey(NamedTuple):
    section: str
    parse: Callable[[str], object]
    default: object = None


# Every key the format knows: its section, how its value parses, and its
# default (None where the key has no default or the default is derived).
CONFIG_KEYS: Dict[str, ConfigKey] = {
    "allocation": ConfigKey(MECHANISM, AllocationKind),
    "payment": ConfigKey(MECHANISM, PaymentKind, PaymentKind.FIRST_PRICE),
    "gamma": ConfigKey(MECHANISM, float),
    "phi": ConfigKey(MECHANISM, float),
    "lambda": ConfigKey(MECHANISM, float),
    "alpha": ConfigKey(MECHANISM, float),
    "delta": ConfigKey(MECHANISM, float, 0.0),
    "n": ConfigKey(POOL, int, 1000),
    "capacity": ConfigKey(POOL, float, 100.0),
    "bids": ConfigKey(POOL, parse_distribution, BidDistribution.censored_gaussian(4, 3)),
    "sizes": ConfigKey(POOL, parse_distribution, BidDistribution.constant(1)),
    "seed": ConfigKey(POOL, lambda text: _check_int("seed", int(text)), 0),
    "sweep_param": ConfigKey(SWEEP, str, "phi"),
    "sweep_values": ConfigKey(SWEEP, _float_list, tuple(round(0.1 * i, 1) for i in range(11))),
    "runs": ConfigKey(SWEEP, int, 1000),
    "out": ConfigKey(SWEEP, str, ""),
    "size_ratio": ConfigKey(SWEEP, float, 10.0),
    "stratified_toss": ConfigKey(SWEEP, _bool, True),
    "property": ConfigKey(AUDIT, str),
    "trials": ConfigKey(AUDIT, int, 1000),
    "target_tx": ConfigKey(AUDIT, int, 0),
    "user": ConfigKey(AUDIT, int, 0),
    "epsilons": ConfigKey(AUDIT, _float_list, (1.0,)),
    "bid_grid": ConfigKey(AUDIT, _float_list),  # around the user's valuation
    "fake_budget": ConfigKey(AUDIT, int, 2),
    "fake_bid_grid": ConfigKey(AUDIT, _float_list, (0.0, 1.0)),
    "alpha_target": ConfigKey(AUDIT, float, 0.1),
    "phi_ratio": ConfigKey(AUDIT, float, 2.0),
    "gamma_lo": ConfigKey(AUDIT, float, 0.1),
    "gamma_hi": ConfigKey(AUDIT, float, 50.0),
}


def parse_config_text(text: str) -> Dict[str, object]:
    """Typed fields of a flat ``key = value`` config; ``#`` starts a comment.

    Malformed lines, duplicate keys, keys missing from :data:`CONFIG_KEYS`
    and values that do not parse as their key's type raise ConfigError.
    """
    fields: Dict[str, object] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise ConfigError(f"duplicate config key {key!r}")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        fields[key] = parse_config_value(key, value)
    return fields


def parse_config_value(key: str, value: str):
    """`value` parsed as config key `key`'s type; a value that does not parse raises ConfigError."""
    try:
        return CONFIG_KEYS[key].parse(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc


def config_value(fields: Dict[str, object], key: str):
    """The parsed value of `key`, or its schema default when the config omits it."""
    return fields.get(key, CONFIG_KEYS[key].default)


def spec_from_fields(fields: Dict[str, object]) -> MechanismSpec:
    """Build a spec from parsed config fields; keys of other sections are ignored."""
    if "allocation" not in fields:
        raise ConfigError("config is missing the allocation key")
    split_block = fields["allocation"] is AllocationKind.SPLIT_BLOCK
    if split_block and "alpha" not in fields:
        raise ConfigError("splitblock config needs alpha")
    try:
        split = (SplitBlockConfig(fields["alpha"], config_value(fields, "delta"))
                 if split_block else None)
        return MechanismSpec(fields["allocation"], config_value(fields, "payment"),
                             gamma=fields.get("gamma"), phi=fields.get("phi"), split=split,
                             base_fee=fields.get("lambda"))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def spec_from_config(text: str) -> MechanismSpec:
    """Parse a config that holds only mechanism keys."""
    fields = parse_config_text(text)
    other = sorted(k for k in fields if CONFIG_KEYS[k].section != MECHANISM)
    if other:
        raise ConfigError(f"not mechanism config keys: {other}")
    return spec_from_fields(fields)


# imported last: the steps build on this module's arms
from ._trials import _Blocks, _batched, _fixed  # noqa: E402
