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
burns.

The allocation rules form one table, ``_RULES``, from
:class:`AllocationKind` to a rule.  The spec alone describes an arm: a
rule-level deviation such as split block's demotion is a field of the spec
(:attr:`SplitBlockConfig.demote`), not an extra argument.  ``_arm`` checks
the inputs, appends the fakes to the pool and picks the candidates;
``_prepare`` does the rule's per-arm work once (the knapsack solve, the
scaled bids) and returns its one-trial step, with exactly the generator
calls of :func:`run_mechanism`, which is itself arm, prepare, step and
wrap.  Every rule steps on rows of the arm's pool (the user's pool, then
the fakes); only the wrap turns them into ids.  The audits, the cost of
fairness and the sweeps step arms and read the block's arrays; only the
zero-fee inclusion audit's uniform arm calls :func:`run_mechanism`, once
per trial, because the benchmark's tracing test counts those calls and reads
the fills of :func:`~.alloc.uniform_allocate`.  The audits step a softmax arm
with candidates over many trials at once (:mod:`._trials`), on noise drawn a
slice of trials at a time that all the softmax arms of a call share; the
softmax sweep steps it in two parts, noise and block (:func:`_softmax_parts`),
so that it draws a run's noise once for all its cells.

The flat ``key = value`` config format lives here too: one table of keys,
:data:`CONFIG_KEYS`, and one parser serve :func:`spec_from_config`, the
sweep experiments and every CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from operator import add
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .alloc import (
    AllocationResult,
    SplitBlockConfig,
    _optimal_rows,
    _prepare_splitblock,
    _sections,
    _softmax_walk,
    _walk,
    _with_fakes,
    uniform_allocate,
)
from .errors import ConfigError, ParameterError, _check_capacity, _check_gamma, _check_int
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
            if self.phi is None or not 0 <= self.phi <= 1:
                raise ParameterError("randomized two-set allocation needs phi in [0, 1]")
        if self.allocation is AllocationKind.SPLIT_BLOCK and self.split is None:
            raise ParameterError("split-block allocation needs a SplitBlockConfig")
        if self.payment is PaymentKind.POSTED_PRICE:
            if self.base_fee is None or not 0 <= self.base_fee < math.inf:
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


class _Block(NamedTuple):
    """One block of a prepared mechanism, with its prices as arrays.

    Audits and sweeps read a trial's block directly; :func:`run_mechanism`
    wraps it in a :class:`MechanismOutcome`, which builds its dicts from it.
    """

    columns: PoolColumns  # of the pool with the miner's fakes appended
    rows: np.ndarray  # the included rows, in block order
    total: object  # their total size, summed as the allocation rule sums it
    payment: np.ndarray  # per unit, for each included row
    burn: np.ndarray
    reserved: Optional[np.ndarray]  # split block's posted-fee section, for each included row
    real: int  # the first `real` rows are the pool's own transactions
    toss: Optional[int]  # the two-set rule's branch
    miner_utility: float

    def by_id(self, values: np.ndarray) -> Dict[int, float]:
        """`values` by included id, the main section first, then the reserved one."""
        rows = self.rows
        if self.reserved is not None:
            listed = self.reserved.argsort(kind="stable")
            rows, values = rows[listed], values[listed]
        return dict(zip(self.columns.ids[rows].tolist(), values.tolist()))

    def user_utilities(self) -> Dict[int, float]:
        c, rows = self.columns, self.rows
        gain = (c.valuations[rows] - self.payment - self.burn) * c.sizes[rows]
        real = rows < self.real
        users = dict.fromkeys(c.ids[:self.real].tolist(), 0.0)
        users.update(zip(c.ids[rows[real]].tolist(), gain[real].tolist()))
        return users


@dataclass(frozen=True, eq=False)
class MechanismOutcome:
    """One block of a mechanism.

    `payment_per_unit` and `burn_per_unit` map each included id to its price
    per unit (the main section first, then split block's reserved section),
    and `user_utilities` maps every real pool id to the user's utility.  The
    three dicts are built from the block's price arrays on first read and
    cached: most audit runs read only the block and the miner's utility.
    """

    allocation: AllocationResult
    miner_utility: float
    coin_toss: Optional[int]
    _priced: _Block = field(repr=False)

    @cached_property
    def payment_per_unit(self) -> Dict[int, float]:
        return self._priced.by_id(self._priced.payment)

    @cached_property
    def burn_per_unit(self) -> Dict[int, float]:
        return self._priced.by_id(self._priced.burn)

    @cached_property
    def user_utilities(self) -> Dict[int, float]:
        return self._priced.user_utilities()


@dataclass(frozen=True)
class BaseFeeState:
    """Dynamic posted price; nudged up or down by block fullness."""

    lam: float
    step: float = 0.125

    def __post_init__(self) -> None:
        if not 0 <= self.lam < math.inf:
            raise ParameterError(f"base fee must be non-negative and finite, got {self.lam}")
        if not 0 < self.step < 1:
            raise ParameterError("step must lie in (0, 1)")


def update_base_fee(state: BaseFeeState, block_total_size, capacity_target) -> BaseFeeState:
    """Raise the base fee by `step` on an over-target block, lower it otherwise."""
    if not block_total_size >= 0:
        raise ParameterError(f"block size must be non-negative, got {block_total_size}")
    _check_capacity(capacity_target)
    factor = 1 + state.step if block_total_size > capacity_target else 1 - state.step
    return BaseFeeState(state.lam * factor, state.step)


def is_excessively_low(lam: float, m: Mempool, capacity) -> bool:
    """True when all demand valued above the base fee already fits the block."""
    if math.isnan(lam):
        raise ParameterError("base fee lambda must be a number, got nan")
    _check_capacity(capacity)
    c = m.columns
    return sum(c.sizes[c.valuations > lam].tolist()) <= capacity


def _block_income(sizes: np.ndarray, p: np.ndarray, q: np.ndarray, fake: np.ndarray) -> float:
    """Fee income ``size * p`` of the real rows minus burn ``size * q`` of the
    fake rows, each summed in block order from 0.0."""
    if not np.count_nonzero(fake):
        return reduce(add, (sizes * p).tolist(), 0.0)
    # blocks with fakes are the miner-deviation audits' small ones, where one
    # loop beats three masked numpy passes
    income = burn = 0.0
    for size, pay, cost, is_fake in zip(sizes.tolist(), p.tolist(), q.tolist(), fake.tolist()):
        if is_fake:
            burn += size * cost
        else:
            income += size * pay
    return income - burn


def _filled(value, n: int) -> np.ndarray:
    """`n` copies of `value`, which keeps its Python type unless it is a float."""
    return np.full(n, value, dtype=float if type(value) is float else object)


def _price_included(spec: MechanismSpec, c: PoolColumns, rows: np.ndarray,
                    reserved: Optional[np.ndarray]):
    """Payment and burn per unit of the included `rows`, in that order;
    `reserved` marks the rows in split block's posted-fee section."""
    bids = c.bids[rows]
    n = len(rows)
    if spec.payment is PaymentKind.FIRST_PRICE:
        p, q = bids, np.zeros(n)
    elif spec.payment is PaymentKind.SECOND_PRICE:
        main = (bids if reserved is None else bids[~reserved]).tolist()
        p, q = _filled(min(main) if main else 0.0, n), np.zeros(n)
    else:
        p, q = bids - spec.base_fee, _filled(spec.base_fee, n)
    if reserved is None:
        return p, q
    return np.where(reserved, _filled(spec.split.delta, n), p), np.where(reserved, 0.0, q)


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

    def block(self, rows: np.ndarray, total, reserved: Optional[np.ndarray] = None,
              toss: Optional[int] = None) -> _Block:
        """The block of `rows`, priced; the two-set rule's zero-pay branch prices nothing."""
        c = self.pool.columns
        if toss == 0:
            p = q = np.zeros(len(rows))
        else:
            p, q = _price_included(self.spec, c, rows, reserved)
        return _Block(c, rows, total, p, q, reserved, len(self.m), toss,
                      _block_income(c.sizes[rows], p, q, c.fake[rows]))


def _objective(spec: MechanismSpec, c: PoolColumns) -> Optional[np.ndarray]:
    """The knapsack's payment per unit: the bid less a posted base fee, else the bid."""
    return c.bids - spec.base_fee if spec.payment is PaymentKind.POSTED_PRICE else None


# The allocation rules.  A rule does the work its arm's trials share once and
# returns the draw of one trial, ``draw(rng, toss=None) -> _Block``, which makes
# only the rule's generator calls; `toss` pins the two-set rule's branch and
# every other rule ignores it.


def _knapsack(arm: _Arm):
    """The revenue-optimal set of the candidates, as pool rows, and its total size."""
    c = arm.candidates()
    rows, total = _optimal_rows(c, arm.capacity, _objective(arm.spec, c))
    return arm.kept[rows], total


def _knapsack_rule(arm: _Arm):
    """The revenue-optimal set of the candidates, the same in every trial."""
    block = arm.block(*_knapsack(arm))
    return lambda rng, toss=None: block


def _uniform_rule(arm: _Arm):
    """The uniform allocator over the candidates."""
    cand = arm.pool if len(arm.kept) == len(arm.pool) else arm.pool.take(arm.kept)

    def draw(rng, toss=None):
        result = uniform_allocate(cand, arm.capacity, rng)
        return arm.block(arm.pool.rows_of(result.selected), result.total_size)
    return draw


def _softmax_parts(arm: _Arm):
    """The softmax rule's step in two parts: ``noise(rng)`` draws a trial's Gumbel
    noise, one value per candidate, and ``block(gumbel)`` walks the Gumbel-top-k
    order of the keys ``bid/gamma + gumbel`` and prices it.  The noise depends
    only on the number of candidates, so one draw serves every temperature and
    capacity over the same candidates."""
    kept, c = arm.kept, arm.candidates()
    # the walk runs in floats whatever the size column holds
    sizes = c.sizes.astype(float, copy=False)
    scaled = c.bids.astype(float, copy=False) / arm.spec.gamma
    if not len(kept):  # nothing to sample, and no draw made
        empty = arm.block(kept, 0)
        return (lambda rng: None), (lambda gumbel: empty)

    def block(gumbel):
        rows, total = _softmax_walk(sizes, scaled, gumbel, arm.capacity)
        return arm.block(kept[rows], float(total))
    return (lambda rng: rng.gumbel(size=len(kept))), block


def _softmax_rule(arm: _Arm):
    """The Gumbel-top-k order of the candidates' keys ``bid/gamma + Gumbel``, walked."""
    noise, block = _softmax_parts(arm)
    return lambda rng, toss=None: block(noise(rng))


def _split_block_rule(arm: _Arm):
    """The reserved section sampled from the posted-fee bids, then the paid knapsack."""
    spec, c, n = arm.spec, arm.pool.columns, len(arm.m)
    real = np.arange(n)
    if spec.payment is PaymentKind.POSTED_PRICE:
        real = real[(c.bids[:n] >= spec.base_fee) | (c.bids[:n] == spec.split.delta)]
    draw = _prepare_splitblock(c, real, np.arange(n, len(c.ids)), arm.capacity, spec.split,
                               _objective(spec, c))
    return lambda rng, toss=None: arm.block(*draw(rng))


def _two_set_rule(arm: _Arm):
    """A biased toss between the zero-pay uniform set (0) and the optimal set (1).

    Both branches draw a permutation of the whole pool after the toss, which
    keeps the generator stream aligned across branches; the zero-pay branch
    walks it, and the paying branch's knapsack is solved the first time the
    branch is taken.
    """
    sizes, paying = arm.pool.columns.sizes, []

    def draw(rng, toss=None):
        if toss is None:
            toss = 0 if rng.random() < arm.spec.phi else 1
        order = rng.permutation(len(sizes))
        if toss == 0:
            return arm.block(*_walk(sizes, order, arm.capacity), toss=0)
        if not paying:
            paying.append(arm.block(*_knapsack(arm), toss=1))
        return paying[0]
    return draw


_RULES = {
    AllocationKind.OPTIMAL: _knapsack_rule,
    AllocationKind.UNIFORM: _uniform_rule,
    AllocationKind.SOFTMAX: _softmax_rule,
    AllocationKind.SPLIT_BLOCK: _split_block_rule,
    AllocationKind.RTFM: _two_set_rule,
}


def _arm(spec: MechanismSpec, m: Mempool, capacity, fakes: Sequence[Transaction] = ()) -> _Arm:
    """The arm of the mechanism over the pool plus miner fakes, its inputs checked."""
    pool = _with_fakes(m, fakes)
    _check_capacity(capacity)
    kept = np.arange(len(pool))
    if spec.payment is PaymentKind.POSTED_PRICE:
        kept = np.flatnonzero(pool.columns.bids >= spec.base_fee)
    return _Arm(spec, m, pool, capacity, kept)


def _prepare(arm: _Arm):
    """The arm's one-trial draw (see the rules above), its rule's shared work done once."""
    return _RULES[arm.spec.allocation](arm)


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
    """
    if rtfm_toss not in (None, 0, 1):
        raise ParameterError(f"rtfm_toss must be 0, 1 or None, got {rtfm_toss!r}")
    block = _prepare(_arm(spec, m, capacity, fakes))(resolve_rng(seed), rtfm_toss)
    selected = tuple(block.columns.ids[block.rows].tolist())
    sections = _sections(selected, block.reserved, block.toss)
    return MechanismOutcome(AllocationResult(selected, block.total, capacity, sections),
                            block.miner_utility, block.toss, block)


def spec_to_config(spec: MechanismSpec) -> str:
    """Flat ``key=value`` text for a mechanism spec."""
    lines = [f"allocation={spec.allocation.value}", f"payment={spec.payment.value}"]
    if spec.gamma is not None:
        lines.append(f"gamma={spec.gamma:g}")
    if spec.phi is not None:
        lines.append(f"phi={spec.phi:g}")
    if spec.base_fee is not None:
        lines.append(f"lambda={spec.base_fee:g}")
    if spec.split is not None:
        if spec.split.demote is not None:
            raise ParameterError("the config format has no key for split-block demotion")
        lines.append(f"alpha={spec.split.alpha:g}")
        lines.append(f"delta={spec.split.delta:g}")
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
