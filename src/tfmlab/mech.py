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
sampled branch.

The flat ``key = value`` config format lives here too: one table of keys,
:data:`CONFIG_KEYS`, and one parser serve :func:`spec_from_config`, the
sweep experiments and every CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from operator import add
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .alloc import (
    AllocationResult,
    SECTION_ONE_MINUS_ALPHA,
    SECTION_OPT,
    SECTION_RAND,
    SplitBlockConfig,
    optimal_allocate,
    splitblock_allocate,
    stfm_allocate,
    uniform_allocate,
)
from .errors import ConfigError, ParameterError
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


class BurnKind(Enum):
    NONE = "none"
    POSTED_PRICE = "posted"


@dataclass(frozen=True)
class MechanismSpec:
    """Complete description of a fee mechanism."""

    allocation: AllocationKind
    payment: PaymentKind = PaymentKind.FIRST_PRICE
    burning: BurnKind = BurnKind.NONE
    gamma: Optional[float] = None
    phi: Optional[float] = None
    split: Optional[SplitBlockConfig] = None
    base_fee: Optional[float] = None

    def __post_init__(self) -> None:
        if self.allocation is AllocationKind.SOFTMAX:
            if self.gamma is None or not self.gamma > 0:
                raise ParameterError("softmax allocation needs gamma > 0")
        if self.allocation is AllocationKind.RTFM:
            if self.phi is None or not 0 <= self.phi <= 1:
                raise ParameterError("randomized two-set allocation needs phi in [0, 1]")
        if self.allocation is AllocationKind.SPLIT_BLOCK and self.split is None:
            raise ParameterError("split-block allocation needs a SplitBlockConfig")
        if self.burning is BurnKind.POSTED_PRICE and self.payment is not PaymentKind.POSTED_PRICE:
            raise ParameterError("posted-price burning requires posted-price payment")
        if self.payment is PaymentKind.POSTED_PRICE:
            if self.base_fee is None or self.base_fee < 0:
                raise ParameterError("posted-price payment needs base_fee >= 0")

    # Common mechanisms, by their usual names.
    @classmethod
    def first_price(cls) -> "MechanismSpec":
        return cls(AllocationKind.OPTIMAL, PaymentKind.FIRST_PRICE)

    @classmethod
    def second_price(cls) -> "MechanismSpec":
        return cls(AllocationKind.OPTIMAL, PaymentKind.SECOND_PRICE)

    @classmethod
    def eip1559(cls, base_fee: float) -> "MechanismSpec":
        return cls(
            AllocationKind.OPTIMAL,
            PaymentKind.POSTED_PRICE,
            BurnKind.POSTED_PRICE,
            base_fee=base_fee,
        )

    @classmethod
    def split_block(cls, alpha: float, delta: float = 0.0, base_fee: Optional[float] = None) -> "MechanismSpec":
        """BitcoinF-style split block; delta=0 is the zero-fee variant."""
        if base_fee:
            return cls(
                AllocationKind.SPLIT_BLOCK,
                PaymentKind.POSTED_PRICE,
                BurnKind.POSTED_PRICE,
                split=SplitBlockConfig(alpha, delta),
                base_fee=base_fee,
            )
        return cls(AllocationKind.SPLIT_BLOCK, split=SplitBlockConfig(alpha, delta))

    @classmethod
    def uniform(cls) -> "MechanismSpec":
        return cls(AllocationKind.UNIFORM, PaymentKind.FIRST_PRICE)

    @classmethod
    def stfm(cls, gamma: float, payment: PaymentKind = PaymentKind.FIRST_PRICE,
             base_fee: Optional[float] = None) -> "MechanismSpec":
        burn = BurnKind.POSTED_PRICE if payment is PaymentKind.POSTED_PRICE else BurnKind.NONE
        return cls(AllocationKind.SOFTMAX, payment, burn, gamma=gamma, base_fee=base_fee)

    @classmethod
    def rtfm(cls, phi: float, payment: PaymentKind = PaymentKind.FIRST_PRICE,
             base_fee: Optional[float] = None) -> "MechanismSpec":
        burn = BurnKind.POSTED_PRICE if payment is PaymentKind.POSTED_PRICE else BurnKind.NONE
        return cls(AllocationKind.RTFM, payment, burn, phi=phi, base_fee=base_fee)


class _PricedBlock(NamedTuple):
    """A block's prices as arrays, from which an outcome builds its dicts."""

    columns: PoolColumns  # of the pool with the miner's fakes appended
    rows: np.ndarray  # the included rows, in block order
    payment: np.ndarray  # per unit, for each included row
    burn: np.ndarray
    reserved: Optional[np.ndarray]  # split block's posted-fee section, for each included row
    real: int  # the first `real` rows are the pool's own transactions

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
    _priced: _PricedBlock = field(repr=False)

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
        if self.lam < 0:
            raise ParameterError("base fee must be non-negative")
        if not 0 < self.step < 1:
            raise ParameterError("step must lie in (0, 1)")


def update_base_fee(state: BaseFeeState, block_total_size, capacity_target) -> BaseFeeState:
    """Raise the base fee by `step` on an over-target block, lower it otherwise."""
    factor = 1 + state.step if block_total_size > capacity_target else 1 - state.step
    return BaseFeeState(state.lam * factor, state.step)


def is_excessively_low(lam: float, m: Mempool, capacity) -> bool:
    """True when all demand valued above the base fee already fits the block."""
    c = m.columns
    return sum(c.sizes[c.valuations > lam].tolist()) <= capacity


def _block_income(sizes: np.ndarray, p: np.ndarray, q: np.ndarray, fake: np.ndarray) -> float:
    """Fee income ``size * p`` of the real rows minus burn ``size * q`` of the
    fake rows, each summed in block order from 0.0."""
    if not np.count_nonzero(fake):
        return reduce(add, (sizes * p).tolist(), 0.0)
    return (reduce(add, (sizes * p)[~fake].tolist(), 0.0)
            - reduce(add, (sizes * q)[fake].tolist(), 0.0))


def miner_utility(block_txs: Iterable[Transaction], fakes: frozenset, p: Dict[int, float],
                  q: Dict[int, float]) -> float:
    """Fee income from included real transactions minus burn on included fakes."""
    block = Mempool(block_txs).columns
    ids = block.ids.tolist()
    fake = block.fake | np.array([t in fakes for t in ids], dtype=bool)
    per_unit = np.array([q.get(t, 0.0) if f else p[t] for t, f in zip(ids, fake.tolist())],
                        dtype=object)
    return _block_income(block.sizes, per_unit, per_unit, fake)


def _filled(value, n: int) -> np.ndarray:
    """`n` copies of `value`, which keeps its Python type unless it is a float."""
    return np.full(n, value, dtype=float if type(value) is float else object)


def _posted_eligible(pool: Mempool, lam: float) -> Mempool:
    return pool.take(pool.columns.bids >= lam)


def _objective_payment(spec: MechanismSpec, pool: Mempool) -> Optional[np.ndarray]:
    if spec.payment is PaymentKind.POSTED_PRICE:
        return pool.columns.bids - spec.base_fee
    return None  # rank by bid


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


def run_mechanism(
    spec: MechanismSpec,
    m: Mempool,
    capacity,
    fakes: Sequence[Transaction] = (),
    seed: SeedLike = 0,
    rtfm_toss: Optional[int] = None,
    splitblock_demote: Optional[bool] = None,
) -> MechanismOutcome:
    """Execute one block of the mechanism over the pool plus miner fakes.

    `fakes` must carry ``fake=True`` and ids disjoint from the real pool; they
    participate in allocation like anyone else, their payments route back to
    the miner, and only their burn is a real cost.  For the randomized
    two-set rule, `rtfm_toss` can pin the branch (0 = zero-pay uniform set,
    1 = optimal set) instead of drawing it from the seed.
    """
    for tx in fakes:
        if not tx.fake:
            raise ParameterError(f"fake transaction {tx.id} must carry fake=True")
        if tx.id in m:
            raise ParameterError(f"fake transaction id {tx.id} collides with the mempool")
    rng = resolve_rng(seed)
    pool = m.extend(fakes) if fakes else m
    lam = spec.base_fee if spec.payment is PaymentKind.POSTED_PRICE else None

    toss: Optional[int] = None
    sections = None

    if spec.allocation is AllocationKind.OPTIMAL:
        cand = _posted_eligible(pool, lam) if lam is not None else pool
        allocation = optimal_allocate(cand, capacity, payment_per_unit=_objective_payment(spec, cand))
    elif spec.allocation is AllocationKind.UNIFORM:
        cand = _posted_eligible(pool, lam) if lam is not None else pool
        allocation = uniform_allocate(cand, capacity, rng)
    elif spec.allocation is AllocationKind.SOFTMAX:
        cand = _posted_eligible(pool, lam) if lam is not None else pool
        allocation = stfm_allocate(cand, capacity, spec.gamma, rng)
    elif spec.allocation is AllocationKind.SPLIT_BLOCK:
        alpha_pay = None
        real_pool = m
        if lam is not None:
            bids = m.columns.bids
            real_pool = m.take((bids >= lam) | (bids == spec.split.delta))
            alpha_pay = _objective_payment(spec, real_pool)
        allocation = splitblock_allocate(
            real_pool, capacity, spec.split, fake_fill=fakes, seed=rng,
            demote_to_posted=splitblock_demote, alpha_payment=alpha_pay,
        )
        sections = allocation.sections
    elif spec.allocation is AllocationKind.RTFM:
        toss = rtfm_toss
        if toss is None:
            toss = 0 if rng.random() < spec.phi else 1
        if toss == 0:
            raw = uniform_allocate(pool, capacity, rng)
            allocation = AllocationResult(raw.selected, raw.total_size, capacity,
                                          dict.fromkeys(raw.selected, SECTION_RAND))
        else:
            rng.permutation(len(pool))  # keep the seed stream aligned across branches
            cand = _posted_eligible(pool, lam) if lam is not None else pool
            raw = optimal_allocate(cand, capacity, payment_per_unit=_objective_payment(spec, cand))
            allocation = AllocationResult(raw.selected, raw.total_size, capacity,
                                          dict.fromkeys(raw.selected, SECTION_OPT))
    else:  # pragma: no cover
        raise ParameterError(f"unknown allocation kind {spec.allocation}")

    c = pool.columns
    selected = allocation.selected
    rows = pool.rows_of(selected)
    reserved = None
    if sections:
        reserved = np.array([sections[t] == SECTION_ONE_MINUS_ALPHA for t in selected], dtype=bool)
    if toss == 0:
        p = q = np.zeros(len(rows))
    else:
        p, q = _price_included(spec, c, rows, reserved)
    u_miner = _block_income(c.sizes[rows], p, q, c.fake[rows])
    return MechanismOutcome(allocation, u_miner, toss,
                            _PricedBlock(c, rows, p, q, reserved, len(m)))


def spec_to_config(spec: MechanismSpec) -> str:
    """Flat ``key=value`` text for a mechanism spec."""
    lines = [f"allocation={spec.allocation.value}", f"payment={spec.payment.value}",
             f"burning={spec.burning.value}"]
    if spec.gamma is not None:
        lines.append(f"gamma={spec.gamma:g}")
    if spec.phi is not None:
        lines.append(f"phi={spec.phi:g}")
    if spec.base_fee is not None:
        lines.append(f"lambda={spec.base_fee:g}")
    if spec.split is not None:
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
    "burning": ConfigKey(MECHANISM, BurnKind),  # posted under posted-price payment, else none
    "gamma": ConfigKey(MECHANISM, float),
    "phi": ConfigKey(MECHANISM, float),
    "lambda": ConfigKey(MECHANISM, float),
    "alpha": ConfigKey(MECHANISM, float),
    "delta": ConfigKey(MECHANISM, float, 0.0),
    "n": ConfigKey(POOL, int, 1000),
    "capacity": ConfigKey(POOL, float, 100.0),
    "bids": ConfigKey(POOL, parse_distribution, BidDistribution.censored_gaussian(4, 3)),
    "sizes": ConfigKey(POOL, parse_distribution, BidDistribution.constant(1)),
    "seed": ConfigKey(POOL, int, 0),
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
        try:
            fields[key] = CONFIG_KEYS[key].parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
    return fields


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
    payment = config_value(fields, "payment")
    default_burn = BurnKind.POSTED_PRICE if payment is PaymentKind.POSTED_PRICE else BurnKind.NONE
    try:
        split = (SplitBlockConfig(fields["alpha"], config_value(fields, "delta"))
                 if split_block else None)
        return MechanismSpec(fields["allocation"], payment, fields.get("burning", default_burn),
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
