"""A sequential reference for one trial of each allocation rule.

These are the one-trial rules tfmlab ran before every rule became a step over
slices of trials: each makes exactly the generator calls of one trial, walks
one order, and prices its block as one block, folding the miner's income and
burn in a plain loop.  The tests hold :func:`tfmlab.run_mechanism` and the
batched steps of ``tfmlab._trials`` to them.
"""

from functools import reduce
from operator import add

import numpy as np

from tfmlab.alloc import _sections, _softmax_rows, _walk, uniform_allocate
from tfmlab.mech import AllocationKind, _knapsack, _split_block, _unit_prices


def _block_income(sizes, p, q, fake) -> float:
    """Fee income ``size * p`` of the real rows minus burn ``size * q`` of the fake rows,
    each summed in block order from 0.0."""
    if not np.count_nonzero(fake):
        return reduce(add, (sizes * p).tolist(), 0.0)
    income = burn = 0.0
    for size, pay, cost, is_fake in zip(sizes.tolist(), p.tolist(), q.tolist(), fake.tolist()):
        if is_fake:
            burn += size * cost
        else:
            income += size * pay
    return income - burn


class Block:
    """One block of an arm: its rows of the arm's pool in block order, their total
    size, split block's `reserved` mask and the two-set rule's `toss`."""

    def __init__(self, arm, rows, total, reserved=None, toss=None):
        self.arm, self.rows, self.total, self.reserved, self.toss = arm, rows, total, reserved, toss
        self.payment, self.burn = _unit_prices(arm.spec, arm.pool.columns.bids[rows], True,
                                               reserved, toss != 0)

    @property
    def miner_utility(self) -> float:
        c, rows = self.arm.pool.columns, self.rows
        return _block_income(c.sizes[rows], self.payment, self.burn, c.fake[rows])

    @property
    def selected(self) -> tuple:
        return tuple(self.arm.pool.columns.ids[self.rows].tolist())

    def by_id(self, values) -> dict:
        """`values` by included id, the main section first, then the reserved one."""
        rows = self.rows
        if self.reserved is not None:
            listed = self.reserved.argsort(kind="stable")
            rows, values = rows[listed], values[listed]
        return dict(zip(self.arm.pool.columns.ids[rows].tolist(), values.tolist()))

    def user_utilities(self) -> dict:
        c, rows, n = self.arm.pool.columns, self.rows, len(self.arm.m)
        gain = (c.valuations[rows] - self.payment - self.burn) * c.sizes[rows]
        real = rows < n
        users = dict.fromkeys(c.ids[:n].tolist(), 0.0)
        users.update(zip(c.ids[rows[real]].tolist(), gain[real].tolist()))
        return users

    def outcome(self) -> tuple:
        """Everything a :class:`tfmlab.MechanismOutcome` of this block tells, each number by
        its repr, so that types and signs count."""
        selected = self.selected
        sections = _sections(selected, self.reserved, self.toss)
        return (selected, repr(self.total), repr(self.arm.capacity), sorted(sections.items()),
                repr(self.miner_utility), self.toss, repr(self.by_id(self.payment)),
                repr(self.by_id(self.burn)), repr(self.user_utilities()))


def _uniform(arm, rng, toss):
    cand = arm.pool if len(arm.kept) == len(arm.pool) else arm.pool.take(arm.kept)
    result = uniform_allocate(cand, arm.capacity, rng)
    return Block(arm, arm.pool.rows_of(result.selected), result.total_size)


def _softmax(arm, rng, toss):
    kept, c = arm.kept, arm.pool.columns
    if not len(kept):  # nothing to sample, and no noise to read
        return Block(arm, kept, 0)
    scaled = c.bids[kept].astype(float) / np.array([[arm.spec.gamma]], dtype=float)
    (order,), (took,), (total,) = _softmax_rows(
        c.sizes[kept].astype(float), scaled, rng.gumbel(size=(1, len(kept))), arm.capacity)
    return Block(arm, kept[order[took]], total.tolist())


def _split_block_rule(arm, rng, toss):
    split, c = _split_block(arm), arm.pool.columns
    order = np.concatenate((split.posted[rng.permutation(len(split.posted))], split.demoted))
    rows, _ = _walk(c.sizes, order, split.cap_posted, split.fake_total)
    free = split.payable.copy()
    free[rows] = False
    chosen = np.concatenate((split.fake_rows, rows, split.paid(free)))
    by_id = c.ids[chosen].argsort()
    chosen = chosen[by_id]
    return Block(arm, chosen, sum(c.sizes[chosen].tolist()),
                 by_id < len(split.fake_rows) + len(rows))


def _two_set(arm, rng, toss):
    """A biased toss between the zero-pay uniform set (0) and the optimal set (1); both
    branches draw a permutation of the whole pool after the toss."""
    if toss is None:
        toss = 0 if rng.random() < arm.spec.phi else 1
    order = rng.permutation(len(arm.pool))
    if toss == 0:
        return Block(arm, *_walk(arm.pool.columns.sizes, order, arm.capacity), toss=0)
    return Block(arm, *_knapsack(arm), toss=1)


RULES = {
    AllocationKind.OPTIMAL: lambda arm, rng, toss: Block(arm, *_knapsack(arm)),
    AllocationKind.UNIFORM: _uniform,
    AllocationKind.SOFTMAX: _softmax,
    AllocationKind.SPLIT_BLOCK: _split_block_rule,
    AllocationKind.RTFM: _two_set,
}


def one_trial(arm, rng, toss=None) -> Block:
    """One trial of the arm's rule on the generator `rng`; `toss` pins the two-set rule's
    branch, and every other rule ignores it."""
    return RULES[arm.spec.allocation](arm, rng, toss)
