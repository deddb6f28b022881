"""Audit trials stepped all at once.

:func:`_softmax_trials` takes a softmax arm of :mod:`.mech` and returns its
step over many trials, which gives for each trial the block, total and
utilities that the rule's one-trial step gives from that trial's stream,
bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .alloc import _running, _softmax_rows
from .mech import PaymentKind, _Arm


class _Blocks(NamedTuple):
    """The blocks of every trial of a prepared arm, one row of each array a trial."""

    included: np.ndarray  # a column per pool row, the fakes last
    total: np.ndarray
    miner_utility: np.ndarray
    user_utility: np.ndarray  # a column per real row, 0.0 where the row is left out


def _softmax_trials(arm: _Arm):
    """The softmax rule's step of many trials at once: each row of ``step(gumbel)``'s noise
    (its first k columns for k candidates) gives the block ``mech._softmax_rule`` draws
    from that trial's stream, priced as ``mech._price_included`` and
    ``mech._block_income`` price it.  None where the rule draws nothing, or where
    Fractions or ints must keep their own arithmetic on the one-trial step."""
    spec, kept, c, n = arm.spec, arm.kept, arm.pool.columns, len(arm.m)
    fee = spec.base_fee if spec.payment is PaymentKind.POSTED_PRICE else 0.0
    if not len(kept) or type(fee) is not float or \
            object in (c.sizes.dtype, c.bids.dtype, c.valuations.dtype):
        return None
    sizes, scaled = c.sizes[kept], c.bids[kept] / spec.gamma

    def step(gumbel: np.ndarray) -> _Blocks:
        orders, taken, total = _softmax_rows(sizes, scaled, gumbel[:, :len(kept)], arm.capacity)
        rows = kept[orders]
        size, p = c.sizes[rows], c.bids[rows] - fee
        if spec.payment is PaymentKind.SECOND_PRICE:  # the lowest included bid, fakes too
            p = np.where(taken, c.bids[rows], np.inf).min(axis=1, initial=np.inf, keepdims=True)
            p[p == np.inf] = 0.0
        real, fake = taken & ~c.fake[rows], taken & c.fake[rows]
        income = _running(np.where(real, size * p, 0.0))[:, -1]
        burn = _running(np.where(fake, size * fee, 0.0))[:, -1]
        included = np.zeros((len(total), len(c.ids)), bool)
        np.put_along_axis(included, rows, taken, axis=1)
        users = np.zeros(included.shape)
        np.put_along_axis(users, rows, np.where(real, (c.valuations[rows] - p - fee) * size, 0.0),
                          axis=1)
        return _Blocks(included, total, income - burn, users[:, :n])
    return step
