"""The trial streams of one audit call.

Audit trial i draws from the stream ``numpy.random.default_rng([seed, i])``
builds.  numpy seeds each such stream through its SeedSequence hash, which
costs more than the trial's draws.  This module hashes the words of many
trials at once, reproducing the SeedSequence hash in vectorized integer
arithmetic, and numpy's own PCG64 then seeds each trial's generator from its
words.  numpy's own seeding is the oracle the tests check the streams against.
"""

from __future__ import annotations

from typing import List

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError, _check_int

# numpy's SeedSequence hash, with a pool of four uint32 words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_BATCH = 1024  # most trials one vectorized pass hashes, which bounds its arrays
_CHUNK = 4096  # most Gumbel draws a slice holds, which keeps the batched steps' arrays small


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash of uint32 words (ints or an array), and the next constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    value = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
    return value ^ value >> 16


def _trial_words(seed_words: List[int], lo: int, hi: int) -> np.ndarray:
    """The PCG64 seeding words of trials lo, ..., hi - 1: a row of four native uint64
    words per trial.

    Trial i's row is ``np.random.SeedSequence([seed, i]).generate_state(4,
    np.uint64)``: the SeedSequence mixes the entropy words ``seed_words + [i]``
    into a pool of four and hashes the pool into eight uint32 words, which
    pair up little-endian into uint64 words.  Each step runs once over all the
    trials, on a plain int while there is one trial.
    """
    if hi > 1 << 32:
        raise ParameterError("an audit call replays at most 2**32 trials")
    index = lo if hi - lo == 1 else np.arange(lo, hi, dtype=np.uint32)
    entropy = seed_words + [index] + [0] * (_POOL_SIZE - 1 - len(seed_words))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    rows = np.empty((hi - lo, 2 * _POOL_SIZE), dtype="<u4")
    const = _INIT_B
    for k in range(2 * _POOL_SIZE):
        rows[:, k], const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
    # as SeedSequence does it: read little-endian, hand back in the host's byte order
    return rows.view("<u8").astype(np.uint64, copy=False)


class _TrialSeed(ISeedSequence):
    """One trial's four uint64 seeding words, which numpy's PCG64 seeds itself from."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for (4, np.uint64) and reads the array's buffer: four contiguous
        # uint64 words in the host's byte order
        if n_words != 4 or dtype is not np.uint64:
            raise ParameterError("a trial seed holds PCG64's four uint64 words only")
        return self.words


class _TrialStreams:
    """The trial generators of one audit call, which makes `trials` runs at most.

    Trial i's stream is the one ``np.random.default_rng([seed, i])`` builds,
    but no trial goes through numpy's SeedSequence: :func:`_trial_words`
    hashes the trials' seeding words in vectorized passes, and asking for
    trial i builds a new generator whose PCG64 seeds itself from them.  The
    words are computed as trials are asked for, trial 0 alone first and then
    at most ``_BATCH`` trials a pass, and are kept for the call.  Each
    generator is the trial's own, independent of every other.  The trials'
    Gumbel noise is drawn as it is read, a slice of trials at a time
    (``gumbel_slices``), and nothing here keeps it.  Every audit that replays
    trials checks its budget here, 1 to 2**32 trials, before any word is
    computed.
    """

    def __init__(self, seed: int, trials: int):
        self.trials = _check_int("trials", trials, 1, 1 << 32)
        seed = _check_int("seed", seed)
        self._seed_words = [seed & _MASK32]  # the seed's uint32 words, as SeedSequence splits it
        while seed > _MASK32:
            seed >>= 32
            self._seed_words.append(seed & _MASK32)
        # the words of trial 0, then of trials 1 + k _BATCH to 1 + (k + 1) _BATCH - 1
        self._blocks: List[np.ndarray] = []

    def __call__(self, i: int) -> np.random.Generator:
        block, row = divmod(i + _BATCH - 1, _BATCH) if i else (0, 0)
        while len(self._blocks) <= block:
            lo = 1 + (len(self._blocks) - 1) * _BATCH if self._blocks else 0
            hi = min(lo + _BATCH, self.trials) if lo else 1
            self._blocks.append(_trial_words(self._seed_words, lo, hi))
        return np.random.Generator(np.random.PCG64(_TrialSeed(self._blocks[block][row])))

    def gumbel_slices(self, n: int):
        """The trials' rows ``default_rng([seed, i]).gumbel(size=n)``, drawn as read in
        slices of at most ``_CHUNK`` draws or one trial.  numpy draws one value per
        double, in order, so a slice's first k columns are its ``gumbel(size=k)``."""
        step = max(1, _CHUNK // max(1, n))
        for lo in range(0, self.trials, step):
            rows = np.empty((min(step, self.trials - lo), n))
            for i, row in enumerate(rows, lo):
                row[:] = self(i).gumbel(size=n)
            yield rows
