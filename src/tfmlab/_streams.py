"""The trial streams of one audit call.

Audit trial i draws from the stream ``numpy.random.default_rng([seed, i])``
builds.  numpy seeds each such stream through its SeedSequence hash, which
costs more than the trial's draws.  This module hashes the words of many
trials at once, reproducing the SeedSequence hash in vectorized integer
arithmetic.  From those words numpy's own PCG64 seeds a trial's generator,
and the C helper's ``draws`` entry makes the draws of a slice of trials as
arrays: Gumbel rows, tosses and permutations, one lane of PCG64 state a
trial.  Without the helper :func:`_draw_trial` draws each trial's from its
generator, as it draws a sweep run's and :func:`.mech.run_mechanism`'s.
numpy's own seeding and Generator are the oracle the tests check both against.
"""

from __future__ import annotations

from typing import List

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import chain
from .errors import ParameterError, _check_int

# numpy's SeedSequence hash, with a pool of four uint32 words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_BATCH = 1024  # most trials one vectorized pass hashes, which bounds its arrays
_CHUNK = 4096  # most values a slice of draws holds, which keeps the batched steps' arrays small
# the draws of a trial that a batched step reads, by the C helper's kind numbers
GUMBEL, TOSS, PERMUTATION = 0, 1, 2
# the draws of many trials from their words, from the C helper
_draws_c = getattr(chain._noncesearch, "draws", None)


def _draw_trial(rng: np.random.Generator, kind: int, n: int, toss=None):
    """One trial's draws of `kind` from its generator `rng`, as a slice of one trial
    (see :meth:`_TrialStreams.slices`).  A `toss` of 0 or 1 pins the two-set rule's
    branch: no toss is drawn, and the slice holds -1.0 or 1.0, which fall on that
    branch at every phi in [0, 1]."""
    if kind == GUMBEL:
        return rng.gumbel(size=(1, n))
    if kind == PERMUTATION:
        return rng.permutation(n)[None]
    tossed = rng.random() if toss is None else (-1.0, 1.0)[toss]
    return np.array([tossed]), rng.permutation(n)[None]


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
    """The trial streams of one audit call, which makes `trials` runs at most.

    Trial i's stream is the one ``np.random.default_rng([seed, i])`` builds,
    but no trial goes through numpy's SeedSequence: :func:`_trial_words`
    hashes the trials' seeding words in vectorized passes, trial 0 alone first
    and then at most ``_BATCH`` trials a pass, and keeps them for the call.
    Asking for trial i builds a new generator whose PCG64 seeds itself from
    its words; each generator is the trial's own, independent of every other.
    The batched steps read the trials' draws as arrays instead, a slice of
    trials at a time (:meth:`slices`).  Every audit that replays trials checks
    its budget here, 1 to 2**32 trials, before any word is computed.
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

    def _words(self, lo: int, hi: int) -> np.ndarray:
        """The seeding words of trials lo, ..., hi - 1, from the blocks that hold them."""
        first, last = (lo + _BATCH - 1) // _BATCH, (hi + _BATCH - 2) // _BATCH
        while len(self._blocks) <= last:
            start = 1 + (len(self._blocks) - 1) * _BATCH if self._blocks else 0
            end = min(start + _BATCH, self.trials) if start else 1
            self._blocks.append(_trial_words(self._seed_words, start, end))
        offset = 1 + (first - 1) * _BATCH if first else 0
        rows = self._blocks[first] if first == last else np.concatenate(self._blocks[first:last + 1])
        return rows[lo - offset:hi - offset]

    def __call__(self, i: int) -> np.random.Generator:
        k = (i + _BATCH - 1) // _BATCH  # the block of trial i, read without a slice
        if k >= len(self._blocks):
            self._words(i, i + 1)  # makes the blocks up to it
        words = self._blocks[k][i - 1 - (k - 1) * _BATCH if k else 0]
        return np.random.Generator(np.random.PCG64(_TrialSeed(words)))

    def slices(self, kind: int, n: int):
        """The trials' draws of `kind` as arrays, made as read in slices of at most
        ``_CHUNK`` values or one trial: trial i's row is what ``default_rng([seed,
        i])`` gives for

        - ``GUMBEL``: ``gumbel(size=n)``, a float row;
        - ``TOSS``: ``random()``, then ``permutation(n)``, a slice being the pair
          of the tosses and the permutation rows;
        - ``PERMUTATION``: ``permutation(n)``, an intp row.

        The C helper's lanes make them from the trials' words; without it,
        :func:`_draw_trial` draws each trial's from its own generator.  numpy
        draws a Gumbel value per double, in order, so a Gumbel slice's first k
        columns are its ``gumbel(size=k)``.
        """
        step = max(1, _CHUNK // max(1, n))
        for lo in range(0, self.trials, step):
            hi = min(lo + step, self.trials)
            if _draws_c is None:
                trials = [_draw_trial(self(i), kind, n) for i in range(lo, hi)]
                yield tuple(map(np.concatenate, zip(*trials))) if kind == TOSS \
                    else np.concatenate(trials)
                continue
            out = np.empty((hi - lo, n), float if kind == GUMBEL else np.intp)
            toss = np.empty(hi - lo) if kind == TOSS else None
            _draws_c(kind, self._words(lo, hi), n, out, toss)
            yield out if toss is None else (toss, out)
