/* Hot loop for proof-of-work nonce search, with its own SHA-256.
 *
 * search(prefix, start_nonce, max_trials, target) scans nonces
 * start, start+1, ... (mod 2^64), hashing SHA256(prefix || nonce_be8)
 * until the digest, read as a big-endian integer, is below `target`
 * (32 bytes, big-endian).  Returns (nonce, digest) for the first such
 * nonce, or None if `max_trials` nonces miss.
 *
 * The prefix is the 104-byte block header before its nonce, the one header
 * the package mines; a prefix of any other length raises ValueError.  The
 * SHA-256 compression (NIST FIPS 180-4) is implemented here, so the module
 * needs only a C compiler and Python.h.  Once per search, tail_init hashes
 * the header's first 64 bytes (the midstate) and pre-pads the final block,
 * whose words 10 (high) and 11 (low) are the nonce.
 *
 * The high word stays fixed until the low word carries into it, and
 * fold_init, run once per search and again after a carry, folds all that it
 * fixes: the state after round 10, round 11 less the low word, K + W of
 * rounds 12-17, 19, 21 and 23, and the terms of W16-W39 that do not read the
 * low word (W16, W17, W19, W21 and W23 are constants).  A fold kernel hashes
 * a group of consecutive nonces per call from there, rounds 12-63 with only
 * the varying schedule terms, and keeps only word 0 of each digest.  On
 * loading, the module picks the first kernel the CPU offers, in this order:
 *
 *   - "avx512-x16": 16 nonces per call, one per 32-bit lane of AVX-512F
 *     vectors (multi-buffer SHA-256, Guilford et al., Intel, 2012);
 *   - "sha-ni-x2": 2 whole digests per call through the SHA extensions, the
 *     two dependency chains interleaved (Gulley et al., Intel, 2013), from
 *     the state after rounds 0-7, which read no nonce word;
 *   - "avx2-x8": the fold body on 8-lane AVX2 vectors;
 *   - "portable": the same body on one uint32_t lane, in plain C.
 *
 * The fold body is written once, over a lane type V and its operations,
 * and instantiated for 1, 8 and 16 lanes.  Every kernel feeds the same
 * search loop, which checks lanes in nonce order and ignores lanes beyond
 * `max_trials`.  The scalar hash_one hashes whole what a fold kernel does
 * not: a group whose lanes straddle a carry of the low word (or the wrap
 * past 2^64 - 1), and a lane whose word 0 is at most the target's, for its
 * full digest.  BACKEND names the kernel `search` uses; _search_avx512_x16,
 * _search_sha_ni_x2, _search_avx2_x8 and _search_portable run search on one
 * kernel, for tests, and exist only where the CPU offers that kernel.  The
 * GIL is released while scanning, so callers may mine several blocks from
 * one thread pool.
 *
 * merkle_root(leaves) returns the 32-byte root of the binary SHA-256 tree
 * over a non-empty sequence of bytes-like leaves: every leaf is hashed, then
 * each level, a parent hashing the concatenation of its two children and a
 * lone last node being paired with itself.  Leaves of any length are padded
 * to one or more blocks; an internal node is one data block and the fixed
 * padding block.  It runs two messages per rounds_sha_ni_x2 call, and the
 * module defines it only where the CPU offers the SHA extensions.
 *
 * float_leaves(ids, sizes, bids) takes buffers of int64 ids and float64
 * sizes and bids, as many of each, and returns the list of Merkle leaves
 * b"{id}|{size!r}|{bid!r}", the doubles written as float.__repr__ writes
 * them (PyOS_double_to_string with 'r' and Py_DTSF_ADD_DOT_0).
 *
 * walk_rows(sizes, orders, capacity, total, kept, totals) is the allocation
 * walk, over each row t of the 2-D intp `orders`: from the double `total`, it
 * keeps the row's j-th entry when total + sizes[orders[t, j]] <= capacity
 * and then adds that size to the total, all in doubles over the float64
 * `sizes`.  It sets the bool `kept[t, j]` to whether it kept that entry and
 * writes row t's total into the float64 `totals[t]`.  Every array is
 * C-contiguous and aligned, `kept` has the shape of `orders` and `totals` a
 * value a row; any other dtype, shape or room raises ValueError, and an entry
 * outside `sizes` raises IndexError.
 *
 * draws(kind, words, n, out, toss) makes the draws of many audit trials at
 * once, one lane of PCG64 state a trial (O'Neill, PCG, HMC-CS-2014-0905).
 * `words` holds four uint64 words a trial, the ones numpy's PCG64 seeds
 * itself from (SeedSequence.generate_state(4, np.uint64)), and the lane
 * runs numpy's set_seed, 128-bit step and XSL-RR output.  Trial t writes
 * row t of `out`, n values, what its numpy Generator would give:
 *
 *   - kind 0, gumbel(size=n), into float64 `out`;
 *   - kind 1, random() into float64 `toss[t]`, then permutation(n);
 *   - kind 2, permutation(n);
 *
 * a permutation going into intp `out`.  Each call is numpy's: a Gumbel
 * value is -log(-log(U)) with libm's log and U = 1 - next_double, redrawn
 * when U is 1; a permutation is the Fisher-Yates shuffle of 0..n-1 that
 * draws each index by masked rejection on 32-bit halves of the 64-bit
 * outputs, the low half first, as random_interval does.
 */

#define PY_SSIZE_T_CLEAN

#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define HAVE_X86 1
#include <immintrin.h>
#endif

#define MAX_LANES 16

static const uint32_t K256[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

static const uint32_t H0[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

#define PREFIX_BYTES 104 /* the block header before its nonce */

/* What every trial of one search shares. */
typedef struct {
    uint32_t mid[8];    /* state after the header's first 64 bytes */
    uint32_t w[16];     /* final block as big-endian words, nonce words zero */
    uint32_t group_state[8]; /* state a..h after rounds 0-7, where the SHA-NI
                                kernel starts */
} Tail;

/* What every nonce with one high word shares. */
typedef struct {
    uint32_t hi;        /* the high word folded in */
    uint32_t s[8];      /* state after round 11 for a low word of zero, rotated
                           as the round macros keep it; a lane adds its low
                           word to a and e */
    uint32_t kw[40];    /* K + W of round i when W[i] is fixed, i = 12..39 */
    uint32_t wf[40];    /* the fixed terms of W[i] when it varies, i = 16..39 */
    uint32_t mid0;      /* word 0 of the midstate */
} Fold;

/* Digests of nonces n, n+1, ... (mod 2^64), one per lane: word k of lane
   l's digest goes to dig[k][l]. */
typedef void (*hash_fn)(const Tail *t, uint64_t n, uint32_t dig[8][MAX_LANES]);

/* Word 0 of the digests of nonces with low words lo, lo+1, ... (no carry)
   and the high word folded into f, one per lane. */
typedef void (*fold_fn)(const Fold *f, uint32_t lo, uint32_t dig0[MAX_LANES]);

static uint32_t
load_be32(const unsigned char *p)
{
    return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8) | p[3];
}

/* ---- one round and schedule body for every lane width ----
 *
 * These macros use a lane type V and the operations V_SET1, V_ADD, V_XOR3,
 * V_ROR, V_SHR, V_CH, V_MAJ, V_LOAD and V_STORE, which each instantiation
 * defines.  The state is an array s[8] kept rotated: before round i, word k
 * (a..h) of the state is s[(k - i) & 7], so a round moves no data, and after
 * all 64 rounds s[k] is word k again.  The message schedule is a ring w[16].
 */
#define S_(s, k, i) (s)[((k) - (i)) & 7]
#define BSIG0(x) V_XOR3(V_ROR(x, 2), V_ROR(x, 13), V_ROR(x, 22))
#define BSIG1(x) V_XOR3(V_ROR(x, 6), V_ROR(x, 11), V_ROR(x, 25))
#define SSIG0(x) V_XOR3(V_ROR(x, 7), V_ROR(x, 18), V_SHR(x, 3))
#define SSIG1(x) V_XOR3(V_ROR(x, 17), V_ROR(x, 19), V_SHR(x, 10))

/* Round i, given K256[i] + W[i] as kw. */
#define ROUND_KW(s, kw, i)                                                      \
    do {                                                                        \
        V a_ = S_(s, 0, i), e_ = S_(s, 4, i);                                   \
        V t1_ = V_ADD(V_ADD(S_(s, 7, i), BSIG1(e_)),                            \
                      V_ADD(V_CH(e_, S_(s, 5, i), S_(s, 6, i)), (kw)));         \
        V t2_ = V_ADD(BSIG0(a_), V_MAJ(a_, S_(s, 1, i), S_(s, 2, i)));          \
        S_(s, 3, i) = V_ADD(S_(s, 3, i), t1_);                                  \
        S_(s, 7, i) = V_ADD(t1_, t2_);                                          \
    } while (0)

/* Round i, with schedule word w[i & 15]. */
#define ROUND(s, w, i) ROUND_KW(s, V_ADD(V_SET1(K256[i]), (w)[(i) & 15]), i)

/* Schedule word i >= 16, in place of word i - 16. */
#define SCHEDULE(w, i)                                                          \
    do {                                                                        \
        V x15_ = (w)[((i) - 15) & 15], x2_ = (w)[((i) - 2) & 15];               \
        (w)[(i) & 15] = V_ADD(V_ADD((w)[(i) & 15], SSIG0(x15_)),               \
                              V_ADD((w)[((i) - 7) & 15], SSIG1(x2_)));          \
    } while (0)

/* Whether word j of a folded block depends on the low nonce word: word 11
   itself and the schedule words that read it, directly or through others.
   W16, W17, W19, W21 and W23 read only fixed words. */
#define VARIES(j) ((j) == 11 || (j) == 18 || (j) == 20 || (j) == 22 || (j) >= 24)

/* Schedule word i, 16 <= i < 40, of a folded block: its fixed terms f->wf[i]
   plus the terms of the words that vary. */
#define FOLDED_SCHEDULE(f, w, i)                                                \
    do {                                                                        \
        V x_ = V_SET1((f)->wf[i]);                                              \
        if (VARIES((i) - 2))                                                    \
            x_ = V_ADD(x_, SSIG1((w)[((i) - 2) & 15]));                         \
        if (VARIES((i) - 7))                                                    \
            x_ = V_ADD(x_, (w)[((i) - 7) & 15]);                                \
        if (VARIES((i) - 15))                                                   \
            x_ = V_ADD(x_, SSIG0((w)[((i) - 15) & 15]));                        \
        if (VARIES((i) - 16))                                                   \
            x_ = V_ADD(x_, (w)[(i) & 15]);                                      \
        (w)[(i) & 15] = x_;                                                     \
    } while (0)

/* the loops below index the state array; unrolled, every index is a constant,
   VARIES is decided at compile time and the state stays in registers */
#define UNROLL _Pragma("GCC unroll 64")

/* A kernel hashing LANES nonces per call from a fold: lane l takes low word
   lo + l, and rounds 12-63 run per lane, of which rounds 12-17, 19, 21 and
   23 add a fixed K + W and rounds 16-39 schedule only their varying terms.
   Only a, and so only word 0 of the digest, is kept past round 63. */
#define DEFINE_FOLDED_KERNEL(name, target)                                      \
static target void                                                              \
name(const Fold *f, uint32_t lo, uint32_t dig0[MAX_LANES])                      \
{                                                                               \
    uint32_t lo_[LANES];                                                        \
    V s[8], w[16];                                                              \
    int i;                                                                      \
                                                                                \
    for (i = 0; i < LANES; i++)                                                 \
        lo_[i] = lo + (uint32_t)i;                                              \
    w[11] = V_LOAD(lo_);                                                        \
    UNROLL for (i = 0; i < 8; i++)                                              \
        s[i] = V_SET1(f->s[i]);                                                 \
    S_(s, 0, 12) = V_ADD(S_(s, 0, 12), w[11]);                                  \
    S_(s, 4, 12) = V_ADD(S_(s, 4, 12), w[11]);                                  \
    UNROLL for (i = 12; i < 64; i++) {                                          \
        if (i >= 40) {                                                          \
            SCHEDULE(w, i);                                                     \
            ROUND(s, w, i);                                                     \
        } else if (VARIES(i)) {                                                 \
            FOLDED_SCHEDULE(f, w, i);                                           \
            ROUND(s, w, i);                                                     \
        } else {                                                                \
            ROUND_KW(s, V_SET1(f->kw[i]), i);                                   \
        }                                                                       \
    }                                                                           \
    V_STORE(dig0, V_ADD(s[0], V_SET1(f->mid0)));                                \
}

#ifdef HAVE_X86

/* ---- 8 lanes of AVX2 ---- */

#define V __m256i
#define LANES 8
#define V_SET1(x) _mm256_set1_epi32((int)(x))
#define V_ADD(a, b) _mm256_add_epi32(a, b)
#define V_XOR3(a, b, c) _mm256_xor_si256(_mm256_xor_si256(a, b), c)
#define V_ROR(x, c) _mm256_or_si256(_mm256_srli_epi32(x, c), _mm256_slli_epi32(x, 32 - (c)))
#define V_SHR(x, c) _mm256_srli_epi32(x, c)
#define V_CH(e, f, g) _mm256_xor_si256(g, _mm256_and_si256(e, _mm256_xor_si256(f, g)))
#define V_MAJ(a, b, c) \
    _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(c, _mm256_or_si256(a, b)))
#define V_LOAD(p) _mm256_loadu_si256((const __m256i *)(p))
#define V_STORE(p, x) _mm256_storeu_si256((__m256i *)(p), x)

DEFINE_FOLDED_KERNEL(fold_avx2_x8, __attribute__((target("avx2"))))

#undef V
#undef LANES
#undef V_SET1
#undef V_ADD
#undef V_XOR3
#undef V_ROR
#undef V_SHR
#undef V_CH
#undef V_MAJ
#undef V_LOAD
#undef V_STORE

/* ---- 16 lanes of AVX-512F: native rotates and three-input logic ---- */

#define V __m512i
#define LANES 16
#define V_SET1(x) _mm512_set1_epi32((int)(x))
#define V_ADD(a, b) _mm512_add_epi32(a, b)
#define V_XOR3(a, b, c) _mm512_ternarylogic_epi32(a, b, c, 0x96)
#define V_ROR(x, c) _mm512_ror_epi32(x, c)
#define V_SHR(x, c) _mm512_srli_epi32(x, c)
#define V_CH(e, f, g) _mm512_ternarylogic_epi32(e, f, g, 0xCA)
#define V_MAJ(a, b, c) _mm512_ternarylogic_epi32(a, b, c, 0xE8)
#define V_LOAD(p) _mm512_loadu_si512(p)
#define V_STORE(p, x) _mm512_storeu_si512(p, x)

DEFINE_FOLDED_KERNEL(fold_avx512_x16, __attribute__((target("avx512f"))))

#undef V
#undef LANES
#undef V_SET1
#undef V_ADD
#undef V_XOR3
#undef V_ROR
#undef V_SHR
#undef V_CH
#undef V_MAJ
#undef V_LOAD
#undef V_STORE

/* ---- two-lane SHA-NI compression ---- */

#define SHA_NI __attribute__((target("sha,sse4.1")))

/* Four rounds of both lanes with schedule words wa, wb and constants K256[4g..4g+3]. */
#define ROUNDS4(wa, wb, g)                                                  \
    do {                                                                    \
        __m128i k_ = _mm_loadu_si128((const __m128i *)(K256 + 4 * (g)));     \
        __m128i ma_ = _mm_add_epi32((wa), k_), mb_ = _mm_add_epi32((wb), k_); \
        cdgh_a = _mm_sha256rnds2_epu32(cdgh_a, abef_a, ma_);                \
        cdgh_b = _mm_sha256rnds2_epu32(cdgh_b, abef_b, mb_);                \
        abef_a = _mm_sha256rnds2_epu32(abef_a, cdgh_a, _mm_shuffle_epi32(ma_, 0x0E)); \
        abef_b = _mm_sha256rnds2_epu32(abef_b, cdgh_b, _mm_shuffle_epi32(mb_, 0x0E)); \
    } while (0)

/* Next four schedule words in place of the oldest group w4, from w3, w2, w1. */
#define SCHEDULE4(w4, w3, w2, w1) \
    (w4) = _mm_sha256msg2_epu32( \
        _mm_add_epi32(_mm_sha256msg1_epu32((w4), (w3)), _mm_alignr_epi8((w1), (w2), 4)), (w1))

/* Schedule and run rounds for groups g..g+3 of both lanes. */
#define GROUPS4(g)                                                          \
    do {                                                                    \
        SCHEDULE4(a0, a1, a2, a3); SCHEDULE4(b0, b1, b2, b3); ROUNDS4(a0, b0, (g));     \
        SCHEDULE4(a1, a2, a3, a0); SCHEDULE4(b1, b2, b3, b0); ROUNDS4(a1, b1, (g) + 1); \
        SCHEDULE4(a2, a3, a0, a1); SCHEDULE4(b2, b3, b0, b1); ROUNDS4(a2, b2, (g) + 2); \
        SCHEDULE4(a3, a0, a1, a2); SCHEDULE4(b3, b0, b1, b2); ROUNDS4(a3, b3, (g) + 3); \
    } while (0)

/* state words A..H to the {ABEF, CDGH} layout of sha256rnds2 */
static inline SHA_NI void
to_abef_cdgh(__m128i out[2], const uint32_t v[8])
{
    __m128i dcba = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)v), 0xB1);
    __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(v + 4)), 0x1B);
    out[0] = _mm_alignr_epi8(dcba, efgh, 8);
    out[1] = _mm_blend_epi16(efgh, dcba, 0xF0);
}

/* 4-round groups from..15 of one block for each lane, in place;
   st[lane] = {ABEF, CDGH}, msg[lane] = the block's sixteen words in four
   groups.  Groups before `from` (at most 3) are skipped, not their words. */
static inline SHA_NI void
rounds_sha_ni_x2(__m128i st[2][2], const __m128i msg[2][4], int from)
{
    __m128i abef_a = st[0][0], cdgh_a = st[0][1], abef_b = st[1][0], cdgh_b = st[1][1];
    __m128i a0 = msg[0][0], a1 = msg[0][1], a2 = msg[0][2], a3 = msg[0][3];
    __m128i b0 = msg[1][0], b1 = msg[1][1], b2 = msg[1][2], b3 = msg[1][3];

    if (from <= 0)
        ROUNDS4(a0, b0, 0);
    if (from <= 1)
        ROUNDS4(a1, b1, 1);
    if (from <= 2)
        ROUNDS4(a2, b2, 2);
    ROUNDS4(a3, b3, 3);
    GROUPS4(4);
    GROUPS4(8);
    GROUPS4(12);

    st[0][0] = abef_a;
    st[0][1] = cdgh_a;
    st[1][0] = abef_b;
    st[1][1] = cdgh_b;
}

/* the {ABEF, CDGH} layout back to state words A..H */
static inline SHA_NI void
from_abef_cdgh(uint32_t v[8], const __m128i st[2])
{
    __m128i feba = _mm_shuffle_epi32(st[0], 0x1B);
    __m128i dchg = _mm_shuffle_epi32(st[1], 0xB1);
    _mm_storeu_si128((__m128i *)v, _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128((__m128i *)(v + 4), _mm_alignr_epi8(dchg, feba, 8));
}

/* Nonces n and n+1 as words 10 and 11 of the final block, from group 2, the
   first that reads them. */
static SHA_NI void
hash_sha_ni_x2(const Tail *t, uint64_t n, uint32_t dig[8][MAX_LANES])
{
    __m128i st[2][2], mid[2], msg[2][4];
    uint32_t out[8];
    int lane, j, k;

    to_abef_cdgh(mid, t->mid);
    for (lane = 0; lane < 2; lane++) {
        uint64_t nonce = n + (uint64_t)lane;
        to_abef_cdgh(st[lane], t->group_state);
        for (j = 0; j < 4; j++)
            msg[lane][j] = _mm_loadu_si128((const __m128i *)(t->w + 4 * j));
        msg[lane][2] = _mm_set_epi32((int)(uint32_t)nonce, (int)(uint32_t)(nonce >> 32),
                                     (int)t->w[9], (int)t->w[8]);
    }
    rounds_sha_ni_x2(st, msg, 2);
    for (lane = 0; lane < 2; lane++) {
        for (j = 0; j < 2; j++)
            st[lane][j] = _mm_add_epi32(st[lane][j], mid[j]);
        from_abef_cdgh(out, st[lane]);
        for (k = 0; k < 8; k++)
            dig[k][lane] = out[k];
    }
}

/* ---- Merkle trees on the two-lane SHA-NI compression ---- */

typedef struct {
    const unsigned char *p;
    Py_ssize_t len;
} Msg;

/* big-endian words to and from little-endian lanes */
#define BSWAP32X4(x) \
    _mm_shuffle_epi8((x), _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3))

static Py_ssize_t
msg_blocks(Py_ssize_t len)
{
    return (len + 8) / 64 + 1; /* the data, the 0x80 byte and the 8-byte length */
}

/* Block b of m's padded message, as four groups of big-endian words. */
static inline SHA_NI void
load_block(__m128i out[4], const Msg *m, Py_ssize_t b)
{
    unsigned char pad[64];
    const unsigned char *src = pad;
    Py_ssize_t left = m->len - 64 * b;
    uint64_t bits = (uint64_t)m->len * 8;
    int j;

    if (left >= 64) {
        src = m->p + 64 * b;
    } else {
        memset(pad, 0, sizeof(pad));
        if (left > 0)
            memcpy(pad, m->p + 64 * b, (size_t)left);
        if (left >= 0)
            pad[left] = 0x80;
        if (b == msg_blocks(m->len) - 1)
            for (j = 0; j < 8; j++)
                pad[63 - j] = (unsigned char)(bits >> (8 * j));
    }
    for (j = 0; j < 4; j++)
        out[j] = BSWAP32X4(_mm_loadu_si128((const __m128i *)(src + 16 * j)));
}

/* SHA-256 of msgs[0..n-1] into out, 32 bytes each, two messages per
   rounds_sha_ni_x2 call.  A lane that finishes its message takes the next
   one, so messages of any mix of lengths keep both lanes busy; when one is
   left, the idle lane repeats its blocks and is discarded. */
static SHA_NI void
sha256_many(const Msg *msgs, Py_ssize_t n, unsigned char *out)
{
    __m128i init[2], st[2][2], prev[2][2], msg[2][4];
    Py_ssize_t cur[2], blk[2] = {0, 0}, next = 0;
    uint32_t v[8];
    int lane, j;

    to_abef_cdgh(init, H0);
    for (lane = 0; lane < 2; lane++) {
        cur[lane] = next < n ? next++ : -1;
        st[lane][0] = init[0];
        st[lane][1] = init[1];
    }
    while (cur[0] >= 0) { /* lane 0 is idle only when no message is left */
        for (lane = 0; lane < 2; lane++) {
            int from = cur[lane] >= 0 ? lane : 0;
            load_block(msg[lane], &msgs[cur[from]], blk[from]);
            prev[lane][0] = st[lane][0];
            prev[lane][1] = st[lane][1];
        }
        rounds_sha_ni_x2(st, msg, 0);
        for (lane = 0; lane < 2; lane++) {
            if (cur[lane] < 0)
                continue;
            for (j = 0; j < 2; j++)
                st[lane][j] = _mm_add_epi32(st[lane][j], prev[lane][j]);
            if (++blk[lane] < msg_blocks(msgs[cur[lane]].len))
                continue;
            from_abef_cdgh(v, st[lane]);
            for (j = 0; j < 2; j++)
                _mm_storeu_si128((__m128i *)(out + 32 * cur[lane] + 16 * j),
                                 BSWAP32X4(_mm_loadu_si128((const __m128i *)(v + 4 * j))));
            cur[lane] = next < n ? next++ : -1;
            blk[lane] = 0;
            st[lane][0] = init[0];
            st[lane][1] = init[1];
        }
        if (cur[0] < 0 && cur[1] >= 0) { /* keep the last message on lane 0 */
            cur[0] = cur[1];
            blk[0] = blk[1];
            st[0][0] = st[1][0];
            st[0][1] = st[1][1];
            cur[1] = -1;
        }
    }
}

/* merkle_root(leaves): see the header comment */
static PyObject *
merkle_root_sha_ni(PyObject *self, PyObject *arg)
{
    PyObject *seq, *root = NULL;
    Py_buffer *views = NULL;
    Msg *msgs = NULL;
    unsigned char *level = NULL, *a, *b, *swap;
    Py_ssize_t n, i, got = 0;

    seq = PySequence_Fast(arg, "leaves must be a sequence");
    if (seq == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    if (n == 0) {
        PyErr_SetString(PyExc_ValueError, "no leaves");
        goto done;
    }
    views = PyMem_Calloc((size_t)n, sizeof(Py_buffer));
    msgs = PyMem_Malloc((size_t)n * sizeof(Msg));
    /* two levels of digests, each with room for a duplicated last node */
    level = PyMem_Malloc((size_t)(n + 1) * 64);
    if (views == NULL || msgs == NULL || level == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (got = 0; got < n; got++) {
        if (PyObject_GetBuffer(PySequence_Fast_GET_ITEM(seq, got), &views[got], PyBUF_SIMPLE) < 0)
            goto done;
        msgs[got].p = views[got].buf;
        msgs[got].len = views[got].len;
    }

    a = level;
    b = level + (n + 1) * 32;
    sha256_many(msgs, n, a);
    while (n > 1) {
        if (n % 2)
            memcpy(a + 32 * n, a + 32 * (n - 1), 32); /* a lone node pairs with itself */
        n = (n + 1) / 2;
        for (i = 0; i < n; i++) {
            msgs[i].p = a + 64 * i;
            msgs[i].len = 64;
        }
        sha256_many(msgs, n, b);
        swap = a;
        a = b;
        b = swap;
    }
    root = PyBytes_FromStringAndSize((const char *)a, 32);

done:
    for (i = 0; i < got; i++)
        PyBuffer_Release(&views[i]);
    PyMem_Free(views);
    PyMem_Free(msgs);
    PyMem_Free(level);
    Py_DECREF(seq);
    return root;
}

static int cpu_avx512(void) { return __builtin_cpu_supports("avx512f"); }
static int cpu_sha_ni(void) { return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"); }
static int cpu_avx2(void) { return __builtin_cpu_supports("avx2"); }
#endif /* HAVE_X86 */

/* ---- scalar lanes: set-up, whole digests and the portable kernel ---- */

#define V uint32_t
#define LANES 1
#define V_SET1(x) (x)
#define V_ADD(a, b) ((a) + (b))
#define V_XOR3(a, b, c) ((a) ^ (b) ^ (c))
#define V_ROR(x, c) (((x) >> (c)) | ((x) << (32 - (c))))
#define V_SHR(x, c) ((x) >> (c))
#define V_CH(e, f, g) ((g) ^ ((e) & ((f) ^ (g))))
#define V_MAJ(a, b, c) (((a) & (b)) | ((c) & ((a) | (b))))
#define V_LOAD(p) ((p)[0])
#define V_STORE(p, x) ((p)[0] = (x))

/* Rounds from..to-1 of a block whose words 0..15 are w; rounds 16 and on
   overwrite w with the schedule. */
static void
rounds(uint32_t s[8], uint32_t w[16], int from, int to)
{
    int i;

    for (i = from; i < to; i++) {
        if (i >= 16)
            SCHEDULE(w, i);
        ROUND(s, w, i);
    }
}

DEFINE_FOLDED_KERNEL(fold_portable, )

/* The whole digest of nonce n: its words in the final block, then every round. */
static void
hash_one(const Tail *t, uint64_t n, uint32_t out[8])
{
    uint32_t w[16], s[8];
    int k;

    memcpy(w, t->w, sizeof(w));
    w[10] = (uint32_t)(n >> 32);
    w[11] = (uint32_t)n;
    memcpy(s, t->mid, sizeof(s));
    rounds(s, w, 0, 64);
    for (k = 0; k < 8; k++)
        out[k] = t->mid[k] + s[k];
}

/* The fold of high word hi. */
static void
fold_init(Fold *f, const Tail *t, uint32_t hi)
{
    uint32_t w[40];
    int i;

    memcpy(w, t->w, 16 * sizeof(uint32_t));
    w[10] = hi;
    memcpy(f->s, t->mid, sizeof(f->s));
    rounds(f->s, w, 0, 12); /* w[11] is zero: the low word comes in per lane */
    for (i = 16; i < 40; i++) {
        w[i] = (VARIES(i - 2) ? 0 : SSIG1(w[i - 2])) + (VARIES(i - 7) ? 0 : w[i - 7])
             + (VARIES(i - 15) ? 0 : SSIG0(w[i - 15])) + (VARIES(i - 16) ? 0 : w[i - 16]);
        f->wf[i] = w[i];
    }
    for (i = 12; i < 40; i++)
        if (!VARIES(i))
            f->kw[i] = K256[i] + w[i];
    f->hi = hi;
    f->mid0 = t->mid[0];
}

/* ---- kernels and the search ---- */

typedef struct {
    const char *name;     /* BACKEND value */
    const char *method;   /* the module function that searches with it alone */
    fold_fn fold;         /* lanes from a fold, or NULL ... */
    hash_fn hash;         /* ... lanes from the tail, whole digests */
    int lanes;            /* nonces per call */
    int (*offered)(void); /* whether this CPU runs it; NULL: always */
} Kernel;

/* in the order PyInit prefers them */
static const Kernel kernels[] = {
#ifdef HAVE_X86
    {"avx512-x16", "_search_avx512_x16", fold_avx512_x16, NULL, 16, cpu_avx512},
    {"sha-ni-x2", "_search_sha_ni_x2", NULL, hash_sha_ni_x2, 2, cpu_sha_ni},
    {"avx2-x8", "_search_avx2_x8", fold_avx2_x8, NULL, 8, cpu_avx2},
#endif
    {"portable", "_search_portable", fold_portable, NULL, 1, NULL},
};
#define NKERNELS ((int)(sizeof(kernels) / sizeof(kernels[0])))

static const Kernel *best; /* set by PyInit, the first kernel offered */

/* The tail of a PREFIX_BYTES header: its first block hashed, and the final
   block of the rest, the nonce's words 10 and 11, the 0x80 byte (word 12)
   and the message's length in bits (word 15). */
static void
tail_init(Tail *t, const unsigned char *prefix)
{
    uint32_t words[16];
    int k;

    for (k = 0; k < 16; k++)
        words[k] = load_be32(prefix + 4 * k);
    memcpy(t->mid, H0, sizeof(H0));
    rounds(t->mid, words, 0, 64);
    for (k = 0; k < 8; k++)
        t->mid[k] += H0[k];

    memset(t->w, 0, sizeof(t->w));
    for (k = 0; k < 10; k++)
        t->w[k] = load_be32(prefix + 64 + 4 * k);
    t->w[12] = 0x80000000u;
    t->w[15] = 8 * (PREFIX_BYTES + 8);

    /* rounds 0-7 read no nonce word; rounds below 16 leave w as it is, and
       eight rounds leave the rotated state in place */
    memcpy(t->group_state, t->mid, sizeof(t->mid));
    rounds(t->group_state, t->w, 0, 8);
}

static int
below(const uint32_t dig[8], const uint32_t tgt[8])
{
    int k;
    for (k = 0; k < 8; k++)
        if (dig[k] != tgt[k])
            return dig[k] < tgt[k];
    return 0;
}

/* First nonce from *nonce within max_trials whose digest is below tgt.  A
   fold kernel hashes a group only when all its lanes share one high word,
   refolding when that word changes; every other group, and every lane whose
   word 0 is at most the target's, is hashed whole by hash_one. */
static int
scan(const Tail *t, const Kernel *kernel, const uint32_t tgt[8], uint64_t *nonce,
     unsigned long long max_trials, uint32_t out[8])
{
    uint32_t dig[8][MAX_LANES];
    uint64_t n = *nonce;
    unsigned long long left = max_trials;
    /* the highest low word a group can start at without a carry */
    uint32_t last = UINT32_MAX - (uint32_t)(kernel->lanes - 1);
    Fold fold;
    int lane, lanes, k, screened;

    fold_init(&fold, t, (uint32_t)(n >> 32));
    while (left > 0) {
        lanes = left < (unsigned long long)kernel->lanes ? (int)left : kernel->lanes;
        screened = 1;
        if (kernel->hash != NULL) {
            kernel->hash(t, n, dig);
        } else if ((uint32_t)n <= last) {
            if (fold.hi != (uint32_t)(n >> 32)) /* the low word carried */
                fold_init(&fold, t, (uint32_t)(n >> 32));
            kernel->fold(&fold, (uint32_t)n, dig[0]);
        } else {
            screened = 0;
        }
        for (lane = 0; lane < lanes; lane++) {
            if (screened && dig[0][lane] > tgt[0])
                continue;
            if (kernel->hash != NULL)
                for (k = 0; k < 8; k++)
                    out[k] = dig[k][lane];
            else
                hash_one(t, n + (uint64_t)lane, out);
            if (below(out, tgt)) {
                *nonce = n + (uint64_t)lane;
                return 1;
            }
        }
        left -= (unsigned long long)lanes;
        n += (uint64_t)lanes; /* uint64 wraps */
    }
    return 0;
}

static PyObject *
search_with(PyObject *args, const Kernel *kernel)
{
    Py_buffer prefix, target;
    unsigned long long start, max_trials;
    Tail tail;
    uint32_t tgt[8], dig[8];
    unsigned char out[32];
    uint64_t nonce;
    int k, found;

    if (!PyArg_ParseTuple(args, "y*KKy*", &prefix, &start, &max_trials, &target))
        return NULL;
    if (prefix.len != PREFIX_BYTES || target.len != 32) {
        PyBuffer_Release(&prefix);
        PyBuffer_Release(&target);
        PyErr_SetString(PyExc_ValueError, target.len != 32 ? "target must be 32 bytes"
                        : "prefix must be the 104-byte block header before its nonce");
        return NULL;
    }
    for (k = 0; k < 8; k++)
        tgt[k] = load_be32((const unsigned char *)target.buf + 4 * k);
    nonce = (uint64_t)start;

    Py_BEGIN_ALLOW_THREADS
    tail_init(&tail, (const unsigned char *)prefix.buf);
    found = scan(&tail, kernel, tgt, &nonce, max_trials, dig);
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&prefix);
    PyBuffer_Release(&target);

    if (!found)
        Py_RETURN_NONE;
    for (k = 0; k < 32; k++)
        out[k] = (unsigned char)(dig[k / 4] >> (24 - 8 * (k % 4)));
    return Py_BuildValue("(Ky#)", (unsigned long long)nonce, out, (Py_ssize_t)32);
}

static PyObject *
search(PyObject *self, PyObject *args)
{
    return search_with(args, best);
}

/* search on one kernel; `self` is its index in kernels[] */
static PyObject *
search_kernel(PyObject *self, PyObject *args)
{
    return search_with(args, &kernels[PyLong_AsLong(self)]);
}

/* float_leaves(ids, sizes, bids): see the header comment */
static PyObject *
float_leaves(PyObject *self, PyObject *args)
{
    Py_buffer ids, sizes, bids;
    PyObject *list = NULL, *leaf;
    Py_ssize_t n, i;

    if (!PyArg_ParseTuple(args, "y*y*y*", &ids, &sizes, &bids))
        return NULL;
    n = ids.len / 8;
    if (ids.len % 8 != 0 || sizes.len != ids.len || bids.len != ids.len) {
        PyErr_SetString(PyExc_ValueError, "ids, sizes and bids must hold as many 8-byte items");
        goto done;
    }
    list = PyList_New(n);
    for (i = 0; list != NULL && i < n; i++) {
        char buf[96], digits[24], *size, *bid = NULL, *at = buf;
        int64_t id;
        uint64_t mag;
        double x;
        int k = 0;

        memcpy(&id, (const char *)ids.buf + 8 * i, 8);
        mag = id < 0 ? 0 - (uint64_t)id : (uint64_t)id;
        do
            digits[k++] = (char)('0' + mag % 10);
        while ((mag /= 10) != 0);
        if (id < 0)
            *at++ = '-';
        while (k > 0)
            *at++ = digits[--k];
        memcpy(&x, (const char *)sizes.buf + 8 * i, 8);
        size = PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
        memcpy(&x, (const char *)bids.buf + 8 * i, 8);
        if (size != NULL)
            bid = PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
        leaf = NULL;
        if (bid != NULL) { /* a repr is at most 24 characters */
            *at++ = '|';
            at += strlen(strcpy(at, size));
            *at++ = '|';
            at += strlen(strcpy(at, bid));
            leaf = PyBytes_FromStringAndSize(buf, at - buf);
        }
        PyMem_Free(size);
        PyMem_Free(bid);
        if (leaf == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, leaf);
    }

done:
    PyBuffer_Release(&ids);
    PyBuffer_Release(&sizes);
    PyBuffer_Release(&bids);
    return list;
}

/* Fill `view` with the buffer of `obj`, an aligned C-contiguous array of `ndim`
   dimensions whose items are `code`: 'd' a float64, 'n' a signed integer of
   pointer size (intp), '?' a bool.  Returns 0, or -1 with an exception set. */
static int
typed_buffer(PyObject *obj, Py_buffer *view, int writable, char code, int ndim)
{
    Py_ssize_t itemsize = code == 'd' ? (Py_ssize_t)sizeof(double)
                          : code == 'n' ? (Py_ssize_t)sizeof(Py_ssize_t) : 1;
    const char *format;

    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                                          | (writable ? PyBUF_WRITABLE : 0)) < 0)
        return -1;
    format = view->format + (view->format[0] == '@' || view->format[0] == '=');
    if (view->ndim == ndim && view->itemsize == itemsize && format[1] == '\0'
        && (uintptr_t)view->buf % itemsize == 0
        && (code == 'n' ? strchr("ilqn", format[0]) != NULL : format[0] == code))
        return 0;
    PyBuffer_Release(view);
    PyErr_SetString(PyExc_ValueError,
                    "walk_rows needs float64 sizes, a 2-D intp orders, a bool kept of its "
                    "shape and float64 totals, one a row");
    return -1;
}

/* walk_rows(sizes, orders, capacity, total, kept, totals): see the header comment */
static PyObject *
walk_rows(PyObject *self, PyObject *args)
{
    PyObject *objs[4];
    Py_buffer sizes = {0}, orders = {0}, kept = {0}, totals = {0};
    double capacity, start, total, size;
    Py_ssize_t rows, trials, k, t, j, row;
    const Py_ssize_t *order;
    char *keep;
    int ok = 0;

    if (!PyArg_ParseTuple(args, "OOddOO", &objs[0], &objs[1], &capacity, &start, &objs[2],
                          &objs[3]))
        return NULL;
    if (typed_buffer(objs[0], &sizes, 0, 'd', 1) < 0 || typed_buffer(objs[1], &orders, 0, 'n', 2) < 0
        || typed_buffer(objs[2], &kept, 1, '?', 2) < 0
        || typed_buffer(objs[3], &totals, 1, 'd', 1) < 0)
        goto done;
    rows = sizes.shape[0];
    trials = orders.shape[0];
    k = orders.shape[1];
    if (kept.shape[0] != trials || kept.shape[1] != k || totals.shape[0] != trials) {
        PyErr_SetString(PyExc_ValueError,
                        "walk_rows needs a kept of the orders' shape and a total a row");
        goto done;
    }
    for (t = 0; t < trials; t++) {
        order = (const Py_ssize_t *)orders.buf + t * k;
        keep = (char *)kept.buf + t * k;
        total = start;
        /* zero the row and set only kept entries, in the branch: storing every comparison
           compiles to a select chain, in which each entry waits on the running total */
        memset(keep, 0, (size_t)k);
        for (j = 0; j < k; j++) {
            row = order[j];
            if (row < 0 || row >= rows) {
                PyErr_Format(PyExc_IndexError, "row %zd of the orders is outside the %zd sizes",
                             row, rows);
                goto done;
            }
            size = ((const double *)sizes.buf)[row];
            if (total + size <= capacity) {
                keep[j] = 1;
                total += size;
            }
        }
        ((double *)totals.buf)[t] = total;
    }
    ok = 1;

done:
    /* a view never filled holds no object, which PyBuffer_Release skips */
    PyBuffer_Release(&sizes);
    PyBuffer_Release(&orders);
    PyBuffer_Release(&kept);
    PyBuffer_Release(&totals);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- trial draws: one PCG64 lane a trial ---- */

typedef struct {
    uint64_t hi, lo;         /* the 128-bit state */
    uint64_t inc_hi, inc_lo; /* the odd increment */
    uint32_t half;           /* numpy's has_uint32 buffer: a 64-bit output's high half */
    int has_half;
} Lane;

#define PCG_MULT_HI 0x2360ED051FC65DA4ULL
#define PCG_MULT_LO 0x4385DF649FCCF645ULL

/* the high word of the 128-bit product x * y */
static uint64_t
mulhi64(uint64_t x, uint64_t y)
{
    uint64_t x0 = x & 0xFFFFFFFFu, x1 = x >> 32, y0 = y & 0xFFFFFFFFu, y1 = y >> 32;
    uint64_t t = x1 * y0 + (x0 * y0 >> 32);
    uint64_t w = (t & 0xFFFFFFFFu) + x0 * y1;

    return x1 * y1 + (t >> 32) + (w >> 32);
}

/* state = state * multiplier + inc, modulo 2**128 */
static void
lane_step(Lane *s)
{
    uint64_t lo = s->lo * PCG_MULT_LO;
    uint64_t hi = mulhi64(s->lo, PCG_MULT_LO) + s->hi * PCG_MULT_LO + s->lo * PCG_MULT_HI;

    s->lo = lo + s->inc_lo;
    s->hi = hi + s->inc_hi + (s->lo < lo);
}

/* numpy's pcg64_set_seed: words 0-1 are the seed's high and low halves,
   words 2-3 the sequence's */
static void
lane_seed(Lane *s, const uint64_t w[4])
{
    s->inc_hi = w[2] << 1 | w[3] >> 63;
    s->inc_lo = w[3] << 1 | 1;
    s->hi = s->lo = 0;
    lane_step(s);
    s->lo += w[1];
    s->hi += w[0] + (s->lo < w[1]);
    lane_step(s);
    s->has_half = 0;
}

static uint64_t
lane_next64(Lane *s)
{
    uint64_t x;
    unsigned rot;

    lane_step(s);
    x = s->hi ^ s->lo;
    rot = (unsigned)(s->hi >> 58);
    return x >> rot | x << ((64 - rot) & 63);
}

static uint32_t
lane_next32(Lane *s)
{
    uint64_t x;

    if (s->has_half) {
        s->has_half = 0;
        return s->half;
    }
    x = lane_next64(s);
    s->half = (uint32_t)(x >> 32);
    s->has_half = 1;
    return (uint32_t)x;
}

static double
lane_double(Lane *s)
{
    return (double)(lane_next64(s) >> 11) * (1.0 / 9007199254740992.0);
}

/* random_interval: a uniform value in 0..max */
static uint64_t
lane_interval(Lane *s, uint64_t max)
{
    uint64_t mask = max, value;

    if (max == 0)
        return 0;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xFFFFFFFFu) {
        while ((value = (lane_next32(s) & mask)) > max)
            ;
    } else {
        while ((value = (lane_next64(s) & mask)) > max)
            ;
    }
    return value;
}

/* draws(kind, words, n, out, toss): see the header comment */
static PyObject *
draws(PyObject *self, PyObject *args)
{
    Py_buffer words, out, toss = {0};
    PyObject *toss_obj;
    Py_ssize_t n, trials, item, t, i, j, tmp, *perm;
    uint64_t w[4];
    double *gumbel, u;
    int kind, ok = 0;
    Lane lane;

    if (!PyArg_ParseTuple(args, "iy*nw*O", &kind, &words, &n, &out, &toss_obj))
        return NULL;
    trials = words.len / (Py_ssize_t)sizeof(w);
    if (kind < 0 || kind > 2 || n < 0 || words.len % (Py_ssize_t)sizeof(w) != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "draws needs a kind of 0, 1 or 2, n >= 0 and four uint64 words a trial");
        goto done;
    }
    item = kind == 0 ? (Py_ssize_t)sizeof(double) : (Py_ssize_t)sizeof(Py_ssize_t);
    if ((trials && n > out.len / item / trials) || (uintptr_t)out.buf % item != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "draws needs an aligned out with room for n values a trial");
        goto done;
    }
    if (kind == 1) {
        if (PyObject_GetBuffer(toss_obj, &toss, PyBUF_WRITABLE) < 0)
            goto done;
        if (toss.len < trials * (Py_ssize_t)sizeof(double)
            || (uintptr_t)toss.buf % sizeof(double) != 0) {
            PyErr_SetString(PyExc_ValueError,
                            "draws needs an aligned toss with room for a value a trial");
            goto done;
        }
    }
    gumbel = (double *)out.buf;
    perm = (Py_ssize_t *)out.buf;
    for (t = 0; t < trials; t++) {
        memcpy(w, (const char *)words.buf + t * sizeof(w), sizeof(w));
        lane_seed(&lane, w);
        if (kind == 0) {
            for (j = 0; j < n; j++) {
                do
                    u = 1.0 - lane_double(&lane);
                while (!(u < 1.0));
                gumbel[t * n + j] = 0.0 - log(-log(u));
            }
            continue;
        }
        if (kind == 1)
            ((double *)toss.buf)[t] = lane_double(&lane);
        for (j = 0; j < n; j++)
            perm[t * n + j] = j;
        for (i = n - 1; i > 0; i--) {
            j = (Py_ssize_t)lane_interval(&lane, (uint64_t)i);
            tmp = perm[t * n + j];
            perm[t * n + j] = perm[t * n + i];
            perm[t * n + i] = tmp;
        }
    }
    ok = 1;

done:
    PyBuffer_Release(&words);
    PyBuffer_Release(&out);
    if (toss.obj != NULL)
        PyBuffer_Release(&toss);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"search", search, METH_VARARGS,
     "search(prefix, start_nonce, max_trials, target) -> (nonce, digest) | None"},
    {"float_leaves", float_leaves, METH_VARARGS,
     "float_leaves(ids, sizes, bids) -> [b'id|size!r|bid!r', ...]"},
    {"walk_rows", walk_rows, METH_VARARGS,
     "walk_rows(sizes, orders, capacity, total, kept, totals) -> None: walk each row"},
    {"draws", draws, METH_VARARGS,
     "draws(kind, words, n, out, toss) -> None: audit trials' numpy draws"},
    {NULL, NULL, 0, NULL},
};

#ifdef HAVE_X86
static PyMethodDef merkle_method = {
    "merkle_root", merkle_root_sha_ni, METH_O, "merkle_root(leaves) -> 32-byte root",
};
#endif

static PyMethodDef kernel_methods[NKERNELS];

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_noncesearch", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__noncesearch(void)
{
    PyObject *module, *index, *fn;
    int i;

    module = PyModule_Create(&moduledef);
    if (module == NULL)
        return NULL;
#ifdef HAVE_X86
    __builtin_cpu_init();
#endif
    for (i = NKERNELS - 1; i >= 0; i--) {
        if (kernels[i].offered != NULL && !kernels[i].offered())
            continue;
        best = &kernels[i];
        kernel_methods[i].ml_name = kernels[i].method;
        kernel_methods[i].ml_meth = search_kernel;
        kernel_methods[i].ml_flags = METH_VARARGS;
        kernel_methods[i].ml_doc = "search() on this kernel alone";
        index = PyLong_FromLong(i);
        fn = index == NULL ? NULL : PyCFunction_NewEx(&kernel_methods[i], index, NULL);
        Py_XDECREF(index);
        if (fn == NULL || PyModule_AddObject(module, kernels[i].method, fn) < 0) {
            Py_XDECREF(fn);
            Py_DECREF(module);
            return NULL;
        }
    }
#ifdef HAVE_X86
    if (cpu_sha_ni()) {
        fn = PyCFunction_NewEx(&merkle_method, NULL, NULL);
        if (fn == NULL || PyModule_AddObject(module, "merkle_root", fn) < 0) {
            Py_XDECREF(fn);
            Py_DECREF(module);
            return NULL;
        }
    }
#endif
    if (PyModule_AddStringConstant(module, "BACKEND", best->name) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
