/* Hot loop for proof-of-work nonce search, with its own SHA-256.
 *
 * search(prefix, start_nonce, max_trials, target) scans nonces
 * start, start+1, ... (mod 2^64), hashing SHA256(prefix || nonce_be8)
 * until the digest, read as a big-endian integer, is below `target`
 * (32 bytes, big-endian).  Returns (nonce, digest) for the first such
 * nonce, or None if `max_trials` nonces miss.
 *
 * The SHA-256 compression (NIST FIPS 180-4) is implemented here, so the
 * module needs only a C compiler and Python.h.  The state after the
 * prefix's whole 64-byte blocks (the midstate) is computed once; each
 * nonce is written into a pre-padded copy of the final one or two blocks,
 * and only those are compressed.  Nonces are hashed in pairs n, n+1:
 *
 *   - on x86 CPUs with the SHA extensions, by a two-lane SHA-NI
 *     compression that interleaves both messages, so the two dependency
 *     chains share the SHA unit (Gulley et al., Intel white paper, 2013);
 *   - elsewhere, by a portable scalar compression, one lane after the other.
 *
 * Both feed the same search loop, which checks lane n before lane n+1 and
 * ignores the second lane of a pair that would pass `max_trials`.  BACKEND
 * names the path `search` uses ("sha-ni-x2" or "portable");
 * _search_portable always takes the scalar path, for tests.  The GIL is
 * released while scanning, so callers may mine several blocks from one
 * thread pool.
 */

#define PY_SSIZE_T_CLEAN

#include <Python.h>
#include <stdint.h>
#include <string.h>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define HAVE_SHA_NI 1
#include <immintrin.h>
#endif

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

/* What every trial of one search shares. */
typedef struct {
    uint32_t mid[8];   /* state after the prefix's whole 64-byte blocks */
    uint32_t w[32];    /* final block(s) as big-endian words, nonce bytes zero */
    int nblocks;       /* 1 or 2 final blocks */
    int at;            /* byte offset of the nonce in the final blocks */
#ifdef HAVE_SHA_NI
    /* pshufb masks placing the nonce's bytes, from a little-endian 64-bit
       lane, into each group of four words; 0x80 leaves a byte zero */
    unsigned char nonce_mask[8][16];
#endif
} Tail;

/* Digests of nonces n and n+1 (mod 2^64) as eight big-endian words each. */
typedef void (*hash2_fn)(const Tail *t, uint64_t n, uint32_t dig[2][8]);

static uint32_t
load_be32(const unsigned char *p)
{
    return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8) | p[3];
}

/* ---- portable scalar compression ---- */

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void
compress_portable(uint32_t st[8], const uint32_t block[16])
{
    uint32_t w[64];
    uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
    int i;

    memcpy(w, block, 16 * sizeof(uint32_t));
    for (i = 16; i < 64; i++) {
        uint32_t s0 = ROR(w[i - 15], 7) ^ ROR(w[i - 15], 18) ^ (w[i - 15] >> 3);
        uint32_t s1 = ROR(w[i - 2], 17) ^ ROR(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    for (i = 0; i < 64; i++) {
        uint32_t t1 = h + (ROR(e, 6) ^ ROR(e, 11) ^ ROR(e, 25)) + ((e & f) ^ (~e & g)) + K256[i] + w[i];
        uint32_t t2 = (ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
    st[4] += e; st[5] += f; st[6] += g; st[7] += h;
}

static void
hash2_portable(const Tail *t, uint64_t n, uint32_t dig[2][8])
{
    int lane, k, b;

    for (lane = 0; lane < 2; lane++, n++) {
        uint32_t w[32];
        memcpy(w, t->w, (size_t)t->nblocks * 16 * sizeof(uint32_t));
        /* nonce bytes at offsets at..at+7: word k holds bytes 4k..4k+3 */
        for (k = t->at / 4; k <= (t->at + 7) / 4; k++) {
            int shift = 32 + 8 * t->at - 32 * k; /* right shift of n, negative: left */
            w[k] |= shift >= 0 ? (uint32_t)(n >> shift) : (uint32_t)(n << -shift);
        }
        memcpy(dig[lane], t->mid, sizeof(t->mid));
        for (b = 0; b < t->nblocks; b++)
            compress_portable(dig[lane], w + 16 * b);
    }
}

/* ---- two-lane SHA-NI compression ---- */

#ifdef HAVE_SHA_NI
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
#define SCHEDULE(w4, w3, w2, w1) \
    (w4) = _mm_sha256msg2_epu32( \
        _mm_add_epi32(_mm_sha256msg1_epu32((w4), (w3)), _mm_alignr_epi8((w1), (w2), 4)), (w1))

/* Schedule and run rounds for groups g..g+3 of both lanes. */
#define GROUPS4(g)                                                          \
    do {                                                                    \
        SCHEDULE(a0, a1, a2, a3); SCHEDULE(b0, b1, b2, b3); ROUNDS4(a0, b0, (g));     \
        SCHEDULE(a1, a2, a3, a0); SCHEDULE(b1, b2, b3, b0); ROUNDS4(a1, b1, (g) + 1); \
        SCHEDULE(a2, a3, a0, a1); SCHEDULE(b2, b3, b0, b1); ROUNDS4(a2, b2, (g) + 2); \
        SCHEDULE(a3, a0, a1, a2); SCHEDULE(b3, b0, b1, b2); ROUNDS4(a3, b3, (g) + 3); \
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

/* One block for each lane; st[lane] = {ABEF, CDGH}, msg[lane] = the
   block's sixteen words in four groups. */
static inline SHA_NI void
compress_sha_ni_x2(__m128i st[2][2], const __m128i msg[2][4])
{
    __m128i abef_a = st[0][0], cdgh_a = st[0][1], abef_b = st[1][0], cdgh_b = st[1][1];
    __m128i a0 = msg[0][0], a1 = msg[0][1], a2 = msg[0][2], a3 = msg[0][3];
    __m128i b0 = msg[1][0], b1 = msg[1][1], b2 = msg[1][2], b3 = msg[1][3];

    ROUNDS4(a0, b0, 0);
    ROUNDS4(a1, b1, 1);
    ROUNDS4(a2, b2, 2);
    ROUNDS4(a3, b3, 3);
    GROUPS4(4);
    GROUPS4(8);
    GROUPS4(12);

    st[0][0] = _mm_add_epi32(st[0][0], abef_a);
    st[0][1] = _mm_add_epi32(st[0][1], cdgh_a);
    st[1][0] = _mm_add_epi32(st[1][0], abef_b);
    st[1][1] = _mm_add_epi32(st[1][1], cdgh_b);
}

static SHA_NI void
hash2_sha_ni(const Tail *t, uint64_t n, uint32_t dig[2][8])
{
    __m128i st[2][2], msg[2][4];
    int lane, j, b;

    to_abef_cdgh(st[0], t->mid);
    st[1][0] = st[0][0];
    st[1][1] = st[0][1];

    for (b = 0; b < t->nblocks; b++) {
        for (lane = 0; lane < 2; lane++) {
            __m128i nonce = _mm_set_epi64x(0, (long long)(n + (uint64_t)lane));
            for (j = 0; j < 4; j++)
                msg[lane][j] = _mm_or_si128(
                    _mm_loadu_si128((const __m128i *)(t->w + 16 * b + 4 * j)),
                    _mm_shuffle_epi8(nonce, _mm_loadu_si128((const __m128i *)t->nonce_mask[4 * b + j])));
        }
        compress_sha_ni_x2(st, msg);
    }

    for (lane = 0; lane < 2; lane++) {
        __m128i feba = _mm_shuffle_epi32(st[lane][0], 0x1B);
        __m128i dchg = _mm_shuffle_epi32(st[lane][1], 0xB1);
        _mm_storeu_si128((__m128i *)dig[lane], _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128((__m128i *)(dig[lane] + 4), _mm_alignr_epi8(dchg, feba, 8));
    }
}
#endif /* HAVE_SHA_NI */

/* ---- search ---- */

static hash2_fn hash2_best = hash2_portable;
static const char *backend_name = "portable";

static void
tail_init(Tail *t, const unsigned char *prefix, Py_ssize_t len)
{
    Py_ssize_t head = (len / 64) * 64;
    uint64_t bits = (uint64_t)(len + 8) * 8;
    unsigned char block[128] = {0};
    uint32_t words[16];
    Py_ssize_t off;
    int k;

    memcpy(t->mid, H0, sizeof(H0));
    for (off = 0; off < head; off += 64) {
        for (k = 0; k < 16; k++)
            words[k] = load_be32(prefix + off + 4 * k);
        compress_portable(t->mid, words);
    }

    t->at = (int)(len - head);
    t->nblocks = t->at + 8 + 1 + 8 <= 64 ? 1 : 2;
    memcpy(block, prefix + head, (size_t)t->at);
    block[t->at + 8] = 0x80;
    for (k = 0; k < 8; k++)
        block[64 * t->nblocks - 1 - k] = (unsigned char)(bits >> (8 * k));
    for (k = 0; k < 16 * t->nblocks; k++)
        t->w[k] = load_be32(block + 4 * k);

#ifdef HAVE_SHA_NI
    /* byte L of group j is byte 3 - L%4 of word 4j + L/4; the nonce's
       big-endian byte i sits at offset at + i and is byte 7 - i of its lane */
    for (int j = 0; j < 8; j++)
        for (k = 0; k < 16; k++) {
            int i = 16 * j + 4 * (k / 4) + 3 - k % 4 - t->at;
            t->nonce_mask[j][k] = (0 <= i && i < 8) ? (unsigned char)(7 - i) : 0x80;
        }
#endif
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

/* First nonce from *nonce within max_trials whose digest is below tgt. */
static int
scan(const Tail *t, hash2_fn hash2, const uint32_t tgt[8], uint64_t *nonce,
     unsigned long long max_trials, uint32_t out[8])
{
    uint32_t dig[2][8];
    uint64_t n = *nonce;
    unsigned long long left = max_trials;
    int lane;

    while (left > 0) {
        hash2(t, n, dig);
        for (lane = 0; lane < 2 && (unsigned long long)lane < left; lane++) {
            if (below(dig[lane], tgt)) {
                *nonce = n + (uint64_t)lane;
                memcpy(out, dig[lane], sizeof(dig[lane]));
                return 1;
            }
        }
        if (left <= 2)
            break;
        left -= 2;
        n += 2; /* uint64 wraps */
    }
    return 0;
}

static PyObject *
search_with(PyObject *args, hash2_fn hash2)
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
    if (target.len != 32) {
        PyBuffer_Release(&prefix);
        PyBuffer_Release(&target);
        PyErr_SetString(PyExc_ValueError, "target must be 32 bytes");
        return NULL;
    }
    for (k = 0; k < 8; k++)
        tgt[k] = load_be32((const unsigned char *)target.buf + 4 * k);
    nonce = (uint64_t)start;

    Py_BEGIN_ALLOW_THREADS
    tail_init(&tail, (const unsigned char *)prefix.buf, prefix.len);
    found = scan(&tail, hash2, tgt, &nonce, max_trials, dig);
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
    return search_with(args, hash2_best);
}

static PyObject *
search_portable(PyObject *self, PyObject *args)
{
    return search_with(args, hash2_portable);
}

static PyMethodDef methods[] = {
    {"search", search, METH_VARARGS,
     "search(prefix, start_nonce, max_trials, target) -> (nonce, digest) | None"},
    {"_search_portable", search_portable, METH_VARARGS,
     "search() on the portable scalar compression, whatever the CPU"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_noncesearch", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__noncesearch(void)
{
    PyObject *module;

#ifdef HAVE_SHA_NI
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
        hash2_best = hash2_sha_ni;
        backend_name = "sha-ni-x2";
    }
#endif
    module = PyModule_Create(&moduledef);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND", backend_name) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
