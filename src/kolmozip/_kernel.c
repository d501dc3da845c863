/*
 * Integer step kernel: a CPython extension, twin of _kernel_numpy.py.
 *
 *   quantize(weights, cum)           the table of 256 weights into cum (257
 *                                    entries): coder.quantize_weights
 *   net(..., lr) -> state            one NeuralPredictor's arrays, at the empty
 *                                    context, its forward pass in buf
 *   net_step(net, token)             NeuralPredictor's update, then the next
 *                                    context's forward pass into buf (and
 *                                    its table into a kept cum)
 *   encoder() -> state               a RangeEncoder's registers and output
 *   encode(enc, cum, sym) -> width   RangeEncoder.encode_symbol
 *   finish(enc) -> bytes             RangeEncoder.finish
 *   decoder(payload) -> state        a RangeDecoder, its first five bytes read
 *   decode(dec, cum) -> sym          RangeDecoder.decode_symbol
 *   freq(order, row) -> state        one FreqPredictor's count table, empty
 *                                    and bound to row, which holds ones
 *   freq_step(state, token)          FreqPredictor's update, then the next
 *                                    context's counts into row (and their
 *                                    table into a kept cum)
 *   freq_state(state) -> bytes       FreqPredictor's digest payload
 *   keep_table(state, cum)           bind cum (257 entries) to a net or count
 *                                    table: every later step of it ends by
 *                                    quantizing the row it leaves into cum,
 *                                    so the replay loop makes no quantize
 *                                    call per byte; unbound, a step writes
 *                                    no table
 *
 * Every function reproduces its twin bit for bit.  kernel.load() never returns
 * None: it returns this module, or the twin (the reference the tests hold this
 * one to) when this file cannot be compiled.  This comment is the one
 * statement of the step's arithmetic.  Rules that keep the two identical:
 *
 *   - all state arithmetic is on int64; the loader compiles with -fwrapv, so
 *     an overflow wraps exactly as numpy's fixed-width integers do;
 *   - every right shift of a signed value is a floor shift (floor_shift), the
 *     semantics of numpy's >> on int64; no `/` or `%` ever sees a negative;
 *   - integer sums are order-independent under wrapping, so loop order is free;
 *   - quantize and net_step accept a row by one rule (row_scan): every
 *     weight nonnegative, one positive, and the total below 2^37; both divide
 *     by that total through one routine (divide_row), in doubles, which hold
 *     every value the division makes exactly there.  No row a predictor
 *     makes totals more than 2^24 (256 counts below 2^16, or 256 softmax
 *     weights of at most 2^16);
 *   - quantize gives the leftover slots to the largest remainders, ties to
 *     the lower index, as the twin's argpartition over distinct keys does.
 *     One pass over the row checks it, totals it and counts its weights
 *     other than one.  A row with at most GROUPED_LIMIT of those (most of
 *     the count rows freq makes) takes the grouped path where the threshold
 *     falls among the ones' remainders: they share one, so only the others
 *     are divided, and the table is written as the ones' arithmetic
 *     progression plus the others' differences (81-100% of the count rows
 *     of the benchmark's freq streams take it, and it makes a bound freq:2
 *     step 1.5-2.7x faster: BENCH_26.json).  Any other row takes the
 *     dense path: it counts the remainders above and equal to a pivot, and
 *     where the threshold falls among the equal ones the winners there are
 *     the first by index; elsewhere it selects among the keys on the
 *     threshold's side of the pivot.  The twin has one path, the dense
 *     arithmetic in numpy;
 *   - a kept table never fails a step that has changed state: net() takes
 *     only softmax tables whose every forward pass quantize's rule accepts,
 *     and a count row always passes it;
 *   - one clone rule: clone a loop root, and flatten what it calls.  The
 *     three functions the entry points call for the step's loops (forward,
 *     net_grad and quantize_row) are built twice on x86-64 glibc, for AVX2
 *     and for the baseline ISA, and the CPU picks one at load time
 *     (VECTOR_CLONES).  Each clone compiles the root's whole call tree as
 *     one body for its ISA, so no helper beneath a root is a function of
 *     its own, which would run its baseline build from the AVX2 clone (a
 *     dense quantize left out of quantize_row's clone that way ran a net's
 *     rows 1.4x slower).  Nothing else is cloned.
 *     Both clones are compiled from the same code, every value of which is
 *     an exact integer (in doubles too), so the arithmetic, and every byte it
 *     writes, is the same on every CPU.  AVX-512 hosts run the AVX2 clone:
 *     an x86-64-v4 clone ran the net step slower there (BENCH_18.json);
 *   - freq stores its counts as uint16 (the twin as int32): a count that
 *     reaches 2^16 halves its row at once, so none stored is larger, and a
 *     row is widened only where it is copied out.
 *
 * Every array arrives through the buffer protocol as one kind: a
 * one-dimensional, C-contiguous int64 vector, writable where it is written.
 * get_array checks the kind and, where the function fixes it, the length
 * (the twin's _check, with the same messages in the same order); every
 * function raises ValueError (MemoryError when scratch cannot be had) before
 * it touches any state.
 * The GIL is held throughout, so a net's scratch is never shared by two
 * running calls.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define PROB_SCALE 65536
#define ONE 65536                      /* Q16.16 unit */
#define ALPHABET 256                   /* every row holds one weight per byte value */
#define WEIGHT_CLIP (8 * ONE)          /* net parameters saturate to [-8.0, 8.0] */
#define MAX_WIDTH (INT64_C(1) << 31)   /* keeps the output-layer shift below 64 */
#define MAX_LR (1 << 20)               /* PredictorConfig's learning-rate bound */
#define TOTAL_LIMIT (INT64_C(1) << 37) /* rows divide_row divides: weights and total below */
#define SOFTMAX_LIMIT (TOTAL_LIMIT / ALPHABET) /* softmax entries below it: 256 of them total below 2^37 */

/* The clone rule of the header: flatten inlines everything a root calls
 * into each of its clones.  target_clones resolves through an ifunc, which
 * needs x86-64 and glibc; elsewhere the plain functions are built. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define VECTOR_CLONES __attribute__((target_clones("avx2", "default"), flatten))
#endif
#endif
#ifndef VECTOR_CLONES
#define VECTOR_CLONES
#endif

static inline int64_t floor_shift(int64_t x, int s)
{
    /* floor(x / 2^s) for either sign, without relying on how the compiler
     * shifts negative values */
    return x >= 0 ? x >> s : ~(~x >> s);
}

static inline int64_t clamp(int64_t x, int64_t limit)
{
    return x > limit ? limit : (x < -limit ? -limit : x);
}

/* --- buffers ----------------------------------------------------------- */

/* Acquire obj as a one-dimensional, C-contiguous vector of native int64,
 * writable if asked, of length entries where length >= 0; on success *n
 * holds its length.  Returns 0, or -1 with an exception set and no buffer
 * held. */
static int get_array(PyObject *obj, Py_buffer *view, int writable, const char *name, Py_ssize_t length,
                     Py_ssize_t *n)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *f = view->format ? view->format : "B";
    /* native order: none, '@', '=' or the host's own ('<' on little-endian);
     * the itemsize check rejects the 4-byte standard-size 'i' and 'l' */
    if (*f == '@' || *f == '=' || *f == (PY_BIG_ENDIAN ? '>' : '<'))
        f++;
    const char *why = NULL;
    if (view->itemsize != 8 || f[1] != '\0' || (f[0] != 'i' && f[0] != 'l' && f[0] != 'q'))
        why = "must be int64";
    else if (view->ndim != 1)
        why = "must be one-dimensional";
    else if (!PyBuffer_IsContiguous(view, 'C'))
        why = "must be C-contiguous";
    else if (writable && view->readonly)
        why = "must be writable";
    if (why) {
        PyErr_Format(PyExc_ValueError, "%s %s", name, why);
        PyBuffer_Release(view);
        return -1;
    }
    *n = view->len / view->itemsize;
    if (length >= 0 && *n != length) {
        PyErr_Format(PyExc_ValueError, "%s must hold %zd entries", name, length);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static int check_nargs(const char *fn, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", fn, want, nargs);
    return -1;
}

/* Read the integer obj into *out, which must lie in [lo, hi).  A value
 * outside, past int64 included, raises the twin's ValueError: fmt is its
 * message, with %S for the value and, where the message shows it, %lld for
 * hi.  Returns 0, or -1 with an exception set. */
static int get_int(PyObject *obj, long long lo, long long hi, const char *fmt, long long *out)
{
    int overflow;
    *out = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (overflow || *out < lo || *out >= hi) {
        PyErr_Format(PyExc_ValueError, fmt, obj, hi);
        return -1;
    }
    return 0;
}

/* --- quantization ------------------------------------------------------ */

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

static inline void swap_i64(int64_t *a, int64_t i, int64_t j)
{
    int64_t t = a[i];
    a[i] = a[j];
    a[j] = t;
}

/* The element of rank k (0-based, ascending) among n distinct values; a is
 * permuted.  Quickselect with a median-of-three pivot and a branch-free
 * Lomuto partition (every element is swapped, and the store index advances
 * past those below the pivot); after 2*log2(n)+8 rounds the remaining range
 * is sorted outright, bounding the worst case at O(n log n). */
static int64_t select_rank(int64_t *a, int64_t n, int64_t k)
{
    int64_t lo = 0, hi = n - 1;
    int rounds = 8;
    for (int64_t v = n; v > 1; v >>= 1)
        rounds += 2;
    while (lo < hi) {
        if (rounds-- == 0) {
            qsort(a + lo, (size_t)(hi - lo + 1), sizeof *a, cmp_i64);
            break;
        }
        int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < a[lo])
            swap_i64(a, mid, lo);
        if (a[hi] < a[lo])
            swap_i64(a, hi, lo);
        if (a[mid] < a[hi])
            swap_i64(a, mid, hi);
        int64_t pivot = a[hi], store = lo;
        for (int64_t i = lo; i < hi; i++) {
            const int64_t x = a[i];
            a[i] = a[store];
            a[store] = x;
            store += x < pivot;
        }
        swap_i64(a, store, hi);
        if (store == k)
            break;
        if (k < store)
            hi = store - 1;
        else
            lo = store + 1;
    }
    return a[k];
}

/* One pass over the 256 weights w: their sum into *total, the number of
 * them other than one into *others, and the verdict of the rule by which
 * quantize and net_step accept a row (_kernel_numpy._row_total): every
 * weight nonnegative, one positive, and the total below 2^37, which
 * divide_row needs.  bits, the weights' OR, is negative iff a weight is,
 * and below 2^37 iff every weight is; then 256 weights below 2^37 sum below
 * 2^45, so the sum cannot wrap.  A row whose sum may wrap is reported on
 * bits alone.  Returns NULL, or the error message. */
static inline const char *row_scan(const int64_t *w, int64_t *total, int64_t *others)
{
    int64_t bits = 0, ones = 0;
    uint64_t sum = 0;
    for (int64_t i = 0; i < ALPHABET; i++) {
        bits |= w[i];
        sum += (uint64_t)w[i];
        ones += w[i] == 1;
    }
    *total = (int64_t)sum;
    *others = ALPHABET - ones;
    if (bits >= 0 && (bits >= TOTAL_LIMIT || *total >= TOTAL_LIMIT))
        return "weight total too large; rescale below 2^37";
    if (bits < 0 || *total == 0)
        return "weights must be nonnegative with one positive";
    return NULL;
}

#define BIAS 0x1p52                                 /* 2^52: below it, an integer sits in the mantissa */
#define BIAS_BITS INT64_C(0x4330000000000000)       /* its bits */

/* x, 0 <= x < 2^52, as a double: or'd into 2^52's mantissa, less 2^52 (no
 * AVX2 instruction converts int64 lanes) */
static inline double to_double(int64_t x)
{
    double d;
    const int64_t bits = x | BIAS_BITS;
    memcpy(&d, &bits, sizeof d);
    return d - BIAS;
}

/* the integer-valued double x, 0 <= x < 2^52, as an int64: the inverse */
static inline int64_t to_int(double x)
{
    const double d = x + BIAS;
    int64_t bits;
    memcpy(&bits, &d, sizeof bits);
    return bits - BIAS_BITS;
}

/* q[i], r[i] <- the quotient and remainder of w[i] * mult / total: the one
 * division of the step, for quantize's floors (mult, the free slots) and
 * the gradient's (mult, ONE).  w[i] <= total < 2^37 and mult <= 2^16 keep
 * w * mult, the quotient times the total and the remainder integers below
 * 2^53, which doubles hold exactly, four lanes under AVX2.  The quotient
 * rounded to the nearest integer, near, is the floor or one above it, so
 * num - near * total + total, exact, lies in [0, 2 * total) and tells
 * which. */
static inline void divide_row(const int64_t *restrict w, int64_t m, int64_t total, int64_t mult,
                              int64_t *restrict q, int64_t *restrict r)
{
    const double t = (double)total, inv = 1.0 / t, f = (double)mult;
    for (int64_t i = 0; i < m; i++) {
        const double num = to_double(w[i]) * f;
        const double near = (num * inv + BIAS) - BIAS;
        const int64_t above = to_int(num - near * t + t), under = above < total;
        q[i] = to_int(near) - under;
        r[i] = above - total + (total & -under);
    }
}

/* The smallest key that wins a leftover slot: the key of rank ALPHABET -
 * leftover (ascending, 0 < leftover < ALPHABET) among the distinct keys
 * (rem[i] << 16) + (ALPHABET-1-i), largest remainder first and ties to the
 * lower index.
 *
 * One pass counts the remainders above and equal to a pivot, the median of
 * the first, middle and last.  A count row is mostly ones, which share one
 * remainder, so the threshold usually falls among the remainders equal to
 * the pivot: then the winners there are the first by index, and the last
 * of them is found by a scan.  Otherwise the keys on the threshold's side
 * of the pivot are selected from alone. */
static int64_t leftover_threshold(const int64_t *rem, int64_t leftover)
{
    const int64_t a = rem[0], b = rem[ALPHABET / 2], c = rem[ALPHABET - 1];
    const int64_t lo = a < b ? a : b, hi = a < b ? b : a;
    const int64_t pivot = c < lo ? lo : (c > hi ? hi : c);
    int64_t above = 0, equal = 0;
    for (int64_t i = 0; i < ALPHABET; i++) {
        above += rem[i] > pivot;
        equal += rem[i] == pivot;
    }
    if (above < leftover && leftover <= above + equal) {
        int64_t need = leftover - above, i = -1;
        while (need)
            need -= rem[++i] == pivot;
        return (pivot << 16) + (ALPHABET - 1 - i);
    }
    /* every key on the pivot's far side loses (above >= leftover) or wins */
    const int64_t upper = above >= leftover, wins = upper ? leftover : leftover - above - equal;
    int64_t sel[ALPHABET], n = 0;
    for (int64_t i = 0; i < ALPHABET; i++) {
        sel[n] = (rem[i] << 16) + (ALPHABET - 1 - i);
        n += upper ? rem[i] > pivot : rem[i] < pivot;
    }
    return select_rank(sel, n, n - wins);
}

#define FREE_SLOTS (PROB_SCALE - ALPHABET) /* a table's slots past one per symbol */

/* Write into cum the table of the 256 weights w that row_scan accepts,
 * with their total: _kernel_numpy._quantize.  One slot per symbol up front,
 * floors of w*FREE_SLOTS/total, then the leftover slots to the largest keys
 * (remainder << 16) + (ALPHABET-1-i).  w is read in full before cum is
 * written, so the two may overlap. */
static void quantize_dense(const int64_t *w, int64_t total, int64_t *cum)
{
    int64_t rem[ALPHABET], base[ALPHABET];
    divide_row(w, ALPHABET, total, FREE_SLOTS, base, rem);
    int64_t assigned = 0;
    for (int64_t i = 0; i < ALPHABET; i++)
        assigned += base[i];
    const int64_t leftover = FREE_SLOTS - assigned; /* in [0, ALPHABET) */
    if (leftover) {
        const int64_t threshold = leftover_threshold(rem, leftover);
        for (int64_t i = 0; i < ALPHABET; i++)
            base[i] += (rem[i] << 16) + (ALPHABET - 1 - i) >= threshold;
    }
    cum[0] = 0;
    for (int64_t i = 0; i < ALPHABET; i++)
        cum[i + 1] = cum[i] + base[i] + 1;
}

/* The most weights other than one that quantize_grouped takes: the
 * measured crossover.  Timed on 400 distinct 256-entry count rows for each
 * number k of counts above one, the grouped path was at least 8% faster
 * than the dense one up to k = 8, 3-8% faster at k = 9 and 10 (level in
 * another run), and slower from k = 11 (BENCH_26.json): its branches on S
 * mispredict about once per member.  (Timed on a few rows repeated, the
 * predictor learns them, and the crossover reads k = 40.)  Most rows freq
 * makes on text have k <= 8. */
#define GROUPED_LIMIT 8

/* quantize_dense's table for the 256 weights w, k <= GROUPED_LIMIT of them,
 * S, other than one, with their total, dividing only S and the weight 1;
 * or 0, with cum unwritten, where the threshold key falls among S's keys
 * alone (0.5% of the benchmark's count rows; quantize_dense selects it).
 * Exact, because the 256 - k ones are copies of one weight: they share one
 * floor b1 and one remainder r1, and their keys (r1 << 16) + (ALPHABET-1-i)
 * fall in index order, so the ones that win leftover slots are those below
 * an index c1.  The threshold is the key of the (leftover - above)-th
 * member of r1's class: its index is that count, less one, plus the
 * members of S outside the class below it.  Then every entry of cum is the
 * ones' progression i*(b1+1) + min(i, c1) plus, for each member of S below
 * i, its slots less those a one would have had in its place: the integers
 * quantize_dense sums one by one. */
static int quantize_grouped(const int64_t *w, int64_t total, int64_t k, int64_t *cum)
{
    const int64_t ones = ALPHABET - k;
    int64_t at[GROUPED_LIMIT + 1], v[GROUPED_LIMIT + 1], b[GROUPED_LIMIT], r[GROUPED_LIMIT];
    int64_t key[GROUPED_LIMIT];
    /* S in index order, by chunks of eight, which tile the row: at[n] and
     * v[n] are written before n counts them */
    for (int64_t n = 0, i = 0; n < k; i += 8) {
        int64_t odd = 0;
        for (int64_t j = i; j < i + 8; j++)
            odd |= w[j] ^ 1;
        if (odd) /* a chunk of eight ones is skipped */
            for (int64_t j = i; j < i + 8; j++) {
                at[n] = j;
                v[n] = w[j];
                n += w[j] != 1;
            }
    }
    const int64_t one = 1;
    int64_t b1, r1;
    divide_row(&one, 1, total, FREE_SLOTS, &b1, &r1);
    divide_row(v, k, total, FREE_SLOTS, b, r);
    int64_t leftover = FREE_SLOTS - ones * b1, above = 0, equal = 0;
    for (int64_t j = 0; j < k; j++) {
        leftover -= b[j];
        above += r[j] > r1;
        equal += r[j] == r1;
        key[j] = (r[j] << 16) + (ALPHABET - 1 - at[j]);
    }
    int64_t threshold = INT64_MAX; /* the smallest key that wins */
    if (above < leftover && leftover <= above + ones + equal) {
        int64_t cut = leftover - above - 1; /* the last one of r1's class to win */
        for (int64_t j = 0; j < k; j++) /* each member of S outside the class at or below it moves it on */
            cut += (at[j] <= cut) & (r[j] != r1);
        threshold = (r1 << 16) + (ALPHABET - 1 - cut);
    } else if (leftover) /* among S's keys alone */
        return 0;
    /* the ones' keys that win are those of index below c1 */
    const int64_t c = ALPHABET - (threshold - (r1 << 16));
    const int64_t c1 = c < 0 ? 0 : (c > ALPHABET ? ALPHABET : c), step = b1 + 1;
    int64_t off = 0, lo = 0; /* cum[lo..end) lies between two members of S */
    for (int64_t j = 0; j <= k; j++) {
        const int64_t end = j < k ? at[j] + 1 : ALPHABET + 1, mid = c1 < lo ? lo : (c1 > end ? end : c1);
        for (int64_t x = lo; x < mid; x++)
            cum[x] = x * (step + 1) + off;
        for (int64_t x = mid; x < end; x++)
            cum[x] = x * step + c1 + off;
        if (j < k)
            off += b[j] + (key[j] >= threshold) - b1 - (at[j] < c1);
        lo = end;
    }
    return 1;
}

/* Write into cum (257 entries) the table of the 256 weights w, or return
 * why quantize's rule (row_scan) refuses them, writing nothing:
 * _kernel_numpy.quantize.  A row with at most GROUPED_LIMIT weights other
 * than one takes quantize_grouped, any other (or one it returns)
 * quantize_dense.  w is read in full before cum is written, so the two may
 * overlap. */
VECTOR_CLONES static const char *quantize_row(const int64_t *w, int64_t *cum)
{
    int64_t total, others;
    const char *error = row_scan(w, &total, &others);
    if (error)
        return error;
    if (others > GROUPED_LIMIT || !quantize_grouped(w, total, others, cum))
        quantize_dense(w, total, cum);
    return NULL;
}

/* quantize(weights, cum): 256 weights; cum, of 257 entries, filled with the
 * cumulative table. */
static PyObject *kz_quantize(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (check_nargs("quantize", nargs, 2) < 0)
        return NULL;
    Py_buffer wv, cv;
    Py_ssize_t n;
    if (get_array(args[0], &wv, 0, "weights", ALPHABET, &n) < 0)
        return NULL;
    if (get_array(args[1], &cv, 1, "cum", ALPHABET + 1, &n) < 0) {
        PyBuffer_Release(&wv);
        return NULL;
    }
    const char *error = quantize_row(wv.buf, cv.buf);
    PyBuffer_Release(&cv);
    PyBuffer_Release(&wv);
    if (error) {
        PyErr_SetString(PyExc_ValueError, error);
        return NULL;
    }
    Py_RETURN_NONE;
}

/* --- range coder ------------------------------------------------------ */

#define RENORM (UINT32_C(1) << 24) /* renormalize while range < 2^24 */
#define FLUSH_BYTES 5              /* finish() shifts out five bytes */

/* RangeEncoder's state.  low holds up to 33 bits between renormalizations;
 * bit 32 is a carry into the bytes not yet written out: the cache byte and
 * the run of 0xFF after it (pending counts both).  The first byte is a
 * phantom zero, so a carry always has somewhere to land. */
typedef struct {
    PyObject_HEAD
    uint64_t low;
    uint32_t range;
    unsigned cache;
    Py_ssize_t pending;
    int finished;
    unsigned char *out;
    Py_ssize_t len, cap;
} kz_encoder;

/* RangeDecoder's state.  code = value - low, so there is no low register;
 * the renormalization schedule is the encoder's. */
typedef struct {
    PyObject_HEAD
    Py_buffer payload;
    Py_ssize_t cursor;
    uint32_t range, code;
} kz_decoder;

static void encoder_dealloc(PyObject *self)
{
    PyMem_Free(((kz_encoder *)self)->out);
    PyObject_Free(self);
}

static void decoder_dealloc(PyObject *self)
{
    kz_decoder *dec = (kz_decoder *)self;
    if (dec->payload.obj)
        PyBuffer_Release(&dec->payload);
    PyObject_Free(self);
}

static PyMemberDef encoder_members[] = {
    {"low", T_ULONGLONG, offsetof(kz_encoder, low), READONLY, "the low register"},
    {"range", T_UINT, offsetof(kz_encoder, range), READONLY, "the range register"},
    {NULL, 0, 0, 0, NULL},
};

static PyMemberDef decoder_members[] = {
    {"cursor", T_PYSSIZET, offsetof(kz_decoder, cursor), READONLY, "payload bytes read"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject encoder_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "kolmozip._kernel.encoder",
    .tp_basicsize = sizeof(kz_encoder),
    .tp_dealloc = encoder_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "a range encoder's state, made by encoder()",
    .tp_members = encoder_members,
};

static PyTypeObject decoder_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "kolmozip._kernel.decoder",
    .tp_basicsize = sizeof(kz_decoder),
    .tp_dealloc = decoder_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "a range decoder's state, made by decoder(payload)",
    .tp_members = decoder_members,
};

static void *get_state(PyObject *obj, PyTypeObject *type)
{
    if (Py_IS_TYPE(obj, type))
        return obj;
    PyErr_Format(PyExc_TypeError, "expected a %s state, got %s", type->tp_name, Py_TYPE(obj)->tp_name);
    return NULL;
}

/* Room for n more output bytes; -1 with MemoryError set. */
static int reserve(kz_encoder *enc, Py_ssize_t n)
{
    if (enc->cap - enc->len >= n)
        return 0;
    Py_ssize_t cap = enc->cap ? enc->cap : 256;
    while (cap - enc->len < n) {
        if (cap > PY_SSIZE_T_MAX / 2)
            return PyErr_NoMemory(), -1;
        cap *= 2;
    }
    unsigned char *out = PyMem_Realloc(enc->out, (size_t)cap);
    if (!out)
        return PyErr_NoMemory(), -1;
    enc->out = out;
    enc->cap = cap;
    return 0;
}

/* Shift the top byte of low out: written once no carry can reach it (low
 * below 0xFF000000 or carried), else one more pending 0xFF.  Writes at most
 * pending bytes, so k shifts need room for pending + k. */
static void shift_low(kz_encoder *enc)
{
    const uint64_t low = enc->low;
    if (low < UINT64_C(0xFF000000) || low > UINT64_C(0xFFFFFFFF)) {
        const unsigned carry = (unsigned)(low >> 32);
        enc->out[enc->len++] = (unsigned char)(enc->cache + carry);
        memset(enc->out + enc->len, (unsigned char)(0xFF + carry), (size_t)(enc->pending - 1));
        enc->len += enc->pending - 1;
        enc->pending = 0;
        enc->cache = (unsigned)(low >> 24) & 0xFF;
    }
    enc->pending++;
    enc->low = (low << 8) & UINT64_C(0xFFFFFFFF);
}

/* encoder() -> a fresh encoder state */
static PyObject *kz_encoder_new(PyObject *module, PyObject *unused)
{
    (void)module;
    (void)unused;
    kz_encoder *enc = (kz_encoder *)PyType_GenericAlloc(&encoder_type, 0); /* zeroed */
    if (!enc)
        return NULL;
    enc->range = UINT32_MAX;
    enc->pending = 1; /* the phantom leading byte */
    return (PyObject *)enc;
}

/* encode(enc, cum, sym) -> cum[sym + 1] - cum[sym]: narrow the range to the
 * symbol's interval, which must be a nonempty part of [0, 2^16] (an empty
 * one would renormalize forever), then renormalize. */
static PyObject *kz_encode(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (check_nargs("encode", nargs, 3) < 0)
        return NULL;
    kz_encoder *enc = get_state(args[0], &encoder_type);
    if (!enc)
        return NULL;
    Py_buffer cv;
    Py_ssize_t n;
    if (get_array(args[1], &cv, 0, "cum", -1, &n) < 0)
        return NULL;
    if (enc->finished) {
        PyErr_SetString(PyExc_ValueError, "encoder already finished");
        PyBuffer_Release(&cv);
        return NULL;
    }
    long long sym;
    if (get_int(args[2], 0, n - 1, "symbol %S outside [0, %lld)", &sym) < 0) {
        PyBuffer_Release(&cv);
        return NULL;
    }
    const int64_t c0 = ((const int64_t *)cv.buf)[sym], c1 = ((const int64_t *)cv.buf)[sym + 1];
    PyBuffer_Release(&cv);
    if (c0 < 0 || c0 >= c1 || c1 > PROB_SCALE) {
        PyErr_SetString(PyExc_ValueError, "encode needs 0 <= cum[sym] < cum[sym + 1] <= 2^16");
        return NULL;
    }
    if (reserve(enc, enc->pending + FLUSH_BYTES) < 0) /* a symbol shifts at most 3 times */
        return NULL;
    const uint64_t r = enc->range, lo = (r * (uint64_t)c0) >> 16, hi = (r * (uint64_t)c1) >> 16;
    enc->low += lo;
    enc->range = (uint32_t)(hi - lo);
    while (enc->range < RENORM) {
        shift_low(enc);
        enc->range <<= 8;
    }
    return PyLong_FromLongLong(c1 - c0);
}

/* finish(enc) -> the payload.  The first call snaps low up to a multiple of
 * 2^16 (inside [low, low + range), as range >= 2^24) and shifts out five
 * bytes; the zero tail drains the pending run, so the payload holds exactly
 * one byte per renormalization plus five.  Later calls return it again. */
static PyObject *kz_finish(PyObject *module, PyObject *arg)
{
    (void)module;
    kz_encoder *enc = get_state(arg, &encoder_type);
    if (!enc)
        return NULL;
    if (!enc->finished) {
        if (reserve(enc, enc->pending + FLUSH_BYTES) < 0)
            return NULL;
        enc->low = (enc->low + 0xFFFF) & ~UINT64_C(0xFFFF);
        for (int i = 0; i < FLUSH_BYTES; i++)
            shift_low(enc);
        enc->finished = 1;
    }
    return PyBytes_FromStringAndSize((const char *)enc->out, enc->len);
}

/* The next payload byte, or -1 with TruncatedStreamError set. */
static int next_byte(kz_decoder *dec)
{
    if (dec->cursor < dec->payload.len)
        return ((const unsigned char *)dec->payload.buf)[dec->cursor++];
    PyObject *errors = PyImport_ImportModule("kolmozip.errors");
    PyObject *truncated = errors ? PyObject_GetAttrString(errors, "TruncatedStreamError") : NULL;
    if (truncated)
        PyErr_Format(truncated, "payload exhausted at byte %zd; stream is truncated", dec->cursor);
    Py_XDECREF(truncated);
    Py_XDECREF(errors);
    return -1;
}

/* decoder(payload) -> a decoder state over a bytes-like payload, with the
 * phantom byte skipped and the next four read into code */
static PyObject *kz_decoder_new(PyObject *module, PyObject *payload)
{
    (void)module;
    kz_decoder *dec = (kz_decoder *)PyType_GenericAlloc(&decoder_type, 0); /* zeroed */
    if (!dec)
        return NULL;
    dec->range = UINT32_MAX;
    if (PyObject_GetBuffer(payload, &dec->payload, PyBUF_SIMPLE) < 0) {
        Py_DECREF(dec);
        return NULL;
    }
    for (int i = 0; i < 5; i++) {
        int byte = next_byte(dec);
        if (byte < 0) {
            Py_DECREF(dec);
            return NULL;
        }
        dec->code = dec->code << 8 | (uint32_t)byte; /* the phantom byte shifts out */
    }
    return (PyObject *)dec;
}

/* decode(dec, cum) -> the symbol s whose interval [cum[s], cum[s + 1]) holds
 * the target, then the encoder's narrowing and renormalization.  s is found
 * as the twin's searchsorted(side="right") finds it, so the two agree even
 * on a table that is not increasing.  cum must be a table: holding the
 * target, and every interval inside [0, 2^16]. */
static PyObject *kz_decode(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (check_nargs("decode", nargs, 2) < 0)
        return NULL;
    kz_decoder *dec = get_state(args[0], &decoder_type);
    if (!dec)
        return NULL;
    Py_buffer cv;
    Py_ssize_t n;
    if (get_array(args[1], &cv, 0, "cum", -1, &n) < 0)
        return NULL;
    const int64_t *cum = cv.buf;
    const uint64_t r = dec->range;
    int64_t target = (int64_t)(((((uint64_t)dec->code + 1) << 16) - 1) / r);
    if (target >= PROB_SCALE) /* only reachable on corrupted payloads */
        target = PROB_SCALE - 1;
    /* numpy's binary search over [0, n): cum[lo - 1] <= target if lo > 0,
     * and target < cum[lo] if lo < n */
    Py_ssize_t lo = 0, hi = n;
    while (lo < hi) {
        const Py_ssize_t mid = lo + (hi - lo) / 2;
        if (cum[mid] <= target)
            lo = mid + 1;
        else
            hi = mid;
    }
    const Py_ssize_t sym = lo - 1;
    if (sym < 0 || sym >= n - 1) {
        PyBuffer_Release(&cv);
        PyErr_SetString(PyExc_ValueError, "decode needs cum[0] <= target < cum[-1]");
        return NULL;
    }
    const int64_t c0 = cum[sym], c1 = cum[sym + 1];
    PyBuffer_Release(&cv);
    if (c0 < 0 || c1 > PROB_SCALE) {
        PyErr_SetString(PyExc_ValueError, "decode needs 0 <= cum[sym] < cum[sym + 1] <= 2^16");
        return NULL;
    }
    const uint64_t low = (r * (uint64_t)c0) >> 16, high = (r * (uint64_t)c1) >> 16;
    dec->code -= (uint32_t)low; /* low <= code, as c0 <= target */
    dec->range = (uint32_t)(high - low);
    while (dec->range < RENORM) {
        int byte = next_byte(dec);
        if (byte < 0)
            return NULL;
        dec->code = dec->code << 8 | (uint32_t)byte;
        dec->range <<= 8;
    }
    return PyLong_FromSsize_t(sym);
}

/* --- kept tables -------------------------------------------------------- */

/* The table a net or count table keeps: bound by keep_table, written by each
 * step after it.  obj is NULL while none is bound. */
typedef struct {
    Py_buffer view;
    int64_t *cum;
} kept_table;

static void table_release(kept_table *t)
{
    if (t->view.obj)
        PyBuffer_Release(&t->view);
}

/* cum <- the table of row, which the state's own rule makes valid: a count
 * row (every count in [1, 2^16)) or a net's forward pass (net() checks the
 * softmax table, so every entry lies in [0, 2^29) and the top one is
 * positive).  Nothing is written while no table is bound. */
static void table_write(const kept_table *t, const int64_t *row)
{
    if (!t->cum)
        return;
    (void)quantize_row(row, t->cum);
}

/* --- neural predictor -------------------------------------------------- */

enum { EMB, B1, W2, B2, SOFTMAX, BUF, N_ARRAYS };

/* One NeuralPredictor's arrays (held, so they outlive the predictor's own
 * references), its context, its constants and its scratch. */
typedef struct {
    PyObject_HEAD
    Py_buffer views[N_ARRAYS];
    int64_t *emb;           /* k x 256 x w */
    int64_t *b1;            /* w */
    int64_t *w2;            /* w x 256 */
    int64_t *b2;            /* 256 */
    const int64_t *softmax; /* softmax_len entries */
    int64_t *buf;           /* the current forward pass: pre[w] | hidden[w] | weights[256] */
    int64_t softmax_len;
    int64_t k, w, lr;
    int width_shift;        /* bit length of w - 1, so the output-layer step is
                             * width-invariant */
    int64_t *dlog;          /* scratch: 256 error-signal entries, then w hidden steps */
    int64_t n;              /* context bytes held, at most k */
    unsigned char *context; /* the last n bytes coded, oldest first; room for k */
    kept_table table;       /* the forward pass's table, once bound */
} kz_net;

static void net_free(PyObject *self)
{
    kz_net *net = (kz_net *)self;
    for (int i = 0; i < N_ARRAYS; i++)
        if (net->views[i].obj)
            PyBuffer_Release(&net->views[i]);
    table_release(&net->table);
    PyMem_Free(net->dlog);
    PyMem_Free(net->context);
    PyObject_Free(self);
}

static PyObject *net_context(PyObject *self, void *closure)
{
    (void)closure;
    const kz_net *net = (const kz_net *)self;
    return PyBytes_FromStringAndSize((const char *)net->context, net->n);
}

static PyGetSetDef net_getset[] = {
    {"context", net_context, NULL, "the last k bytes coded (fewer at the start), oldest first", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject net_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "kolmozip._kernel.net",
    .tp_basicsize = sizeof(kz_net),
    .tp_dealloc = net_free,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "a net's arrays and context, made by net(emb, b1, w2, b2, softmax, buf, lr)",
    .tp_getset = net_getset,
};

/* byte i of the n context bytes sits at embedding position k - n + i */
static inline int64_t *emb_row(const kz_net *net, const unsigned char *ctx, int64_t n, int64_t i)
{
    return net->emb + ((net->k - n + i) * ALPHABET + ctx[i]) * net->w;
}

/* buf = pre | hidden | weights for the net's context: _kernel_numpy._forward */
VECTOR_CLONES static void forward(const kz_net *net)
{
    const int64_t w = net->w, n = net->n;
    const unsigned char *ctx = net->context;
    int64_t *pre = net->buf, *hidden = pre + w, *logits = pre + 2 * w;

    memcpy(pre, net->b1, (size_t)w * sizeof *pre);
    for (int64_t i = 0; i < n; i++) {
        const int64_t *row = emb_row(net, ctx, n, i);
        for (int64_t j = 0; j < w; j++)
            pre[j] += row[j];
    }
    for (int64_t j = 0; j < w; j++)
        hidden[j] = clamp(pre[j], ONE);

    memset(logits, 0, ALPHABET * sizeof *logits);
    for (int64_t j = 0; j < w; j++) {
        const int64_t h = hidden[j], *row = net->w2 + j * ALPHABET;
        for (int64_t s = 0; s < ALPHABET; s++)
            logits[s] += h * row[s];
    }
    int64_t top = INT64_MIN;
    for (int64_t s = 0; s < ALPHABET; s++) {
        logits[s] = floor_shift(logits[s], 16) + net->b2[s];
        if (logits[s] > top)
            top = logits[s];
    }
    /* the gap is >= 0 unless parameters driven far past the clip wrapped it;
     * outside the table it reads the nearer end, as take(mode="clip") does */
    const int64_t last = net->softmax_len - 1;
    for (int64_t s = 0; s < ALPHABET; s++) {
        int64_t gap = floor_shift(top - logits[s], 8);
        logits[s] = net->softmax[gap < 0 ? 0 : (gap < last ? gap : last)];
    }
}

/* net(emb, b1, w2, b2, softmax, buf, lr) -> state at the empty context,
 * its forward pass in buf */
static PyObject *kz_net_new(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    static const char *names[N_ARRAYS] = {"emb", "b1", "w2", "b2", "softmax", "buf"};
    if (check_nargs("net", nargs, N_ARRAYS + 1) < 0)
        return NULL;
    long long lr;
    if (get_int(args[N_ARRAYS], 1, MAX_LR + 1, "learning rate %S outside [1, 2^20]", &lr) < 0)
        return NULL;
    kz_net *net = (kz_net *)PyType_GenericAlloc(&net_type, 0); /* zeroed */
    if (!net)
        return NULL;
    Py_ssize_t len[N_ARRAYS];
    for (int i = 0; i < N_ARRAYS; i++) {
        if (get_array(args[i], &net->views[i], i != SOFTMAX, names[i], -1, &len[i]) < 0) {
            Py_DECREF(net);
            return NULL;
        }
    }
    net->emb = net->views[EMB].buf;
    net->b1 = net->views[B1].buf;
    net->w2 = net->views[W2].buf;
    net->b2 = net->views[B2].buf;
    net->softmax = net->views[SOFTMAX].buf;
    net->buf = net->views[BUF].buf;
    net->softmax_len = len[SOFTMAX];
    net->w = len[B1];
    net->k = net->w ? len[EMB] / (ALPHABET * net->w) : 0;
    net->lr = lr;
    if (len[B2] != ALPHABET || net->w < 1 || net->w > MAX_WIDTH || net->k < 1 ||
        len[EMB] != net->k * ALPHABET * net->w || len[W2] != net->w * ALPHABET ||
        len[BUF] != 2 * net->w + ALPHABET || net->softmax_len < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "net arrays disagree: want emb k*256*w, b1 w (<= 2^31), w2 w*256, "
                        "b2 256, buf 2*w + 256 and a nonempty softmax table");
        Py_DECREF(net);
        return NULL;
    }
    /* the top logit reads entry 0, and 256 entries total below 2^37: every
     * forward pass is then a row quantize's rule accepts */
    int ok = net->softmax[0] > 0;
    for (int64_t i = 0; i < net->softmax_len; i++)
        ok &= net->softmax[i] >= 0 && net->softmax[i] < SOFTMAX_LIMIT;
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "softmax table needs a positive first entry and every entry in [0, 2^29)");
        Py_DECREF(net);
        return NULL;
    }
    for (int64_t v = net->w - 1; v; v >>= 1)
        net->width_shift++;
    net->dlog = PyMem_Malloc((size_t)(ALPHABET + net->w) * sizeof *net->dlog);
    net->context = PyMem_Malloc((size_t)net->k);
    if (!net->dlog || !net->context) {
        Py_DECREF(net);
        return PyErr_NoMemory();
    }
    forward(net);
    return (PyObject *)net;
}

/* The gradient step of net_step on the forward pass held in buf, for the
 * net's context and the coded token; total is the weights' total, which
 * row_scan bounds below 2^37. */
VECTOR_CLONES static void net_grad(kz_net *net, int64_t token, int64_t total)
{
    const int64_t w = net->w, a = ALPHABET, lr = net->lr, n = net->n;
    const unsigned char *ctx = net->context;
    const int64_t *pre = net->buf, *hidden = pre + w, *weights = pre + 2 * w;
    int64_t *dlog = net->dlog, *dpre = dlog + a, rem[ALPHABET];
    /* d(cross-entropy)/d(logits) = p_hat - onehot, in Q16.16 */
    divide_row(weights, a, total, ONE, dlog, rem);
    dlog[token] -= ONE;

    /* backprop through the pre-update output layer, zeroed where the hard
     * clamp saturated */
    for (int64_t j = 0; j < w; j++) {
        const int64_t *row = net->w2 + j * a;
        int64_t acc = 0;
        for (int64_t s = 0; s < a; s++)
            acc += row[s] * dlog[s];
        dpre[j] = hidden[j] == pre[j] ? floor_shift(acc, 16) : 0;
    }

    const int shift2 = 32 + net->width_shift;
    for (int64_t j = 0; j < w; j++) {
        const int64_t hl = hidden[j] * lr;
        int64_t *row = net->w2 + j * a;
        for (int64_t s = 0; s < a; s++)
            row[s] = clamp(row[s] - floor_shift(hl * dlog[s], shift2), WEIGHT_CLIP);
    }
    for (int64_t s = 0; s < a; s++)
        net->b2[s] = clamp(net->b2[s] - floor_shift(lr * dlog[s], 16), WEIGHT_CLIP);

    for (int64_t j = 0; j < w; j++)
        dpre[j] = floor_shift(lr * dpre[j], 16); /* now the hidden-layer step */
    for (int64_t j = 0; j < w; j++)
        net->b1[j] = clamp(net->b1[j] - dpre[j], WEIGHT_CLIP);
    for (int64_t i = 0; i < n; i++) {
        int64_t *row = emb_row(net, ctx, n, i);
        for (int64_t j = 0; j < w; j++)
            row[j] = clamp(row[j] - dpre[j], WEIGHT_CLIP);
    }
}

/* net_step(net, token): one NeuralPredictor.update.  The gradient step on
 * the forward pass held in buf, whose row quantize's rule must accept; the
 * token appended to the context, of which the last k bytes are kept; then
 * the forward pass for that context written back into buf, so the next
 * prediction needs no call of its own. */
static PyObject *kz_net_step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (check_nargs("net_step", nargs, 2) < 0)
        return NULL;
    kz_net *net = get_state(args[0], &net_type);
    if (!net)
        return NULL;
    long long token;
    if (get_int(args[1], 0, ALPHABET, "token %S outside the alphabet [0, %lld)", &token) < 0)
        return NULL;
    int64_t total, others;
    const char *error = row_scan(net->buf + 2 * net->w, &total, &others);
    if (error)
        return PyErr_SetString(PyExc_ValueError, error), NULL;
    net_grad(net, token, total);
    if (net->n == net->k)
        memmove(net->context, net->context + 1, (size_t)--net->n);
    net->context[net->n++] = (unsigned char)token;
    forward(net);
    table_write(&net->table, net->buf + 2 * net->w);
    Py_RETURN_NONE;
}

/* --- freq predictor ---------------------------------------------------- */

#define MAX_ORDER 3
#define COUNT_LIMIT 65536           /* a row whose count reaches this is halved */
#define BLOCK_ROWS 64               /* count rows per block */
#define EMPTY_SLOT UINT64_MAX       /* its key, 2^32 - 1, has length 255 */
#define ENTRY_BYTES (1 + 4 * ALPHABET) /* a row's entry in freq_state, less its key bytes */

/* One FreqPredictor's count table.  A context of n <= 3 bytes is the key
 * (n << 24) | bytes, oldest byte highest.  slots is open-addressed with linear
 * probing over 2^bits entries, at most half full; a slot is (key << 32) | the
 * index of the context's row.  Rows are 256 uint16 counts in blocks of
 * BLOCK_ROWS that never move, so growing the table rehashes slots and copies
 * no counts; a count that reaches 2^16 halves its row at once, so every
 * stored count is below 2^16. */
typedef struct {
    PyObject_HEAD
    Py_buffer row_view;
    int64_t *row;      /* the current context's counts, widened, or ones if unseen */
    int order;
    uint32_t ctx;      /* the current context's key */
    uint16_t *cur;     /* its counts, NULL while unseen */
    uint64_t *slots;
    int bits;
    uint32_t rows;
    uint16_t **blocks;
    uint32_t n_blocks, blocks_cap;
    kept_table table;  /* row's table, once bound */
} kz_freq;

static void freq_dealloc(PyObject *self)
{
    kz_freq *f = (kz_freq *)self;
    if (f->row_view.obj)
        PyBuffer_Release(&f->row_view);
    table_release(&f->table);
    for (uint32_t i = 0; i < f->n_blocks; i++)
        PyMem_Free(f->blocks[i]);
    PyMem_Free(f->blocks);
    PyMem_Free(f->slots);
    PyObject_Free(self);
}

static inline uint32_t key_len(uint32_t key)
{
    return key >> 24;
}

/* the key's context bytes, oldest first, into out; returns their number */
static uint32_t key_bytes(uint32_t key, unsigned char *out)
{
    const uint32_t n = key_len(key);
    for (uint32_t i = 0; i < n; i++)
        out[i] = (unsigned char)(key >> 8 * (n - 1 - i));
    return n;
}

/* keys compare as their context bytes do, as Python compares bytes: the
 * bytes left-aligned in 24 bits, then the length (a prefix sorts first) */
static inline uint32_t sort_key(uint32_t key)
{
    const uint32_t n = key_len(key);
    return (key & 0xFFFFFF) << 8 * (MAX_ORDER - n) << 8 | n;
}

static PyObject *freq_context(PyObject *self, void *closure)
{
    (void)closure;
    unsigned char bytes[MAX_ORDER];
    return PyBytes_FromStringAndSize((const char *)bytes, key_bytes(((kz_freq *)self)->ctx, bytes));
}

static PyGetSetDef freq_getset[] = {
    {"context", freq_context, NULL, "the current context's bytes, oldest first", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject freq_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "kolmozip._kernel.freq",
    .tp_basicsize = sizeof(kz_freq),
    .tp_dealloc = freq_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "a count table bound to a row, made by freq(order, row)",
    .tp_getset = freq_getset,
};

/* the slot holding key, or the free slot where it belongs */
static inline uint64_t *freq_slot(const kz_freq *f, uint32_t key)
{
    const uint64_t mask = (UINT64_C(1) << f->bits) - 1;
    uint64_t i = (key * UINT64_C(0x9E3779B97F4A7C15)) >> (64 - f->bits);
    while (f->slots[i] != EMPTY_SLOT && (uint32_t)(f->slots[i] >> 32) != key)
        i = (i + 1) & mask;
    return &f->slots[i];
}

static inline uint16_t *row_at(const kz_freq *f, uint32_t index)
{
    return f->blocks[index / BLOCK_ROWS] + (size_t)(index % BLOCK_ROWS) * ALPHABET;
}

/* key's counts, NULL if it has none */
static uint16_t *freq_find(const kz_freq *f, uint32_t key)
{
    const uint64_t slot = *freq_slot(f, key);
    return slot == EMPTY_SLOT ? NULL : row_at(f, (uint32_t)slot);
}

/* Room for one more row: a free row in a block, and a table that stays at
 * most half full.  Returns 0, or -1 with MemoryError set and the table
 * holding the same rows. */
static int freq_reserve(kz_freq *f)
{
    if (f->rows == f->n_blocks * BLOCK_ROWS) {
        if (f->n_blocks == f->blocks_cap) {
            const uint32_t cap = f->blocks_cap ? 2 * f->blocks_cap : 4;
            uint16_t **blocks = PyMem_Realloc(f->blocks, cap * sizeof *blocks);
            if (!blocks)
                return PyErr_NoMemory(), -1;
            f->blocks = blocks;
            f->blocks_cap = cap;
        }
        uint16_t *block = PyMem_Malloc(BLOCK_ROWS * ALPHABET * sizeof *block);
        if (!block)
            return PyErr_NoMemory(), -1;
        f->blocks[f->n_blocks++] = block;
    }
    if (2 * ((uint64_t)f->rows + 1) > UINT64_C(1) << f->bits) {
        const uint64_t *old = f->slots, old_size = UINT64_C(1) << f->bits;
        uint64_t *slots = PyMem_Malloc((size_t)(2 * old_size) * sizeof *slots);
        if (!slots)
            return PyErr_NoMemory(), -1;
        memset(slots, 0xFF, (size_t)(2 * old_size) * sizeof *slots); /* all EMPTY_SLOT */
        f->slots = slots;
        f->bits++;
        for (uint64_t i = 0; i < old_size; i++)
            if (old[i] != EMPTY_SLOT)
                *freq_slot(f, (uint32_t)(old[i] >> 32)) = old[i];
        PyMem_Free((void *)old);
    }
    return 0;
}

/* a new row for key, which has none, filled with ones; NULL with MemoryError
 * set, and nothing added */
static uint16_t *freq_insert(kz_freq *f, uint32_t key)
{
    if (freq_reserve(f) < 0)
        return NULL;
    *freq_slot(f, key) = (uint64_t)key << 32 | f->rows;
    uint16_t *counts = row_at(f, f->rows++);
    for (int s = 0; s < ALPHABET; s++)
        counts[s] = 1;
    return counts;
}

/* row <- the current context's counts, widened, or ones if it has none */
static void freq_load_row(kz_freq *f)
{
    f->cur = freq_find(f, f->ctx);
    if (f->cur)
        for (int s = 0; s < ALPHABET; s++)
            f->row[s] = f->cur[s];
    else
        for (int s = 0; s < ALPHABET; s++)
            f->row[s] = 1;
}

/* freq(order, row) -> state: an empty count table for order 0..3 at the
 * empty context, bound to row (256 entries, writable), which it fills with
 * ones */
static PyObject *kz_freq_new(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (check_nargs("freq", nargs, 2) < 0)
        return NULL;
    long long order;
    if (get_int(args[0], 0, MAX_ORDER + 1, "freq order %S outside [0, 3]", &order) < 0)
        return NULL;
    kz_freq *f = (kz_freq *)PyType_GenericAlloc(&freq_type, 0); /* zeroed */
    if (!f)
        return NULL;
    f->order = (int)order;
    f->bits = 4;
    f->slots = PyMem_Malloc(((size_t)1 << f->bits) * sizeof *f->slots);
    if (!f->slots) {
        Py_DECREF(f);
        return PyErr_NoMemory();
    }
    memset(f->slots, 0xFF, ((size_t)1 << f->bits) * sizeof *f->slots);

    Py_ssize_t n;
    if (get_array(args[1], &f->row_view, 1, "row", ALPHABET, &n) < 0) {
        Py_DECREF(f);
        return NULL;
    }
    f->row = f->row_view.buf;
    freq_load_row(f);
    return (PyObject *)f;
}

/* freq_step(state, token): FreqPredictor.update.  Count token in the current
 * context's row (made, all ones, if it has none), halving the row, floored
 * at 1, when the count reaches 2^16; advance the context (append the token,
 * keep the last order bytes); then load the new context's counts into row,
 * so the next prediction needs no call of its own. */
static PyObject *kz_freq_step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (check_nargs("freq_step", nargs, 2) < 0)
        return NULL;
    kz_freq *f = get_state(args[0], &freq_type);
    if (!f)
        return NULL;
    long long token;
    if (get_int(args[1], 0, ALPHABET, "token %S outside the alphabet [0, %lld)", &token) < 0)
        return NULL;
    uint16_t *counts = f->cur;
    if (!counts && !(counts = freq_insert(f, f->ctx)))
        return NULL;
    const uint32_t c = counts[token] + 1u;
    if (c >= COUNT_LIMIT) {
        for (int s = 0; s < ALPHABET; s++) {
            const uint16_t half = counts[s] >> 1;
            counts[s] = half ? half : 1;
        }
        counts[token] = (uint16_t)(c >> 1);
    } else {
        counts[token] = (uint16_t)c;
    }
    if (f->order) {
        const uint32_t n = key_len(f->ctx) + (key_len(f->ctx) < (uint32_t)f->order);
        const uint32_t mask = (UINT32_C(1) << 8 * f->order) - 1;
        f->ctx = n << 24 | (((f->ctx << 8) | (uint32_t)token) & mask);
    }
    freq_load_row(f);
    table_write(&f->table, f->row);
    Py_RETURN_NONE;
}

static int cmp_u64(const void *a, const void *b)
{
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

/* freq_state(state) -> bytes: the digest payload of FreqPredictor.  For each
 * context in the order Python sorts its bytes: a u8 length, the bytes oldest
 * first, then the 256 counts as little-endian int32. */
static PyObject *kz_freq_state(PyObject *module, PyObject *arg)
{
    (void)module;
    kz_freq *f = get_state(arg, &freq_type);
    if (!f)
        return NULL;
    /* (sort key << 32) | row index, one per row */
    uint64_t *entries = PyMem_Malloc((f->rows ? f->rows : 1) * sizeof *entries);
    if (!entries)
        return PyErr_NoMemory();
    Py_ssize_t size = 0;
    uint32_t n = 0;
    for (uint64_t i = 0; i < UINT64_C(1) << f->bits; i++) {
        const uint64_t slot = f->slots[i];
        if (slot != EMPTY_SLOT) {
            const uint32_t key = (uint32_t)(slot >> 32);
            entries[n++] = (uint64_t)sort_key(key) << 32 | (uint32_t)slot;
            size += ENTRY_BYTES + key_len(key);
        }
    }
    qsort(entries, n, sizeof *entries, cmp_u64);
    PyObject *result = PyBytes_FromStringAndSize(NULL, size);
    if (result) {
        unsigned char *p = (unsigned char *)PyBytes_AS_STRING(result);
        for (uint32_t i = 0; i < n; i++) {
            const uint32_t sk = (uint32_t)(entries[i] >> 32), len = sk & 0xFF;
            const uint16_t *counts = row_at(f, (uint32_t)entries[i]);
            *p++ = (unsigned char)len;
            for (uint32_t j = 0; j < len; j++)
                *p++ = (unsigned char)(sk >> 8 * (MAX_ORDER - j));
            for (int s = 0; s < ALPHABET; s++, p += 4) {
                p[0] = (unsigned char)counts[s];
                p[1] = (unsigned char)(counts[s] >> 8);
                p[2] = p[3] = 0;
            }
        }
    }
    PyMem_Free(entries);
    return result;
}

/* --- kept tables, bound ----------------------------------------------- */

/* keep_table(state, cum): bind cum (257 entries, writable) to a net or
 * count table, replacing any cum bound before; from then on each net_step
 * or freq_step on it ends by writing the table of the row it leaves into
 * cum, so the next byte needs no quantize call of its own. */
static PyObject *kz_keep_table(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (check_nargs("keep_table", nargs, 2) < 0)
        return NULL;
    kept_table *table;
    if (Py_IS_TYPE(args[0], &net_type))
        table = &((kz_net *)args[0])->table;
    else if (Py_IS_TYPE(args[0], &freq_type))
        table = &((kz_freq *)args[0])->table;
    else
        return PyErr_Format(PyExc_TypeError, "expected a %s or %s state, got %s", net_type.tp_name,
                            freq_type.tp_name, Py_TYPE(args[0])->tp_name);
    Py_buffer view;
    Py_ssize_t n;
    if (get_array(args[1], &view, 1, "cum", ALPHABET + 1, &n) < 0)
        return NULL;
    table_release(table);
    table->view = view;
    table->cum = view.buf;
    Py_RETURN_NONE;
}

/* --- module ------------------------------------------------------------ */

static PyMethodDef kz_methods[] = {
    {"quantize", (PyCFunction)(void (*)(void))kz_quantize, METH_FASTCALL,
     "quantize(weights, cum): fill cum with the quantized cumulative table"},
    {"net", (PyCFunction)(void (*)(void))kz_net_new, METH_FASTCALL,
     "net(emb, b1, w2, b2, softmax, buf, lr) -> a net state, its forward pass in buf"},
    {"net_step", (PyCFunction)(void (*)(void))kz_net_step, METH_FASTCALL,
     "net_step(net, token): update on token, then the next context's forward pass"},
    {"encoder", kz_encoder_new, METH_NOARGS,
     "encoder() -> a fresh range encoder state"},
    {"encode", (PyCFunction)(void (*)(void))kz_encode, METH_FASTCALL,
     "encode(enc, cum, sym) -> the width of sym, coded"},
    {"finish", kz_finish, METH_O,
     "finish(enc) -> the payload, flushed"},
    {"decoder", kz_decoder_new, METH_O,
     "decoder(payload) -> a range decoder state over payload"},
    {"decode", (PyCFunction)(void (*)(void))kz_decode, METH_FASTCALL,
     "decode(dec, cum) -> the next symbol"},
    {"freq", (PyCFunction)(void (*)(void))kz_freq_new, METH_FASTCALL,
     "freq(order, row) -> an empty count table, ones in row"},
    {"freq_step", (PyCFunction)(void (*)(void))kz_freq_step, METH_FASTCALL,
     "freq_step(state, token): count token, then the next context's counts into row"},
    {"freq_state", kz_freq_state, METH_O,
     "freq_state(state) -> the counts as FreqPredictor's digest payload"},
    {"keep_table", (PyCFunction)(void (*)(void))kz_keep_table, METH_FASTCALL,
     "keep_table(state, cum): each later step of a net or count table writes its next table into cum"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kz_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "kolmozip's integer step kernel",
    .m_size = 0,
    .m_methods = kz_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    if (PyType_Ready(&encoder_type) < 0 || PyType_Ready(&decoder_type) < 0 || PyType_Ready(&net_type) < 0 ||
        PyType_Ready(&freq_type) < 0)
        return NULL;
    return PyModuleDef_Init(&kz_module);
}
