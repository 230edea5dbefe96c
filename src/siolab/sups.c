/* The compiled loops of siolab.operators, one row per point: the sups of
   each point's distance-sorted row (T* and M), T^eps and the pair engine;
   and the Sum2 totals of the rows of an array (the L^p norms).
   A row is summed by Sum2 (Ogita, Rump and Oishi, SIAM J. Sci. Comput.
   26, 2005), with the operations of summation.sum2_prefix in its order:
   s the running sum, c the running sum of the exact TwoSum errors, a
   prefix s + c.  A cell's distance and kernel term take the operations of
   kernel.evaluate_many in their order: r2 the squares of x - y added
   coordinate by coordinate, the distance sqrt(r2), and K(x - y) =
   (x - y)^P / |x - y|^q, the numerator's factors multiplied in coordinate
   order from 1 and |x - y|^q formed as q / 2 factors r2, times sqrt(r2)
   when q is odd.  The sups sort each point's row of cells, an item each
   (its distance, atom and kernel term), by distance, descending, ties in
   atom order, one of two ways chosen by its count of natural runs (an
   adaptive check in the manner of Peters' Timsort): a row of at most 16
   runs merges them; any other goes to n buckets by distance
   (distribution sort, Knuth, TAOCP 3, 5.2.5) that one insertion sort
   finishes, or merges if a bucket would hold more than 32 items.
   Neither moves an item past an equal key, so both give the one stable
   order.  While the sorted row is still in scratch, T* of every density
   of a stack and M of one mass vector are read from it (the build and
   its reads fused, as in Kennedy and McKinley, LCPC 1993): no row
   outlives its point, so a call holds W + 1 rows of scratch and writes
   only the sups.  These loops are siolab's only implementation; the
   reference of each is its numpy oracle in tests/oracles.py, which it
   equals bit for bit, compiled without FMA contraction or fast-math.
   The pair engine puts each pair in the bin of the first eps its distance
   exceeds and keeps, per bin, the Sum2 of the bin's terms in row-major
   order unrounded (s and c), which operators.pair_sum_schedule sums in
   turn.
   Each loop is written once over a block of W lanes, in the loop section
   at the end, which the file includes into itself at W = 1 with doubles,
   for every host, and at W = 8 with vectors inside target("avx512f"),
   run where the probe sup_lanes finds AVX-512.  The row loops (the sups'
   distances and terms, T^eps, the pair engine and M) put W points in the
   lanes, one each, and broadcast one atom at a time; T* puts W densities
   in them, or, with one density, W sorted rows, one each.  A lane does
   its point's, its density's or its row's operations in their order
   (vsqrtpd and vdivpd round as sqrt and division do), so every lane has
   the bits of W = 1.  A partial last block of points repeats the last
   point in its padding lanes, which are never written. */
#ifndef W  /* the whole file; the loop section below is included with W defined */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* s, c += t by TwoSum, for doubles and for vectors of them alike */
#define SUM2_ADD(s, c, t) do {                       \
        __typeof__(s) x_ = (s) + (t), z_ = x_ - (s); \
        (c) += ((t) - z_) + ((s) - (x_ - z_));       \
        (s) = x_;                                    \
    } while (0)

typedef struct { double key; int64_t idx; double term; } item;  /* a cell: distance, atom, kernel term */

/* A row is merged when it holds at most RUN_LIMIT runs; else it is
   bucketed, unless a bucket would hold more than BUCKET_LIMIT items */
enum { RUN_LIMIT = 16, BUCKET_LIMIT = 32 };

/* The natural runs of x[0, n): a run is a maximal non-increasing stretch,
   or a maximal strictly increasing one, which is reversed in place (so no
   tie is reversed); their starts go into bound, n after the last.
   Returns the run count. */
static int64_t find_runs(item *x, int64_t n, int64_t *bound)
{
    int64_t runs = 0;
    item t;
    for (int64_t a = 0, b; a < n; a = b) {
        bound[runs++] = a;
        for (b = a + 1; b < n && x[b].key <= x[b - 1].key; b++) {}
        if (b == a + 1 && b < n) {  /* x[b] > x[a]: strictly increasing */
            while (b < n && x[b].key > x[b - 1].key) b++;
            for (int64_t lo = a, hi = b - 1; lo < hi; lo++, hi--) t = x[lo], x[lo] = x[hi], x[hi] = t;
        }
    }
    bound[runs] = n;
    return runs;
}

/* The runs of find_runs merged pairwise, pass by pass, a tie taking the
   left item, with y (n items) as scratch: returns x or y, whichever holds
   the sorted row.  Overwrites bound. */
static item *merge_runs(item *x, item *y, int64_t runs, int64_t *bound)
{
    for (int64_t n = bound[runs]; runs > 1; runs = (runs + 1) / 2, bound[runs] = n) {
        for (int64_t run = 0; run < runs; run += 2) {  /* an odd last run is copied */
            int64_t i = bound[run], m = bound[run + 1], b = run + 2 <= runs ? bound[run + 2] : m, j = m, k = i;
            while (i < m && j < b) y[k++] = x[j].key > x[i].key ? x[j++] : x[i++];
            while (i < m) y[k++] = x[i++];
            while (j < b) y[k++] = x[j++];
            bound[run / 2] = bound[run];
        }
        item *swap = x; x = y; y = swap;
    }
    return x;
}

/* bucket_sort's bucket of key d: min(n - 1, floor((hi - d) scale)), a
   non-increasing function of d alone */
static inline int64_t bucket(double hi, double scale, int64_t n, double d)
{
    int64_t b = (int64_t)((hi - d) * scale);
    return b < n - 1 ? b : n - 1;
}

/* The row x of find_runs (ties still in atom order) sorted into y by
   distribution (Knuth, TAOCP 3, 5.2.5): n buckets, scale = n / (hi - lo)
   over the row's keys in [lo, hi], the buckets in key order descending
   and each in x's order, so equal keys share a bucket and keep their
   order; one insertion sort, which moves an item only past strictly
   smaller keys, then finishes the row.  count is n + 1 scratch.  Returns
   0, y unsorted, if hi is infinite, hi == lo, scale is not finite or a
   bucket would hold more than BUCKET_LIMIT items. */
static int bucket_sort(const item *x, item *y, int64_t n, int64_t runs, const int64_t *bound, int64_t *count)
{
    double hi = x[0].key, lo = x[n - 1].key;
    for (int64_t run = 0; run < runs; run++) {  /* a run's first key is its max, its last its min */
        hi = fmax(hi, x[bound[run]].key);
        lo = fmin(lo, x[bound[run + 1] - 1].key);
    }
    double scale = n / (hi - lo);
    if (!(hi < INFINITY && hi > lo && scale < INFINITY)) return 0;
    for (int64_t b = 0; b <= n; b++) count[b] = 0;
    for (int64_t j = 0; j < n; j++)
        if (++count[bucket(hi, scale, n, x[j].key) + 1] > BUCKET_LIMIT) return 0;
    for (int64_t b = 1; b < n; b++) count[b] += count[b - 1];  /* count[b]: bucket b's first slot */
    for (int64_t j = 0; j < n; j++) y[count[bucket(hi, scale, n, x[j].key)]++] = x[j];
    for (int64_t i = 1; i < n; i++) {
        item t = y[i];
        int64_t j = i;
        for (; j > 0 && y[j - 1].key < t.key; j--) y[j] = y[j - 1];
        y[j] = t;
    }
    return 1;
}

/* x (n items, keys in atom order) sorted descending, ties in atom order,
   one of two ways after find_runs: a row of at most RUN_LIMIT runs, or one
   that bucket_sort refuses, by merge_runs; any other row by bucket_sort.
   Both give the one stable descending order: a merge takes the left item
   of a tie, and an insertion sort over buckets that keep ties in order
   moves no item past an equal key, whatever the buckets.  y is n items of
   scratch, bound and count n + 1 each; returns x or y, whichever holds the
   sorted row. */
static item *sort_row(item *x, item *y, int64_t n, int64_t *bound, int64_t *count)
{
    int64_t runs = find_runs(x, n, bound);
    if (runs > RUN_LIMIT && bucket_sort(x, y, n, runs, bound, count)) return y;
    return merge_runs(x, y, runs, bound);
}

/* The pair engine's step for an included pair (d > eps[bins - 1]) of term
   t: bin j, the first with d > eps[j], takes t into its max |t|, count
   and Sum2 */
static inline void pair_add(double d, double t, const double *eps, double *partials, double *max_term,
                            int64_t *counts)
{
    int64_t j = 0;
    while (!(d > eps[j])) j++;
    double a = fabs(t);
    if (a > max_term[j] || a != a) max_term[j] = a;
    if (counts[j]++) SUM2_ADD(partials[2 * j], partials[2 * j + 1], t);
    else partials[2 * j] = t;
}

/* M reads its rows in chunks of HL_CHUNK atoms */
enum { HL_CHUNK = 64 };

/* A loop's name at width W: f_1 or f_8 */
#define L(f) L_(f, W)
#define L_(f, w) L__(f, w)
#define L__(f, w) f##_##w

/* Width 8 on GCC on x86-64 only: the builtins are GCC's, and the lowering
   is checked in GCC's output; other compilers build width 1.  GCC vector
   extensions and builtins, not immintrin.h, which would more than double
   the compile's peak memory.  The vectors stay inside the
   target("avx512f") functions (passed only by pointer), and a mask comes
   from a vector compare, which GCC turns into a mask compare and a masked
   blend there. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define SUP_AVX512 1
typedef double v8d __attribute__((vector_size(64)));
typedef long long v8l __attribute__((vector_size(64)));
/* An entry runs its loop f at width 8 if lanes is 8, which sup_lanes
   returns only where the host runs it, else at width 1 */
#define BY_LANES(lanes, f, ...) ((lanes) == 8 ? f##_8(__VA_ARGS__) : f##_1(__VA_ARGS__))
#else
#define BY_LANES(lanes, f, ...) ((void)(lanes), f##_1(__VA_ARGS__))
#endif

/* The loop section below, once per width */
#define W 1
#include __FILE__
#undef W
#ifdef SUP_AVX512
#define W 8
#include __FILE__
#undef W
#endif

/* The lane count of the widest loops this host runs: 8 with AVX-512
   (where the compiler builds them), else 1 */
int sup_lanes(void)
{
#ifdef SUP_AVX512
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return 8;
#endif
    return 1;
}

/* The sups of the rows, one per point of pts (rows x dim) against the n
   atoms pos (n x dim) of weights w: each row's cells, each its distance
   and, with d > 0, its kernel term K(x - y) w(y), 0 at distance 0 (so a
   zero-distance group's end repeats the prefix before it), sorted by
   distance descending with ties in atom order (the order of
   np.argsort(-dist, kind="stable"), by sort_row).  From the sorted row,
   T* of each density of the stack g (n atoms x d, atom-major; tstar_row)
   into tstar[k * rows + i], and, unless mass is NULL, M of the masses
   mass (hl_block) into hl[i] and diverges[i].  No distance is NaN, since
   points and atoms are finite.  -1 if out of memory. */
int row_sups(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos, const int64_t *powers,
             int64_t q, int64_t lanes, const double *w, int64_t d, const double *g, double *tstar,
             const double *mass, double *hl, uint8_t *diverges)
{
    if (rows == 0 || (d == 0 && !mass)) return 0;
    return BY_LANES(lanes, sups, rows, n, dim, pts, pos, powers, q, w, d, g, tstar, mass, hl, diverges);
}

/* T^eps: per point of pts, the Sum2 total of K(x - y) gw(y) over the atoms
   y of pos with |x - y| > eps, excluded terms added as 0.0 as numpy adds
   them */
void truncated_rows(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                    const int64_t *powers, int64_t q, int64_t lanes, const double *eps, const double *gw, double *out)
{
    BY_LANES(lanes, truncated, rows, n, dim, pts, pos, powers, q, eps, gw, out);
}

/* The Sum2 total of each row of x (rows x n, row-major) into out, the
   last prefix of summation.sum2_prefix, and 0 for n = 0 */
void sum2_rows(int64_t rows, int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < rows; i++, x += n) {
        double s = n ? x[0] : 0.0, c = 0.0;
        for (int64_t j = 1; j < n; j++) SUM2_ADD(s, c, x[j]);
        out[i] = s + c;
    }
}

/* The pair engine of operators.pair_sum_schedule over the pairs (x, y) of
   pts x pos, row by row: a pair with |x - y| > eps[bins - 1] (eps strictly
   decreasing; the other pairs are skipped) falls in bin j, the first with
   |x - y| > eps[j], and its term is K(x - y) (w_a(x) w_b(y)).  Per bin,
   the Sum2 of its terms in row-major order goes into partials (the
   float64 sum, then the sum of its TwoSum errors), the max |term|, NaN
   sticking as in np.max, and the term count, which is 0 while the bin
   holds no term.  The outputs start zeroed.  -1 if out of memory. */
int pair_partials(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                  const int64_t *powers, int64_t q, int64_t lanes, const double *w_a, const double *w_b,
                  int64_t bins, const double *eps, double *partials, double *max_term, int64_t *counts)
{
    return BY_LANES(lanes, pairs, rows, n, dim, pts, pos, powers, q, w_a, w_b, bins, eps, partials, max_term,
                    counts);
}

#else  /* the loop section, once per lane width W */

/* The primitives of width W: a vector VEC of W doubles and a mask MASK of
   W lanes, as compares give them; a load of the live lanes at p (the
   others 0) and a store of them; the square root, |v|, t where a mask
   holds and 0.0 elsewhere, best = the NaN-sticky max of best and a in the
   lanes where a mask holds (as np.max), the plain max of a and b (a where
   a > b, else b, so b where a is NaN: vmaxpd's rule), and lane l of v. */
#if W == 1
#define VEC double
#define MASK int64_t
#define TARGET
#define LOAD(p, live) ((void)(live), *(p))
#define STORE(p, v, live) ((void)(live), *(p) = (v))
#define SQRT(v) sqrt(v)
#define ABS(v) fabs(v)
#define KEEP(t, when) ((when) ? (t) : 0.0)
#define MAX(best, a, when) do { if (when) { double a_ = (a); if (a_ > (best) || a_ != a_) (best) = a_; } } while (0)
#define VMAX(a, b) ((a) > (b) ? (a) : (b))
#define LANE(v, l) (v)
#else
#define VEC v8d
#define MASK v8l
#define TARGET __attribute__((target("avx512f")))
#define LOAD(p, live) __builtin_ia32_loadupd512_mask((p), (v8d){0}, (1u << (live)) - 1)
#define STORE(p, v, live) __builtin_ia32_storeupd512_mask((p), (v), (1u << (live)) - 1)
#define SQRT(v) __builtin_ia32_sqrtpd512_mask((v), (v), 0xff, 4)  /* 4: the current rounding mode */
#define ABS(v) ((v8d)((v8l)(v) & INT64_MAX))
#define KEEP(t, when) ((v8d)((v8l)(t) & (v8l)(when)))
#define MAX(best, a, when) do {                                         \
        v8d a_ = (a);                                                   \
        v8l up_ = (when) & ((v8l)(a_ > (best)) | (v8l)(a_ != a_));       \
        (best) = (v8d)(((v8l)a_ & up_) | ((v8l)(best) & ~up_));         \
    } while (0)
#define VMAX(a, b) __builtin_ia32_maxpd512_mask((a), (b), (b), 0xff, 4)  /* vmaxpd */
#define LANE(v, l) ((v)[l])
#endif

/* The coordinates of the points of rows i .. i + W - 1 into x (dim
   vectors), one lane per row, a padding lane taking the last row */
TARGET static inline void L(block_points)(int64_t rows, int64_t i, int64_t dim, const double *pts, VEC *x)
{
    for (int64_t l = 0; l < W; l++)
        for (int64_t k = 0; k < dim; k++) LANE(x[k], l) = pts[(i + l < rows ? i + l : rows - 1) * dim + k];
}

/* The distances of W points (x: their coordinates, one lane per point) to
   the atom y into *dist and, unless term is NULL, K(x - y) into *term, NaN
   or inf where the distance is 0 */
TARGET static inline void L(cells)(int64_t dim, const VEC *x, const double *y, const int64_t *powers, int64_t q,
                                   VEC *dist, VEC *term)
{
    VEC r2 = (x[0] - y[0]) * (x[0] - y[0]), num = (VEC){0} + 1.0, power = num;
    for (int64_t k = 1; k < dim; k++) r2 += (x[k] - y[k]) * (x[k] - y[k]);
    *dist = SQRT(r2);
    if (!term) return;
    for (int64_t k = 0; k < dim; k++)
        for (int64_t p = 0; p < powers[k]; p++) num *= x[k] - y[k];
    for (int64_t p = 0; p < q / 2; p++) power *= r2;
    if (q % 2) power *= *dist;
    *term = num / power;
}

/* T^eps, W points at a time */
TARGET static void L(truncated)(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                                     const int64_t *powers, int64_t q, const double *eps, const double *gw,
                                     double *out)
{
    VEC x[dim];
    for (int64_t i = 0; i < rows; i += W) {
        int64_t live = rows - i < W ? rows - i : W;
        VEC e = LOAD(eps + i, live), s = {0}, c = {0};
        L(block_points)(rows, i, dim, pts, x);
        for (int64_t j = 0; j < n; j++) {
            VEC d, t;
            L(cells)(dim, x, pos + j * dim, powers, q, &d, &t);
            t = KEEP(t * gw[j], d > e);  /* 0.0 where d <= eps */
            if (j == 0) s = t; else SUM2_ADD(s, c, t);
        }
        STORE(out + i, s + c, live);  /* 0 for n = 0 */
    }
}

/* The pair engine W rows at a time: the distances and terms of the W
   points into cell, the W lanes of an atom side by side (a row of scratch
   per lane, as row_sups keeps, took DoubleIntegral's 2048 x 2048 pass at
   W = 8 21 -> 48 ms on a 2-core Xeon: rows 16 KiB apart alias in the
   cache), then each row's pairs binned in row-major order.  -1 if out of
   memory. */
TARGET static int L(pairs)(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                               const int64_t *powers, int64_t q, const double *w_a, const double *w_b, int64_t bins,
                               const double *eps, double *partials, double *max_term, int64_t *counts)
{
    if (rows == 0 || n == 0) return 0;
    double *cell = malloc(2 * W * n * sizeof *cell);
    if (!cell) return -1;
    VEC x[dim];
    for (int64_t i = 0; i < rows; i += W) {
        int64_t live = rows - i < W ? rows - i : W;
        VEC wa = LOAD(w_a + i, live);
        L(block_points)(rows, i, dim, pts, x);
        for (int64_t b = 0; b < n; b++) {
            VEC d, t;
            L(cells)(dim, x, pos + b * dim, powers, q, &d, &t);
            STORE(cell + 2 * W * b, d, W);
            STORE(cell + 2 * W * b + W, t * (wa * w_b[b]), W);
        }
        for (int64_t l = 0; l < live; l++)
            for (int64_t b = 0; b < n; b++)
                if (cell[2 * W * b + l] > eps[bins - 1])
                    pair_add(cell[2 * W * b + l], cell[2 * W * b + W + l], eps, partials, max_term, counts);
    }
    free(cell);
    return 0;
}

/* T* of one sorted row (n items) for each density k of the stack g (n
   atoms x d densities, atom-major), W densities per vector, one per lane
   (the last block's missing densities loaded as zeros and not written):
   the max of |prefix| of g[row[j].idx * d + k] * row[j].term at the last
   j of each group of equal distances, and 0, into out[k * stride].

   The max is np.max's, NaN-sticky, taken as a plain max at each group
   end and one NaN-sticky max of the last prefix, which ends the last
   group.  That has the same bits: a prefix s + c is NaN only where s or
   c is (opposite infinities need an infinite s, and past the first term
   an infinite s makes TwoSum's error NaN through inf - inf), and s and c
   stay NaN once they are, so a NaN at any group end makes the last
   prefix NaN; without one, both maxes take the same values.  The plain
   max keeps best in a register (vmaxpd at W = 8), and its lanes leave
   through a store: read by LANE after the loop, best lives in a stack
   slot, loaded and stored at every group end.  Not inlined: inside sups
   at W = 1 its loop kept pointers on the stack, 4% slower at d = 50. */
TARGET __attribute__((noinline)) static void L(tstar_row)(int64_t n, int64_t d, const double *g, const item *row,
                                                          int64_t stride, double *out)
{
    for (int64_t k = 0; k < d; k += W) {
        int64_t live = d - k < W ? d - k : W;
        VEC s = {0}, c = {0}, best = {0};
        double lanes[W];
        for (int64_t j = 0; j < n; j++) {
            VEC t = LOAD(g + row[j].idx * d + k, live) * row[j].term;
            if (j == 0) s = t; else SUM2_ADD(s, c, t);
            if (j == n - 1 || row[j].key != row[j + 1].key) best = VMAX(ABS(s + c), best);
        }
        MAX(best, ABS(s + c), -1);  /* -1: every lane */
        STORE(lanes, best, W);
        for (int64_t l = 0; l < live; l++) out[(k + l) * stride] = lanes[l];
    }
}

/* T* of a block of live <= W sorted rows at d = 1, rows[l] for lane l (a
   padding lane reads the last row), each lane one row: tstar_row's max
   for the one density g, the lanes' group ends apart, into out[l].  A
   chunk of HL_CHUNK items of each lane's terms g[row[j].idx] *
   row[j].term and distances, and the next item's distance, is copied
   into cell, the W lanes of an item side by side, and summed from there,
   as hl_block reads its rows.  sups runs it at W = 8 only: with one
   density, tstar_row's lanes across densities leave 7 of 8 idle. */
TARGET __attribute__((noinline)) static void L(tstar_block)(int64_t live, int64_t n, const double *g,
                                                            item *const *rows, double *out)
{
    double cell[2 * W * (HL_CHUNK + 1)];  /* item lo + a of a chunk: its terms at 2 W a, its distances next */
    VEC s = {0}, c = {0}, best = {0};
    for (int64_t lo = 0; lo < n; lo += HL_CHUNK) {
        int64_t hi = n - lo > HL_CHUNK ? lo + HL_CHUNK : n, top = hi < n ? hi + 1 : n;  /* the chunk is [lo, hi) */
        for (int64_t l = 0; l < W; l++) {
            const item *row = rows[l < live ? l : live - 1];
            for (int64_t j = lo; j < top; j++)
                cell[2 * W * (j - lo) + l] = g[row[j].idx] * row[j].term, cell[2 * W * (j - lo) + W + l] = row[j].key;
        }
        for (int64_t j = lo; j < hi; j++) {
            const double *at = cell + 2 * W * (j - lo);
            VEC t = LOAD(at, W), d = LOAD(at + W, W);
            VEC next = j + 1 < n ? LOAD(at + 3 * W, W) : (VEC){0} + NAN;  /* a row's end: d != NaN */
            if (j == 0) s = t; else SUM2_ADD(s, c, t);
            best = VMAX(KEEP(ABS(s + c), d != next), best);  /* 0.0 off a group end, which leaves best */
        }
    }
    MAX(best, ABS(s + c), -1);  /* -1: every lane */
    STORE(out, best, live);
}

/* M of a block of live <= W sorted rows, rows[l] for lane l (a padding
   lane reads the last row), each read backwards
   (ascending): the max of prefix(mass[row[j].idx]) * (1 / (r * ... * r)),
   dim - 1 factors, at the last item of each distance group with r > 0,
   and 0, into out[l].  Mass > 0 at distance 0 diverges: +inf, and
   diverges[l] set.  A chunk of HL_CHUNK atoms of each lane's masses and
   distances is copied into cell, the W lanes of an atom side by side, and
   summed from there.  (At W = 8, vector gathers of the indices, masses
   and distances in place of the copy took a 500 x 700 call 0.70 -> 1.11
   ms on a 2-core Xeon.) */
TARGET static void L(hl_block)(int64_t live, int64_t n, int64_t dim, const double *mass, item *const *rows,
                               double *out, uint8_t *diverges)
{
    double cell[2 * W * (HL_CHUNK + 1)];  /* atom base + a of a chunk: its masses at 2 W a, its distances next */
    VEC s = {0}, c = {0}, best = {0}, d = {0};
    MASK div = {0};
    for (int64_t top = n; top > 0; top -= HL_CHUNK) {
        int64_t lo = top > HL_CHUNK ? top - HL_CHUNK : 0, base = lo ? lo - 1 : 0;  /* the chunk is [lo, top) */
        for (int64_t l = 0; l < W; l++) {
            const item *row = rows[l < live ? l : live - 1];
            for (int64_t j = base; j < top; j++)
                cell[2 * W * (j - base) + l] = mass[row[j].idx], cell[2 * W * (j - base) + W + l] = row[j].key;
        }
        if (top == n) d = LOAD(cell + 2 * W * (n - 1 - base) + W, W);
        for (int64_t j = top - 1; j >= lo; j--) {
            VEC m = LOAD(cell + 2 * W * (j - base), W), power = (VEC){0} + 1.0;
            VEC next = j ? LOAD(cell + 2 * W * (j - 1 - base) + W, W) : (VEC){0} + NAN;  /* a row's end: d != NaN */
            if (j == n - 1) s = m; else SUM2_ADD(s, c, m);
            div |= (MASK)(d == 0.0) & (MASK)(m > 0.0);
            for (int64_t k = 1; k < dim; k++) power *= d;
            MAX(best, (s + c) * (1.0 / power), (MASK)(d > 0.0) & (MASK)(d != next));
            d = next;
        }
    }
    /* the lanes leave through stores into out, which holds the flags of
       div first; read by LANE, div and best lived in stack slots, loaded
       and stored in every chunk.  best is +0.0, above it or NaN, so the
       plain max of inf or 0 and best or 0 is div ? inf : best. */
    STORE(out, KEEP((VEC){0} + 1.0, div), live);
    for (int64_t l = 0; l < live; l++) diverges[l] = out[l] != 0.0;
    STORE(out, VMAX(KEEP((VEC){0} + INFINITY, div), KEEP(best, div == 0)), live);
}

/* The sups W points at a time: the cells of the W points, each its
   distance, its atom and (with densities, else 0) its term, into a row of
   items each, row[l] for lane l; then each row sorted and its T* taken;
   then M of the block's rows, one per lane.  One allocation holds the
   W + 1 rows (a row sorted into the spare one trades places with it) and
   the sort's bound and count.  -1 if out of memory. */
TARGET static int L(sups)(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                              const int64_t *powers, int64_t q, const double *w, int64_t d, const double *g,
                              double *tstar, const double *mass, double *hl, uint8_t *diverges)
{
    item *xs = malloc((W + 1) * n * sizeof *xs + 2 * (n + 1) * sizeof(int64_t));
    if (!xs) return -1;
    int64_t *bound = (int64_t *)(xs + (W + 1) * n), *count = bound + n + 1;
    item *row[W], *spare = xs + W * n;
    for (int64_t l = 0; l < W; l++) row[l] = xs + l * n;
    VEC x[dim];
    for (int64_t i = 0; i < rows; i += W) {
        int64_t live = rows - i < W ? rows - i : W;
        L(block_points)(rows, i, dim, pts, x);
        for (int64_t j = 0; j < n; j++) {
            VEC r, t = {0};
            L(cells)(dim, x, pos + j * dim, powers, q, &r, d ? &t : NULL);
            t = KEEP(t, r > 0.0) * w[j];
            for (int64_t l = 0; l < W; l++) row[l][j] = (item){LANE(r, l), j, LANE(t, l)};
        }
        for (int64_t l = 0; l < live; l++) {
            item *sorted = sort_row(row[l], spare, n, bound, count);
            if (sorted == spare) spare = row[l], row[l] = sorted;
            if (W == 1 || d != 1) L(tstar_row)(n, d, g, row[l], rows, tstar + i + l);
        }
        if (W > 1 && d == 1) L(tstar_block)(live, n, g, row, tstar + i);
        if (mass) L(hl_block)(live, n, dim, mass, row, hl + i, diverges + i);
    }
    free(xs);
    return 0;
}

#undef VEC
#undef MASK
#undef TARGET
#undef LOAD
#undef STORE
#undef SQRT
#undef ABS
#undef KEEP
#undef MAX
#undef VMAX
#undef LANE
#endif
