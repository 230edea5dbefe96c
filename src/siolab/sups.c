/* The compiled loops of siolab.operators, one row per point: the sups of
   each point's distance-sorted row (T* and M), T^eps and the pair engine.
   A row is summed by Sum2 (Ogita, Rump and Oishi, SIAM J. Sci. Comput.
   26, 2005), with the operations of summation.sum2_prefix in its order:
   s the running sum, c the running sum of the exact TwoSum errors, a
   prefix s + c.  A cell's distance and kernel term take the operations of
   kernel.evaluate_many in their order: r2 the squares of x - y added
   coordinate by coordinate, the distance sqrt(r2), and K(x - y) =
   (x - y)^P / |x - y|^q, the numerator's factors multiplied in coordinate
   order from 1 and |x - y|^q formed as q / 2 factors r2, times sqrt(r2)
   when q is odd.  The sups sort each point's row by distance, descending,
   ties in atom order, one of two ways chosen by its count of natural runs
   (an adaptive check in the manner of Peters' Timsort): a row of at most
   16 runs merges them; any other goes to n buckets by distance
   (distribution sort, Knuth, TAOCP 3, 5.2.5) that one insertion sort
   finishes, or merges if a bucket would hold more than 32 items.
   Neither moves an item past an equal key, so both give the one stable
   order.  While the sorted row is still in scratch, T* of every density
   of a stack and M of one mass vector are read from it (the build and
   its reads fused, as in Kennedy and McKinley, LCPC 1993): no row
   outlives its point, so a call holds O(n) scratch and writes only the
   sups.  These loops are siolab's only implementation; the reference of
   each is its numpy oracle in tests/oracles.py, which it equals bit for
   bit, compiled without FMA contraction or fast-math.
   The pair engine puts each pair in the bin of the first eps its distance
   exceeds and keeps, per bin, the Sum2 of the bin's terms in row-major
   order unrounded (s and c), which operators.pair_sum_schedule sums in
   turn.
   Every entry has a scalar copy and, on x86-64 hosts with AVX-512, a copy
   that takes 8 lanes per vector, chosen at run time by its lanes argument
   (the probe sup_lanes).  The row loops (the sups' distances and terms,
   T^eps, the pair engine and M) put 8 points in the lanes, one each, and
   broadcast one atom at a time; T* puts 8 densities in them.  A lane does
   its point's or its density's operations in their order, with vsqrtpd
   and vdivpd, which round as the scalar sqrt and division do, so every
   lane keeps the bits of the scalar loop.  A partial last block of points
   repeats the last point in its padding lanes, which are never written. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* s, c += t by TwoSum, for doubles and for vectors of them alike */
#define SUM2_ADD(s, c, t) do {                       \
        __typeof__(s) x_ = (s) + (t), z_ = x_ - (s); \
        (c) += ((t) - z_) + ((s) - (x_ - z_));       \
        (s) = x_;                                    \
    } while (0)

/* |x - y|^2 for points of dim coordinates */
static inline double norm2(int64_t dim, const double *x, const double *y)
{
    double r2 = (x[0] - y[0]) * (x[0] - y[0]);
    for (int64_t k = 1; k < dim; k++) r2 += (x[k] - y[k]) * (x[k] - y[k]);
    return r2;
}

/* K(x - y) = (x - y)^P / |x - y|^q from r2 = |x - y|^2 > 0 */
static inline double kernel(int64_t dim, const double *x, const double *y, const int64_t *powers, int64_t q,
                            double r2)
{
    double num = 1.0, power = 1.0;
    for (int64_t k = 0; k < dim; k++)
        for (int64_t p = 0; p < powers[k]; p++) num *= x[k] - y[k];
    for (int64_t p = 0; p < q / 2; p++) power *= r2;
    if (q % 2) power *= sqrt(r2);
    return num / power;
}

typedef struct { double key; int64_t idx; } item;

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

/* T* of one sorted row (n items) for each density k of the stack g (n
   atoms x d densities, atom-major), kw the row's terms in its order: the
   max of |prefix| of g[row[j].idx * d + k] * kw[j] at the last j of each
   group of equal distances, and 0, into out[k * stride] */
static void tstar_row(int64_t n, int64_t d, const double *g, const item *row, const double *kw, int64_t stride,
                      double *out)
{
    for (int64_t k = 0; k < d; k++) {
        double s = 0.0, c = 0.0, best = 0.0;
        for (int64_t j = 0; j < n; j++) {
            double t = g[row[j].idx * d + k] * kw[j];
            if (j == 0) s = t; else SUM2_ADD(s, c, t);
            double a = fabs(s + c);
            if ((j == n - 1 || row[j].key != row[j + 1].key) && (a > best || a != a)) best = a;  /* NaN sticks, as in np.max */
        }
        out[k * stride] = best;
    }
}

/* M of one sorted row read backwards (ascending): the max of
   prefix(mass[row[j].idx]) * (1 / (r * ... * r)), dim - 1 factors, at the
   last item of each distance group with r > 0, and 0.  Mass > 0 at
   distance 0 diverges: +inf. */
static void hl_row(int64_t n, int64_t dim, const double *mass, const item *row, double *out, uint8_t *diverges)
{
    double s = 0.0, c = 0.0, best = 0.0;
    uint8_t div = 0;
    for (int64_t j = n - 1; j >= 0; j--) {
        double m = mass[row[j].idx], r = row[j].key, power = 1.0;
        if (j == n - 1) s = m; else SUM2_ADD(s, c, m);
        div |= r == 0.0 && m > 0.0;
        if (r > 0.0 && (j == 0 || r != row[j - 1].key)) {
            for (int64_t k = 1; k < dim; k++) power *= r;
            double v = (s + c) * (1.0 / power);
            if (v > best || v != v) best = v;
        }
    }
    *diverges = div;
    *out = div ? INFINITY : best;
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

/* GCC on x86-64 only: the builtins are GCC's, and the lowering below is
   checked in GCC's output; other compilers build the scalar copies.  GCC
   vector extensions and builtins, not immintrin.h, which would more than
   double the compile's peak memory.  The vectors stay inside the
   target("avx512f") functions (passed only by pointer), and a mask comes
   from a vector compare, which GCC turns into a mask compare and a masked
   blend there. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define SUP_AVX512 1
#define AVX512 __attribute__((target("avx512f")))
typedef double v8d __attribute__((vector_size(64)));
typedef long long v8l __attribute__((vector_size(64)));

/* the lanes of a block of points from row i that hold rows (bit l for row
   i + l), and the row of lane l, the last row for a padding lane */
static inline unsigned char live_lanes(int64_t rows, int64_t i)
{
    return rows - i < 8 ? (1u << (rows - i)) - 1 : 0xff;
}

static inline int64_t lane_row(int64_t rows, int64_t i, int64_t l)
{
    return i + l < rows ? i + l : rows - 1;
}

/* the 8 doubles at p */
#define LOAD8(p) __builtin_ia32_loadupd512_mask((p), (v8d){0}, 0xff)

/* best = the NaN-sticky max of best and a in the lanes of the mask when */
#define MAX8(best, a, when) do {                                              \
        v8l up_ = (when) & ((v8l)((a) > (best)) | (v8l)((a) != (a)));        \
        (best) = (v8d)(((v8l)(a) & up_) | ((v8l)(best) & ~up_));            \
    } while (0)

/* The coordinates of the points of rows i .. i + 7 into x (dim vectors),
   one lane per row */
AVX512 static inline void block_points(int64_t rows, int64_t i, int64_t dim, const double *pts, v8d *x)
{
    for (int64_t l = 0; l < 8; l++)
        for (int64_t k = 0; k < dim; k++) x[k][l] = pts[lane_row(rows, i, l) * dim + k];
}

/* The per-row values a of rows i .. i + 7 into *v, one lane per row */
AVX512 static inline void block_values(int64_t rows, int64_t i, const double *a, v8d *v)
{
    for (int64_t l = 0; l < 8; l++) (*v)[l] = a[lane_row(rows, i, l)];
}

/* norm2 and kernel for 8 points at once (x: their coordinates, one lane
   per point) against the atom y, in the scalar operations' order: the
   distance sqrt(r2) into *dist, by vsqrtpd, and K(x - y) into *term, NaN
   or inf where the distance is 0, unless term is NULL */
AVX512 static inline void cells8(int64_t dim, const v8d *x, const double *y, const int64_t *powers, int64_t q,
                                 v8d *dist, v8d *term)
{
    v8d r2 = (x[0] - y[0]) * (x[0] - y[0]), num = (v8d){0} + 1.0, power = num;
    for (int64_t k = 1; k < dim; k++) r2 += (x[k] - y[k]) * (x[k] - y[k]);
    *dist = __builtin_ia32_sqrtpd512_mask(r2, r2, 0xff, 4);  /* 4: the current rounding mode */
    if (!term) return;
    for (int64_t k = 0; k < dim; k++)
        for (int64_t p = 0; p < powers[k]; p++) num *= x[k] - y[k];
    for (int64_t p = 0; p < q / 2; p++) power *= r2;
    if (q % 2) power *= *dist;
    *term = num / power;
}

/* T^eps 8 points at a time, in vectors throughout */
AVX512 static void truncated_rows_avx512(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                                         const int64_t *powers, int64_t q, const double *eps, const double *gw,
                                         double *out)
{
    v8d x[dim], e;
    for (int64_t i = 0; i < rows; i += 8) {
        block_points(rows, i, dim, pts, x);
        block_values(rows, i, eps, &e);
        v8d s = {0}, c = {0};
        for (int64_t j = 0; j < n; j++) {
            v8d d, t;
            cells8(dim, x, pos + j * dim, powers, q, &d, &t);
            t = (v8d)((v8l)(t * gw[j]) & (v8l)(d > e));  /* 0.0 where d <= eps */
            if (j == 0) s = t; else SUM2_ADD(s, c, t);
        }
        __builtin_ia32_storeupd512_mask(out + i, s + c, live_lanes(rows, i));
    }
}

/* The pair engine 8 rows at a time: the distances and terms of the 8
   points into cell, the 8 lanes of an atom side by side (a row of scratch
   per lane, as row_sups keeps, took DoubleIntegral's 2048 x 2048
   pass 21 -> 48 ms on a 2-core Xeon: rows 16 KiB apart alias in the
   cache), then each row's pairs binned in row-major order.  -1 if out of
   memory. */
AVX512 static int pair_rows_avx512(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                                   const int64_t *powers, int64_t q, const double *w_a, const double *w_b,
                                   int64_t bins, const double *eps, double *partials, double *max_term,
                                   int64_t *counts)
{
    if (rows == 0 || n == 0) return 0;
    double *cell = malloc(16 * n * sizeof *cell);
    if (!cell) return -1;
    v8d x[dim], wa;
    for (int64_t i = 0; i < rows; i += 8) {
        block_points(rows, i, dim, pts, x);
        block_values(rows, i, w_a, &wa);
        for (int64_t b = 0; b < n; b++) {
            v8d d, t;
            cells8(dim, x, pos + b * dim, powers, q, &d, &t);
            __builtin_ia32_storeupd512_mask(cell + 16 * b, d, 0xff);
            __builtin_ia32_storeupd512_mask(cell + 16 * b + 8, t * (wa * w_b[b]), 0xff);
        }
        for (int64_t l = 0; l < 8 && i + l < rows; l++)
            for (int64_t b = 0; b < n; b++)
                if (cell[16 * b + l] > eps[bins - 1])
                    pair_add(cell[16 * b + l], cell[16 * b + 8 + l], eps, partials, max_term, counts);
    }
    free(cell);
    return 0;
}

/* tstar_row with 8 densities per vector, one per lane, the last block's
   missing densities loaded as zeros by a masked load and not written */
AVX512 static void tstar_row_avx512(int64_t n, int64_t d, const double *g, const item *row, const double *kw,
                                    int64_t stride, double *out)
{
    for (int64_t k = 0; k < d; k += 8) {
        v8d s = {0}, c = {0}, best = {0};
        for (int64_t j = 0; j < n; j++) {
            v8d t = __builtin_ia32_loadupd512_mask(g + row[j].idx * d + k, (v8d){0}, live_lanes(d, k)) * kw[j];
            if (j == 0) s = t; else SUM2_ADD(s, c, t);
            if (j == n - 1 || row[j].key != row[j + 1].key) {
                v8d a = (v8d)((v8l)(s + c) & INT64_MAX);  /* fabs */
                MAX8(best, a, (v8l){0} - 1);
            }
        }
        for (int64_t l = 0; l < 8 && k + l < d; l++) out[(k + l) * stride] = best[l];
    }
}

/* hl_row of a block of live <= 8 sorted rows, block + l n for row l, one
   per lane (a padding lane reads the last row), read backwards in chunks
   of HL_CHUNK atoms: each lane's masses mass[idx] and distances are
   copied into cell, the 8 lanes of an atom side by side, and the chunk is
   summed from there; into out[l] and diverges[l] for l < live.  (Vector
   gathers of the indices, masses and distances in place of the copy took
   a 500 x 700 call 0.70 -> 1.11 ms on a 2-core Xeon.) */
enum { HL_CHUNK = 64 };
AVX512 static void hl_block_avx512(int64_t live, int64_t n, int64_t dim, const double *mass, const item *block,
                                   double *out, uint8_t *diverges)
{
    double cell[16 * (HL_CHUNK + 1)];  /* atom base + a of a chunk: its masses at 16 a, its distances at 16 a + 8 */
    v8d s = {0}, c = {0}, best = {0}, d = {0};
    v8l div = {0};
    for (int64_t top = n; top > 0; top -= HL_CHUNK) {
        int64_t lo = top > HL_CHUNK ? top - HL_CHUNK : 0, base = lo ? lo - 1 : 0;  /* the chunk is [lo, top) */
        for (int64_t l = 0; l < 8; l++) {
            const item *row = block + lane_row(live, 0, l) * n;
            for (int64_t j = base; j < top; j++)
                cell[16 * (j - base) + l] = mass[row[j].idx], cell[16 * (j - base) + 8 + l] = row[j].key;
        }
        if (top == n) d = LOAD8(cell + 16 * (n - 1 - base) + 8);
        for (int64_t j = top - 1; j >= lo; j--) {
            v8d m = LOAD8(cell + 16 * (j - base)), power = (v8d){0} + 1.0;
            v8d next = j ? LOAD8(cell + 16 * (j - 1 - base) + 8) : d;
            if (j == n - 1) s = m; else SUM2_ADD(s, c, m);
            div |= (v8l)(d == 0.0) & (v8l)(m > 0.0);
            for (int64_t k = 1; k < dim; k++) power *= d;
            v8d v = (s + c) * (1.0 / power);
            MAX8(best, v, (v8l)(d > 0.0) & (j ? (v8l)(d != next) : (v8l){0} - 1));
            d = next;
        }
    }
    for (int64_t l = 0; l < live; l++) {
        diverges[l] = div[l] != 0;
        out[l] = div[l] ? INFINITY : best[l];
    }
}

/* row_sups 8 points at a time: the distances of the 8 points (and, with
   densities, their terms) into a row of scratch each, xs + l n and
   kws + l n for lane l; then each row sorted as the scalar copy sorts it,
   back into xs + l n, its terms gathered into that order in kw and its T*
   taken; then M of the block's rows, one per lane */
AVX512 static void row_sups_avx512(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                                   const int64_t *powers, int64_t q, const double *w, int64_t d, const double *g,
                                   double *tstar, const double *mass, double *hl, uint8_t *diverges, item *xs,
                                   double *kws, double *kw, int64_t *bound, int64_t *count)
{
    v8d x[dim];
    for (int64_t i = 0; i < rows; i += 8) {
        int64_t live = rows - i < 8 ? rows - i : 8;
        block_points(rows, i, dim, pts, x);
        for (int64_t j = 0; j < n; j++) {
            v8d r, t;
            cells8(dim, x, pos + j * dim, powers, q, &r, d ? &t : NULL);
            for (int64_t l = 0; l < 8; l++) xs[l * n + j] = (item){r[l], j};
            if (!d) continue;
            t = (v8d)((v8l)t & (v8l)(r > 0.0)) * w[j];
            for (int64_t l = 0; l < 8; l++) kws[l * n + j] = t[l];
        }
        for (int64_t l = 0; l < live; l++) {
            item *row = xs + l * n, *sorted = sort_row(row, xs + 8 * n, n, bound, count);
            for (int64_t j = 0; sorted != row && j < n; j++) row[j] = sorted[j];
            if (!d) continue;
            for (int64_t j = 0; j < n; j++) kw[j] = kws[l * n + row[j].idx];
            tstar_row_avx512(n, d, g, row, kw, rows, tstar + i + l);
        }
        if (mass) hl_block_avx512(live, n, dim, mass, xs, hl + i, diverges + i);
    }
}
#endif

/* The lane count of the fastest copies this host runs: 8 with AVX-512
   (where the compiler builds those copies), else 1 */
int sup_lanes(void)
{
#ifdef SUP_AVX512
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return 8;
#endif
    return 1;
}

/* The entries.  Each runs its AVX-512 copy if lanes is 8, which sup_lanes
   returns only where the host runs it, else its scalar loop, one point
   (or one density) at a time. */

/* The sups of the rows, one per point of pts (rows x dim) against the n
   atoms pos (n x dim) of weights w: each row's distances, sorted
   descending with ties in atom order (the order of np.argsort(-dist,
   kind="stable"), by sort_row), and with d > 0 its kernel terms
   K(x - y) w(y), 0 at distance 0 (so a zero-distance group's end repeats
   the prefix before it), in that order.  From the sorted row,
   T* of each density of the stack g (n atoms x d, atom-major; tstar_row)
   into tstar[k * rows + i], and, unless mass is NULL, M of the masses
   mass (hl_row) into hl[i] and diverges[i].  No distance is NaN, since
   points and atoms are finite.  One allocation of scratch, 9 rows of
   items and 9 of terms; -1 if out of memory. */
int row_sups(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos, const int64_t *powers,
             int64_t q, int64_t lanes, const double *w, int64_t d, const double *g, double *tstar,
             const double *mass, double *hl, uint8_t *diverges)
{
    if (rows == 0 || (d == 0 && !mass)) return 0;
    /* 8 rows of a block and the sort's scratch; 8 rows of terms and the
       gathered terms of one; the sort's bound and count */
    item *xs = malloc((n + 1) * (9 * sizeof *xs + 9 * sizeof(double) + 2 * sizeof(int64_t)));
    if (!xs) return -1;
    double *kws = (double *)(xs + 9 * n), *kw = kws + 8 * n;
    int64_t *bound = (int64_t *)(kw + n), *count = bound + n + 1;
#ifdef SUP_AVX512
    if (lanes == 8) {
        row_sups_avx512(rows, n, dim, pts, pos, powers, q, w, d, g, tstar, mass, hl, diverges, xs, kws, kw, bound,
                        count);
        free(xs);
        return 0;
    }
#endif
    (void)lanes;
    for (int64_t i = 0; i < rows; i++, pts += dim) {
        for (int64_t j = 0; j < n; j++) {
            double r2 = norm2(dim, pts, pos + j * dim), r = sqrt(r2);
            xs[j] = (item){r, j};
            if (d) kws[j] = (r > 0.0 ? kernel(dim, pts, pos + j * dim, powers, q, r2) : 0.0) * w[j];
        }
        item *row = sort_row(xs, xs + n, n, bound, count);
        if (d) {
            for (int64_t j = 0; j < n; j++) kw[j] = kws[row[j].idx];
            tstar_row(n, d, g, row, kw, rows, tstar + i);
        }
        if (mass) hl_row(n, dim, mass, row, hl + i, diverges + i);
    }
    free(xs);
    return 0;
}

/* T^eps: per point of pts, the Sum2 total of K(x - y) gw(y) over the atoms
   y of pos with |x - y| > eps, excluded terms added as 0.0 as numpy adds
   them */
void truncated_rows(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                    const int64_t *powers, int64_t q, int64_t lanes, const double *eps, const double *gw, double *out)
{
#ifdef SUP_AVX512
    if (lanes == 8) {
        truncated_rows_avx512(rows, n, dim, pts, pos, powers, q, eps, gw, out);
        return;
    }
#endif
    (void)lanes;
    for (int64_t i = 0; i < rows; i++, pts += dim) {
        double s = 0.0, c = 0.0;
        for (int64_t j = 0; j < n; j++) {
            double r2 = norm2(dim, pts, pos + j * dim);
            double t = sqrt(r2) > eps[i] ? kernel(dim, pts, pos + j * dim, powers, q, r2) * gw[j] : 0.0;
            if (j == 0) s = t; else SUM2_ADD(s, c, t);
        }
        out[i] = s + c;  /* 0 for n = 0 */
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
#ifdef SUP_AVX512
    if (lanes == 8)
        return pair_rows_avx512(rows, n, dim, pts, pos, powers, q, w_a, w_b, bins, eps, partials, max_term, counts);
#endif
    (void)lanes;
    for (int64_t i = 0; i < rows; i++, pts += dim)
        for (int64_t b = 0; b < n; b++) {
            double r2 = norm2(dim, pts, pos + b * dim), d = sqrt(r2);
            if (d > eps[bins - 1])
                pair_add(d, kernel(dim, pts, pos + b * dim, powers, q, r2) * (w_a[i] * w_b[b]), eps, partials,
                         max_term, counts);
        }
    return 0;
}
