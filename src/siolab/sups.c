/* The compiled loops of siolab.operators, one row per point: the table's
   row build, T^eps, the pair engine, and the sups of the table's rows.  A
   row is summed by Sum2 (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26,
   2005), with the operations of summation.sum2_prefix in its order: s the
   running sum, c the running sum of the exact TwoSum errors, a prefix
   s + c.  A cell's distance and kernel term take the operations of
   kernel.evaluate_many in their order: r2 the squares of x - y added
   coordinate by coordinate, the distance sqrt(r2), and K(x - y) =
   (x - y)^P / |x - y|^q, the numerator's factors multiplied in coordinate
   order from 1 and |x - y|^q formed as q / 2 factors r2, times sqrt(r2)
   when q is odd.  A table row sorts its distances descending, ties in
   atom order, one of two ways chosen by its count of natural runs (an
   adaptive check in the manner of Peters' Timsort): a row of at most 16
   runs merges them; any other goes to n buckets by distance
   (distribution sort, Knuth, TAOCP 3, 5.2.5) that one insertion sort
   finishes, or merges if a bucket would hold more than 32 items.
   Neither moves an item past an equal key, so both give the one stable
   order.  These loops are siolab's only implementation; the reference of
   each is its numpy oracle in tests/oracles.py, which it equals bit for
   bit, compiled without FMA contraction or fast-math.
   The pair engine puts each pair in the bin of the first eps its distance
   exceeds and keeps, per (block of rows, bin), the Sum2 of the bin's
   terms unrounded (s and c), which operators.pair_sum_schedule sums in
   turn.
   T* takes a stack of densities; on x86-64 hosts with AVX-512 a copy
   chosen at run time (sup_lanes) sums 8 densities at once, one vector
   lane each, and since a lane is one density's Sum2 with that density's
   operations in their order, each lane keeps the bits of the scalar loop. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

static inline void sum2_add(double *s, double *c, double t)
{
    double x = *s + t, z = x - *s;
    *c += (t - z) + (*s - (x - z));
    *s = x;
}

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

/* The table's rows, one per point of pts (rows x dim) against the n atoms
   pos (n x dim) of weights w: each row's distances descending with ties in
   atom order (the order of np.argsort(-dist, kind="stable")) into order
   and dist_desc, and the kernel terms K(x - y) w(y), 0 at distance 0, in
   that order into kw_desc.  Each row is sorted one of two ways after
   find_runs: a row of at most RUN_LIMIT runs, or one that bucket_sort
   refuses, by merge_runs; any other row by bucket_sort.  Both give the one
   stable descending order: a merge takes the left item of a tie, and an
   insertion sort over buckets that keep ties in order moves no item past
   an equal key, whatever the buckets.  No distance is NaN, since points
   and atoms are finite.  -1 if out of memory. */
int table_rows(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos, const int64_t *powers,
               int64_t q, const double *w, int64_t *order, double *dist_desc, double *kw_desc)
{
    if (rows == 0 || n == 0) return 0;
    item *buf = malloc(2 * n * sizeof *buf);
    double *kw = malloc(n * sizeof *kw);
    int64_t *bound = malloc((n + 1) * sizeof *bound), *count = malloc((n + 1) * sizeof *count);
    if (!buf || !kw || !bound || !count) { free(buf); free(kw); free(bound); free(count); return -1; }
    for (int64_t r = 0; r < rows; r++, pts += dim, order += n, dist_desc += n, kw_desc += n) {
        item *x = buf, *y = buf + n;
        for (int64_t j = 0; j < n; j++) {
            double r2 = norm2(dim, pts, pos + j * dim), d = sqrt(r2);
            x[j] = (item){d, j};
            kw[j] = (d > 0.0 ? kernel(dim, pts, pos + j * dim, powers, q, r2) : 0.0) * w[j];
        }
        int64_t runs = find_runs(x, n, bound);
        if (runs > RUN_LIMIT && bucket_sort(x, y, n, runs, bound, count)) x = y;
        else x = merge_runs(x, y, runs, bound);
        for (int64_t j = 0; j < n; j++) order[j] = x[j].idx, dist_desc[j] = x[j].key, kw_desc[j] = kw[x[j].idx];
    }
    free(buf); free(kw); free(bound); free(count);
    return 0;
}

/* T^eps: per point of pts, the Sum2 total of K(x - y) gw(y) over the atoms
   y of pos with |x - y| > eps, excluded terms added as 0.0 as numpy adds
   them */
void truncated_rows(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                    const int64_t *powers, int64_t q, const double *eps, const double *gw, double *out)
{
    for (int64_t i = 0; i < rows; i++, pts += dim) {
        double s = 0.0, c = 0.0;
        for (int64_t j = 0; j < n; j++) {
            double r2 = norm2(dim, pts, pos + j * dim);
            double t = sqrt(r2) > eps[i] ? kernel(dim, pts, pos + j * dim, powers, q, r2) * gw[j] : 0.0;
            if (j == 0) s = t; else sum2_add(&s, &c, t);
        }
        out[i] = s + c;  /* 0 for n = 0 */
    }
}

/* The pair engine of operators.pair_sum_schedule over the pairs (x, y) of
   pts x pos, row by row: a pair with |x - y| > eps[bins - 1] (eps strictly
   decreasing; the other pairs are skipped) falls in bin j, the first with
   |x - y| > eps[j], and its term is K(x - y) (w_a(x) w_b(y)).  Per (block
   of `block` rows, bin), the Sum2 of its terms in row-major order goes
   into partials (the float64 sum, then the sum of its TwoSum errors) and
   seen marks a block's bin that holds a term; per bin the max |term|, NaN
   sticking as in np.max, and the term count.  The outputs start zeroed. */
void pair_partials(int64_t rows, int64_t n, int64_t dim, const double *pts, const double *pos,
                   const int64_t *powers, int64_t q, const double *w_a, const double *w_b, int64_t bins,
                   const double *eps, int64_t block, double *partials, uint8_t *seen, double *max_term,
                   int64_t *counts)
{
    for (int64_t i = 0; i < rows; i++, pts += dim) {
        double *part = partials + i / block * bins * 2;
        uint8_t *any = seen + i / block * bins;
        for (int64_t b = 0; b < n; b++) {
            double r2 = norm2(dim, pts, pos + b * dim), d = sqrt(r2);
            if (!(d > eps[bins - 1])) continue;
            int64_t j = 0;
            while (!(d > eps[j])) j++;
            double t = kernel(dim, pts, pos + b * dim, powers, q, r2) * (w_a[i] * w_b[b]), a = fabs(t);
            if (a > max_term[j] || a != a) max_term[j] = a;
            counts[j]++;
            if (any[j]) {
                sum2_add(part + 2 * j, part + 2 * j + 1, t);
            } else {
                part[2 * j] = t;
                any[j] = 1;
            }
        }
    }
}

/* T*: per density k of the stack g (n atoms x d densities, atom-major)
   and row i, the max of |prefix| of g[order[j] * d + k] * kw[j] at the
   last j of each group of equal dist[j], and 0, into out[k * rows + i] */
static void maximal_rows(int64_t rows, int64_t n, int64_t d, const double *g, const int64_t *order,
                         const double *dist, const double *kw, double *out)
{
    for (int64_t i = 0; i < rows; i++, order += n, dist += n, kw += n)
        for (int64_t k = 0; k < d; k++) {
            double s = 0.0, c = 0.0, best = 0.0;
            for (int64_t j = 0; j < n; j++) {
                double t = g[order[j] * d + k] * kw[j];
                if (j == 0) s = t; else sum2_add(&s, &c, t);
                double a = fabs(s + c);
                if ((j == n - 1 || dist[j] != dist[j + 1]) && (a > best || a != a)) best = a;  /* NaN sticks, as in np.max */
            }
            out[k * rows + i] = best;
        }
}

/* GCC on x86-64 only: the masked load is GCC's builtin, and the lowering
   below is checked in GCC's output; other compilers build the scalar copy */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define SUP_AVX512 1
typedef double v8d __attribute__((vector_size(64)));
typedef int64_t v8l __attribute__((vector_size(64)));

/* maximal_rows with 8 densities per vector, one per lane, the last
   block's missing densities loaded as zeros by a masked load and not
   written.  GCC vector extensions and one builtin, not immintrin.h,
   which would more than double the compile's peak memory; the max's
   masks come from vector compares, which GCC turns into mask compares
   and a masked blend where the vectors stay inside this function. */
__attribute__((target("avx512f")))
static void maximal_rows_avx512(int64_t rows, int64_t n, int64_t d, const double *g, const int64_t *order,
                                const double *dist, const double *kw, double *out)
{
    for (int64_t i = 0; i < rows; i++, order += n, dist += n, kw += n)
        for (int64_t k = 0; k < d; k += 8) {
            unsigned char live = d - k < 8 ? (1u << (d - k)) - 1 : 0xff;
            v8d s = {0}, c = {0}, best = {0};
            for (int64_t j = 0; j < n; j++) {
                v8d t = __builtin_ia32_loadupd512_mask(g + order[j] * d + k, (v8d){0}, live) * kw[j];
                if (j == 0) {
                    s = t;
                } else {  /* sum2_add */
                    v8d x = s + t, z = x - s;
                    c += (t - z) + (s - (x - z));
                    s = x;
                }
                if (j == n - 1 || dist[j] != dist[j + 1]) {
                    v8d a = (v8d)((v8l)(s + c) & INT64_MAX);  /* fabs */
                    v8l up = (a > best) | (a != a);  /* NaN sticks */
                    best = (v8d)(((v8l)a & up) | ((v8l)best & ~up));
                }
            }
            for (int64_t l = 0; l < 8 && k + l < d; l++) out[(k + l) * rows + i] = best[l];
        }
}
#endif

/* The lane count of the fastest maximal_values copy this host runs: 8
   with AVX-512 (where the compiler builds that copy), else 1 */
int sup_lanes(void)
{
#ifdef SUP_AVX512
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return 8;
#endif
    return 1;
}

/* T* for d densities: the AVX-512 copy if lanes is 8, which sup_lanes
   returns only where the host runs it, else the scalar loop */
void maximal_values(int64_t rows, int64_t n, int64_t d, int64_t lanes, const double *g, const int64_t *order,
                    const double *dist, const double *kw, double *out)
{
#ifdef SUP_AVX512
    if (lanes == 8) {
        maximal_rows_avx512(rows, n, d, g, order, dist, kw, out);
        return;
    }
#endif
    (void)lanes;
    maximal_rows(rows, n, d, g, order, dist, kw, out);
}

/* M: the distances read backwards (ascending); the max of prefix(mass[order])
   * (1 / (d * ... * d)), dim - 1 factors, at the last atom of each distance
   group with d > 0, and 0.  Mass > 0 at distance 0 diverges: +inf. */
void hl_maximal_values(int64_t rows, int64_t n, int64_t dim, const double *mass, const int64_t *order,
                       const double *dist, double *out, uint8_t *diverges)
{
    for (int64_t i = 0; i < rows; i++, order += n, dist += n) {
        double s = 0.0, c = 0.0, best = 0.0;
        uint8_t div = 0;
        for (int64_t j = n - 1; j >= 0; j--) {
            double m = mass[order[j]], d = dist[j], power = 1.0;
            if (j == n - 1) s = m; else sum2_add(&s, &c, m);
            div |= d == 0.0 && m > 0.0;
            if (d > 0.0 && (j == 0 || d != dist[j - 1])) {
                for (int64_t k = 1; k < dim; k++) power *= d;
                double v = (s + c) * (1.0 / power);
                if (v > best || v != v) best = v;
            }
        }
        diverges[i] = div;
        out[i] = div ? INFINITY : best;
    }
}
