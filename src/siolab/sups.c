/* The compiled loops of siolab.operators, one row per point: the table's
   row sort and the sums of its rows.  A row is summed by Sum2 (Ogita, Rump
   and Oishi, SIAM J. Sci. Comput. 26, 2005), with the operations of
   summation.sum2_prefix in its order: s the running sum, c the running sum
   of the exact TwoSum errors, a prefix s + c.  Compiled without FMA
   contraction or fast-math, each loop equals its numpy path bit for bit. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

static inline void sum2_add(double *s, double *c, double t)
{
    double x = *s + t, z = x - *s;
    *c += (t - z) + (*s - (x - z));
    *s = x;
}

/* Each row of dist descending, ties in atom order, NaN last: the order of
   np.argsort(-dist, kind="stable"), by a natural merge sort.  A run is a
   maximal non-increasing stretch, or a maximal strictly increasing one
   reversed (so no tie is reversed); runs merge pairwise, a tie taking the
   left item.  Fills order, dist_desc and kw_desc, the kernel terms kw in
   that order; -1 if out of memory. */
typedef struct { double key; int64_t idx; } item;
int sort_rows(int64_t rows, int64_t n, const double *dist, int64_t *order, double *dist_desc,
              const double *kw, double *kw_desc)
{
    if (rows == 0 || n == 0) return 0;
    item *buf = malloc(2 * n * sizeof *buf), t;
    int64_t *bound = malloc((n + 1) * sizeof *bound);
    if (!buf || !bound) { free(buf); free(bound); return -1; }
    for (int64_t r = 0; r < rows; r++, dist += n, order += n, dist_desc += n, kw += n, kw_desc += n) {
        item *x = buf, *y = buf + n;
        int64_t runs = 0;
        for (int64_t j = 0; j < n; j++) x[j] = (item){dist[j] == dist[j] ? dist[j] : -1.0, j};  /* NaN last */
        for (int64_t a = 0, b; a < n; a = b) {
            bound[runs++] = a;
            for (b = a + 1; b < n && x[b].key <= x[b - 1].key; b++) {}
            if (b == a + 1 && b < n) {  /* x[b] > x[a]: strictly increasing */
                while (b < n && x[b].key > x[b - 1].key) b++;
                for (int64_t lo = a, hi = b - 1; lo < hi; lo++, hi--) t = x[lo], x[lo] = x[hi], x[hi] = t;
            }
        }
        for (bound[runs] = n; runs > 1; runs = (runs + 1) / 2, bound[runs] = n) {
            for (int64_t q = 0; q < runs; q += 2) {  /* an odd last run is copied */
                int64_t i = bound[q], m = bound[q + 1], b = q + 2 <= runs ? bound[q + 2] : m, j = m, k = i;
                while (i < m && j < b) y[k++] = x[j].key > x[i].key ? x[j++] : x[i++];
                while (i < m) y[k++] = x[i++];
                while (j < b) y[k++] = x[j++];
                bound[q / 2] = bound[q];
            }
            item *swap = x; x = y; y = swap;
        }
        for (int64_t j = 0; j < n; j++) {
            order[j] = x[j].idx, kw_desc[j] = kw[x[j].idx];
            dist_desc[j] = x[j].key < 0.0 ? dist[x[j].idx] : x[j].key;
        }
    }
    free(buf); free(bound);
    return 0;
}

/* T^eps: per row, the Sum2 total of kv[j] * gw[j] over the j with
   dist[j] > eps, excluded terms added as 0.0 as numpy adds them */
void truncated_rows(int64_t rows, int64_t n, const double *dist, const double *eps, const double *kv,
                    const double *gw, double *out)
{
    for (int64_t i = 0; i < rows; i++, dist += n, kv += n) {
        double s = 0.0, c = 0.0;
        for (int64_t j = 0; j < n; j++) {
            double t = dist[j] > eps[i] ? kv[j] * gw[j] : 0.0;
            if (j == 0) s = t; else sum2_add(&s, &c, t);
        }
        out[i] = s + c;  /* 0 for n = 0 */
    }
}

/* T*: the max of |prefix| of g[order[j]] * kw[j] at the last j of each group of equal dist[j], and 0 */
void maximal_values(int64_t rows, int64_t n, const double *g, const int64_t *order, const double *dist,
                    const double *kw, double *out)
{
    for (int64_t i = 0; i < rows; i++, order += n, dist += n, kw += n) {
        double s = 0.0, c = 0.0, best = 0.0;
        for (int64_t j = 0; j < n; j++) {
            double t = g[order[j]] * kw[j];
            if (j == 0) s = t; else sum2_add(&s, &c, t);
            double a = fabs(s + c);
            if ((j == n - 1 || dist[j] != dist[j + 1]) && (a > best || a != a)) best = a;  /* NaN sticks, as in np.max */
        }
        out[i] = best;
    }
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
