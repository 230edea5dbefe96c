/* The sups of siolab.operators, one row per point.  A row is summed by
   Sum2 (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005), with the
   operations of summation.sum2_prefix in its order: s the running sum, c
   the running sum of the exact TwoSum errors, a prefix s + c.  Compiled
   without FMA contraction or fast-math, a sup equals numpy's bit for bit. */
#include <math.h>
#include <stdint.h>

static inline void sum2_add(double *s, double *c, double t)
{
    double x = *s + t, z = x - *s;
    *c += (t - z) + (*s - (x - z));
    *s = x;
}

/* T*: the max of |prefix| of g[order[j]] * kw[j] over the j with valid[j], and 0 */
void maximal_values(int64_t rows, int64_t n, const double *g, const int64_t *order, const double *kw,
                    const uint8_t *valid, double *out)
{
    for (int64_t i = 0; i < rows; i++, order += n, kw += n, valid += n) {
        double s = 0.0, c = 0.0, best = 0.0;
        for (int64_t j = 0; j < n; j++) {
            double t = g[order[j]] * kw[j];
            if (j == 0) s = t; else sum2_add(&s, &c, t);
            double a = fabs(s + c);
            if (valid[j] && (a > best || a != a)) best = a;  /* NaN sticks, as in np.max */
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
