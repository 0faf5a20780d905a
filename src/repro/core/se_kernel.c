/* The Shrink-and-Expand refinement loop (Algorithm 1) for many rows.
 *
 * One call runs every row of the padded (K, N, d) C-set tensors that
 * repro.core.se.ShrinkExpand.refine_many packs; rows are independent.
 * It performs exactly the floating-point operations of the numpy
 * lockstep loop in se.py, in the same order, so the results are bit
 * for bit the same:
 *
 *   - margins follow margin_extrema: a_mid = (lo + hi) * 0.5, five
 *     candidate coordinates per dimension, per-dimension extrema summed
 *     as _sum_dims does (left to right below d = 8, numpy's pairwise
 *     add.reduce from d = 8 on);
 *   - witness distances follow numpy's float64 einsum inner product,
 *     which accumulates in two 128-bit lanes;
 *   - slice edges follow _slice_regions (linspace arithmetic, including
 *     the step == 0 branch and a last edge equal to stop), along the
 *     first longest side.
 *
 * Build with -O2 -fno-fast-math -ffp-contract=off: no reassociation and
 * no fused multiply-adds, which numpy's baseline build does not use.
 * Every buffer is sized from the call's N, d and m_max.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

#include "einsum_sum.h"

/* numpy's pairwise_sum for float64 (contiguous add.reduce). */
static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* _sum_dims: the per-dimension terms of one margin, summed. */
static double sum_dims(const double *g, int64_t d)
{
    if (d >= 8 || d == 1)
        return 0.0 + pairwise(g, d);
    double s = g[0] + g[1];
    for (int64_t j = 2; j < d; j++)
        s += g[j];
    return s;
}

static double clip(double x, double lo, double hi)
{
    x = x > lo ? x : lo;
    return x < hi ? x : hi;
}

/* Everything one row needs: its object, its C-set and scratch.  The
 * scratch is two (N, d) blocks, ROW_VECTORS vectors of d and the
 * m_max + 1 slice edges. */
#define ROW_VECTORS 18

typedef struct {
    int64_t d, m_max;
    const double *b_lo, *b_hi;  /* (d) */
    double *b_mid, *b_half;     /* (d) */
    double *a_mid, *a_half;     /* (N, d): the row's candidates */
    int64_t *live, n_live;      /* candidates kept by the sweep cull */
    int64_t *act;               /* candidates active in one test */
    double *xs, *gap2;          /* (4, d): region-only coordinates */
    double *top, *bottom;       /* (d) */
    double *r_lo, *r_hi;        /* (d): the region under test */
    double *s_lo, *s_hi;        /* (d): one slice of it */
    double *pt, *prod;          /* (d) */
    double *edges;              /* (m_max + 1) */
} Row;

/* The four margin coordinates that depend only on the region (its
 * bounds, B's bounds clipped into it) and their squared B-gaps. */
static void region_terms(Row *w, const double *r_lo, const double *r_hi)
{
    int64_t d = w->d;
    for (int64_t j = 0; j < d; j++) {
        double x[4];
        x[0] = r_lo[j];
        x[1] = r_hi[j];
        x[2] = clip(w->b_lo[j], r_lo[j], r_hi[j]);
        x[3] = clip(w->b_hi[j], r_lo[j], r_hi[j]);
        for (int t = 0; t < 4; t++) {
            double gap = fabs(x[t] - w->b_mid[j]) - w->b_half[j];
            gap = gap > 0.0 ? gap : 0.0;
            w->xs[t * d + j] = x[t];
            w->gap2[t * d + j] = gap * gap;
        }
    }
}

/* margin_extrema for candidate c over the region of the last
 * region_terms call: the summed maximum and, when wanted, minimum. */
static void margins(Row *w, int64_t c, const double *r_lo,
                    const double *r_hi, double *g_max, double *g_min)
{
    int64_t d = w->d;
    const double *a_mid = w->a_mid + c * d, *a_half = w->a_half + c * d;
    for (int64_t j = 0; j < d; j++) {
        double hi = 0.0, lo = 0.0;
        for (int t = 0; t < 4; t++) {
            double far = fabs(w->xs[t * d + j] - a_mid[j]) + a_half[j];
            double g = far * far - w->gap2[t * d + j];
            if (t == 0 || g > hi)
                hi = g;
            if (t == 0 || g < lo)
                lo = g;
        }
        double x = clip(a_mid[j], r_lo[j], r_hi[j]);
        double far = fabs(x - a_mid[j]) + a_half[j];
        double gap = fabs(x - w->b_mid[j]) - w->b_half[j];
        gap = gap > 0.0 ? gap : 0.0;
        double g = far * far - gap * gap;
        w->top[j] = g > hi ? g : hi;
        w->bottom[j] = g < lo ? g : lo;
    }
    *g_max = sum_dims(w->top, d);
    if (g_min)
        *g_min = sum_dims(w->bottom, d);
}

/* Is the point w->pt dominated by no active candidate? */
static int undominated(Row *w, int64_t n_act)
{
    int64_t d = w->d;
    for (int64_t j = 0; j < d; j++) {
        double below = w->b_lo[j] - w->pt[j], above = w->pt[j] - w->b_hi[j];
        double gap = below > above ? below : above;
        gap = gap > 0.0 ? gap : 0.0;
        w->prod[j] = gap * gap;
    }
    double min_sq = einsum_sum(w->prod, d);
    for (int64_t i = 0; i < n_act; i++) {
        const double *a_mid = w->a_mid + w->act[i] * d;
        const double *a_half = w->a_half + w->act[i] * d;
        for (int64_t j = 0; j < d; j++) {
            double far = fabs(w->pt[j] - a_mid[j]) + a_half[j];
            w->prod[j] = far * far;
        }
        if (einsum_sum(w->prod, d) < min_sq)
            return 0;
    }
    return 1;
}

/* intersects_nondominated_batch for one row over the live candidates:
 * 1 when the region may meet I(Cset, o), 0 when it provably does not. */
static int intersects(Row *w)
{
    int64_t d = w->d, m = w->m_max;
    const double *r_lo = w->r_lo, *r_hi = w->r_hi;
    if (w->n_live == 0)
        return 1;
    region_terms(w, r_lo, r_hi);
    int64_t n_act = 0;
    for (int64_t i = 0; i < w->n_live; i++) {
        double g_max, g_min;
        margins(w, w->live[i], r_lo, r_hi, &g_max, &g_min);
        if (g_max < 0.0)
            return 0;  /* one candidate dominates the whole region */
        if (g_min < 0.0)
            w->act[n_act++] = w->live[i];
    }
    if (n_act == 0)
        return 1;

    /* Witnesses: the center, then the corners up to d = 6. */
    for (int64_t j = 0; j < d; j++)
        w->pt[j] = (r_lo[j] + r_hi[j]) / 2.0;
    if (undominated(w, n_act))
        return 1;
    if (d <= 6) {
        for (int64_t bits = 0; bits < ((int64_t)1 << d); bits++) {
            for (int64_t j = 0; j < d; j++)
                w->pt[j] = (bits >> j) & 1 ? r_hi[j] : r_lo[j];
            if (undominated(w, n_act))
                return 1;
        }
    }
    if (m == 1)
        return 1;

    /* m_max uniform slices along the first longest side. */
    int64_t dim = 0;
    for (int64_t j = 1; j < d; j++)
        if (r_hi[j] - r_lo[j] > r_hi[dim] - r_lo[dim])
            dim = j;
    double start = r_lo[dim], stop = r_hi[dim];
    double delta = stop - start, step = delta / (double)m;
    for (int64_t i = 0; i < m; i++)
        w->edges[i] = (step == 0.0 ? ((double)i / (double)m) * delta
                                   : (double)i * step) + start;
    w->edges[m] = stop;
    for (int64_t j = 0; j < d; j++) {
        w->s_lo[j] = r_lo[j];
        w->s_hi[j] = r_hi[j];
    }
    for (int64_t s = 0; s < m; s++) {
        w->s_lo[dim] = w->edges[s];
        w->s_hi[dim] = w->edges[s + 1];
        region_terms(w, w->s_lo, w->s_hi);
        int covered = 0;
        for (int64_t i = 0; i < n_act && !covered; i++) {
            double g_max;
            margins(w, w->act[i], w->s_lo, w->s_hi, &g_max, NULL);
            covered = g_max < 0.0;
        }
        if (!covered)
            return 1;
    }
    return 0;
}

/* Refine rows [0, k) in place.
 *
 * b_lo, b_hi, h_lo, h_hi, l_lo, l_hi: (k, d); a_lo, a_hi: (k, n, d);
 * valid: (k, n) bytes.  On return h and l hold every row's final
 * bounds, iterations[i] its sweeps, and counts[0..2] have the emptiness
 * tests, shrinks and expands added.  Returns 0, or -1 when scratch
 * memory cannot be allocated (nothing is written then).
 */
int se_refine(int64_t k, int64_t n, int64_t d,
              const double *b_lo, const double *b_hi,
              double *h_lo, double *h_hi, double *l_lo, double *l_hi,
              const double *a_lo, const double *a_hi,
              const uint8_t *valid, double delta, int64_t m_max,
              int64_t *iterations, int64_t *counts)
{
    if (k < 0 || n < 0 || d < 1 || m_max < 1)
        return -1;
    size_t nd = (size_t)n * (size_t)d;
    if (n && nd / (size_t)n != (size_t)d)
        return -1;
    size_t n_doubles = 2 * nd + ROW_VECTORS * (size_t)d + (size_t)m_max + 1;
    size_t n_ints = 2 * (size_t)n + 1;
    if (n_doubles < nd || n_doubles > SIZE_MAX / sizeof(double))
        return -1;
    double *buf = malloc(n_doubles * sizeof(double));
    int64_t *ibuf = malloc(n_ints * sizeof(int64_t));
    if (!buf || !ibuf) {
        free(buf);
        free(ibuf);
        return -1;
    }
    Row w;
    w.d = d;
    w.m_max = m_max;
    w.a_mid = buf;
    w.a_half = w.a_mid + nd;
    w.b_mid = w.a_half + nd;
    w.b_half = w.b_mid + d;
    w.xs = w.b_half + d;
    w.gap2 = w.xs + 4 * d;
    w.top = w.gap2 + 4 * d;
    w.bottom = w.top + d;
    w.r_lo = w.bottom + d;
    w.r_hi = w.r_lo + d;
    w.s_lo = w.r_hi + d;
    w.s_hi = w.s_lo + d;
    w.pt = w.s_hi + d;
    w.prod = w.pt + d;
    w.edges = w.prod + d;
    w.live = ibuf;
    w.act = ibuf + n;

    int64_t tests = 0, shrinks = 0, expands = 0;
    for (int64_t r = 0; r < k; r++) {
        double *hl = h_lo + r * d, *hh = h_hi + r * d;
        double *ll = l_lo + r * d, *lh = l_hi + r * d;
        w.b_lo = b_lo + r * d;
        w.b_hi = b_hi + r * d;
        for (int64_t j = 0; j < d; j++) {
            w.b_mid[j] = (w.b_lo[j] + w.b_hi[j]) * 0.5;
            w.b_half[j] = (w.b_hi[j] - w.b_lo[j]) * 0.5;
        }
        w.n_live = 0;
        for (int64_t c = 0; c < n; c++) {
            if (!valid[r * n + c])
                continue;
            const double *lo = a_lo + (r * n + c) * d;
            const double *hi = a_hi + (r * n + c) * d;
            for (int64_t j = 0; j < d; j++) {
                w.a_mid[c * d + j] = (lo[j] + hi[j]) * 0.5;
                w.a_half[c * d + j] = (hi[j] - lo[j]) * 0.5;
            }
            w.live[w.n_live++] = c;
        }

        int64_t iters = 0;
        for (;;) {
            double gap = ll[0] - hl[0];
            for (int64_t j = 0; j < d; j++) {
                if (ll[j] - hl[j] > gap)
                    gap = ll[j] - hl[j];
                if (hh[j] - lh[j] > gap)
                    gap = hh[j] - lh[j];
            }
            if (!(gap >= delta && gap > 0.0))
                break;
            iters++;

            /* Cull candidates that dominate no point of h(o). */
            region_terms(&w, hl, hh);
            int64_t kept = 0;
            for (int64_t i = 0; i < w.n_live; i++) {
                double g_max, g_min;
                margins(&w, w.live[i], hl, hh, &g_max, &g_min);
                if (g_min < 0.0)
                    w.live[kept++] = w.live[i];
            }
            w.n_live = kept;

            for (int64_t j = 0; j < d; j++) {
                for (int low = 1; low >= 0; low--) {
                    double mid;
                    if (low) {
                        if (!(ll[j] - hl[j] >= delta))
                            continue;
                        mid = (hl[j] + ll[j]) / 2.0;
                    } else {
                        if (!(hh[j] - lh[j] >= delta))
                            continue;
                        mid = (hh[j] + lh[j]) / 2.0;
                    }
                    /* The slab between the plane and h(o)'s face. */
                    for (int64_t t = 0; t < d; t++) {
                        w.r_lo[t] = hl[t];
                        w.r_hi[t] = hh[t];
                    }
                    if (low)
                        w.r_hi[j] = mid;
                    else
                        w.r_lo[j] = mid;
                    int hit = intersects(&w);
                    tests++;
                    if (hit) {
                        expands++;
                        (low ? ll : lh)[j] = mid;
                    } else {
                        shrinks++;
                        (low ? hl : hh)[j] = mid;
                    }
                }
            }
        }
        iterations[r] = iters;
    }
    counts[0] += tests;
    counts[1] += shrinks;
    counts[2] += expands;
    free(buf);
    free(ibuf);
    return 0;
}
