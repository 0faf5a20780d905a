/* C-set selection (chooseCSet, Section V-A) for many objects per call.
 *
 * One call picks the FS or IS candidate set of every object of a block
 * against the dataset's packed regions, exactly as the numpy strategies
 * in cset.py do:
 *
 *   - ranking: centres (lo + hi) / 2.0, squared centre distances with
 *     the per-dimension squares summed in numpy einsum's order
 *     (einsum_sum.h), rows ordered by (distance, row) -- the order of
 *     np.argsort(kind="stable"), NaN last -- and the object's own oid
 *     left out;
 *   - only the first `limit` ranked rows are read, so they are selected
 *     by a quicksort that recurses only into the parts overlapping that
 *     prefix (O(n) plus the sort of the prefix), not a full sort;
 *   - IS walks that prefix, skips regions overlapping u(o) (Lemma 2),
 *     counts the quadrants around the object's centre that each kept
 *     region touches, and stops after the first kept row at which every
 *     one of the 2^d quadrants has kpartition members.  FS (kpartition
 *     0) takes the prefix as it is.
 *
 * Scratch is allocated per call; there is no static state.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#include "einsum_sum.h"

typedef struct {
    double dist;
    int64_t row;
} Ranked;

/* The (distance, row) order: a strict total order, NaN distances last. */
static int before(const Ranked *a, const Ranked *b)
{
    if (a->dist < b->dist)
        return 1;
    if (a->dist > b->dist)
        return 0;
    int a_nan = a->dist != a->dist, b_nan = b->dist != b->dist;
    if (a_nan != b_nan)
        return b_nan;
    return a->row < b->row;
}

static void swap(Ranked *a, Ranked *b)
{
    Ranked t = *a;
    *a = *b;
    *b = t;
}

/* Put the `want` first elements of v[0, n) in order at its front. */
static void partial_sort(Ranked *v, int64_t n, int64_t want)
{
    while (n > 16) {
        /* Median of three, moved to v[n - 1] as the pivot. */
        int64_t mid = n / 2;
        if (before(&v[mid], &v[0]))
            swap(&v[mid], &v[0]);
        if (before(&v[n - 1], &v[0]))
            swap(&v[n - 1], &v[0]);
        if (before(&v[mid], &v[n - 1]))
            swap(&v[mid], &v[n - 1]);
        int64_t store = 0;
        for (int64_t i = 0; i < n - 1; i++)
            if (before(&v[i], &v[n - 1]))
                swap(&v[i], &v[store++]);
        swap(&v[store], &v[n - 1]);
        /* v[0, store) < v[store] < v[store + 1, n). */
        if (want > store + 1)
            partial_sort(v + store + 1, n - store - 1, want - store - 1);
        n = store;
        if (want > n)
            want = n;
    }
    for (int64_t i = 1; i < n; i++) {
        Ranked x = v[i];
        int64_t j = i;
        for (; j > 0 && before(&x, &v[j - 1]); j--)
            v[j] = v[j - 1];
        v[j] = x;
    }
}

/* Select the C-sets of objects [0, k).
 *
 * ids: (n); los, his: (n, d), the packed regions.  oids: (k); o_lo,
 * o_hi: (k, d), the objects' regions.  Each object examines its first
 * min(limit, eligible) ranked rows; kpartition > 0 selects by IS,
 * kpartition == 0 by FS.  The selected rows of object i follow those of
 * object i - 1 in `rows` (room for k * min(limit, n)), and counts[i]
 * says how many there are.  Returns 0, or -1 when an argument is out of
 * range or scratch memory cannot be allocated (nothing is written then).
 */
int cset_select(int64_t n, int64_t d, const int64_t *ids,
                const double *los, const double *his, int64_t k,
                const int64_t *oids, const double *o_lo, const double *o_hi,
                int64_t limit, int64_t kpartition, int64_t *rows,
                int64_t *counts)
{
    if (n < 0 || d < 1 || k < 0 || limit < 1 || kpartition < 0)
        return -1;
    if (kpartition > 0 && d > 30)
        return -1;  /* 2^d quadrant counters */
    size_t nd = (size_t)n * (size_t)d;
    if (n && nd / (size_t)n != (size_t)d)
        return -1;
    size_t quadrants = kpartition > 0 ? (size_t)1 << d : 0;
    Ranked *ranked = malloc(((size_t)n + 1) * sizeof(Ranked));
    double *buf = malloc((nd + 2 * (size_t)d) * sizeof(double));
    int64_t *members = malloc((quadrants + 1) * sizeof(int64_t));
    if (!ranked || !buf || !members) {
        free(ranked);
        free(buf);
        free(members);
        return -1;
    }
    double *centres = buf, *mean = buf + nd, *prod = mean + d;
    for (size_t i = 0; i < nd; i++)
        centres[i] = (los[i] + his[i]) / 2.0;

    int64_t *out = rows;
    for (int64_t o = 0; o < k; o++) {
        const double *olo = o_lo + o * d, *ohi = o_hi + o * d;
        for (int64_t j = 0; j < d; j++)
            mean[j] = (olo[j] + ohi[j]) / 2.0;
        int64_t eligible = 0;
        for (int64_t r = 0; r < n; r++) {
            if (ids[r] == oids[o])
                continue;
            const double *c = centres + r * d;
            for (int64_t j = 0; j < d; j++) {
                /* mindist's gap max(c - p, p - c, 0) to a point. */
                double gap = fabs(c[j] - mean[j]);
                prod[j] = gap * gap;
            }
            ranked[eligible].dist = einsum_sum(prod, d);
            ranked[eligible].row = r;
            eligible++;
        }
        int64_t examined = limit < eligible ? limit : eligible;
        partial_sort(ranked, eligible, examined);

        int64_t taken = 0;
        if (kpartition == 0) {
            for (int64_t i = 0; i < examined; i++)
                out[taken++] = ranked[i].row;
        } else {
            int64_t unfilled = (int64_t)quadrants;
            for (size_t q = 0; q < quadrants; q++)
                members[q] = 0;
            for (int64_t i = 0; i < examined && unfilled > 0; i++) {
                int64_t r = ranked[i].row;
                const double *lo = los + r * d, *hi = his + r * d;
                int overlaps = 1;
                for (int64_t j = 0; j < d && overlaps; j++)
                    overlaps = lo[j] <= ohi[j] && olo[j] <= hi[j];
                if (overlaps)
                    continue;  /* Lemma 2: dom(cand, o) is empty */
                /* Quadrant bit j set: x_j >= mean_j.  A region without
                 * a low side in dimension j needs bit j set, one
                 * without a high side needs it clear. */
                uint64_t need_set = 0, need_clear = 0;
                for (int64_t j = 0; j < d; j++) {
                    if (!(lo[j] < mean[j]))
                        need_set |= (uint64_t)1 << j;
                    if (!(hi[j] >= mean[j]))
                        need_clear |= (uint64_t)1 << j;
                }
                for (size_t q = 0; q < quadrants; q++)
                    if ((q & need_set) == need_set && !(q & need_clear)
                        && ++members[q] == kpartition)
                        unfilled--;
                out[taken++] = r;
            }
        }
        counts[o] = taken;
        out += taken;
    }
    free(ranked);
    free(buf);
    free(members);
    return 0;
}
