/* The Step-2 log walk (the discrete-pdf qualification probabilities of
 * Cheng et al.) for many query rows over one candidate set.
 *
 * One call evaluates b query rows.  Candidate j's instances are rows
 * starts[j] .. starts[j] + lengths[j] of the instance store's packed
 * (N, d) matrix and (N,) weights, read in place: no padded block.  Per
 * row it does what repro.engine.batch._log_products does in numpy:
 *
 *   1. distances, with the squared differences summed in the order of
 *      numpy's einsum (einsum_sum, shared with se_kernel.c), so they
 *      are bit for bit the numpy path's;
 *   2. one stable sort of all M = sum(lengths) distances (a counting
 *      sort into M buckets, then each bucket sorted in place);
 *   3. a tie check: equal distances on different candidates need the
 *      half-weight tie convention, which this walk cannot split, so
 *      the row is flagged in tied[] and left unwritten;
 *   4. the walk: a running weight per candidate gives its survival
 *      max(1 - c, 0); the running sum T of the log survivals (with a
 *      counter Z of candidates at exact zero instead of -inf) gives
 *      every element the product over the other candidates,
 *      exp(T - own log), which is zero while any other is dead;
 *   5. P[col] += w * product in sorted order, then a clamp to [0, 1].
 *
 * log and exp come from libm, which may round a result differently
 * from numpy's vectorised ones: answers agree with the numpy path to
 * about 1e-16, not bit for bit.  Rows are independent, so a row's
 * answer does not depend on the other rows of its call.
 *
 * Scratch memory is allocated per call (two threads may call at once);
 * the call returns 1 when an allocation fails, 0 otherwise.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "../core/einsum_sum.h"

/* Below this many entries a bucket is sorted by insertion. */
#define SMALL_RUN 16

static void insertion_sort(int64_t *idx, int64_t len, const double *key)
{
    for (int64_t i = 1; i < len; i++) {
        int64_t x = idx[i];
        double v = key[x];
        int64_t j = i;
        while (j > 0 && key[idx[j - 1]] > v) {
            idx[j] = idx[j - 1];
            j--;
        }
        idx[j] = x;
    }
}

/* Stable sort of idx[0..len) by key: insertion-sorted runs of
 * SMALL_RUN, then bottom-up merges through tmp. */
static void merge_sort(int64_t *idx, int64_t len, const double *key,
                       int64_t *tmp)
{
    for (int64_t lo = 0; lo < len; lo += SMALL_RUN)
        insertion_sort(idx + lo, len - lo < SMALL_RUN ? len - lo : SMALL_RUN,
                       key);
    int64_t *src = idx, *dst = tmp;
    for (int64_t width = SMALL_RUN; width < len; width *= 2) {
        for (int64_t lo = 0; lo < len; lo += 2 * width) {
            int64_t mid = lo + width < len ? lo + width : len;
            int64_t hi = lo + 2 * width < len ? lo + 2 * width : len;
            int64_t a = lo, b = mid, o = lo;
            while (a < mid && b < hi)
                dst[o++] = key[src[b]] < key[src[a]] ? src[b++] : src[a++];
            while (a < mid)
                dst[o++] = src[a++];
            while (b < hi)
                dst[o++] = src[b++];
        }
        int64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != idx)
        memcpy(idx, src, (size_t)len * sizeof *idx);
}

/* Stable order of the M distances of one row; equal distances keep
 * their input order (candidate by candidate, instance by instance). */
static void sort_row(const double *dist, int64_t M, int64_t *order,
                     int64_t *bucket, int64_t *count, int64_t *tmp)
{
    double lo = dist[0], hi = dist[0];
    for (int64_t e = 1; e < M; e++) {
        lo = dist[e] < lo ? dist[e] : lo;
        hi = dist[e] > hi ? dist[e] : hi;
    }
    if (!(hi > lo)) {
        for (int64_t e = 0; e < M; e++)
            order[e] = e;
        return;
    }
    /* (x - lo) / (hi - lo) * (M - 1) never decreases as x grows, so the
     * buckets come in distance order; the last one is exactly M - 1. */
    double span = hi - lo, top = (double)(M - 1);
    memset(count, 0, (size_t)(M + 1) * sizeof *count);
    for (int64_t e = 0; e < M; e++) {
        bucket[e] = (int64_t)((dist[e] - lo) / span * top);
        count[bucket[e] + 1]++;
    }
    for (int64_t k = 0; k < M; k++)
        count[k + 1] += count[k];
    for (int64_t e = 0; e < M; e++)
        order[count[bucket[e]]++] = e;
    /* count[k] is now the end of bucket k (and the start of k + 1). */
    int64_t start = 0;
    for (int64_t k = 0; k < M; k++) {
        int64_t len = count[k] - start;
        if (len > SMALL_RUN)
            merge_sort(order + start, len, dist, tmp);
        else if (len > 1)
            insertion_sort(order + start, len, dist);
        start = count[k];
    }
}

int step2_walk(int64_t b, int64_t n, int64_t d,
               const double *inst, const double *wts,
               const int64_t *starts, const int64_t *lengths,
               const double *queries, const int64_t *column, int64_t n_out,
               double *P, uint8_t *tied)
{
    int64_t M = 0;
    for (int64_t j = 0; j < n; j++)
        M += lengths[j];
    if (M == 0) {  /* nothing to walk: every row goes to numpy */
        memset(tied, 1, (size_t)b);
        return 0;
    }
    /* Per element: distance, weight, candidate, packed row, sort index,
     * bucket and merge scratch; count needs M + 1; per candidate: the
     * running weight, the last log survival and the dead flag. */
    double *fbuf = malloc(((size_t)2 * M + 2 * n + d) * sizeof(double));
    int64_t *ibuf = malloc(((size_t)6 * M + 1) * sizeof(int64_t));
    uint8_t *dead = malloc((size_t)n);
    if (fbuf == NULL || ibuf == NULL || dead == NULL) {
        free(fbuf);
        free(ibuf);
        free(dead);
        return 1;
    }
    double *dist = fbuf, *w = dist + M, *cum = w + M, *prev = cum + n;
    double *sq = prev + n;
    int64_t *lab = ibuf, *src = lab + M, *order = src + M;
    int64_t *bucket = order + M, *tmp = bucket + M, *count = tmp + M;

    for (int64_t j = 0, e = 0; j < n; j++)
        for (int64_t k = 0; k < lengths[j]; k++, e++) {
            lab[e] = j;
            src[e] = starts[j] + k;
            w[e] = wts[starts[j] + k];
        }

    for (int64_t r = 0; r < b; r++) {
        const double *q = queries + r * d;
        int finite = 1;
        for (int64_t e = 0; e < M; e++) {
            const double *x = inst + src[e] * d;
            for (int64_t t = 0; t < d; t++) {
                double diff = x[t] - q[t];
                sq[t] = diff * diff;
            }
            dist[e] = sqrt(einsum_sum(sq, d));
            finite &= isfinite(dist[e]) != 0;
        }
        /* Non-finite distances cannot be bucketed: the numpy path
         * takes the row, like a tied one. */
        tied[r] = !finite;
        if (tied[r])
            continue;
        sort_row(dist, M, order, bucket, count, tmp);
        for (int64_t s = 1; s < M && !tied[r]; s++)
            tied[r] = dist[order[s]] == dist[order[s - 1]]
                      && lab[order[s]] != lab[order[s - 1]];
        if (tied[r])
            continue;

        double *row = P + r * n_out;
        for (int64_t i = 0; i < n_out; i++)
            row[i] = 0.0;
        for (int64_t j = 0; j < n; j++) {
            cum[j] = 0.0;
            prev[j] = 0.0;
            dead[j] = 0;
        }
        double T = 0.0;
        int64_t Z = 0;
        for (int64_t s = 0; s < M; s++) {
            int64_t e = order[s], j = lab[e];
            cum[j] += w[e];
            double surv = 1.0 - cum[j];
            surv = surv > 0.0 ? surv : 0.0;
            uint8_t now_dead = !(surv > 0.0);
            double lg = now_dead ? 0.0 : log(surv);
            T += lg - prev[j];
            prev[j] = lg;
            Z += now_dead != dead[j];
            dead[j] = now_dead;
            if (column[j] >= 0)
                row[column[j]] += w[e] * (Z > now_dead ? 0.0 : exp(T - lg));
        }
        for (int64_t i = 0; i < n_out; i++) {
            double v = row[i] < 0.0 ? 0.0 : row[i];
            row[i] = v > 1.0 ? 1.0 : v;
        }
    }
    free(fbuf);
    free(ibuf);
    free(dead);
    return 0;
}
