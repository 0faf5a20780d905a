/* numpy's float64 einsum inner product, shared by the compiled loops.
 *
 * cset_kernel.c uses it for centre distances, se_kernel.c for witness
 * distances and step2_kernel.c for query-instance distances, so all
 * three round exactly like the numpy code they replace.
 */

#ifndef REPRO_EINSUM_SUM_H
#define REPRO_EINSUM_SUM_H

#include <stdint.h>

/* Sum of the products p[0..d), in the order numpy's float64 einsum
 * contracts a contiguous axis: two lanes, blocks of eight taken from
 * the back, then pairs. */
static double einsum_sum(const double *p, int64_t d)
{
    double acc0 = 0.0, acc1 = 0.0;
    int64_t i = 0;
    for (; d - i >= 8; i += 8) {
        acc0 = p[i] + (p[i + 2] + (p[i + 4] + (p[i + 6] + acc0)));
        acc1 = p[i + 1] + (p[i + 3] + (p[i + 5] + (p[i + 7] + acc1)));
    }
    for (; i < d; i += 2) {
        acc0 = p[i] + acc0;
        acc1 = (i + 1 < d ? p[i + 1] : 0.0) + acc1;
    }
    return 0.0 + (acc0 + acc1);
}

#endif
