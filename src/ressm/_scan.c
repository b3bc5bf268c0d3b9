/* The selective SSM's first-order linear recurrence, run in place over
   the C columns of a row-major [T, C] array of float64:
   h_t += d_t h_{t-1}, or with reverse h_t += d_{t+1} h_{t+1}.  Each
   decay d is first multiplied by its 0/1 test d >= floor, so decays
   below the floor are exact zeros and a NaN decay still gives NaN.
   Built with -ffp-contract=off: no multiply and add are fused, so the
   bits are those of the same steps taken in numpy. */
#include <stddef.h>

void linear_scan(const double *decay, double *h, ptrdiff_t T, ptrdiff_t C,
                 int reverse, double floor)
{
    for (ptrdiff_t i = 1; i < T; i++) {
        ptrdiff_t t = reverse ? T - 1 - i : i;    /* the row updated */
        ptrdiff_t from = reverse ? t + 1 : t - 1; /* the row it carries */
        const double *d = decay + (reverse ? from : t) * C;
        const double *prev = h + from * C;
        double *row = h + t * C;
        for (ptrdiff_t c = 0; c < C; c++)
            row[c] += (d[c] * (d[c] >= floor)) * prev[c];
    }
}
