/* The package's compiled kernels, one shared library (see _kernel.py).
 *
 * Every function repeats a Python or numpy computation with the same
 * IEEE double operations in the same order.  Built with -O2
 * -ffp-contract=off (no fused multiply-add, no fast-math), each result
 * therefore equals its oracle bit for bit.
 *
 * slotfluid_fold: the slot-fluid fold of slotfluid.fold_slots.
 * Statement for statement the Python loop: total += a, backlog += a - c,
 * then the > q / < 0 clamps, then the peak update.
 *
 * state is (backlog, lost, peak, total), read on entry and written on
 * return; loss, when not NULL, receives overflow[t] on overflow slots
 * and is left untouched elsewhere; trail, when not NULL, receives the
 * post-clamp backlog of every slot.  The caller checks that each holds
 * at least n doubles.
 *
 * slotfluid_fold_rows: slotfluid_fold on every row of a C-contiguous
 * (rows, n) matrix, row r with its own capacity c[r], buffer q[r] and
 * state[4r .. 4r + 3], no series.  One call serves a whole fleet epoch.
 */
#include <stddef.h>
#include <stdint.h>

void slotfluid_fold(const double *a, ptrdiff_t n, double c, double q,
                    double *state, double *loss, double *trail)
{
    double backlog = state[0], lost = state[1], peak = state[2], total = state[3];
    for (ptrdiff_t t = 0; t < n; t++) {
        double arrival = a[t];
        total += arrival;
        backlog += arrival - c;
        if (backlog > q) {
            double overflow = backlog - q;
            lost += overflow;
            if (loss)
                loss[t] = overflow;
            backlog = q;
        } else if (backlog < 0.0) {
            backlog = 0.0;
        }
        if (backlog > peak)
            peak = backlog;
        if (trail)
            trail[t] = backlog;
    }
    state[0] = backlog;
    state[1] = lost;
    state[2] = peak;
    state[3] = total;
}

void slotfluid_fold_rows(const double *a, ptrdiff_t rows, ptrdiff_t n,
                         const double *c, const double *q, double *state)
{
    for (ptrdiff_t r = 0; r < rows; r++)
        slotfluid_fold(a + r * n, n, c[r], q[r], state + 4 * r, NULL, NULL);
}

/* The largest backlog of the infinite-buffer queue: the numpy expression
 * max(S - minimum(minimum.accumulate(S), 0), initial=0) with
 * S = cumsum(a - c), in one pass.  s starts at a[0] - c, as cumsum's
 * first element does, and each step is the same single IEEE add, so
 * every partial sum, running minimum and difference equals numpy's bit
 * for bit.  A NaN difference (only an overflowing walk makes one) is
 * returned at once: numpy's max propagates it too.
 */
double slotfluid_drawdown(const double *a, ptrdiff_t n, double c)
{
    double best = 0.0;
    if (n <= 0)
        return best;
    double s = a[0] - c, m = s;
    for (ptrdiff_t t = 1;; t++) {
        double d = s - (m < 0.0 ? m : 0.0);
        if (d != d)
            return d;
        best = d > best ? d : best;
        if (t == n)
            break;
        s += a[t] - c;
        m = s < m ? s : m;
    }
    return best;
}

/* np.interp(u, xp, fp) for a table of n >= 2 nodes, as numpy's
 * arr_interp computes it: the same index, the same branches, the same
 * slope expression.  slope[i] is (fp[i+1] - fp[i]) / (xp[i+1] - xp[i]),
 * computed by the caller with numpy once per table.
 *
 * Each value first passes through the `clamps` (lo, hi) pairs of
 * clamp[] in order, each as np.clip(v, lo, hi) computes it for a
 * non-NaN v and bounds: v > lo ? v : lo, then v < hi ? v : hi (maxsd
 * and minsd).  A NaN v skips them: np.clip keeps it, as np.interp does.
 *
 * numpy finds j, the last index with xp[j] <= v, by a binary search
 * whose branches follow the data and miss the cache on every sample.
 * Here the table's range is cut into `buckets` equal buckets, value v
 * falling in bucket b = floor((v - xp[0]) * scale) (clamped to
 * [0, buckets - 1]), and first[b] is the last j with xp[j] <= bucket b's
 * left edge.  [first[b], first[b + 1] + 1) is only a hint: it is
 * searched when it is inside the table, xp[lo] <= v and (hi == n or
 * xp[hi] > v), which puts j inside it; otherwise the whole table is.
 * For non-decreasing xp that j is unique, so whatever first[] and
 * scale hold, the j found, and so every byte, is numpy's.  The search
 * is branchless: base[0] <= v holds throughout and j stays in
 * [base, base + len), so each step is one compare and one conditional
 * move.
 */
void table_interp(const double *u, ptrdiff_t count, const double *xp,
                  const double *fp, const double *slope, ptrdiff_t n,
                  const int32_t *first, ptrdiff_t buckets, double scale,
                  const double *clamp, ptrdiff_t clamps, double *out)
{
    for (ptrdiff_t i = 0; i < count; i++) {
        double v = u[i];
        if (v != v) {
            /* np.clip and np.interp both return a NaN as it is */
            out[i] = v;
            continue;
        }
        for (ptrdiff_t k = 0; k < clamps; k++) {
            v = v > clamp[2 * k] ? v : clamp[2 * k];
            v = v < clamp[2 * k + 1] ? v : clamp[2 * k + 1];
        }
        if (v > xp[n - 1]) {
            out[i] = fp[n - 1];
            continue;
        }
        if (v < xp[0]) {
            out[i] = fp[0];
            continue;
        }
        /* No NaN or out-of-range double reaches the integer cast. */
        double t = (v - xp[0]) * scale;
        ptrdiff_t b = t >= 0.0 ? (t < (double)buckets ? (ptrdiff_t)t : buckets - 1) : 0;
        ptrdiff_t lo = first[b], hi = (ptrdiff_t)first[b + 1] + 1;
        if (!(0 <= lo && lo < hi && hi <= n && xp[lo] <= v && (hi == n || xp[hi] > v))) {
            lo = 0;
            hi = n;
        }
        const double *base = xp + lo;
        for (ptrdiff_t len = hi - lo; len > 1;) {
            ptrdiff_t half = len >> 1;
            base = base[half] <= v ? base + half : base;
            len -= half;
        }
        ptrdiff_t j = base - xp;
        if (j == n - 1 || xp[j] == v) {
            out[i] = fp[j];
            continue;
        }
        double r = slope[j] * (v - xp[j]) + fp[j];
        if (r != r) {
            /* numpy's retry from the right-hand node */
            r = slope[j] * (v - xp[j + 1]) + fp[j + 1];
            if (r != r && fp[j] == fp[j + 1])
                r = fp[j];
        }
        out[i] = r;
    }
}

/* a.reshape(rows, m).sum(axis=1) for a C-contiguous a and m <= 128,
 * numpy's pairwise-sum block: numpy adds a row of fewer than 8 values
 * in order from -0.0, and a longer one in eight interleaved
 * accumulators (pairwise_sum in its add loop).  Its reduction then adds
 * that to its starting 0.0, which turns a -0.0 sum into 0.0.
 */
void row_sums(const double *a, ptrdiff_t rows, ptrdiff_t m, double *out)
{
    for (ptrdiff_t r = 0; r < rows; r++, a += m) {
        double res = -0.0;
        ptrdiff_t i = 0;
        if (m >= 8) {
            double acc[8];
            for (int k = 0; k < 8; k++)
                acc[k] = a[k];
            for (i = 8; i < m - (m % 8); i += 8)
                for (int k = 0; k < 8; k++)
                    acc[k] += a[i + k];
            res = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                  ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        }
        for (; i < m; i++)
            res += a[i];
        out[r] = 0.0 + res;
    }
}
