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
 */
#include <stddef.h>

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
 * numpy finds j, the last index with xp[j] <= v, by a binary search
 * whose branches follow the data; on random input it mispredicts about
 * every other step.  This search finds the same j without a branch:
 * base[0] <= v holds throughout and the answer stays in
 * [base, base + len), so each step is one compare and one conditional
 * move.
 */
void table_interp(const double *u, ptrdiff_t count, const double *xp,
                  const double *fp, const double *slope, ptrdiff_t n,
                  double *out)
{
    for (ptrdiff_t i = 0; i < count; i++) {
        double v = u[i];
        if (v != v) {
            out[i] = v;
            continue;
        }
        if (v > xp[n - 1]) {
            out[i] = fp[n - 1];
            continue;
        }
        if (v < xp[0]) {
            out[i] = fp[0];
            continue;
        }
        const double *base = xp;
        for (ptrdiff_t len = n; len > 1;) {
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
