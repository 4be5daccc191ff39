/* The slot-fluid fold of slotfluid.fold_slots and the zero-loss drawdown
 * of slotfluid.max_drawdown, compiled.
 *
 * slotfluid_fold:
 * Statement for statement the Python loop: total += a, backlog += a - c,
 * then the > q / < 0 clamps, then the peak update.  Built with -O2
 * -ffp-contract=off (no fused multiply-add, no fast-math) every
 * operation is one IEEE double add, subtract or compare in the same
 * order, so state and loss series equal the Python fold bit for bit.
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
