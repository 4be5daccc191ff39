/* The slot-fluid fold of slotfluid.fold_slots, compiled.
 *
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
