/* The step loop of polyak._Kernel.run, compiled.
 *
 * pk_run takes a whole list of draws from one struct that holds the run's
 * data, loss, step settings and state, and it does what the Python loop
 * does, bit for bit: the lazy scale step w = s*v (plain C loops over the
 * row's entries) on data with a sparse row, the plain O(d) step on full
 * rows and with beta > 0, the aggregate step, the spsmax cap, the
 * zero-gradient rule and the step-size schedules. The Python loop is the
 * reference, so this file keeps its order of operations line for line:
 *
 *   - it is built with -ffp-contract=off, so no a*b + c becomes an FMA;
 *   - every dot product is ndarray.dot's: numpy's own OpenBLAS ddot,
 *     passed in as a function pointer, added to 0.0 as numpy's DOUBLE_dot
 *     does, and x[0]*y[0] alone for length 1, where numpy takes its
 *     scalar product path;
 *   - phi calls glibc's exp, log1p and pow, as Python's math module and
 *     float power do.
 *
 * A non-finite value returns one of the PK_ERR codes with the sample in
 * k->index and the state written back to k, as the Python loop leaves it
 * when it raises NumericError. */

#include <math.h>
#include <stdint.h>

#define SCALE_MIN 1e-100 /* the lazy scale folds into v once it leaves */
#define SCALE_MAX 1e100  /* [SCALE_MIN, SCALE_MAX] */
#define ZERO_GRAD_SQNORM 1e-30

typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *, int64_t);

enum { FAMILY_LOGISTIC, FAMILY_SQUARED, FAMILY_MONOMIAL };
enum { METHOD_SP, METHOD_TAPS, METHOD_MOTAPS, METHOD_SGD };
enum { SCHEDULE_CONSTANT, SCHEDULE_DECREASING, SCHEDULE_PAPER_LITERAL, SCHEDULE_INVERSE };
enum { PK_OK, PK_ERR_AGGREGATE, PK_ERR_LOSS, PK_ERR_GRAD_NORM, PK_ERR_COEFF, PK_ERR_INDEX };

/* Every field is 8 bytes wide, in the order of polyak_opt._native._Args. */
typedef struct {
    ddot_fn ddot;
    const double *xval;    /* X's CSR arrays */
    const int64_t *xind;
    const int64_t *xptr;
    const double *labels;
    const double *sqnorms; /* ||x_i||^2, read by the lazy step */
    const double *fi_stars;
    const double *offsets; /* monomial b_i */
    const double *scales;  /* monomial a_i, or NULL for 1 */
    double *v;             /* the iterate (w = s*v), written in place */
    double *z;             /* beta > 0: the averaged sequence */
    double *g;             /* the plain step's gradient */
    double *buf;           /* the gathered v[idx] of a row */
    double *alpha;         /* the trackers, or NULL */
    int64_t n, d, family, method, lazy, schedule, switch_t;
    double sigma, power, beta, cap, gamma, gamma_tau, tau_coeff, lam, mu, l_max;
    double s, wsq, abar, tau, c; /* scalar state, read and written back */
    int64_t index;               /* the sample of an error */
} pk_kernel;

static double dot(const pk_kernel *k, int64_t m, const double *x, const double *y)
{
    if (m == 1)
        return x[0] * y[0];
    if (m == 0)
        return 0.0;
    return 0.0 + k->ddot(m, x, 1, y, 1);
}

static void phi(const pk_kernel *k, double t, int64_t i, double *val, double *dval)
{
    if (k->family == FAMILY_LOGISTIC) {
        double y = k->labels[i], yt = y * t;
        *val = yt > 0 ? log1p(exp(-yt)) : -yt + log1p(exp(yt));
        *dval = -y * (1.0 / (1.0 + exp(yt))); /* 0 where e^yt overflows */
    } else if (k->family == FAMILY_SQUARED) {
        double r = t - k->labels[i];
        *val = 0.5 * r * r;
        *dval = r;
    } else {
        double ai = k->scales ? k->scales[i] : 1.0;
        double u = t - k->offsets[i], absu = fabs(u);
        if (absu == 0.0) {
            *val = *dval = 0.0;
            return;
        }
        /* pow is inf where Python's power raises OverflowError, which phi
           turns into inf */
        *val = ai * pow(absu, k->power);
        *dval = k->power * ai * pow(absu, k->power - 1.0) * (u > 0 ? 1.0 : -1.0);
    }
}

static void stepsizes(const pk_kernel *k, int64_t t, double *gamma, double *gamma_tau)
{
    if (k->schedule == SCHEDULE_DECREASING) {
        if (t <= k->switch_t) {
            *gamma = 1.0 / ((1.0 - k->lam) * (double)(2 * k->n + 1));
        } else {
            double tp1 = (double)(t + 1);
            *gamma = (tp1 * tp1 - (double)(t * t)) / (k->mu * tp1 * tp1);
        }
        *gamma_tau = *gamma;
    } else { /* the sgd schedules, at the 1-based step t + 1 */
        *gamma = k->schedule == SCHEDULE_PAPER_LITERAL ? k->l_max / (double)(t + 1)
                                                       : 1.0 / (k->l_max * (double)(t + 1));
        *gamma_tau = 0.0;
    }
}

int pk_run(pk_kernel *k, const int64_t *draws, int64_t count, int64_t t)
{
    const int64_t n = k->n, d = k->d;
    const int lazy = (int)k->lazy, sgd = k->method == METHOD_SGD;
    const int tracker = k->method == METHOD_TAPS || k->method == METHOD_MOTAPS;
    const double sigma = k->sigma, beta = k->beta;
    double *const v = k->v, *const z = k->z, *const g = k->g, *const buf = k->buf;
    double *const alpha = k->alpha;
    double gamma = k->gamma, gamma_tau = k->gamma_tau;
    double s = k->s, wsq = k->wsq, abar = k->abar, tau = k->tau, c = 0.0;
    int err = PK_OK;
    int64_t q, j, e;

    for (q = 0; q < count; q++) {
        const int64_t i = draws[q];
        if (k->schedule != SCHEDULE_CONSTANT) {
            stepsizes(k, t, &gamma, &gamma_tau);
            t++;
        }
        if (i < 0 || i > n || (i == n && !tracker)) {
            err = PK_ERR_INDEX;
            k->index = i;
            break;
        }
        if (i == n) {
            double delta = gamma * (tau - abar);
            double new_tau = k->method == METHOD_MOTAPS
                ? (1.0 - gamma_tau) * tau + gamma_tau * k->tau_coeff * abar : tau;
            if (!(isfinite(delta) && isfinite(new_tau))) {
                err = PK_ERR_AGGREGATE;
                k->index = n;
                break;
            }
            for (j = 0; j < n; j++)
                alpha[j] += delta;
            abar += delta;
            tau = new_tau;
            c = 0.0;
            if (beta != 0.0)
                for (j = 0; j < d; j++)
                    v[j] = beta * v[j] + (1.0 - beta) * z[j];
            continue;
        }

        const int64_t start = k->xptr[i], nnz = k->xptr[i + 1] - start;
        const double *x = k->xval + start;
        const int64_t *idx = k->xind + start;
        double fi, dval, gsq, m = 0.0, xsq = 0.0, ai = 0.0;
        if (lazy) {
            for (e = 0; e < nnz; e++)
                buf[e] = v[idx[e]];
            m = s * dot(k, nnz, x, buf);
            phi(k, m, i, &fi, &dval);
            xsq = k->sqnorms[i];
            fi += 0.5 * sigma * wsq;
            gsq = dval * dval * xsq + 2.0 * sigma * dval * m + sigma * sigma * wsq;
            if (gsq < 0.0)
                gsq = 0.0;
        } else {
            const int full = nnz == d; /* a full row's indices are 0 .. d-1 */
            if (!full)
                for (e = 0; e < nnz; e++)
                    buf[e] = v[idx[e]];
            phi(k, dot(k, nnz, x, full ? v : buf), i, &fi, &dval);
            if (full) {
                for (j = 0; j < d; j++)
                    g[j] = dval * x[j];
            } else {
                for (j = 0; j < d; j++)
                    g[j] = 0.0;
                for (e = 0; e < nnz; e++)
                    g[idx[e]] = dval * x[e];
            }
            if (sigma != 0.0) {
                fi += 0.5 * sigma * dot(k, d, v, v);
                for (j = 0; j < d; j++)
                    g[j] += sigma * v[j];
            }
            gsq = sgd ? 0.0 : dot(k, d, g, g);
        }
        if (!(isfinite(fi) && isfinite(dval))) {
            err = PK_ERR_LOSS;
            k->index = i;
            break;
        }
        if (sgd) {
            c = 1.0;
        } else if (!isfinite(gsq)) {
            err = PK_ERR_GRAD_NORM;
            k->index = i;
            break;
        } else if (tracker) {
            ai = alpha[i];
            c = (fi - ai) / (gsq + 1.0);
        } else if (gsq <= ZERO_GRAD_SQNORM) {
            c = 0.0;
        } else {
            c = (fi - k->fi_stars[i]) / gsq;
            if (k->cap < c)
                c = k->cap;
        }
        if (!isfinite(c)) {
            err = PK_ERR_COEFF;
            k->index = i;
            break;
        }
        const double gc = gamma * c;
        if (lazy) { /* w <- a*w - b*x with a = 1 - gc*sigma and b = gc*phi' */
            const double a = 1.0 - gc * sigma, b = gc * dval, s_new = s * a;
            if (SCALE_MIN <= s_new && s_new <= SCALE_MAX) {
                const double r = b / s_new;
                for (e = 0; e < nnz; e++)
                    v[idx[e]] = buf[e] - r * x[e];
                s = s_new;
                wsq = a * a * wsq - 2.0 * a * b * m + b * b * xsq;
                if (wsq < 0.0)
                    wsq = 0.0;
            } else {
                for (j = 0; j < d; j++)
                    v[j] = v[j] * s * a;
                for (e = 0; e < nnz; e++)
                    v[idx[e]] -= b * x[e];
                s = 1.0;
                wsq = dot(k, d, v, v);
            }
        } else if (beta != 0.0) {
            const double r = gc / (1.0 - beta);
            for (j = 0; j < d; j++)
                z[j] -= r * g[j];
            for (j = 0; j < d; j++)
                v[j] = beta * v[j] + (1.0 - beta) * z[j];
        } else {
            for (j = 0; j < d; j++)
                v[j] -= gc * g[j];
        }
        if (tracker) {
            alpha[i] = ai + gc;
            abar += gc / (double)n;
        }
    }
    k->s = s;
    k->wsq = wsq;
    k->abar = abar;
    k->tau = tau;
    k->c = c;
    return err;
}
