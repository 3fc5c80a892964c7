/* The Monte Carlo lane kernel: one lane group through one block of steps.
 *
 * hl_lane_block runs, for each lane, the variance recursion of a scheme,
 * the Euler log-price recursion and the fold of each summation tile into
 * the running path sums; lanes go four at a time, their variance steps
 * interleaved.  Its noise is either drawn here, a tile at a time, from each
 * lane's pair of numpy bit generators, or read from given (steps,) rows of
 * eta and zeta.
 * It gives the bits of the numpy pipeline of hestonlab (draw_normals, then
 * simulate's step loop and price_block, then estimate.PathSums.fold a tile
 * at a time), so every operation below is the IEEE operation numpy
 * performs there, in the same order:
 *
 *   - a normal is numpy's random_standard_normal, the ziggurat that
 *     Generator.standard_normal runs, linked from numpy's libnpyrandom.a;
 *     a generator gives the same sequence whether it is drawn in blocks or
 *     in tiles;
 *   - each formula is evaluated left to right as the simulate module
 *     docstring writes it, with the constants that Python forms
 *     (hestonlab.kernel passes them in);
 *   - max(y, 0) is numpy's maximum: +0.0 for y = -0.0 and a NaN kept;
 *   - a tile sum is numpy's float64 add reduction of a row, 0.0 plus the
 *     pairwise sum of pairwise_sum below;
 *   - the price is a running sum from the lane's last price, as cumsum.
 *
 * Build with contraction of a*b + c into a fused multiply-add switched off
 * (-ffp-contract=off) and without -ffast-math, or the bits move.
 *
 * A DESRE lane whose Z falls to zero or below aborts: its step within the
 * block, from 1, goes to aborted[lane], it neither draws, nor is priced or
 * folded, for the rest of the block, and its state, sums and generators are
 * left unfinished, since the caller drops it.
 * Overflow runs on as inf or NaN, as in numpy.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

#include <numpy/random/bitgen.h>

/* numpy/random/distributions.h declares it too, but includes Python.h;
   hidden, so that the calls bind to the archive's copy linked in here */
__attribute__((visibility("hidden"))) double random_standard_normal(bitgen_t *bitgen_state);

/* doubles must be evaluated in double precision, as numpy's are (not in
   the x87's extended precision); elsewhere the build fails and Python falls
   back to numpy */
#if FLT_EVAL_METHOD != 0
#error "the lane kernel needs FLT_EVAL_METHOD == 0"
#endif

/* the scheme codes hestonlab.kernel passes */
enum { AVE, TE, SE, DESRE, DISRE };

/* the longest summation tile: numpy's pairwise block, which the tile sums
   below follow without their recursive split */
#define TILE_CAP 128

/* numpy's pairwise_sum_DOUBLE for n <= 128: a plain loop below 8 elements,
   else 8 accumulators, combined as a tree, then the remainder */
static double pairwise_sum(const double *a, int64_t n)
{
    int64_t i, j;
    double res, r[8];
    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    for (j = 0; j < 8; j++)
        r[j] = a[j];
    for (i = 8; i < n - (n % 8); i += 8)
        for (j = 0; j < 8; j++)
            r[j] += a[i + j];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* a row sum as numpy's add.reduce gives it: the identity, then the row */
static double row_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* np.maximum(y, 0.0) */
static double max0(double y)
{
    return (y > 0.0 || y != y) ? y : 0.0;
}

/* Lanes whose variance steps are interleaved: the recursion of one lane is
   a chain of dependent divisions and square roots, whose latency the chains
   of the other lanes fill */
#define GROUP 4

/* The scheme constants k[]:
 *   AVE, TE, SE: a, b, dt, sigma1, sqrt(dt)
 *   DESRE:       level = 0.5*a - 0.125*sigma1**2, 0.5*b, dt, 0.5*sigma1*sqrt(dt)
 *   DISRE:       den = 2 + b*dt, lift = (a - 0.25*sigma1**2)*dt/den,
 *                0.5*sigma1*sqrt(dt)
 * The price constants p[]: rho, sqrt(1 - rho*rho), alpha, beta, dt, sigma2,
 * sqrt(dt).
 *
 * Variance steps of GROUP lanes from their states s[] (Y, or Z for DESRE
 * and DISRE) over eta[][0..n-1] into the points y[][1..n].  A DESRE lane
 * whose Z is <= 0 at step i of the tile gets hit[] = first + i + 1 unless
 * it has a hit already; its later points are not used. */
static void variance_steps(int scheme, const double *k, double *s, const double *const *eta,
                           int64_t n, double (*y)[TILE_CAP + 1], int64_t first, int64_t *hit)
{
    int64_t i;
    int j;
    double z[GROUP];
    for (j = 0; j < GROUP; j++)
        z[j] = s[j];
    switch (scheme) {
    case DESRE:
        for (i = 0; i < n; i++)
            for (j = 0; j < GROUP; j++) {
                double noise = k[3] * eta[j][i];
                z[j] = (z[j] + (k[0] / z[j] - k[1] * z[j]) * k[2]) + noise;
                if (z[j] <= 0.0 && !hit[j])
                    hit[j] = first + i + 1;
                y[j][i + 1] = z[j] * z[j];
            }
        break;
    case DISRE:
        for (i = 0; i < n; i++)
            for (j = 0; j < GROUP; j++) {
                double noise = k[2] * eta[j][i];
                double u = (z[j] + noise) / k[0];
                z[j] = u + sqrt(u * u + k[1]);
                y[j][i + 1] = z[j] * z[j];
            }
        break;
    default:
        for (i = 0; i < n; i++)
            for (j = 0; j < GROUP; j++) {
                double v = z[j];
                double g = scheme == AVE ? fabs(v) : scheme == TE ? max0(v) : v;
                double step = (v + (k[0] - k[1] * v) * k[2]) + ((k[3] * sqrt(g)) * k[4]) * eta[j][i];
                z[j] = scheme == SE ? fabs(step) : step;
                y[j][i + 1] = z[j];
            }
    }
    for (j = 0; j < GROUP; j++)
        s[j] = z[j];
}

/* Euler log-price points x[1..n] from x[0] over the variance points y[0..n-1] */
static void price_steps(const double *p, const double *y, const double *eta,
                        const double *zeta, int64_t n, double *x)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        double mix = p[0] * eta[i] + p[1] * zeta[i];
        double inc = (p[2] - p[3] * y[i]) * p[4] + ((p[5] * sqrt(max0(y[i]))) * p[6]) * mix;
        x[i + 1] = x[i] + inc;
    }
}

/* PathSums.fold of one tile of n steps (points y[0..n], x[0..n]) after
 * `done` folded steps: the six running sums s[0..5] (stride `lanes`), and
 * the (mean, m2) of the deviations from y_start, merged by Chan, Golub
 * and LeVeque's update */
static void fold_tile(const double *y, const double *x, int64_t n, int64_t done,
                      double y_start, double *s, int64_t lanes, double *mean, double *m2)
{
    double terms[7][TILE_CAP];
    double tile[6], t_mean, t_m2, delta, w_mean, w_m2;
    int64_t i, j, merged = done + n;
    for (i = 0; i < n; i++) {
        double yl = y[i], y2 = yl * yl, dy = y[i + 1] - y[i], dx = x[i + 1] - x[i];
        terms[0][i] = yl;
        terms[1][i] = y2;
        terms[2][i] = y2 * yl;
        terms[3][i] = yl * dy;
        terms[4][i] = yl * dx;
        terms[5][i] = dy * dy;
        terms[6][i] = yl - y_start;
    }
    for (j = 0; j < 6; j++)
        tile[j] = row_sum(terms[j], n);
    t_mean = row_sum(terms[6], n) / (double)n;
    for (i = 0; i < n; i++) {
        double c = terms[6][i] - t_mean;
        terms[6][i] = c * c;
    }
    t_m2 = row_sum(terms[6], n);
    for (j = 0; j < 6; j++)
        s[j * lanes] = s[j * lanes] + tile[j];
    w_mean = (double)n / (double)merged;
    w_m2 = (double)((merged - n) * n) / (double)merged;
    delta = t_mean - *mean;
    *mean = *mean + delta * w_mean;
    *m2 = (*m2 + t_m2) + delta * delta * w_m2;
}

/* the next n normals of a generator */
static void draw(bitgen_t *gen, double *out, int64_t n)
{
    int64_t i;
    for (i = 0; i < n; i++)
        out[i] = random_standard_normal(gen);
}

/* Advance `lanes` lanes through one block of `steps` steps, `done` steps
 * into their paths.  The noise comes from gens, (lanes, 2) row-major, each
 * lane's eta and zeta bit generators: for each tile, each live lane draws
 * its tile's eta normals, then its zeta normals.  Where gens is NULL it is
 * read from eta and zeta, (lanes, steps), row-major.  state, y_start,
 * y_end, x_end, mean, m2 and aborted are (lanes,), and sums is (6, lanes),
 * row-major: PathSums's arrays, updated in place.  Tiles are `tile` steps,
 * counted from the block's start; every tile but the last must be whole,
 * so `done` is a multiple of `tile`.  Lanes go GROUP at a time, a last
 * short group padded with copies of its first lane, which never draw and
 * whose results are dropped.  Returns 0, or -1 for a tile outside
 * [1, 128], where nothing is done. */
int64_t hl_lane_block(int64_t scheme, const double *k, const double *p, int64_t lanes,
                      int64_t steps, int64_t tile, int64_t done, bitgen_t *const *gens,
                      const double *eta, const double *zeta, double *state,
                      const double *y_start, double *y_end, double *x_end, double *sums,
                      double *mean, double *m2, int64_t *aborted)
{
    int64_t g0, t0;
    int j;
    if (tile < 1 || tile > TILE_CAP)
        return -1;
    for (g0 = 0; g0 < lanes; g0 += GROUP) {
        int real = lanes - g0 < GROUP ? (int)(lanes - g0) : GROUP, live = real;
        const double *eta_t[GROUP], *zeta_t[GROUP];
        double drawn[2][GROUP][TILE_CAP];
        double y[GROUP][TILE_CAP + 1], x[GROUP][TILE_CAP + 1], s[GROUP];
        int64_t hit[GROUP];
        for (j = 0; j < GROUP; j++) {
            int64_t lane = g0 + (j < real ? j : 0);
            s[j] = state[lane];
            y[j][0] = y_end[lane];
            x[j][0] = x_end[lane];
            hit[j] = 0;
            if (j < real)
                aborted[lane] = 0;
        }
        for (t0 = 0; t0 < steps && live; t0 += tile) {
            int64_t n = steps - t0 < tile ? steps - t0 : tile;
            for (j = 0; j < GROUP; j++) {
                int first = j < real ? j : 0;
                int64_t lane = g0 + first;
                if (gens == NULL) {
                    eta_t[j] = eta + lane * steps + t0;
                    zeta_t[j] = zeta + lane * steps + t0;
                    continue;
                }
                if (j < real && !hit[j]) {
                    draw(gens[2 * lane], drawn[0][j], n);
                    draw(gens[2 * lane + 1], drawn[1][j], n);
                }
                eta_t[j] = drawn[0][first];
                zeta_t[j] = drawn[1][first];
            }
            variance_steps((int)scheme, k, s, eta_t, n, y, t0, hit);
            for (j = 0; j < real; j++) {
                int64_t lane = g0 + j;
                if (hit[j]) {
                    if (!aborted[lane]) {
                        aborted[lane] = hit[j];
                        live--;
                    }
                    continue;
                }
                price_steps(p, y[j], eta_t[j], zeta_t[j], n, x[j]);
                fold_tile(y[j], x[j], n, done + t0, y_start[lane], sums + lane, lanes,
                          mean + lane, m2 + lane);
                y[j][0] = y[j][n];
                x[j][0] = x[j][n];
            }
        }
        for (j = 0; j < real; j++) {
            int64_t lane = g0 + j;
            if (hit[j])
                continue;
            state[lane] = s[j];
            y_end[lane] = y[j][0];
            x_end[lane] = x[j][0];
        }
    }
    return 0;
}
