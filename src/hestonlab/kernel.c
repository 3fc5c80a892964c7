/* The lane kernel: one lane group through its whole path, for Monte Carlo
 * runs and for single paths; the fast route of hestonlab's CSV codec; and
 * the standard normal log-distribution function of the normality test.
 *
 * hl_lane_block takes each lane from its start (y0, x0) through the
 * variance recursion of a scheme, the Euler log-price recursion and the
 * fold of each summation tile into the lane's path sums, and on request
 * writes the variance and price points; lanes go four at a time, their
 * variance steps interleaved.  Its noise is either drawn here, a tile at a
 * time, from each lane's pair of PCG64 streams, seeded here from their seed
 * words, or read from given (steps,) rows of eta and zeta.
 * It gives the bits of the numpy pipeline of hestonlab (draw_normals, then
 * simulate's step loop and price_block, then estimate.PathSums.fold a tile
 * at a time, in blocks or in one piece), so every operation below is the
 * IEEE operation numpy performs there, in the same order:
 *
 *   - a stream is numpy's PCG64 (O'Neill's XSL-RR generator on a 128-bit
 *     LCG), held as four 64-bit words, state high and low, then increment
 *     high and low; pcg64_seed turns the words that SeedSequence generates
 *     into a stream as PCG64's pcg64_set_seed does;
 *   - a normal is numpy's random_standard_normal, which
 *     Generator.standard_normal runs: Marsaglia and Tsang's ziggurat on
 *     numpy's 256-layer tables, which hestonlab.kernel reads from numpy's
 *     libnpyrandom.a, with its wedge test against libm's exp and its tail
 *     through libm's log1p; a stream gives the same sequence whether it is
 *     drawn in blocks or in tiles;
 *   - each formula is evaluated left to right as the simulate module
 *     docstring writes it, with the constants that simulate.step_constants
 *     forms (hestonlab.kernel passes them in), and a square-root scheme
 *     starts from sqrt(y0), libm's sqrt, correctly rounded as Python's;
 *   - max(y, 0) is numpy's maximum: +0.0 for y = -0.0 and a NaN kept;
 *   - a tile sum is numpy's float64 add reduction of a row, 0.0 plus the
 *     pairwise sum of pairwise_sum below;
 *   - the price is a running sum from the lane's last price, as cumsum.
 *
 * Build with contraction of a*b + c into a fused multiply-add switched off
 * (-ffp-contract=off) and without -ffast-math, or the bits move.
 *
 * A DESRE lane whose Z falls to zero or below aborts: its step, from 1,
 * goes to aborted[lane], it neither draws, nor is priced or folded, for the
 * rest of the path, and its sums and streams are left unfinished, since the
 * caller drops it.
 * Overflow runs on as inf or NaN, as in numpy.
 *
 * hl_format_rows writes a table's cells as Python's '%.17g' and '%d' do,
 * byte for byte, and hl_parse_rows reads CSV lines of the strict form it
 * writes as float() and int() do; each returns -1 for what it does not
 * take, and hestonlab.simulate's Python codec then takes the whole call.
 * Neither keeps any state between calls.
 *
 * hl_log_ndtr gives log Phi of each of n values with the bits of
 * hestonlab.simulate's Python loop, through libm's erfc, log1p and log,
 * which Python's math module calls too.
 */

#include <float.h>
#include <math.h>
#include <stdio.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* doubles must be evaluated in double precision, as numpy's are (not in
   the x87's extended precision), and PCG64 needs 128-bit integers;
   elsewhere the build fails and Python falls back to numpy */
#if FLT_EVAL_METHOD != 0
#error "the lane kernel needs FLT_EVAL_METHOD == 0"
#endif
#ifndef __SIZEOF_INT128__
#error "the lane kernel needs 128-bit integers"
#endif

/* the scheme codes hestonlab.kernel passes */
enum { AVE, TE, SE, DESRE, DISRE };

/* the summation tile, hestonlab.estimate.SUM_TILE: numpy's pairwise block,
   which the tile sums below follow without their recursive split */
#define TILE 128

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

/* The scheme constants k[] and the price constants p[] are those of
 * simulate.step_constants.
 *
 * Variance steps of GROUP lanes from their states s[] (Y, or Z for DESRE
 * and DISRE) over eta[][0..n-1] into the points y[][1..n].  A DESRE lane
 * whose Z is <= 0 at step i of the tile gets hit[] = first + i + 1 unless
 * it has a hit already; its later points are not used. */
static void variance_steps(int scheme, const double *k, double *s, const double *const *eta,
                           int64_t n, double (*y)[TILE + 1], int64_t first, int64_t *hit)
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
    double terms[7][TILE];
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

/* ---------------------------------------------------------------------------
 * PCG64 and numpy's ziggurat
 */

typedef unsigned __int128 u128;

/* PCG's default 128-bit LCG multiplier */
#define PCG_MULT (((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

struct pcg64 {
    u128 state, inc;
};

static void pcg64_store(const struct pcg64 *g, uint64_t *w)
{
    w[0] = (uint64_t)(g->state >> 64);
    w[1] = (uint64_t)g->state;
    w[2] = (uint64_t)(g->inc >> 64);
    w[3] = (uint64_t)g->inc;
}

/* the next 64-bit word: an LCG step, then the XSL-RR output of the new state */
static inline uint64_t pcg64_next(struct pcg64 *g)
{
    uint64_t hi, v;
    unsigned rot;
    g->state = g->state * PCG_MULT + g->inc;
    hi = (uint64_t)(g->state >> 64);
    v = hi ^ (uint64_t)g->state;
    rot = (unsigned)(hi >> 58);
    return (v >> rot) | (v << ((64 - rot) & 63));
}

/* numpy's next_double: the top 53 bits of a word, times 2**-53 */
static double pcg64_double(struct pcg64 *g)
{
    return (double)(int64_t)(pcg64_next(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* The stream of seed words w[0..3], SeedSequence's generate_state(4,
 * uint64): the seed then the sequence as (high, low) pairs, formed as
 * pcg64_set_seed forms it */
static struct pcg64 pcg64_seed(const uint64_t *w)
{
    struct pcg64 g;
    u128 seed = ((u128)w[0] << 64) | w[1];
    g.state = 0;
    g.inc = ((((u128)w[2] << 64) | w[3]) << 1) | 1;
    pcg64_next(&g);
    g.state += seed;
    pcg64_next(&g);
    return g;
}

/* numpy's ziggurat_nor_r, the tail's start, and its inverse */
#define ZIG_R 3.6541528853610087963519472518
#define ZIG_INV_R 0.27366123732975827203338247596
#define ZIG_MANTISSA 0x000fffffffffffffULL

/* numpy's ki_double, wi_double and fi_double */
struct ziggurat {
    uint64_t ki[256];
    double wi[256], fi[256];
};

/* x with its sign bit flipped where bit is 1: -x, -0.0 included, without a
   branch on a bit that is random */
static inline double flip_sign(double x, uint64_t bit)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    u ^= bit << 63;
    memcpy(&x, &u, sizeof x);
    return x;
}

/* The point that a word r draws: its layer *idx = r & 0xff, its magnitude
 * *rabs, the 52 bits above the sign bit 8, and the point rabs * wi[idx],
 * signed */
static inline double zig_point(uint64_t r, const struct ziggurat *z, int *idx, uint64_t *rabs)
{
    *idx = (int)(r & 0xff);
    *rabs = (r >> 9) & ZIG_MANTISSA;
    return flip_sign((double)(int64_t)*rabs * z->wi[*idx], (r >> 8) & 1);
}

/* The rest of random_standard_normal once a point x of layer idx fell
 * outside its rectangle (rabs >= ki[idx]): the tail beyond ZIG_R for layer
 * 0, else the wedge test, and on a rejection a fresh point.  Rare (about
 * 1.5 normals in a hundred), so kept out of line. */
static __attribute__((noinline)) double normal_rare(struct pcg64 *g, const struct ziggurat *z,
                                                     int idx, uint64_t rabs, double x)
{
    for (;;) {
        if (idx == 0) {
            for (;;) {
                /* 1 - U, not U, so that log never sees 0 */
                double xx = -ZIG_INV_R * log1p(-pcg64_double(g));
                double yy = -log1p(-pcg64_double(g));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(ZIG_R + xx) : ZIG_R + xx;
            }
        }
        if ((z->fi[idx - 1] - z->fi[idx]) * pcg64_double(g) + z->fi[idx] < exp(-0.5 * x * x))
            return x;
        x = zig_point(pcg64_next(g), z, &idx, &rabs);
        if (rabs < z->ki[idx])
            return x;
    }
}

/* the next normal of a stream */
static inline double normal(struct pcg64 *g, const struct ziggurat *z)
{
    uint64_t rabs;
    int idx;
    double x = zig_point(pcg64_next(g), z, &idx, &rabs);
    if (__builtin_expect(rabs < z->ki[idx], 1))
        return x;
    return normal_rare(g, z, idx, rabs, x);
}

/* The next n normals of each of m streams into out[0..m-1][0..n-1], the
 * streams' draws interleaved, so that one stream's chain of 128-bit steps
 * overlaps the others'; each stream's draws keep their own order. */
static void draw_tile(struct pcg64 *g, int m, double *const *out, int64_t n,
                      const struct ziggurat *z)
{
    int64_t i;
    int s;
    for (i = 0; i < n; i++)
        for (s = 0; s < m; s++)
            out[s][i] = normal(&g[s], z);
}

/* Take `lanes` lanes through their whole paths of `steps` steps, each from
 * its start y_end, x_end (Z = sqrt(y_end) for DESRE and DISRE), which the
 * caller sets to y0, x0.  The noise comes from streams, (lanes, 2, 4)
 * row-major, the seed words of each lane's eta and zeta PCG64 streams,
 * which receive the streams' last states: for each tile, each live lane
 * draws its tile's eta normals and its zeta normals, the live streams of a
 * group of lanes interleaved, with the ziggurat tables (3, 256): ki, then
 * wi and fi as the bits of doubles.  Where streams is NULL it is read from
 * eta and zeta, (lanes, steps), row-major.  y_start, y_end, x_end, mean, m2
 * and aborted are (lanes,), and sums is (6, lanes), row-major: the arrays
 * of a fresh PathSums, updated in place.  Tiles are TILE steps, the last
 * one possibly short.  Unless they are NULL, y_out and x_out, (lanes,
 * steps + 1) row-major, receive each lane's variance and price points, its
 * start first, tile by tile while the lane is live.  Lanes go GROUP at a
 * time, a last short group padded with copies of its first lane, which
 * never draw and whose results are dropped. */
void hl_lane_block(int64_t scheme, const double *k, const double *p, int64_t lanes,
                   int64_t steps, uint64_t *streams, const uint64_t *tables, const double *eta,
                   const double *zeta, const double *y_start, double *y_end, double *x_end,
                   double *sums, double *mean, double *m2, int64_t *aborted, double *y_out,
                   double *x_out)
{
    struct ziggurat z;
    int64_t g0, t0;
    int j;
    if (streams != NULL) {
        memcpy(z.ki, tables, sizeof z.ki);
        memcpy(z.wi, tables + 256, sizeof z.wi);
        memcpy(z.fi, tables + 512, sizeof z.fi);
    }
    for (g0 = 0; g0 < lanes; g0 += GROUP) {
        int real = lanes - g0 < GROUP ? (int)(lanes - g0) : GROUP, live = real;
        const double *eta_t[GROUP], *zeta_t[GROUP];
        double drawn[2][GROUP][TILE];
        double y[GROUP][TILE + 1], x[GROUP][TILE + 1], s[GROUP];
        struct pcg64 gen[2 * GROUP];
        int64_t hit[GROUP];
        for (j = 0; j < GROUP; j++) {
            int64_t lane = g0 + (j < real ? j : 0);
            s[j] = scheme == DESRE || scheme == DISRE ? sqrt(y_end[lane]) : y_end[lane];
            y[j][0] = y_end[lane];
            x[j][0] = x_end[lane];
            hit[j] = 0;
            if (j < real) {
                aborted[lane] = 0;
                if (y_out != NULL) {
                    y_out[lane * (steps + 1)] = y_end[lane];
                    x_out[lane * (steps + 1)] = x_end[lane];
                }
                if (streams != NULL) {
                    gen[2 * j] = pcg64_seed(streams + 8 * lane);
                    gen[2 * j + 1] = pcg64_seed(streams + 8 * lane + 4);
                }
            }
        }
        for (t0 = 0; t0 < steps && live; t0 += TILE) {
            int64_t n = steps - t0 < TILE ? steps - t0 : TILE;
            if (streams != NULL) {
                /* the live lanes' streams, side by side */
                struct pcg64 g[2 * GROUP];
                double *out[2 * GROUP];
                int m = 0;
                for (j = 0; j < real; j++)
                    if (!hit[j]) {
                        g[m] = gen[2 * j];
                        out[m++] = drawn[0][j];
                        g[m] = gen[2 * j + 1];
                        out[m++] = drawn[1][j];
                    }
                draw_tile(g, m, out, n, &z);
                m = 0;
                for (j = 0; j < real; j++)
                    if (!hit[j]) {
                        gen[2 * j] = g[m++];
                        gen[2 * j + 1] = g[m++];
                    }
            }
            for (j = 0; j < GROUP; j++) {
                int first = j < real ? j : 0;
                int64_t lane = g0 + first;
                if (streams == NULL) {
                    eta_t[j] = eta + lane * steps + t0;
                    zeta_t[j] = zeta + lane * steps + t0;
                } else {
                    eta_t[j] = drawn[0][first];
                    zeta_t[j] = drawn[1][first];
                }
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
                if (y_out != NULL) {
                    memcpy(y_out + lane * (steps + 1) + t0 + 1, y[j] + 1, n * sizeof(double));
                    memcpy(x_out + lane * (steps + 1) + t0 + 1, x[j] + 1, n * sizeof(double));
                }
                fold_tile(y[j], x[j], n, t0, y_start[lane], sums + lane, lanes,
                          mean + lane, m2 + lane);
                y[j][0] = y[j][n];
                x[j][0] = x[j][n];
            }
        }
        for (j = 0; j < real; j++) {
            int64_t lane = g0 + j;
            if (streams != NULL) {
                pcg64_store(&gen[2 * j], streams + 8 * lane);
                pcg64_store(&gen[2 * j + 1], streams + 8 * lane + 4);
            }
            if (hit[j])
                continue;
            y_end[lane] = y[j][0];
            x_end[lane] = x[j][0];
        }
    }
}


/* ---------------------------------------------------------------------------
 * The CSV codec: cells as Python's '%.17g' and '%d' write them, read back
 * as float() and int() read them
 */

/* the cell kinds hestonlab.kernel passes: a '%.17g' or float() cell, and a
   '%d' or int() cell */
enum { CELL_FLOAT, CELL_INT };

/* the table's powers 10^q, q = POW10_MIN..POW10_MAX */
#define POW10_MIN (-300)
#define POW10_MAX 345

#define E16 10000000000000000ULL
#define E17 100000000000000000ULL

/* the distance from one half within which a fraction is left to snprintf:
   2^-56, as a 128-bit fixed-point fraction */
#define HALF ((u128)1 << 127)
#define TIE_WINDOW ((u128)1 << 72)

/* "00" to "99" */
static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* the 8 decimal digits of x < 10^8, leading zeros kept */
static void digits8(uint32_t x, char *out)
{
    uint32_t hi = x / 10000, lo = x % 10000;
    memcpy(out, DIGIT_PAIRS + 2 * (hi / 100), 2);
    memcpy(out + 2, DIGIT_PAIRS + 2 * (hi % 100), 2);
    memcpy(out + 4, DIGIT_PAIRS + 2 * (lo / 100), 2);
    memcpy(out + 6, DIGIT_PAIRS + 2 * (lo % 100), 2);
}

/* v * 10^q for v = m * 2^e, through row q of the table: 10^q truncated to
 * M * 2^E, M of 128 bits (the row's high and low words, then E).  The
 * 181-bit product m * M is exact, so the result falls short of v * 10^q by
 * less than v * 10^q * 2^-127: under 2^-70 while v * 10^q < 2^57.  Gives
 * its integer part *n and its fraction *frac, as a 128-bit fixed-point
 * number; returns -1 where the integer part would not fit. */
static int scaled(uint64_t m, int e, int q, const uint64_t *pow10, uint64_t *n, u128 *frac)
{
    const uint64_t *row = pow10 + 3 * (q - POW10_MIN);
    u128 lo = (u128)m * row[1], hi = (u128)m * row[0];
    u128 mid = (hi & UINT64_MAX) + (lo >> 64);
    uint64_t w0 = (uint64_t)lo, w1 = (uint64_t)mid;
    uint64_t w2 = (uint64_t)(hi >> 64) + (uint64_t)(mid >> 64);
    int s = -(e + (int)(int64_t)row[2]); /* the product's fraction bits */
    if (s < 64 || s > 127)
        return -1;
    *n = (uint64_t)((((u128)w2 << 64) | w1) >> (s - 64));
    *frac = (((u128)w1 << 64) | w0) << (128 - s);
    return 0;
}

/* The 17 significant digits dig[] of a nonzero value, the first of them
 * nonzero, its decimal exponent d and its sign, as %g lays them out: the
 * exponent form where d < -4 or d >= 17, trailing zeros dropped and then a
 * dropped point. */
static char *layout_g17(const char *dig, int d, int negative, char *out)
{
    int nd = 17, i;
    while (dig[nd - 1] == '0')
        nd--;
    if (negative)
        *out++ = '-';
    if (d < -4 || d >= 17) {
        int a = d < 0 ? -d : d;
        *out++ = dig[0];
        if (nd > 1) {
            *out++ = '.';
            memcpy(out, dig + 1, nd - 1);
            out += nd - 1;
        }
        *out++ = 'e';
        *out++ = d < 0 ? '-' : '+';
        if (a >= 100) {
            *out++ = (char)('0' + a / 100);
            a %= 100;
        }
        memcpy(out, DIGIT_PAIRS + 2 * a, 2);
        return out + 2;
    }
    if (d >= 0) {
        memcpy(out, dig, d + 1);
        out += d + 1;
        if (nd > d + 1) {
            *out++ = '.';
            memcpy(out, dig + d + 1, nd - d - 1);
            out += nd - d - 1;
        }
        return out;
    }
    *out++ = '0';
    *out++ = '.';
    for (i = 0; i < -d - 1; i++)
        *out++ = '0';
    memcpy(out, dig, nd);
    return out + nd;
}

/* '%.17g' of a finite v into out: the correctly rounded 17 digits of Gay's
 * dtoa, which Python's '%.17g' gives, ties to even.  Loitsch's method with
 * 128-bit powers of ten: N = v * 10^(16 - d), d = floor(log10 v), rounded up
 * where its fraction is one half or more.  Where that fraction lies within
 * 2^-56 of one half, which the table's error (under 2^-70) might have
 * tipped, the digits are glibc's snprintf's, also correctly rounded and
 * ties to even.  Returns the end, or NULL where snprintf's text holds other
 * characters than those of a number in the C locale. */
static char *format_g17(double v, const uint64_t *pow10, char *out)
{
    uint64_t bits, m, n;
    int e, d, k;
    u128 frac;
    char dig[17], buf[32], *c;
    memcpy(&bits, &v, sizeof bits);
    m = bits & 0x000fffffffffffffULL;
    e = (int)(bits >> 52 & 0x7ff);
    if (e == 0 && m == 0) {
        if (bits >> 63)
            *out++ = '-';
        *out++ = '0';
        return out;
    }
    if (e) {
        m |= 1ULL << 52;
        e -= 1075;
    } else {
        e = -1074;
    }
    /* floor(log2 v), then d = floor(k log10 2), exact for |k| < 1100 with
       an arithmetic shift: floor(log10 v) is d or d + 1 */
    k = e + 63 - __builtin_clzll(m);
    d = (k * 78913) >> 18;
    if (scaled(m, e, 16 - d, pow10, &n, &frac))
        goto slow;
    if (n >= E17 && scaled(m, e, 16 - ++d, pow10, &n, &frac))
        goto slow;
    if (n < E16 || n >= E17 || (frac > HALF ? frac - HALF : HALF - frac) <= TIE_WINDOW)
        goto slow;
    if (frac > HALF && ++n == E17) {
        n = E16;
        d++;
    }
    dig[0] = (char)('0' + n / E16);
    digits8((uint32_t)(n / 100000000 % 100000000), dig + 1);
    digits8((uint32_t)(n % 100000000), dig + 9);
    return layout_g17(dig, d, (int)(bits >> 63), out);
slow:
    snprintf(buf, sizeof buf, "%.17g", v);
    for (c = buf; *c; c++) {
        if (!((*c >= '0' && *c <= '9') || *c == '.' || *c == 'e' || *c == '+' || *c == '-'))
            return NULL;
        *out++ = *c;
    }
    return out;
}

/* '%d' of v into out, where v is an integer of magnitude below 2^53, which
 * a double holds exactly; else NULL */
static char *format_int(double v, char *out)
{
    char tmp[20];
    int64_t i;
    uint64_t u;
    int len = 0;
    if (!(fabs(v) < 9007199254740992.0))
        return NULL;
    i = (int64_t)v;
    if ((double)i != v)
        return NULL;
    if (i < 0)
        *out++ = '-';
    u = i < 0 ? -(uint64_t)i : (uint64_t)i;
    do {
        tmp[len++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (len)
        *out++ = tmp[--len];
    return out;
}

/* The CSV lines of values, (rows, cols) row-major, each cell of column c as
 * Python's '%.17g' (kinds[c] = CELL_FLOAT) or '%d' (CELL_INT) writes it:
 * cells split by ',', each row ended by '\n'.  pow10 is the table of 10^q,
 * (POW10_MAX - POW10_MIN + 1, 3).  out needs at most 26 bytes a cell.
 * Returns the bytes written, or -1 where a float cell is not finite, an int
 * cell is not an integer of magnitude below 2^53, or snprintf writes other
 * than a number (a locale's decimal comma): the caller then formats them
 * all itself. */
int64_t hl_format_rows(const double *values, int64_t rows, int64_t cols, const int64_t *kinds,
                       const uint64_t *pow10, char *out)
{
    char *p = out;
    int64_t r, c;
    for (r = 0; r < rows; r++)
        for (c = 0; c < cols; c++) {
            double v = values[r * cols + c];
            if (kinds[c] == CELL_INT)
                p = format_int(v, p);
            else
                p = isfinite(v) ? format_g17(v, pow10, p) : NULL;
            if (p == NULL)
                return -1;
            *p++ = c + 1 < cols ? ',' : '\n';
        }
    return p - out;
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* A float cell at p, -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?: its value as
 * strtod reads it into *value, and its end, or NULL.  The cell runs to the
 * first character outside [0-9eE+-] that is not a point before a digit;
 * strtod must read all of it, which leaves out the rest of what the grammar
 * refuses ("1e", "1e5e5", "1-2", "1.5.5"), and in a locale whose decimal
 * point is not '.', every cell with a point. */
static const char *read_float(const char *p, double *value)
{
    const char *cell = p;
    char *stop;
    if (*p == '-')
        p++;
    if (!is_digit(*p))
        return NULL;
    for (;; p++)
        if (!(is_digit(*p) || *p == 'e' || *p == 'E' || *p == '+' || *p == '-'
              || (*p == '.' && is_digit(p[1]))))
            break;
    *value = strtod(cell, &stop);
    return stop == p ? p : NULL;
}

/* An int cell at p, -?[0-9]{1,15}, which a double holds exactly: its value
 * into *value, and its end, or NULL */
static const char *read_int(const char *p, double *value)
{
    const char *first;
    int negative = *p == '-';
    double n = 0.0;
    p += negative;
    for (first = p; is_digit(*p); p++)
        n = n * 10.0 + (*p - '0');
    if (p == first || p - first > 15)
        return NULL;
    *value = negative ? -n : n;
    return p;
}

/* The cells of `rows` CSV lines of text[0..len-1], which a NUL must follow,
 * into out, (cols, rows) row-major: column c read as float() reads it
 * (kinds[c] = CELL_FLOAT) or as int() does (CELL_INT).  The text must be
 * `rows` lines, each ended by '\n' but the last, which may end the text,
 * each of `cols` cells split by ',' and each cell of its kind's grammar
 * (read_float, read_int): no space, no blank line and no '\r'.  Returns 0,
 * or -1 where the text is not so, and the caller reads it itself. */
int64_t hl_parse_rows(const char *text, int64_t len, int64_t rows, int64_t cols,
                      const int64_t *kinds, double *out)
{
    const char *p = text, *end = text + len;
    int64_t r, c;
    for (r = 0; r < rows; r++)
        for (c = 0; c < cols; c++) {
            p = kinds[c] == CELL_INT ? read_int(p, out + c * rows + r)
                                     : read_float(p, out + c * rows + r);
            if (p == NULL)
                return -1;
            if (*p == (c + 1 < cols ? ',' : '\n'))
                p++;
            else if (!(p == end && r + 1 == rows && c + 1 == cols))
                return -1;
        }
    return p == end ? 0 : -1;
}

/* ---------------------------------------------------------------------------
 * log Phi, the standard normal log-distribution function, for the
 * Anderson-Darling statistic: each value through the same libm calls and
 * IEEE operations, in the same order, as hestonlab.simulate.log_ndtr_scalar
 */

#define SQRT1_2 0.70710678118654752440      /* 1/sqrt(2) */
#define LOG_SQRT_2PI 0.91893853320467274178 /* log(sqrt(2 pi)) */
/* below it, erfc(-z/sqrt(2))/2 would leave the normal doubles */
#define LOG_NDTR_TAIL (-37.5)
#define LOG_NDTR_TERMS 10

/* out[i] = log Phi(in[i]): log1p(-erfc(z/sqrt(2))/2) above -1,
   log(erfc(-z/sqrt(2))/2) down to LOG_NDTR_TAIL, and below it the
   asymptotic series -z^2/2 - log(-z) - log(sqrt(2 pi)) + log(1 - 1/z^2 +
   3/z^4 - ...), LOG_NDTR_TERMS terms in Horner form, which stays finite */
void hl_log_ndtr(int64_t n, const double *in, double *out)
{
    int64_t i;
    int k;
    for (i = 0; i < n; i++) {
        double z = in[i], r, h;
        if (z > -1.0) {
            out[i] = log1p(-0.5 * erfc(z * SQRT1_2));
        } else if (z >= LOG_NDTR_TAIL) {
            out[i] = log(0.5 * erfc(-z * SQRT1_2));
        } else {
            r = 1.0 / (z * z);
            h = 1.0;
            for (k = LOG_NDTR_TERMS; k >= 1; k--)
                h = 1.0 - (2 * k - 1) * r * h;
            out[i] = -0.5 * z * z - log(-z) - LOG_SQRT_2PI + log(h);
        }
    }
}
