/* The lane kernel: one lane group through its whole path, for Monte Carlo
 * runs and for single paths; the fast route of hestonlab's CSV codec; and
 * the standard normal log-distribution function of the normality test.
 *
 * hl_lane_block takes each lane from its start (y0, x0) through the
 * variance recursion of a scheme, the Euler log-price recursion and the
 * fold of each summation tile into the lane's path sums, and on request
 * writes the variance and price points.  Lanes go eight at a time, a group
 * whose tile lies lane-major, [step][lane], so that every step and the
 * fold run over the group's lanes in vectors, whose arithmetic is IEEE's
 * lane by lane.  Its noise is either drawn here, a tile at a time, from
 * each lane's pair of PCG64 streams, seeded here from their seed words, or
 * read from given (steps,) rows of eta and zeta.  On a CPU with AVX-512 F,
 * DQ, VL and BW, which it asks at run time, a group draws its eta streams
 * as one vector of 8 and its zeta streams as another, and folds a whole
 * group's tile in one vector of 8; elsewhere, and in a build with
 * HL_PORTABLE defined, it draws one stream at a time and folds in SSE2
 * vectors.  Both give the same bits.
 * It gives the bits of the numpy pipeline of hestonlab (draw_normals, then
 * simulate's step loop and price_block, then estimate.PathSums.fold a tile
 * at a time, in blocks or in one piece), so every operation below is the
 * IEEE operation numpy performs there, in the same order:
 *
 *   - a stream is numpy's PCG64 (O'Neill's XSL-RR generator on a 128-bit
 *     LCG), held as four 64-bit words, state high and low, then increment
 *     high and low; hl_seed hashes a master seed, a replicate index and a
 *     stream tag into seed words as numpy's SeedSequence does, and
 *     pcg64_seed turns those words into a stream as PCG64's pcg64_set_seed
 *     does;
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
 *     pairwise sum of tile_sums below;
 *   - the price is a running sum from the lane's last price, as cumsum.
 *
 * Build with contraction of a*b + c into a fused multiply-add switched off
 * (-ffp-contract=off) and without -ffast-math, or the bits move; and
 * without errno for libm's sqrt to set (-fno-math-errno), or its square
 * roots are not vectors.
 *
 * A DESRE lane whose Z falls to zero or below aborts: its step, from 1,
 * goes to aborted[lane], it draws no more after that tile, its steps run on
 * in its group's vectors but are dropped, and its sums and streams are left
 * unfinished, since the caller drops it.
 * Overflow runs on as inf or NaN, as in numpy.
 *
 * hl_fold_path folds one given path, a tile at a time through the same
 * fold_tile, as a group of one lane, for
 * hestonlab.estimate.path_functionals.
 *
 * hl_format_rows writes a table's cells as Python's '%.17g' and '%d' do,
 * byte for byte, and hl_parse_rows reads CSV lines of the strict form it
 * writes as float() and int() do, in one pass, into a buffer of as many
 * rows as a text of its length can hold; each returns -1 for what it does
 * not take, and hestonlab.simulate's Python codec then takes the whole
 * call.  Both work on one table of 128-bit powers of ten, which
 * hestonlab.kernel passes in: the writer by Loitsch's method, the reader by
 * Clinger's exact path and Eisel and Lemire's method; each leaves to
 * glibc's snprintf or strtod the few cells that the table's truncation
 * could tip.  None keeps any state between calls.
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

/* The lanes of a group, hestonlab.kernel.GROUP.  A group's tile holds its
   noise and points lane-major, as [step][lane] arrays, so that each
   variance step, price step and fold term is one pass over the lanes of
   the group, in vectors; the draws of the group's 2 * GROUP streams go
   side by side, as two AVX-512 vectors of GROUP streams or interleaved one
   stream at a time, so that one stream's chain of 128-bit LCG steps
   overlaps the others'. */
#define GROUP 8

#define INLINE static inline __attribute__((always_inline))

/* Two lanes as one vector, whose arithmetic is IEEE's lane by lane, for
 * the variance and price steps: an SSE2 register, which every x86-64 has.
 * Four lanes, an AVX2 register, timed the same in a build for AVX2 CPUs,
 * as divisions and square roots bound the steps and retire about as many
 * lanes a cycle at either width, and far slower without AVX2, where gcc
 * splits a compare of four lanes into scalar ones.  The draws and the fold
 * of a whole group go GROUP lanes a vector on AVX-512 CPUs (below).  A
 * tile's row, [lane], is read and written by vectors, VEC(&row[h]) for
 * h = 0, VW, ...: VW doubles at a double's alignment and of any type. */
#define VW 2
typedef double vec_d __attribute__((vector_size(VW * sizeof(double))));
typedef int64_t vec_i __attribute__((vector_size(VW * sizeof(int64_t))));
typedef double vec_u __attribute__((vector_size(VW * sizeof(double)), aligned(sizeof(double)),
                                    may_alias));
typedef int64_t vec_iu __attribute__((vector_size(VW * sizeof(int64_t)),
                                      aligned(sizeof(int64_t)), may_alias));
#define VEC(p) (*(vec_u *)(p))
#define VEC_I(p) (*(vec_iu *)(p))

/* libm's sqrt of each lane of *v, correctly rounded; without errno to set
   (-fno-math-errno), the compiler makes it one vector square root */
INLINE void sqrt_vec(vec_d *v)
{
    int j;
    for (j = 0; j < VW; j++)
        (*v)[j] = sqrt((*v)[j]);
}

/* fabs of each lane: its sign bit cleared */
#define FABS_VEC(v) ((vec_d)((vec_i)(v) & INT64_MAX))

/* np.maximum(y, 0.0) of each lane of a vector y: +0.0 for y <= 0, -0.0
   included, and a NaN kept */
#define MAX0_VEC(y) ((vec_d)((vec_i)(y) & ~((y) <= 0.0)))

/* The scheme constants k[] and the price constants p[] are those of
 * simulate.step_constants; a group's tile holds its noise and points
 * lane-major, [step][lane].
 *
 * Variance steps of the first w lanes of a group, w a multiple of VW, from
 * their states s[] (Y, or Z for DESRE and DISRE) over eta[0..n-1] into the
 * points y[1..n].  A DESRE lane whose Z is
 * <= 0 at step i of the tile gets hit[] = first + i + 1 unless it has a hit
 * already; its later points are not used.  The states go in vectors,
 * z[h / VW] for the lanes h, h + 1, ... */
INLINE void euler_steps(int scheme, const double *k, vec_d *z, const double (*eta)[GROUP],
                        int64_t n, int w, double (*y)[GROUP])
{
    vec_d v, g;
    int64_t i;
    int h;
    for (i = 0; i < n; i++)
        for (h = 0; h < w; h += VW) {
            v = z[h / VW];
            g = scheme == AVE ? FABS_VEC(v) : scheme == TE ? MAX0_VEC(v) : v;
            sqrt_vec(&g);
            v = (v + (k[0] - k[1] * v) * k[2]) + ((k[3] * g) * k[4]) * VEC(&eta[i][h]);
            z[h / VW] = VEC(&y[i + 1][h]) = scheme == SE ? FABS_VEC(v) : v;
        }
}

INLINE void variance_steps(int scheme, const double *k, double *s, const double (*eta)[GROUP],
                           int64_t n, int w, double (*y)[GROUP], int64_t first, int64_t *hit)
{
    vec_d z[GROUP / VW], v, u;
    vec_i now, dead[GROUP / VW];
    int64_t i;
    int h;
    for (h = 0; h < w; h += VW)
        z[h / VW] = VEC(&s[h]);
    switch (scheme) {
    case DESRE:
        /* the lanes with a hit, as a mask, which bitwise operations keep */
        for (h = 0; h < w; h += VW)
            dead[h / VW] = VEC_I(&hit[h]) != 0;
        for (i = 0; i < n; i++)
            for (h = 0; h < w; h += VW) {
                v = z[h / VW];
                v = (v + (k[0] / v - k[1] * v) * k[2]) + k[3] * VEC(&eta[i][h]);
                now = (v <= 0.0) & ~dead[h / VW];
                dead[h / VW] |= now;
                VEC_I(&hit[h]) |= (first + i + 1) & now;
                VEC(&y[i + 1][h]) = v * v;
                z[h / VW] = v;
            }
        break;
    case DISRE:
        for (i = 0; i < n; i++)
            for (h = 0; h < w; h += VW) {
                u = (z[h / VW] + k[2] * VEC(&eta[i][h])) / k[0];
                v = u * u + k[1];
                sqrt_vec(&v);
                v = u + v;
                VEC(&y[i + 1][h]) = v * v;
                z[h / VW] = v;
            }
        break;
    /* one loop for each scheme, so that none tests the scheme per step */
    case AVE:
        euler_steps(AVE, k, z, eta, n, w, y);
        break;
    case TE:
        euler_steps(TE, k, z, eta, n, w, y);
        break;
    default:
        euler_steps(SE, k, z, eta, n, w, y);
    }
    for (h = 0; h < w; h += VW)
        VEC(&s[h]) = z[h / VW];
}

/* Euler log-price points x[1..n] of the first w lanes of a group from x[0]
   over the variance points y[0..n-1] */
INLINE void price_steps(const double *p, const double (*y)[GROUP], const double (*eta)[GROUP],
                        const double (*zeta)[GROUP], int64_t n, int w, double (*x)[GROUP])
{
    vec_d yi, root;
    int64_t i;
    int h;
    for (i = 0; i < n; i++)
        for (h = 0; h < w; h += VW) {
            yi = VEC(&y[i][h]);
            root = MAX0_VEC(yi);
            sqrt_vec(&root);
            VEC(&x[i + 1][h]) = VEC(&x[i][h]) + ((p[2] - p[3] * yi) * p[4]
                                + ((p[5] * root) * p[6]) * (p[0] * VEC(&eta[i][h])
                                                            + p[1] * VEC(&zeta[i][h])));
        }
}

/* The terms that PathSums.fold sums over step i of lane j, from the points
 * y and x, lane-major, a step's lanes `stride` doubles apart: pass 0 gives
 * the six running sums' terms and the deviation from y_start, pass 1 the
 * squared deviation from the tile's mean of those deviations. */
#define TERMS 7
INLINE void fold_terms(int pass, const double *y, const double *x, int stride, int64_t i, int j,
                       const double *y_start, const double *t_mean, double *t)
{
    double yl = y[i * stride + j];
    if (pass) {
        double c = (yl - y_start[j]) - t_mean[j];
        t[0] = c * c;
    } else {
        double y2 = yl * yl, dy = y[(i + 1) * stride + j] - yl;
        double dx = x[(i + 1) * stride + j] - x[i * stride + j];
        t[0] = yl;
        t[1] = y2;
        t[2] = y2 * yl;
        t[3] = yl * dy;
        t[4] = yl * dx;
        t[5] = dy * dy;
        t[6] = yl - y_start[j];
    }
}

/* The tile sums sum[term][lane] of a pass's terms over n <= TILE steps, as
 * numpy's float64 add reduction of each row gives them: 0.0 plus
 * pairwise_sum_DOUBLE's sum, which for n <= 128 is a plain loop below 8
 * terms, else 8 accumulators, the first 8 terms, combined as a tree, then
 * the remainder. */
INLINE void tile_sums(int pass, const double *y, const double *x, int stride, int w, int64_t n,
                      const double *y_start, const double *t_mean, double (*sum)[GROUP])
{
    int terms = pass ? 1 : TERMS, a, j, q;
    double acc[TERMS][8][GROUP], t[TERMS];
    int64_t i = 0;
    if (n >= 8) {
        for (a = 0; a < 8; a++)
            for (j = 0; j < w; j++) {
                fold_terms(pass, y, x, stride, a, j, y_start, t_mean, t);
                for (q = 0; q < terms; q++)
                    acc[q][a][j] = t[q];
            }
        for (i = 8; i < n - (n % 8); i += 8)
            for (a = 0; a < 8; a++)
                for (j = 0; j < w; j++) {
                    fold_terms(pass, y, x, stride, i + a, j, y_start, t_mean, t);
                    for (q = 0; q < terms; q++)
                        acc[q][a][j] += t[q];
                }
        for (q = 0; q < terms; q++)
            for (j = 0; j < w; j++)
                sum[q][j] = ((acc[q][0][j] + acc[q][1][j]) + (acc[q][2][j] + acc[q][3][j]))
                            + ((acc[q][4][j] + acc[q][5][j]) + (acc[q][6][j] + acc[q][7][j]));
    } else {
        for (q = 0; q < terms; q++)
            for (j = 0; j < w; j++)
                sum[q][j] = 0.0;
    }
    for (; i < n; i++)
        for (j = 0; j < w; j++) {
            fold_terms(pass, y, x, stride, i, j, y_start, t_mean, t);
            for (q = 0; q < terms; q++)
                sum[q][j] += t[q];
        }
    for (q = 0; q < terms; q++)
        for (j = 0; j < w; j++)
            sum[q][j] = 0.0 + sum[q][j];
}

/* PathSums.fold of one tile of n steps of the first w <= GROUP lanes of
 * points y[0..n][0..stride-1] and x likewise, after `done` folded steps:
 * the six running sums s[0..5][0..stride-1], and the (mean, m2) of each
 * lane's deviations from its y_start, merged by Chan, Golub and LeVeque's
 * update. */
INLINE void fold_tile(const double *y, const double *x, int stride, int w, int64_t n, int64_t done,
                      const double *y_start, double *s, double *mean, double *m2)
{
    double tile[TERMS][GROUP], t_mean[GROUP], t_m2[1][GROUP];
    double merged = (double)(done + n), w_mean = (double)n / merged;
    double w_m2 = (double)(done * n) / merged;
    int j, q;
    tile_sums(0, y, x, stride, w, n, y_start, NULL, tile);
    for (j = 0; j < w; j++)
        t_mean[j] = tile[6][j] / (double)n;
    tile_sums(1, y, x, stride, w, n, y_start, t_mean, t_m2);
    for (j = 0; j < w; j++) {
        double delta = t_mean[j] - mean[j];
        for (q = 0; q < 6; q++)
            s[q * stride + j] = s[q * stride + j] + tile[q][j];
        mean[j] = mean[j] + delta * w_mean;
        m2[j] = (m2[j] + t_m2[0][j]) + delta * delta * w_m2;
    }
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

/* numpy's SeedSequence (O'Neill's seed_seq_fe): a word's hash by the
   multiplier *h, which then moves on by mult */
static uint32_t hashmix(uint32_t value, uint32_t *h, uint32_t mult)
{
    value ^= *h;
    *h *= mult;
    value *= *h;
    return value ^ (value >> 16);
}

/* a pool word *x mixed with the next hash of a word */
static void mix(uint32_t *x, uint32_t word, uint32_t *h)
{
    uint32_t r = 0xCA01F9DDu * *x - 0x4973F715u * hashmix(word, h, 0x931E8875u);
    *x = r ^ (r >> 16);
}

/* The seed words of each lane's (eta, zeta) streams into out, (lanes, 2, 4)
 * row-major: SeedSequence(seed, spawn_key=(index[lane], tag))
 * .generate_state(4, np.uint64) for tag 0 and 1.  The seed is n_seed words
 * and each index a row of index, (lanes, width), all 32-bit, least
 * significant first; an index's zero words above its first are dropped,
 * and the seed has none.  The entropy is the seed, padded with zeros to the
 * pool of 4 words, then the index, then the tag. */
void hl_seed(const uint32_t *seed, int64_t n_seed, const uint32_t *index, int64_t width,
             int64_t lanes, uint64_t *out)
{
    int64_t l, i, n_run = n_seed > 4 ? n_seed : 4;
    int tag, s, d;
    for (l = 0; l < lanes; l++) {
        const uint32_t *idx = index + l * width;
        int64_t n = n_run + width; /* the tag's place in the entropy */
        while (n > n_run + 1 && idx[n - n_run - 1] == 0)
            n--;
        for (tag = 0; tag < 2; tag++) {
            uint32_t pool[4], state[8], h = 0x43B0D7E5u;
            /* the first 4 words fill the pool, which is mixed within
               itself; each later word is mixed into every pool word */
            for (d = 0; d < 4; d++)
                pool[d] = hashmix(d < n_seed ? seed[d] : 0, &h, 0x931E8875u);
            for (s = 0; s < 4; s++)
                for (d = 0; d < 4; d++)
                    if (s != d)
                        mix(&pool[d], pool[s], &h);
            for (i = 4; i <= n; i++) {
                uint32_t word = i < n_seed ? seed[i] : i < n ? idx[i - n_run] : (uint32_t)tag;
                for (d = 0; d < 4; d++)
                    mix(&pool[d], word, &h);
            }
            /* generate_state: 8 words of the pool, cycled, hashed by a
               second multiplier sequence and joined in little-endian pairs */
            h = 0x8B51F9DDu;
            for (i = 0; i < 8; i++)
                state[i] = hashmix(pool[i % 4], &h, 0x58F38DEDu);
            for (i = 0; i < 4; i++)
                out[(2 * l + tag) * 4 + i] = state[2 * i] | (uint64_t)state[2 * i + 1] << 32;
        }
    }
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

/* The next n normals of each of m streams into out[0..m-1][0..n-1], at
 * stride GROUP (a stream's column of a lane-major tile), the streams' draws
 * interleaved, so that one stream's chain of 128-bit steps overlaps the
 * others'; each stream's draws keep their own order. */
INLINE void draw_tile(struct pcg64 *g, int m, double *const *out, int64_t n,
                      const struct ziggurat *z)
{
    int64_t i;
    int s;
    for (i = 0; i < n; i++)
        for (s = 0; s < m; s++)
            out[s][i * GROUP] = normal(&g[s], z);
}

/* ---------------------------------------------------------------------------
 * Wide draws and fold, for x86-64 CPUs with AVX-512 F, DQ, VL and BW, which
 * hl_lane_block asks the CPU for at run time, so that one build without
 * -march serves every CPU; HL_PORTABLE, a test build's define, leaves them
 * out, as does any other platform.
 */

/* the fewest live lanes whose group draws in vectors: with fewer, their
   streams cost less one at a time than a vector step of GROUP */
#define WIDE_LIVE 6

#if defined(__x86_64__) && !defined(HL_PORTABLE)
#include <immintrin.h>

/* A stream of each lane of a group, side by side: the 128-bit LCG states and
   increments as vectors of their high and low words, lane j in element j */
struct pcg64_x8 {
    __m512i sh, sl, ih, il;
};

#define AVX512 "avx512f,avx512dq,avx512vl,avx512bw"
#define WIDE_TARGET __attribute__((target(AVX512), noinline))
#define WIDE_INLINE static inline __attribute__((always_inline, target(AVX512)))

/* The next word of each stream of g whose lane is in `live`, as *word, and
 * its ziggurat point into row[], lane j in row[j]; the other streams keep
 * their states and row[] its values.  The LCG step multiplies by PCG_MULT,
 * (mh, ml): the new low word is sl * ml, the high one the high word of
 * sl * ml, from four 32 x 32 -> 64-bit products, plus sl * mh + sh * ml;
 * then comes the increment, its low word's carry included.  Returns the
 * live lanes whose point falls outside its rectangle, for normal_rare. */
WIDE_INLINE __mmask8 point_x8(struct pcg64_x8 *g, __mmask8 live, double *row,
                              const struct ziggurat *z, __m512i *word)
{
    const __m512i ml = _mm512_set1_epi64((long long)(uint64_t)PCG_MULT);
    const __m512i ml_hi = _mm512_set1_epi64((long long)((uint64_t)PCG_MULT >> 32));
    const __m512i mh = _mm512_set1_epi64((long long)(uint64_t)(PCG_MULT >> 64));
    __m512i sl_hi = _mm512_srli_epi64(g->sl, 32);
    __m512i p00 = _mm512_mul_epu32(g->sl, ml), p01 = _mm512_mul_epu32(g->sl, ml_hi);
    __m512i p10 = _mm512_mul_epu32(sl_hi, ml), p11 = _mm512_mul_epu32(sl_hi, ml_hi);
    __m512i t = _mm512_add_epi64(p10, _mm512_srli_epi64(p00, 32));
    __m512i u = _mm512_add_epi64(_mm512_and_si512(t, _mm512_set1_epi64(0xFFFFFFFF)), p01);
    __m512i hi = _mm512_add_epi64(_mm512_add_epi64(p11, _mm512_srli_epi64(t, 32)),
                                  _mm512_srli_epi64(u, 32));
    __m512i lo = _mm512_add_epi64(_mm512_mullo_epi64(g->sl, ml), g->il);
    __m512i r, idx, rabs;
    __m512d x;
    hi = _mm512_add_epi64(hi, _mm512_add_epi64(_mm512_mullo_epi64(g->sl, mh),
                                               _mm512_mullo_epi64(g->sh, ml)));
    hi = _mm512_add_epi64(hi, g->ih);
    hi = _mm512_mask_sub_epi64(hi, _mm512_cmplt_epu64_mask(lo, g->il), hi, _mm512_set1_epi64(-1));
    g->sh = _mm512_mask_mov_epi64(g->sh, live, hi);
    g->sl = _mm512_mask_mov_epi64(g->sl, live, lo);
    /* XSL-RR, then zig_point of each word */
    r = *word = _mm512_rorv_epi64(_mm512_xor_si512(hi, lo), _mm512_srli_epi64(hi, 58));
    idx = _mm512_and_si512(r, _mm512_set1_epi64(0xff));
    rabs = _mm512_and_si512(_mm512_srli_epi64(r, 9), _mm512_set1_epi64((long long)ZIG_MANTISSA));
    x = _mm512_mul_pd(_mm512_cvtepi64_pd(rabs), _mm512_i64gather_pd(idx, z->wi, 8));
    x = _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(x),
        _mm512_and_si512(_mm512_slli_epi64(r, 55), _mm512_set1_epi64(INT64_MIN))));
    _mm512_mask_store_pd(row, live, x);
    return _mm512_mask_cmpge_epu64_mask(live, rabs,
                                        _mm512_i64gather_epi64(idx, (const void *)z->ki, 8));
}

/* element j of v */
#define LANE_OF(v, j) ((uint64_t)_mm_cvtsi128_si64(_mm512_castsi512_si128( \
    _mm512_permutexvar_epi64(_mm512_set1_epi64(j), (v)))))

/* normal_rare of the `rare` lanes of g, whose words were `word`, each on its
   own stream, taken out of the vectors (its increment from inc[2 j], which
   does not change) and put back, into row[j] */
WIDE_INLINE void rare_x8(struct pcg64_x8 *g, __mmask8 rare, __m512i word, const struct pcg64 *inc,
                         double *row, const struct ziggurat *z)
{
    while (rare) {
        int j = __builtin_ctz(rare), layer;
        struct pcg64 one;
        uint64_t w_abs;
        double xj = zig_point(LANE_OF(word, j), z, &layer, &w_abs);
        rare &= (__mmask8)(rare - 1);
        one.state = (u128)LANE_OF(g->sh, j) << 64 | LANE_OF(g->sl, j);
        one.inc = inc[2 * j].inc;
        row[j] = normal_rare(&one, z, layer, w_abs, xj);
        g->sh = _mm512_mask_set1_epi64(g->sh, (__mmask8)(1u << j), (long long)(one.state >> 64));
        g->sl = _mm512_mask_set1_epi64(g->sl, (__mmask8)(1u << j), (long long)one.state);
    }
}

/* draw_tile of a group's 2 * GROUP streams, gen[2 j] and gen[2 j + 1] lane
   j's eta and zeta, into noise[0] and noise[1], rows of 64 bytes at a
   multiple of 64: the streams of the lanes in `live` draw, the others keep
   their states and their rows */
WIDE_TARGET static void draw_tile_x8(struct pcg64 *gen, unsigned live, double (*noise)[TILE][GROUP],
                                     int64_t n, const struct ziggurat *z)
{
    uint64_t w[2][4][GROUP] __attribute__((aligned(64)));
    struct pcg64_x8 g[2];
    __m512i word[2];
    __mmask8 rare[2];
    int64_t i;
    int j, s;
    for (s = 0; s < 2; s++) {
        for (j = 0; j < GROUP; j++) {
            w[s][0][j] = (uint64_t)(gen[2 * j + s].state >> 64);
            w[s][1][j] = (uint64_t)gen[2 * j + s].state;
            w[s][2][j] = (uint64_t)(gen[2 * j + s].inc >> 64);
            w[s][3][j] = (uint64_t)gen[2 * j + s].inc;
        }
        g[s].sh = _mm512_load_si512(w[s][0]);
        g[s].sl = _mm512_load_si512(w[s][1]);
        g[s].ih = _mm512_load_si512(w[s][2]);
        g[s].il = _mm512_load_si512(w[s][3]);
    }
    for (i = 0; i < n; i++) {
        rare[0] = point_x8(&g[0], (__mmask8)live, noise[0][i], z, &word[0]);
        rare[1] = point_x8(&g[1], (__mmask8)live, noise[1][i], z, &word[1]);
        if (__builtin_expect(rare[0] | rare[1], 0)) {
            rare_x8(&g[0], rare[0], word[0], gen, noise[0][i], z);
            rare_x8(&g[1], rare[1], word[1], gen + 1, noise[1][i], z);
        }
    }
    for (s = 0; s < 2; s++) {
        _mm512_store_si512(w[s][0], g[s].sh);
        _mm512_store_si512(w[s][1], g[s].sl);
        for (j = 0; j < GROUP; j++)
            gen[2 * j + s].state = (u128)w[s][0][j] << 64 | w[s][1][j];
    }
}

/* fold_tile of a whole group's tile, all GROUP lanes in one vector */
WIDE_TARGET static void fold_tile_x8(const double *y, const double *x, int64_t n, int64_t done,
                                     const double *y_start, double *s, double *mean, double *m2)
{
    fold_tile(y, x, GROUP, GROUP, n, done, y_start, s, mean, m2);
}

/* whether this CPU takes the wide draws and fold */
static int wide_cpu(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")
           && __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw");
}
#else
#define wide_cpu() 0
#define draw_tile_x8(gen, live, noise, n, z) ((void)0)
#define fold_tile_x8(y, x, n, done, y_start, s, mean, m2) ((void)0)
#endif

/* 1 where hl_lane_block draws and folds whole groups in AVX-512 vectors on
   this CPU, else 0 */
int64_t hl_wide_draws(void)
{
    return wide_cpu();
}

/* Take `lanes` lanes through their whole paths of `steps` steps, each from
 * its start y_end, x_end (Z = sqrt(y_end) for DESRE and DISRE), which the
 * caller sets to y0, x0.  The noise comes from streams, (lanes, 2, 4)
 * row-major, the seed words of each lane's eta and zeta PCG64 streams,
 * which receive the streams' last states: for each tile, each live lane
 * draws its tile's eta normals and its zeta normals, the live streams of a
 * group of lanes side by side, with the ziggurat tables (3, 256): ki, then
 * wi and fi as the bits of doubles.  Where streams is NULL it is read from
 * eta and zeta, (lanes, steps), row-major.  y_start, y_end, x_end, mean, m2
 * and aborted are (lanes,), and sums is (6, lanes), row-major: the arrays
 * of a fresh PathSums, updated in place.  Tiles are TILE steps, the last
 * one possibly short.  Unless they are NULL, y_out and x_out, (lanes,
 * steps + 1) row-major, receive each lane's variance and price points, its
 * start first, tile by tile while the lane is live.  Lanes go GROUP at a
 * time; a last short group takes whole vectors of lanes, padded with
 * copies of its first lane, which never draw (their noise is 0) and whose
 * results are dropped; so are an aborted lane's, whose steps run on with
 * its group. */
void hl_lane_block(int64_t scheme, const double *k, const double *p, int64_t lanes, int64_t steps,
                   uint64_t *streams, const uint64_t *tables, const double *eta,
                   const double *zeta, const double *y_start, double *y_end, double *x_end,
                   double *sums, double *mean, double *m2, int64_t *aborted, double *y_out,
                   double *x_out)
{
    struct ziggurat z;
    int64_t g0, t0, i;
    int j, q, wide = wide_cpu();
    if (streams != NULL) {
        memcpy(z.ki, tables, sizeof z.ki);
        memcpy(z.wi, tables + 256, sizeof z.wi);
        memcpy(z.fi, tables + 512, sizeof z.fi);
    }
    for (g0 = 0; g0 < lanes; g0 += GROUP) {
        int real = lanes - g0 < GROUP ? (int)(lanes - g0) : GROUP, live = real;
        /* the lanes that the steps and the fold take, in whole vectors: a
           short group, as a single path's, takes no more than it needs */
        int w = (real + VW - 1) / VW * VW;
        /* the group's tile, lane-major, and its lanes' sums */
        double noise[2][TILE][GROUP] __attribute__((aligned(64)));
        double y[TILE + 1][GROUP], x[TILE + 1][GROUP];
        double ys[GROUP], fs[6][GROUP], fmean[GROUP], fm2[GROUP];
        struct pcg64 gen[2 * GROUP];
        int64_t lane[GROUP];
        double s[GROUP];
        int64_t hit[GROUP] = {0};
        memset(noise, 0, sizeof noise);
        memset(gen, 0, sizeof gen); /* padding lanes' streams, carried masked */
        for (j = 0; j < GROUP; j++) {
            int64_t l = lane[j] = g0 + (j < real ? j : 0);
            s[j] = scheme == DESRE || scheme == DISRE ? sqrt(y_end[l]) : y_end[l];
            y[0][j] = y_end[l];
            x[0][j] = x_end[l];
            ys[j] = y_start[l];
            for (q = 0; q < 6; q++)
                fs[q][j] = sums[q * lanes + l];
            fmean[j] = mean[l];
            fm2[j] = m2[l];
            if (j < real) {
                aborted[l] = 0;
                if (y_out != NULL) {
                    y_out[l * (steps + 1)] = y_end[l];
                    x_out[l * (steps + 1)] = x_end[l];
                }
                if (streams != NULL) {
                    gen[2 * j] = pcg64_seed(streams + 8 * l);
                    gen[2 * j + 1] = pcg64_seed(streams + 8 * l + 4);
                }
            }
        }
        for (t0 = 0; t0 < steps && live; t0 += TILE) {
            int64_t n = steps - t0 < TILE ? steps - t0 : TILE;
            if (streams != NULL && wide && live >= WIDE_LIVE) {
                unsigned mask = 0;
                for (j = 0; j < real; j++)
                    mask |= (unsigned)!hit[j] << j;
                draw_tile_x8(gen, mask, noise, n, &z);
            } else if (streams != NULL) {
                /* the live lanes' streams, side by side */
                struct pcg64 g[2 * GROUP];
                double *out[2 * GROUP];
                int m = 0;
                for (j = 0; j < real; j++)
                    if (!hit[j]) {
                        g[m] = gen[2 * j];
                        out[m++] = &noise[0][0][j];
                        g[m] = gen[2 * j + 1];
                        out[m++] = &noise[1][0][j];
                    }
                draw_tile(g, m, out, n, &z);
                m = 0;
                for (j = 0; j < real; j++)
                    if (!hit[j]) {
                        gen[2 * j] = g[m++];
                        gen[2 * j + 1] = g[m++];
                    }
            } else {
                for (j = 0; j < real; j++)
                    for (i = 0; i < n; i++) {
                        noise[0][i][j] = eta[lane[j] * steps + t0 + i];
                        noise[1][i][j] = zeta[lane[j] * steps + t0 + i];
                    }
            }
            variance_steps((int)scheme, k, s, noise[0], n, w, y, t0, hit);
            price_steps(p, y, noise[0], noise[1], n, w, x);
            if (wide && w == GROUP)
                fold_tile_x8(&y[0][0], &x[0][0], n, t0, ys, &fs[0][0], fmean, fm2);
            else
                fold_tile(&y[0][0], &x[0][0], GROUP, w, n, t0, ys, &fs[0][0], fmean, fm2);
            for (j = 0; j < real; j++)
                if (hit[j] && !aborted[lane[j]]) {
                    aborted[lane[j]] = hit[j];
                    live--;
                }
            if (y_out != NULL)
                for (j = 0; j < real; j++)
                    if (!hit[j])
                        for (i = 1; i <= n; i++) {
                            y_out[lane[j] * (steps + 1) + t0 + i] = y[i][j];
                            x_out[lane[j] * (steps + 1) + t0 + i] = x[i][j];
                        }
            memcpy(y[0], y[n], sizeof y[0]);
            memcpy(x[0], x[n], sizeof x[0]);
        }
        for (j = 0; j < real; j++) {
            int64_t l = lane[j];
            if (streams != NULL) {
                pcg64_store(&gen[2 * j], streams + 8 * l);
                pcg64_store(&gen[2 * j + 1], streams + 8 * l + 4);
            }
            if (hit[j])
                continue;
            y_end[l] = y[0][j];
            x_end[l] = x[0][j];
            for (q = 0; q < 6; q++)
                sums[q * lanes + l] = fs[q][j];
            mean[l] = fmean[j];
            m2[l] = fm2[j];
        }
    }
}


/* PathSums.fold of one lane's whole path of `steps` steps, points y[0..steps]
 * and x[0..steps], into the arrays of a fresh one-lane PathSums: sums (6,),
 * mean and m2, from y_start.  Its tiles go through fold_tile, as a group of
 * one lane, in time order, a partial last one included, as hl_lane_block
 * folds a lane. */
void hl_fold_path(const double *y, const double *x, int64_t steps, double y_start, double *sums,
                  double *mean, double *m2)
{
    int64_t t0;
    for (t0 = 0; t0 < steps; t0 += TILE)
        fold_tile(y + t0, x + t0, 1, 1, steps - t0 < TILE ? steps - t0 : TILE, t0, &y_start, sums,
                  mean, m2);
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

/* The CSV lines of a table of `rows` rows and `cols` columns, cell (r, c)
 * at columns[c][r], each cell of column c as Python's '%.17g' (kinds[c] =
 * CELL_FLOAT) or '%d' (CELL_INT) writes it: cells split by ',', each row
 * ended by '\n'.  pow10 is the table of 10^q, (POW10_MAX - POW10_MIN + 1,
 * 3).  out needs at most 26 bytes a cell.  Returns the bytes written, or
 * -1 where a float cell is not finite, an int cell is not an integer of
 * magnitude below 2^53, or snprintf writes other than a number (a locale's
 * decimal comma): the caller then formats them all itself. */
int64_t hl_format_rows(const double *const *columns, int64_t rows, int64_t cols,
                       const int64_t *kinds, const uint64_t *pow10, char *out)
{
    char *p = out;
    int64_t r, c;
    for (r = 0; r < rows; r++)
        for (c = 0; c < cols; c++) {
            double v = columns[c][r];
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

/* The most significant digits a float cell's mantissa takes: 10^19 - 1 < 2^64 */
#define MAX_DIGITS 19

/* 10^0 to 10^22, each a double exactly, for Clinger's exact path */
static const double EXACT_POW10[23] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                       1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                                       1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* The units of a product's top 128 bits next to one half within which the
   reader leaves it to strtod: the true value lies in [T, T + 2) of them
   (eisel_lemire), and in [T - 1, T + 3) were every mantissa of the table a
   unit off */
#define READ_WINDOW 3

/* Whether the 8 bytes at p are all digits, and then their value into *v,
 * all at once, as Lemire's fast_float reads them: each byte's high nibble
 * must be 3 and its low one at most 9, then pairs, quads and the whole are
 * joined by multiplications.  Little-endian bytes only; elsewhere it
 * returns 0, and the caller reads the digits one at a time. */
static int eight_digits(const char *p, uint64_t *v)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    const uint64_t high = 0xF0F0F0F0F0F0F0F0ULL, low = 0x000000FF000000FFULL;
    uint64_t x;
    memcpy(&x, p, sizeof x);
    if (((x & high) | (((x + 0x0606060606060606ULL) & high) >> 4)) != 0x3333333333333333ULL)
        return 0;
    x -= 0x3030303030303030ULL;
    x = x * 10 + (x >> 8);
    *v = ((x & low) * (100 + (1000000ULL << 32)) + ((x >> 16) & low) * (1 + (10000ULL << 32)))
         >> 32;
    return 1;
#else
    (void)p;
    (void)v;
    return 0;
#endif
}

/* The double nearest w * 10^q, for 0 < w < 10^19, into *value, by Eisel and
 * Lemire's method on row q of the writer's table: 10^q truncated to M * 2^E.
 * With w shifted left to its top bit, W, the 192-bit product P = W * M is
 * exact, and the true value lies in [P, P + W) units of 2^(E - shift): its
 * top 128 bits T, from bit 126 or 127 down, lie in [T, T + 2).  The top 53
 * bits of T are the mantissa and the f bits below them its fraction,
 * rounded down where f is READ_WINDOW units or more below one half, and up
 * where it is that far above: a value that the interval carries into the
 * next mantissa lies next to it, and rounds to it either way.  Returns -1
 * for strtod to decide, an exact or near tie, or where the result is not a
 * normal double. */
static int eisel_lemire(uint64_t w, int q, const uint64_t *pow10, double *value)
{
    const uint64_t *row = pow10 + 3 * (q - POW10_MIN);
    int shift = __builtin_clzll(w);
    uint64_t top_w = w << shift, m, bits;
    u128 top = (u128)top_w * row[0] + (((u128)top_w * row[1]) >> 64);
    int fb = (int)(top >> 127) + 74; /* the fraction's bits: T >= 2^126 */
    u128 one = (u128)1 << fb, half = one >> 1, f = top & (one - 1);
    int64_t e = fb + 64 + (int64_t)row[2] - shift; /* the mantissa's unit, 2^e */
    m = (uint64_t)(top >> fb);
    if (f + READ_WINDOW > half) {
        if (f < half + READ_WINDOW)
            return -1;
        if (++m == 1ULL << 53) {
            m >>= 1;
            e++;
        }
    }
    /* m * 2^e, m in [2^52, 2^53): the biased exponent e + 1075 */
    if (e + 1075 < 1 || e + 1075 > 2046)
        return -1;
    bits = (uint64_t)(e + 1075) << 52 | (m & 0x000fffffffffffffULL);
    memcpy(value, &bits, sizeof bits);
    return 0;
}

/* A float cell at p, -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?: its value as
 * float() reads it into *value, and its end, or NULL where the grammar does
 * not take it (then "1e", "-", ".5"; and "1e5e5", "1-2", "1.5.5" or "5."
 * end where the caller finds no separator).  Its significant digits, at
 * most MAX_DIGITS, make w and q, the value w * 10^q: zero where w is;
 * Clinger's exact path where w < 2^53 and |q| <= 22, one correctly rounded
 * IEEE multiplication or division of doubles that hold w and 10^|q|
 * exactly; eisel_lemire where q is in the table.  strtod reads the rest:
 * more digits, q outside the table, and what eisel_lemire leaves; in a
 * locale whose decimal point is not '.', its end pointer then falls short
 * of the cell's end, which refuses the cell. */
static const char *read_float(const char *p, const char *end, const uint64_t *pow10,
                              double *value)
{
    const char *cell = p, *start;
    char *stop;
    int negative = *p == '-';
    int64_t digits, q = 0;
    uint64_t w = 0;
    double v;
    p += negative;
    if (!is_digit(*p))
        return NULL;
    while (*p == '0')
        p++;
    for (start = p; is_digit(*p); p++)
        w = w * 10 + (uint64_t)(*p - '0');
    digits = p - start;
    if (*p == '.' && is_digit(p[1])) {
        const char *point = ++p;
        uint64_t eight;
        if (digits == 0)
            while (*p == '0')
                p++;
        /* eight at a time while they stay in the text */
        for (start = p; end - p >= 8 && eight_digits(p, &eight); p += 8)
            w = w * 100000000 + eight;
        for (; is_digit(*p); p++)
            w = w * 10 + (uint64_t)(*p - '0');
        digits += p - start;
        q = -(int64_t)(p - point);
    }
    if (*p == 'e' || *p == 'E') {
        int negative_exp = p[1] == '-';
        int64_t x = 0;
        p += 1 + (p[1] == '-' || p[1] == '+');
        if (!is_digit(*p))
            return NULL;
        for (; is_digit(*p); p++)
            if (x < 100000) /* far outside the table already */
                x = x * 10 + (*p - '0');
        q += negative_exp ? -x : x;
    }
    if (digits <= MAX_DIGITS) {
        if (w == 0) {
            *value = negative ? -0.0 : 0.0;
            return p;
        }
        if (w < (1ULL << 53) && q >= -22 && q <= 22) {
            v = q < 0 ? (double)w / EXACT_POW10[-q] : (double)w * EXACT_POW10[q];
            *value = negative ? -v : v;
            return p;
        }
        if (q >= POW10_MIN && q <= POW10_MAX && !eisel_lemire(w, (int)q, pow10, &v)) {
            *value = negative ? -v : v;
            return p;
        }
    }
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

/* The cells of the CSV lines of text[0..len-1], which a NUL must follow,
 * into out, (capacity, cols) row-major: row r of column c, read as float()
 * reads it (kinds[c] = CELL_FLOAT) or as int() does (CELL_INT), at
 * out[r * cols + c], so that the rows fill out from its start.  pow10 is
 * the writer's table of 10^q.  The text must be
 * lines each ended by '\n' but the last, which may end the text, each of
 * `cols` cells split by ',' and each cell of its kind's grammar
 * (read_float, read_int): no space, no blank line and no '\r'.  A line
 * takes at least 2 * cols bytes, the last one byte less, so no such text
 * holds more than (len + 1) / (2 * cols) lines, the capacity the caller
 * gives.  Returns the lines read, or -1 where the text is not so or holds
 * more than `capacity` lines, and the caller reads it itself. */
int64_t hl_parse_rows(const char *text, int64_t len, int64_t capacity, int64_t cols,
                      const int64_t *kinds, const uint64_t *pow10, double *out)
{
    const char *p = text, *end = text + len;
    int64_t r, c;
    for (r = 0; p < end; r++) {
        if (r == capacity)
            return -1;
        for (c = 0; c < cols; c++) {
            p = kinds[c] == CELL_INT ? read_int(p, out + r * cols + c)
                                     : read_float(p, end, pow10, out + r * cols + c);
            if (p == NULL)
                return -1;
            if (*p == (c + 1 < cols ? ',' : '\n'))
                p++;
            else if (!(p == end && c + 1 == cols))
                return -1;
        }
    }
    return r;
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
