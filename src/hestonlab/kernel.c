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
 * lane by lane.  A tile's steps are one loop, each step one pass: it draws
 * its noise row from each lane's pair of PCG64 streams, seeded here from
 * their seed words, or reads it from given (steps,) rows of eta and zeta;
 * it takes the variance step; and it takes the price step, whose square
 * root sqrt(max(Y, 0)) the variance step holds: the root that AVE, TE and
 * SE take, or for DESRE and DISRE |Z| wherever Y = Z * Z is a normal
 * double, a correctly rounded root of a correctly rounded square being
 * |Z| there.  So the draws' chain of LCG steps and the steps' chain of
 * divisions and square roots overlap.  On a CPU with AVX-512 F, DQ, VL and
 * BW, which it asks at run time, a group draws its eta streams as one
 * vector of 8 and its zeta streams as another, takes a whole group's steps
 * in one vector of 8 and folds its tile in one vector of 8; elsewhere, and
 * in a build with HL_PORTABLE defined, it draws one stream at a time and
 * steps and folds in SSE2 vectors.  Both give the same bits.
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
 * byte for byte, in passes of 8 rows: it scales each float cell to its 17
 * digits, spells them, and lays them out by fixed-width stores; on a CPU
 * that takes the wide draws it scales and spells 8 cells of a column at a
 * time in AVX-512 vectors, with the same bits.  hl_parse_rows reads CSV
 * lines of the strict form it writes as float() and int() do, in one pass,
 * into a buffer of as many rows as a text of its length can hold, up to 23
 * digits of a fraction from three words at once; on such a CPU, where every
 * cell is a float, it first indexes a block's separators and then reads 8
 * cells at a time in AVX-512 vectors, with the same bits.  Each returns -1
 * for what it does not take, and hestonlab.simulate's Python codec then
 * takes the whole call.  Both work on one table of 128-bit powers of ten,
 * which hestonlab.kernel passes in: the writer by Loitsch's method, its
 * decimal exponent decided by one compare with the least double at or
 * above a power of ten, which it derives from the table at each call; the
 * reader by Eisel and Lemire's method, and Clinger's exact path for the
 * near ties that leaves; each leaves to glibc's snprintf or strtod the few
 * cells that the table's truncation could tip.  None keeps any state
 * between calls.
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
   noise and points lane-major, as [step][lane] rows, so that each variance
   step, price step and fold term is one pass over the lanes of the group,
   in vectors; the draws of the group's 2 * GROUP streams go
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
 * splits a compare of four lanes into scalar ones.  The draws, the steps
 * and the fold of a whole group go GROUP lanes a vector on AVX-512 CPUs
 * (below), where the draws' operations fill the ports beside the steps'.  A
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

/* The vector of the VW doubles at r, read one at a time: each step reads
   its noise row so, which the draws have just written a lane at a time and
   which a vector's load could not take from those stores */
INLINE vec_d lanes_of(const double *r)
{
    vec_d v;
    int j;
    for (j = 0; j < VW; j++)
        v[j] = r[j];
    return v;
}

/* The lane-wise operations of a vector of doubles v of any width, through
   its int64 lanes, of the type IVEC(v): fabs, its sign bit cleared;
   np.maximum(y, 0.0), +0.0 for y <= 0, -0.0 included, and a NaN kept; and
   sqrt(max(y, 0)) of AVE, TE and SE states y from the root g that their
   step takes, sqrt(|y|), sqrt(max(y, 0)) or sqrt(y): +0.0 where y <= 0,
   else g with the sign of y, which is g but for a NaN, whose sign
   sqrt(max(y, 0)) keeps */
#define IVEC(v) __typeof__((v) <= 0.0)
#define FABS_VEC(v) ((__typeof__(v))((IVEC(v))(v) & INT64_MAX))
#define MAX0_VEC(y) ((__typeof__(y))((IVEC(y))(y) & ~((y) <= 0.0)))
#define EULER_ROOT(g, y) \
    ((__typeof__(g))(((IVEC(y))(g) | ((IVEC(y))(y) & INT64_MIN)) & ~((y) <= 0.0)))

/* The steps of a vector of lanes, on vectors of any width, with the scheme
 * constants k[] and the price constants p[] of simulate.step_constants,
 * each evaluated left to right as the simulate module docstring writes
 * it: AVE, TE and SE from Y over the noise e with the root g that the
 * scheme takes; DESRE from Z; DISRE's u, whose Z is then u + sqrt(u u +
 * k[1]); and the price from x over the last variance point y with its root
 * sqrt(max(y, 0)) and the noise e and f. */
#define EULER_STEP(v, g, e, k) \
    (((v) + ((k)[0] - (k)[1] * (v)) * (k)[2]) + (((k)[3] * (g)) * (k)[4]) * (e))
#define DESRE_STEP(v, e, k) (((v) + ((k)[0] / (v) - (k)[1] * (v)) * (k)[2]) + (k)[3] * (e))
#define DISRE_U(v, e, k) (((v) + (k)[2] * (e)) / (k)[0])
#define PRICE_STEP(x, y, root, e, f, p) \
    ((x) + (((p)[2] - (p)[3] * (y)) * (p)[4]      \
            + (((p)[5] * (root)) * (p)[6]) * ((p)[0] * (e) + (p)[1] * (f))))

/* What a group's steps carry from one step to the next, each in vectors of
 * its lanes, z[h / VW] for the lanes h, h + 1, ...: each lane's state z (Y,
 * or Z for DESRE and DISRE), its last variance and price points y and x,
 * and for DESRE the lanes that have a hit, dead, as a mask, which bitwise
 * operations keep, and their hits.  Each tile loop copies the carry into a
 * local of its own, which the compiler keeps in registers. */
struct carry {
    vec_d z[GROUP / VW], y[GROUP / VW], x[GROUP / VW];
    vec_i dead[GROUP / VW], hit[GROUP / VW];
};

/* A lane group's tile, lane-major, [step][lane], of n steps after `first`:
 * its points y[0..n] and x[0..n], y[0] and x[0] those of the last tile, for
 * the fold; the noise row of the step being taken, which each step draws
 * or reads and then takes at once; the scheme constants k[] and the price
 * constants p[] of simulate.step_constants; and the carry of the lanes
 * that the steps take, the first w, a multiple of VW. */
struct tile {
    double row[2][GROUP] __attribute__((aligned(64))); /* eta, then zeta */
    double y[TILE + 1][GROUP], x[TILE + 1][GROUP];
    const double *k, *p;
    struct carry c;
    int64_t n, first;
    int w;
};

/* sqrt(max(y, 0)) of the last points y = Z * Z of the first w lanes of a
   group whose DESRE or DISRE states are Z, into root[]: |Z| where each
   lane's y is a normal double, since a correctly rounded square root of the
   correctly rounded Z * Z is |Z| there, and where Z is sqrt(y), a lane's
   state at the start of a path; else, where any lane's y is subnormal, 0,
   inf or a NaN, the square roots themselves */
INLINE void roots_of_squares(const struct carry *c, int w, vec_d *root)
{
    vec_i normal = (vec_i){0} == 0;
    int64_t all = -1;
    int h, j;
    for (h = 0; h < w; h += VW) {
        normal &= (c->y[h / VW] >= DBL_MIN) & (c->y[h / VW] <= DBL_MAX);
        root[h / VW] = FABS_VEC(c->z[h / VW]);
    }
    for (j = 0; j < VW; j++)
        all &= normal[j];
    if (__builtin_expect(all == 0, 0))
        for (h = 0; h < w; h += VW) {
            root[h / VW] = MAX0_VEC(c->y[h / VW]);
            sqrt_vec(&root[h / VW]);
        }
}

/* Step number `step`, from 1, of the first w lanes of a group, w a multiple
 * of VW, from the carry c over the noise row[0] (eta) and row[1] (zeta):
 * the variance step of each vector of lanes from its state, then its price
 * step from its last points, into y_next[] and x_next[].  The price takes
 * the root sqrt(max(y, 0)) of the last variance point y that the variance
 * step holds, or finds without a square root of its own: roots_of_squares
 * for DESRE and DISRE, EULER_ROOT for the others.  A DESRE lane whose Z
 * falls to 0 or below gets its first hit, hit = step; its later points are
 * not used. */
INLINE void lane_step(int scheme, const double *k, const double *p, struct carry *c, int w,
                      const double (*row)[GROUP], int64_t step, double *y_next, double *x_next)
{
    vec_d v, u, g, e, root[GROUP / VW];
    vec_i now;
    int h;
    switch (scheme) {
    case DESRE:
        roots_of_squares(c, w, root);
        for (h = 0; h < w; h += VW) {
            v = DESRE_STEP(c->z[h / VW], lanes_of(&row[0][h]), k);
            now = (v <= 0.0) & ~c->dead[h / VW];
            c->dead[h / VW] |= now;
            c->hit[h / VW] |= step & now;
            c->z[h / VW] = v;
        }
        break;
    case DISRE:
        roots_of_squares(c, w, root);
        for (h = 0; h < w; h += VW) {
            u = DISRE_U(c->z[h / VW], lanes_of(&row[0][h]), k);
            v = u * u + k[1];
            sqrt_vec(&v);
            c->z[h / VW] = u + v;
        }
        break;
    default:
        for (h = 0; h < w; h += VW) {
            v = c->z[h / VW];
            g = scheme == AVE ? FABS_VEC(v) : scheme == TE ? MAX0_VEC(v) : v;
            sqrt_vec(&g);
            root[h / VW] = EULER_ROOT(g, v);
            v = EULER_STEP(v, g, lanes_of(&row[0][h]), k);
            c->z[h / VW] = scheme == SE ? FABS_VEC(v) : v;
        }
    }
    for (h = 0; h < w; h += VW) {
        e = lanes_of(&row[0][h]);
        c->x[h / VW] = VEC(&x_next[h]) = PRICE_STEP(c->x[h / VW], c->y[h / VW], root[h / VW], e,
                                                    lanes_of(&row[1][h]), p);
        v = c->z[h / VW];
        c->y[h / VW] = VEC(&y_next[h]) = scheme == DESRE || scheme == DISRE ? v * v : v;
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

/* The steps of tile t, one loop: each step draws its noise row, then takes
 * lane_step.  The row comes from the m streams g[s], each into *out[s], the
 * streams interleaved, so that one stream's chain of 128-bit steps overlaps
 * the others' (each stream's draws keep their own order), the rows of the
 * lanes with no stream kept; or, where given is not NULL, from the given
 * draws of the first real lanes, given[0][j] and given[1][j] being lane
 * j's eta and zeta at the tile's first step. */
INLINE void tile_loop(int scheme, int w, struct tile *t, struct pcg64 *g, double *const *out,
                      int m, const double *(*given)[GROUP], int real, const struct ziggurat *z)
{
    struct carry c = t->c;
    int64_t i, n = t->n, first = t->first;
    int s, j;
    for (i = 0; i < n; i++) {
        if (given != NULL)
            for (j = 0; j < real; j++) {
                t->row[0][j] = given[0][j][i];
                t->row[1][j] = given[1][j][i];
            }
        else
            for (s = 0; s < m; s++)
                *out[s] = normal(&g[s], z);
        lane_step(scheme, t->k, t->p, &c, w, t->row, first + i + 1, t->y[i + 1], t->x[i + 1]);
    }
    t->c = c;
}

/* tile_loop of the streams of the real lanes in `live`, gen[2 j] and gen[2 j
   + 1] lane j's eta and zeta, where given is NULL; a whole group's steps
   take a constant width, whose carry the compiler keeps in registers.  Out
   of line, which takes the compiler less time than hl_lane_block with it. */
static __attribute__((noinline)) void tile_steps(int scheme, struct tile *t, struct pcg64 *gen,
                                                 unsigned live, int real,
                                                 const double *(*given)[GROUP],
                                                 const struct ziggurat *z)
{
    struct pcg64 g[2 * GROUP];
    double *out[2 * GROUP];
    int m = 0, j, s;
    if (given == NULL)
        for (j = 0; j < real; j++)
            for (s = 0; s < 2 && (live >> j & 1); s++) {
                g[m] = gen[2 * j + s];
                out[m++] = &t->row[s][j];
            }
    if (t->w == GROUP)
        tile_loop(scheme, GROUP, t, g, out, m, given, real, z);
    else
        tile_loop(scheme, t->w, t, g, out, m, given, real, z);
    if (given == NULL)
        for (j = m = 0; j < real; j++)
            for (s = 0; s < 2 && (live >> j & 1); s++)
                gen[2 * j + s] = g[m++];
}

/* ---------------------------------------------------------------------------
 * Wide draws, steps and fold, for x86-64 CPUs with AVX-512 F, DQ, VL and
 * BW, which hl_lane_block asks the CPU for at run time, so that one build
 * without -march serves every CPU; HL_PORTABLE, a test build's define,
 * leaves them out, as does any other platform.
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

/* A whole group's lanes as one vector, for lane_step_x8, and its carry, the
   bytes of a struct carry */
typedef double vec8_d __attribute__((vector_size(GROUP * sizeof(double))));
typedef int64_t vec8_i __attribute__((vector_size(GROUP * sizeof(int64_t))));
struct carry_x8 {
    vec8_d z, y, x;
    vec8_i dead, hit;
};
typedef char carry_x8_is_a_carry[sizeof(struct carry_x8) == sizeof(struct carry) ? 1 : -1];

/* libm's sqrt of each lane of v, correctly rounded */
#define SQRT_X8(v) ((vec8_d)_mm512_sqrt_pd((__m512d)(v)))

/* roots_of_squares of a whole group: its states z and last points y */
WIDE_INLINE vec8_d roots_of_squares_x8(vec8_d z, vec8_d y)
{
    __mmask8 normal = _mm512_cmp_pd_mask((__m512d)y, _mm512_set1_pd(DBL_MIN), _CMP_GE_OQ)
                      & _mm512_cmp_pd_mask((__m512d)y, _mm512_set1_pd(DBL_MAX), _CMP_LE_OQ);
    return __builtin_expect(normal == 0xff, 1) ? FABS_VEC(z) : SQRT_X8(MAX0_VEC(y));
}

/* lane_step of a whole group, its GROUP lanes in one vector: no more than
   one vector division and two square roots a step, and a fraction of the
   other operations, which a group's draws need too */
WIDE_INLINE void lane_step_x8(int scheme, const double *k, const double *p, struct carry_x8 *c,
                              const double (*row)[GROUP], int64_t step, double *y_next,
                              double *x_next)
{
    vec8_d v = c->z, e, f, g, u, root;
    vec8_i now;
    memcpy(&e, row[0], sizeof e);
    memcpy(&f, row[1], sizeof f);
    switch (scheme) {
    case DESRE:
        root = roots_of_squares_x8(v, c->y);
        v = DESRE_STEP(v, e, k);
        now = (v <= 0.0) & ~c->dead;
        c->dead |= now;
        c->hit |= step & now;
        c->z = v;
        v = v * v;
        break;
    case DISRE:
        root = roots_of_squares_x8(v, c->y);
        u = DISRE_U(v, e, k);
        c->z = v = u + SQRT_X8(u * u + k[1]);
        v = v * v;
        break;
    default:
        g = SQRT_X8(scheme == AVE ? FABS_VEC(v) : scheme == TE ? MAX0_VEC(v) : v);
        root = EULER_ROOT(g, v);
        v = EULER_STEP(v, g, e, k);
        c->z = v = scheme == SE ? FABS_VEC(v) : v;
    }
    c->x = PRICE_STEP(c->x, c->y, root, e, f, p);
    c->y = v;
    memcpy(y_next, &c->y, sizeof c->y);
    memcpy(x_next, &c->x, sizeof c->x);
}

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

/* tile_loop with each step's rows drawn by a group's 2 * GROUP streams as
   two vectors, g[0] the eta streams and g[1] the zeta ones, gen[2 j] and
   gen[2 j + 1] being lane j's: the streams of the lanes in `live` draw, the
   others keep their states and their rows; and its steps by lane_step_x8 */
WIDE_INLINE void tile_loop_x8(int scheme, struct tile *t, struct pcg64_x8 *g, __mmask8 live,
                              const struct pcg64 *gen, const struct ziggurat *z)
{
    struct carry_x8 c;
    __m512i word[2];
    __mmask8 rare[2];
    int64_t i, n = t->n, first = t->first;
    memcpy(&c, &t->c, sizeof c);
    for (i = 0; i < n; i++) {
        rare[0] = point_x8(&g[0], live, t->row[0], z, &word[0]);
        rare[1] = point_x8(&g[1], live, t->row[1], z, &word[1]);
        if (__builtin_expect(rare[0] | rare[1], 0)) {
            rare_x8(&g[0], rare[0], word[0], gen, t->row[0], z);
            rare_x8(&g[1], rare[1], word[1], gen + 1, t->row[1], z);
        }
        lane_step_x8(scheme, t->k, t->p, &c, t->row, first + i + 1, t->y[i + 1], t->x[i + 1]);
    }
    memcpy(&t->c, &c, sizeof c);
}

/* tile_steps of a group's streams, whose states go into vectors for the
   tile and back */
WIDE_TARGET static void tile_steps_x8(int scheme, struct tile *t, struct pcg64 *gen, unsigned live,
                                      const struct ziggurat *z)
{
    uint64_t w[2][4][GROUP] __attribute__((aligned(64)));
    struct pcg64_x8 g[2];
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
    tile_loop_x8(scheme, t, g, (__mmask8)live, gen, z);
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

/* whether this CPU takes the wide draws, steps and fold */
static int wide_cpu(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")
           && __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw");
}
#else
#define wide_cpu() 0
#define tile_steps_x8(scheme, t, gen, live, z) ((void)0)
#define fold_tile_x8(y, x, n, done, y_start, s, mean, m2) ((void)0)
#endif

/* 1 where hl_lane_block draws, steps and folds whole groups in AVX-512
   vectors on this CPU, else 0 */
int64_t hl_wide_draws(void)
{
    return wide_cpu();
}

/* Take `lanes` lanes through their whole paths of `steps` steps, each from
 * its start y_end, x_end (Z = sqrt(y_end) for DESRE and DISRE), which the
 * caller sets to y0, x0.  The noise comes from streams, (lanes, 2, 4)
 * row-major, the seed words of each lane's eta and zeta PCG64 streams,
 * which receive the streams' last states: at each step of a tile, each
 * lane live at the tile's start draws its eta normal and its zeta normal,
 * the live streams of a group of lanes side by side, with the ziggurat
 * tables (3, 256): ki, then wi and fi as the bits of doubles.  Where
 * streams is NULL it is read from eta and zeta, (lanes, steps), row-major.
 * y_start, y_end, x_end, mean, m2 and aborted are (lanes,), and sums is
 * (6, lanes), row-major: the arrays of a fresh PathSums, updated in
 * place.  Tiles are TILE steps, the last one possibly short.  Unless they
 * are NULL, y_out and x_out, (lanes, steps + 1) row-major, receive each
 * lane's variance and price points, its start first, tile by tile while
 * the lane is live.  Lanes go GROUP at a time; a last short group takes
 * whole vectors of lanes, padded with copies of its first lane, which
 * never draw (their noise is 0) and whose results are dropped; so are an
 * aborted lane's, whose steps run on with its group. */
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
        /* the group's tile and its lanes' sums */
        struct tile t;
        double ys[GROUP], fs[6][GROUP], fmean[GROUP], fm2[GROUP], s[GROUP];
        struct pcg64 gen[2 * GROUP];
        const double *given[2][GROUP];
        int64_t lane[GROUP], hit[GROUP] = {0};
        memset(t.row, 0, sizeof t.row);
        memset(gen, 0, sizeof gen); /* padding lanes' streams, carried masked */
        t.k = k;
        t.p = p;
        /* the lanes that the steps and the fold take, in whole vectors: a
           short group, as a single path's, takes no more than it needs */
        t.w = (real + VW - 1) / VW * VW;
        for (j = 0; j < GROUP; j++) {
            int64_t l = lane[j] = g0 + (j < real ? j : 0);
            s[j] = scheme == DESRE || scheme == DISRE ? sqrt(y_end[l]) : y_end[l];
            t.y[0][j] = y_end[l];
            t.x[0][j] = x_end[l];
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
        for (j = 0; j < GROUP; j += VW) {
            t.c.z[j / VW] = VEC(&s[j]);
            t.c.y[j / VW] = VEC(&t.y[0][j]);
            t.c.x[j / VW] = VEC(&t.x[0][j]);
            t.c.dead[j / VW] = t.c.hit[j / VW] = (vec_i){0};
        }
        for (t0 = 0; t0 < steps && live; t0 += TILE) {
            /* the lanes that draw this tile: a lane whose hit comes in it
               draws to its end */
            unsigned mask = 0;
            t.n = steps - t0 < TILE ? steps - t0 : TILE;
            t.first = t0;
            for (j = 0; j < real; j++)
                mask |= (unsigned)!hit[j] << j;
            if (streams != NULL && wide && live >= WIDE_LIVE) {
                tile_steps_x8((int)scheme, &t, gen, mask, &z);
            } else {
                for (j = 0; j < real && streams == NULL; j++) {
                    given[0][j] = eta + lane[j] * steps + t0;
                    given[1][j] = zeta + lane[j] * steps + t0;
                }
                tile_steps((int)scheme, &t, gen, mask, real, streams == NULL ? given : NULL, &z);
            }
            for (j = 0; j < GROUP; j += VW)
                VEC_I(&hit[j]) = t.c.hit[j / VW];
            if (wide && t.w == GROUP)
                fold_tile_x8(&t.y[0][0], &t.x[0][0], t.n, t0, ys, &fs[0][0], fmean, fm2);
            else
                fold_tile(&t.y[0][0], &t.x[0][0], GROUP, t.w, t.n, t0, ys, &fs[0][0], fmean, fm2);
            for (j = 0; j < real; j++)
                if (hit[j] && !aborted[lane[j]]) {
                    aborted[lane[j]] = hit[j];
                    live--;
                }
            if (y_out != NULL)
                for (j = 0; j < real; j++)
                    if (!hit[j])
                        for (i = 1; i <= t.n; i++) {
                            y_out[lane[j] * (steps + 1) + t0 + i] = t.y[i][j];
                            x_out[lane[j] * (steps + 1) + t0 + i] = t.x[i][j];
                        }
            memcpy(t.y[0], t.y[t.n], sizeof t.y[0]);
            memcpy(t.x[0], t.x[t.n], sizeof t.x[0]);
        }
        for (j = 0; j < real; j++) {
            int64_t l = lane[j];
            if (streams != NULL) {
                pcg64_store(&gen[2 * j], streams + 8 * l);
                pcg64_store(&gen[2 * j + 1], streams + 8 * l + 4);
            }
            if (hit[j])
                continue;
            y_end[l] = t.y[0][j];
            x_end[l] = t.x[0][j];
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

#define E8 100000000ULL
#define E16 10000000000000000ULL
#define E17 100000000000000000ULL

/* a byte repeated in each byte of a word */
#define BYTES(c) (0x0101010101010101ULL * (uint8_t)(c))

/* The 8 bytes at p as one word, the first in its low byte, and back: the
   writer stores and the reader loads text 8 bytes at a time */
static uint64_t load8(const char *p)
{
    uint64_t x;
    memcpy(&x, p, sizeof x);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    x = __builtin_bswap64(x);
#endif
    return x;
}

static void store8(char *p, uint64_t x)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    x = __builtin_bswap64(x);
#endif
    memcpy(p, &x, sizeof x);
}

/* The 8 decimal digits of x < 10^8, leading zeros kept, one a byte from
 * 0 to 9, the first in the low byte: its two halves of 4 digits side by
 * side in one word, then their 4 pairs, then the 8 digits, each step a
 * division of every part at once by a multiplication by a reciprocal,
 * exact in these ranges (as in Khuong's SWAR itoa). */
static uint64_t digits8(uint32_t x)
{
    uint64_t halves = x / 10000 | (uint64_t)(x % 10000) << 32;
    uint64_t hundreds = ((halves * 10486) >> 20) & 0x0000007F0000007FULL;
    uint64_t pairs = hundreds | (halves - 100 * hundreds) << 16;
    uint64_t tens = ((pairs * 103) >> 10) & 0x000F000F000F000FULL;
    return tens | (pairs - 10 * tens) << 8;
}

/* The powers 10^j whose thresholds the writer compares with: those of the
 * binades of the doubles from 2^-996 up, whose biased exponents are
 * THRESHOLD_BINADE or more.  Smaller doubles, subnormals among them, go to
 * snprintf, zeros excepted. */
#define THRESHOLD_MIN (-299)
#define THRESHOLD_MAX 308
#define THRESHOLD_BINADE 27

/* 10^0 to 10^22, each a double exactly, for the writer's thresholds and
   the reader's exact path */
static const double EXACT_POW10[23] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                       1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                                       1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* The bits of the least double >= 10^j, into th[j - THRESHOLD_MIN] for
 * each j of the range: 10^j itself for 0 <= j <= 22, where it is a double;
 * else the double after the one at or below it, M's top 53 bits, from row j
 * of the table, 10^j truncated to M * 2^E.  Those rows are exact for
 * 22 < j <= 55, and past that no truncation reaches M's top 53 bits, whose
 * low 75 are neither all zeros nor all ones in any of them: so a row a unit
 * off gives the same thresholds. */
static void thresholds(const uint64_t *pow10, uint64_t *th)
{
    int j;
    for (j = THRESHOLD_MIN; j <= THRESHOLD_MAX; j++) {
        const uint64_t *row = pow10 + 3 * (j - POW10_MIN);
        if (j >= 0 && j <= 22)
            memcpy(&th[j - THRESHOLD_MIN], &EXACT_POW10[j], sizeof th[0]);
        else
            th[j - THRESHOLD_MIN] = ((uint64_t)((int64_t)row[2] + 1150) << 52) + (row[0] >> 11)
                                    - (1ULL << 52) + 1;
    }
}

/* The cells one pass of the writer takes through its three steps, and
 * their kinds: a value of 17 digits, a zero, or one for snprintf.  A pass
 * holds its float cells side by side between their values and their text:
 * cell i is v[i], and where kind[i] is G17 also N = n[i], 10^16 <= N <
 * 10^17, and d[i], '%.17g' of N * 10^(d - 16) with v's sign, whose digits
 * come as lead[i] and the words mid[i] and low[i] of digits8.  A cell of
 * another kind has N = 10^16, which the digit step takes as well. */
#define PASS_CELLS 512
enum { G17, ZERO, SLOW };
struct pass {
    uint64_t n[PASS_CELLS], lead[PASS_CELLS], mid[PASS_CELLS], low[PASS_CELLS];
    double v[PASS_CELLS];
    int32_t d[PASS_CELLS];
    uint8_t kind[PASS_CELLS];
};

/* The first step of '%.17g' of a finite v, into cell i of ps: the
 * correctly rounded 17 digits of Gay's dtoa, which Python's '%.17g' gives,
 * ties to even, as N and d.  Loitsch's method with 128-bit powers of ten:
 * N = |v| * 10^(16 - d), rounded up where its fraction is one half or
 * more, for d = floor(log10 |v|): floor(k log10 2) for k = floor(log2
 * |v|), exact for |k| < 1100 with an arithmetic shift, or one more where
 * |v| reaches the threshold th[] of the next power of ten, a compare of
 * bits.  Row q = 16 - d of the table is 10^q truncated to M * 2^E, M of 128
 * bits (its high and low words, then E); with |v| = m * 2^e, m shifted left
 * so that e + E = -128, the 192-bit product m * M is exact, its top word
 * N's integer part and the two below its fraction.  It falls short of |v| *
 * 10^q by less than N * 2^-127 < 2^-70, so where the fraction lies within
 * 2^-56 of one half, which that might have tipped, and for |v| below
 * 2^-996, the cell is left to snprintf, also correctly rounded and ties to
 * even.  N >= 10^16 - 1, with a fraction near 1 where it falls short of
 * 10^16, as it may for |v| = 10^d through an inexact row. */
static void scale_g17(double v, const uint64_t *pow10, const uint64_t *th, struct pass *ps,
                      int64_t i)
{
    const uint64_t *row;
    uint64_t bits, mag, n, hi;
    int e, d, shift;
    u128 low, high;
    memcpy(&bits, &v, sizeof bits);
    mag = bits & INT64_MAX;
    e = (int)(mag >> 52);
    ps->v[i] = v;
    ps->n[i] = E16;
    ps->kind[i] = mag == 0 ? ZERO : SLOW;
    if (e < THRESHOLD_BINADE)
        return;
    d = ((e - 1023) * 78913) >> 18;
    d += mag >= th[d + 1 - THRESHOLD_MIN];
    row = pow10 + 3 * (16 - d - POW10_MIN);
    shift = 128 + (e - 1075) + (int)(int64_t)row[2];
    if (shift < 0 || shift > 10)
        return;
    mag = ((mag & 0x000fffffffffffffULL) | 1ULL << 52) << shift;
    low = (u128)mag * row[1];
    high = (u128)mag * row[0] + (uint64_t)(low >> 64);
    n = (uint64_t)(high >> 64);
    hi = (uint64_t)high;
    /* the fraction, hi * 2^64 + the low word, within 2^72 of one half:
       hi - 2^63 in [-2^8, 2^8] */
    if (hi - (1ULL << 63) + 256 <= 512)
        return;
    n += hi >> 63;
    if (n == E17) {
        n = E16;
        d++;
    }
    ps->n[i] = n;
    ps->d[i] = d;
    ps->kind[i] = G17;
}

/* The second step, the digits of cells [from, to) of ps, one at a time */
static void digits_g17(struct pass *ps, int64_t from, int64_t to)
{
    int64_t i;
    for (i = from; i < to; i++) {
        uint32_t top = (uint32_t)(ps->n[i] / E8); /* the first 9 digits */
        ps->lead[i] = top / (uint32_t)E8;
        ps->mid[i] = digits8(top % (uint32_t)E8);
        ps->low[i] = digits8((uint32_t)(ps->n[i] % E8));
    }
}

#if defined(__x86_64__) && !defined(HL_PORTABLE)
/* the high and low words of the 128-bit product of each lane of a and b,
   from its four 32 x 32 -> 64-bit products */
WIDE_INLINE __m512i mul_x8(__m512i a, __m512i b, __m512i *low)
{
    const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFF);
    __m512i a1 = _mm512_srli_epi64(a, 32), b1 = _mm512_srli_epi64(b, 32);
    __m512i p00 = _mm512_mul_epu32(a, b), p01 = _mm512_mul_epu32(a, b1);
    __m512i p10 = _mm512_mul_epu32(a1, b), p11 = _mm512_mul_epu32(a1, b1);
    __m512i mid = _mm512_add_epi64(_mm512_add_epi64(_mm512_srli_epi64(p00, 32),
                                                    _mm512_and_si512(p01, low32)),
                                   _mm512_and_si512(p10, low32));
    __m512i carries = _mm512_add_epi64(_mm512_srli_epi64(p10, 32), _mm512_srli_epi64(mid, 32));
    *low = _mm512_or_si512(_mm512_slli_epi64(mid, 32), _mm512_and_si512(p00, low32));
    return _mm512_add_epi64(_mm512_add_epi64(p11, _mm512_srli_epi64(p01, 32)), carries);
}

/* scale_g17 of v[0..GROUP-1] into cells i to i + GROUP - 1 of ps, each
   lane through the same steps, the table's rows and thresholds gathered;
   a lane that scale_g17 leaves to snprintf, or a zero, is masked out of
   the gathers and takes its kind and N = 10^16 */
WIDE_TARGET static void scale_g17_x8(const double *v, const uint64_t *pow10, const uint64_t *th,
                                     struct pass *ps, int64_t i)
{
    const __m512i one = _mm512_set1_epi64(1), e16 = _mm512_set1_epi64((long long)E16);
    __m512i bits = _mm512_loadu_si512(v);
    __m512i mag = _mm512_and_si512(bits, _mm512_set1_epi64(INT64_MAX));
    __m512i e = _mm512_srli_epi64(mag, 52), d, row, lo, hi, n, frac, high_word, low_word;
    __mmask8 zero = _mm512_cmpeq_epi64_mask(mag, _mm512_setzero_si512());
    __mmask8 ok = _mm512_cmpge_epi64_mask(e, _mm512_set1_epi64(THRESHOLD_BINADE)), carry;
    d = _mm512_srai_epi64(_mm512_mul_epi32(_mm512_sub_epi64(e, _mm512_set1_epi64(1023)),
                                           _mm512_set1_epi64(78913)), 18);
    d = _mm512_mask_add_epi64(
        d, _mm512_mask_cmpge_epu64_mask(ok, mag, _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), ok, _mm512_sub_epi64(d, _mm512_set1_epi64(THRESHOLD_MIN - 1)),
            (const void *)th, 8)), d, one);
    /* row 16 - d of the table, three words from 3 (16 - d - POW10_MIN) */
    row = _mm512_sub_epi64(_mm512_set1_epi64(16 - POW10_MIN), d);
    row = _mm512_add_epi64(row, _mm512_slli_epi64(row, 1));
    /* the shift that makes e + E = -128 */
    hi = _mm512_add_epi64(_mm512_sub_epi64(e, _mm512_set1_epi64(1075 - 128)),
                          _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), ok,
                                                      _mm512_add_epi64(row, _mm512_set1_epi64(2)),
                                                      (const void *)pow10, 8));
    ok = _mm512_mask_cmple_epu64_mask(ok, hi, _mm512_set1_epi64(10));
    mag = _mm512_or_si512(_mm512_and_si512(mag, _mm512_set1_epi64(0x000fffffffffffffLL)),
                          _mm512_set1_epi64(1LL << 52));
    mag = _mm512_sllv_epi64(mag, hi);
    /* the product's top word n and the one below it, frac: mag times the
       row's high word, plus the high word of mag times its low word */
    high_word = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), ok, row,
                                            (const void *)pow10, 8);
    low_word = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), ok, _mm512_add_epi64(row, one),
                                           (const void *)pow10, 8);
    hi = mul_x8(mag, low_word, &lo);
    n = mul_x8(mag, high_word, &frac);
    frac = _mm512_add_epi64(frac, hi);
    carry = _mm512_cmplt_epu64_mask(frac, hi);
    n = _mm512_mask_add_epi64(n, carry, n, one);
    /* a fraction within 2^72 of one half goes to snprintf */
    ok = _mm512_mask_cmpgt_epu64_mask(
        ok, _mm512_add_epi64(frac, _mm512_set1_epi64((long long)(256 - (1ULL << 63)))),
        _mm512_set1_epi64(512));
    n = _mm512_add_epi64(n, _mm512_srli_epi64(frac, 63));
    carry = _mm512_cmpeq_epi64_mask(n, _mm512_set1_epi64((long long)E17));
    n = _mm512_mask_mov_epi64(n, carry, e16);
    d = _mm512_mask_add_epi64(d, carry, d, one);
    _mm512_storeu_pd(ps->v + i, _mm512_castsi512_pd(bits));
    _mm512_storeu_si512(ps->n + i, _mm512_mask_mov_epi64(e16, ok, n));
    _mm256_storeu_si256((__m256i *)(ps->d + i), _mm512_cvtepi64_epi32(d));
    _mm_storel_epi64((__m128i *)(ps->kind + i),
                     _mm512_cvtepi64_epi8(_mm512_maskz_mov_epi64(
                         (__mmask8)~ok, _mm512_mask_mov_epi64(_mm512_set1_epi64(SLOW), zero,
                                                              _mm512_set1_epi64(ZERO)))));
}

/* digits8 of each lane of x, x < 10^8, step by step as digits8 takes
   them: each product stays inside its 32-bit or 16-bit part of the lane,
   so that the products of those parts are the same */
WIDE_INLINE __m512i digits8_x8(__m512i x)
{
    __m512i q = _mm512_srli_epi64(_mm512_mul_epu32(x, _mm512_set1_epi64(109951163)), 40);
    __m512i r = _mm512_sub_epi64(x, _mm512_mul_epu32(q, _mm512_set1_epi64(10000)));
    __m512i halves = _mm512_or_si512(q, _mm512_slli_epi64(r, 32)), hundreds, pairs, tens;
    hundreds = _mm512_and_si512(
        _mm512_srli_epi64(_mm512_mullo_epi32(halves, _mm512_set1_epi32(10486)), 20),
        _mm512_set1_epi64(0x0000007F0000007FLL));
    r = _mm512_sub_epi32(halves, _mm512_mullo_epi32(hundreds, _mm512_set1_epi32(100)));
    pairs = _mm512_or_si512(hundreds, _mm512_slli_epi64(r, 16));
    tens = _mm512_and_si512(
        _mm512_srli_epi64(_mm512_mullo_epi16(pairs, _mm512_set1_epi16(103)), 10),
        _mm512_set1_epi64(0x000F000F000F000FLL));
    r = _mm512_sub_epi16(pairs, _mm512_mullo_epi16(tens, _mm512_set1_epi16(10)));
    return _mm512_or_si512(tens, _mm512_slli_epi64(r, 8));
}

/* The second step of cells [0, cells) of ps, GROUP at a time, as digits_g17
 * takes them, but for a last part of fewer, which it leaves; returns the
 * cells it took.  N / 10^8 goes through doubles, within one of it, as N <
 * 2^57 converts within 2^-53 of it, and is then made exact by its
 * remainder; the first of its 9 digits by a multiplication, exact below
 * 2^32. */
WIDE_TARGET static int64_t digits_g17_x8(struct pass *ps, int64_t cells)
{
    const __m512i e8 = _mm512_set1_epi64((long long)E8), one = _mm512_set1_epi64(1);
    int64_t i;
    for (i = 0; i + GROUP <= cells; i += GROUP) {
        __m512i n = _mm512_loadu_si512(ps->n + i), top, low, lead;
        __mmask8 under, over;
        top = _mm512_cvttpd_epu64(_mm512_mul_pd(_mm512_cvtepu64_pd(n), _mm512_set1_pd(1e-8)));
        low = _mm512_sub_epi64(n, _mm512_mullo_epi64(top, e8));
        under = _mm512_cmplt_epi64_mask(low, _mm512_setzero_si512());
        top = _mm512_mask_sub_epi64(top, under, top, one);
        low = _mm512_mask_add_epi64(low, under, low, e8);
        over = _mm512_cmpge_epi64_mask(low, e8);
        top = _mm512_mask_add_epi64(top, over, top, one);
        low = _mm512_mask_sub_epi64(low, over, low, e8);
        lead = _mm512_srli_epi64(_mm512_mul_epu32(top, _mm512_set1_epi64(1441151881)), 57);
        _mm512_storeu_si512(ps->lead + i, lead);
        top = _mm512_sub_epi64(top, _mm512_mul_epu32(lead, e8));
        _mm512_storeu_si512(ps->mid + i, digits8_x8(top));
        _mm512_storeu_si512(ps->low + i, digits8_x8(low));
    }
    return i;
}
#else
#define scale_g17_x8(v, pow10, th, ps, i) ((void)0)
#define digits_g17_x8(ps, cells) 0
#endif

/* The third step, cell i of ps into out: '%.17g' of a G17 cell laid out
 * from its digits, the exponent form where d < -4 or d >= 17, trailing
 * zeros dropped and then a dropped point.  Its 17 digits, a lead digit and
 * two words of 8, go out by fixed-width stores, 8 bytes at a time, and a
 * point goes in by storing the digits after it again one byte on: so a
 * cell may write up to 35 bytes past its start, over what comes after it.
 * A SLOW cell is glibc's snprintf's; returns NULL where its text holds
 * other characters than those of a number in the C locale. */
static char *layout_g17(const struct pass *ps, int64_t i, char *out)
{
    uint64_t bits, mid = ps->mid[i], low = ps->low[i];
    char lead = (char)('0' + ps->lead[i]), buf[32], *c;
    int d = ps->d[i], nd;
    if (ps->kind[i] == SLOW) {
        snprintf(buf, sizeof buf, "%.17g", ps->v[i]);
        for (c = buf; *c; c++) {
            if (!((*c >= '0' && *c <= '9') || *c == '.' || *c == 'e' || *c == '+' || *c == '-'))
                return NULL;
            *out++ = *c;
        }
        return out;
    }
    memcpy(&bits, &ps->v[i], sizeof bits);
    *out = '-';
    out += bits >> 63;
    if (ps->kind[i] == ZERO) {
        *out = '0';
        return out + 1;
    }
    /* the digits that stay: a digit byte 1 to 9 has one of its low 4 bits
       set, so the zero bytes above the last such one are the trailing
       zeros */
    nd = low ? 17 - (__builtin_clzll(low) >> 3) : mid ? 9 - (__builtin_clzll(mid) >> 3) : 1;
    mid += BYTES('0');
    low += BYTES('0');
    if (d >= 0 && d < 17) {
        /* digits d + 1 to 16 */
        u128 after = ((u128)low << 64 | mid) >> (8 * d & 127);
        out[0] = lead;
        store8(out + 1, mid);
        store8(out + 9, low);
        out[d + 1] = '.';
        store8(out + d + 2, (uint64_t)after);
        store8(out + d + 10, (uint64_t)(after >> 64));
        return out + (nd > d + 1 ? nd + 1 : d + 1);
    }
    if (d < 0 && d >= -4) {
        /* "0.", -d - 1 zeros, the digits */
        store8(out, BYTES('0') ^ (uint64_t)('0' ^ '.') << 8);
        out[1 - d] = lead;
        store8(out + 2 - d, mid);
        store8(out + 10 - d, low);
        return out + 1 - d + nd;
    }
    out[0] = lead;
    out[1] = '.';
    store8(out + 2, mid);
    store8(out + 10, low);
    out += nd > 1 ? nd + 1 : 1;
    *out++ = 'e';
    *out++ = d < 0 ? '-' : '+';
    d = d < 0 ? -d : d;
    if (d >= 100) {
        *out++ = (char)('0' + d / 100);
        d %= 100;
    }
    out[0] = (char)('0' + d / 10);
    out[1] = (char)('0' + d % 10);
    return out + 2;
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
 * 3).  The float cells go in passes of GROUP rows of all columns, or of
 * PASS_CELLS columns of one row where there are more than PASS_CELLS /
 * GROUP of them, through scale_g17, then the digits, GROUP cells a vector
 * on a CPU that takes the wide draws (digits_g17_x8) and else one at a
 * time, then layout_g17.  out needs at most 26 bytes a cell and 16 more,
 * which layout_g17's fixed-width stores may write past the text.  Returns
 * the bytes written, or -1 where a float cell is not finite, an int cell is
 * not an integer of magnitude below 2^53, or snprintf writes other than a
 * number (a locale's decimal comma): the caller then formats them all
 * itself. */
int64_t hl_format_rows(const double *const *columns, int64_t rows, int64_t cols,
                       const int64_t *kinds, const uint64_t *pow10, char *out)
{
    uint64_t th[THRESHOLD_MAX - THRESHOLD_MIN + 1];
    struct pass ps;
    int64_t block = cols <= PASS_CELLS / GROUP ? GROUP : 1;
    int64_t span = block == GROUP ? cols : PASS_CELLS; /* the columns of a pass */
    int64_t r0, c0, c, i, wide = wide_cpu();
    char *p = out;
    thresholds(pow10, th);
    for (r0 = 0; r0 < rows; r0 += block) {
        int64_t m = rows - r0 < block ? rows - r0 : block;
        for (c0 = 0; c0 < cols; c0 += span) {
            int64_t c1 = cols - c0 < span ? cols : c0 + span, cells = (c1 - c0) * block, done;
            for (c = c0; c < c1; c++) {
                if (wide && m == GROUP && kinds[c] != CELL_INT) {
                    for (i = 0; i < GROUP; i++)
                        if (!isfinite(columns[c][r0 + i]))
                            return -1;
                    scale_g17_x8(columns[c] + r0, pow10, th, &ps, (c - c0) * GROUP);
                    continue;
                }
                for (i = 0; i < block; i++) {
                    double v = i < m && kinds[c] != CELL_INT ? columns[c][r0 + i] : 0.0;
                    if (!isfinite(v))
                        return -1;
                    scale_g17(v, pow10, th, &ps, (c - c0) * block + i);
                }
            }
            done = wide ? digits_g17_x8(&ps, cells) : 0;
            digits_g17(&ps, done, cells);
            for (i = 0; i < m; i++)
                for (c = c0; c < c1; c++) {
                    p = kinds[c] == CELL_INT ? format_int(columns[c][r0 + i], p)
                                             : layout_g17(&ps, (c - c0) * block + i, p);
                    if (p == NULL)
                        return -1;
                    *p++ = c + 1 < cols ? ',' : '\n';
                }
        }
    }
    return p - out;
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* The most significant digits a float cell's mantissa takes: 10^19 - 1 < 2^64 */
#define MAX_DIGITS 19

/* The units of a product's top 128 bits next to one half within which the
   reader leaves it to strtod: the true value lies in [T, T + 2) of them
   (eisel_lemire), and in [T - 1, T + 3) were every mantissa of the table a
   unit off */
#define READ_WINDOW 3

/* The value of 8 digits, one a byte from 0 to 9, the first in the low byte
 * of x, as Lemire's fast_float reads them: pairs, quads and the whole
 * joined by multiplications */
static uint64_t value8(uint64_t x)
{
    const uint64_t low = 0x000000FF000000FFULL;
    x = x * 10 + (x >> 8);
    return ((x & low) * (100 + (1000000ULL << 32)) + ((x >> 16) & low) * (1 + (10000ULL << 32)))
           >> 32;
}

/* 10^0 to 10^8 */
static const uint64_t POW10_RUN[9] = {1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, E8};

/* The bytes of x, the digits of a run with '0' taken off, that are not
   digits: the high nibble of each, which stays 0 with 6 added where the
   byte is 0 to 9; a sum that carries out of a byte comes from a byte that
   is not a digit and goes to later ones */
#define NOT_DIGITS(x) (((x) | ((x) + BYTES(0x06))) & BYTES(0xF0))

/* The value of the first n < 8 digits of x, its bytes past them shifted
   out, and those n digits with it */
#define FIRST_DIGITS(x, n) value8((x) << (32 - 4 * (n)) << (32 - 4 * (n)))

/* The run of digits at p, as many as there are, appended to *w, which
 * becomes *w * 10^n plus their value, wrapping past 19 digits; returns
 * their count n.  Where the text holds 24 bytes at p, their three words
 * give the run's end, and up to 23 digits are read with no loop over them
 * and one branch, on the word the run ends in; else and for longer runs,
 * eight at a time by value8 while all eight are digits, then one at a
 * time. */
INLINE int64_t digit_run(const char *p, const char *end, uint64_t *w)
{
    const char *start = p;
    if (end - p >= 24) {
        uint64_t x0 = load8(p) ^ BYTES('0'), x1 = load8(p + 8) ^ BYTES('0');
        uint64_t x2 = load8(p + 16) ^ BYTES('0');
        uint64_t o0 = NOT_DIGITS(x0), o1 = NOT_DIGITS(x1), o2 = NOT_DIGITS(x2);
        int n;
        if (o0) {
            n = __builtin_ctzll(o0) >> 3;
            *w = *w * POW10_RUN[n] + FIRST_DIGITS(x0, n);
            return n;
        }
        if (o1) {
            n = __builtin_ctzll(o1) >> 3;
            *w = (*w * E8 + value8(x0)) * POW10_RUN[n] + FIRST_DIGITS(x1, n);
            return 8 + n;
        }
        if (o2) {
            n = __builtin_ctzll(o2) >> 3;
            *w = ((*w * E8 + value8(x0)) * E8 + value8(x1)) * POW10_RUN[n] + FIRST_DIGITS(x2, n);
            return 16 + n;
        }
    }
    for (; end - p >= 8 && !NOT_DIGITS(load8(p) ^ BYTES('0')); p += 8)
        *w = *w * E8 + value8(load8(p) ^ BYTES('0'));
    for (; is_digit(*p); p++)
        *w = *w * 10 + (uint64_t)(*p - '0');
    return p - start;
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
INLINE int eisel_lemire(uint64_t w, int q, const uint64_t *pow10, double *value)
{
    const uint64_t *row = pow10 + 3 * (q - POW10_MIN);
    int shift = __builtin_clzll(w);
    uint64_t top_w = w << shift, hi, lo, m, f, half, bits;
    u128 top = (u128)top_w * row[0] + (uint64_t)(((u128)top_w * row[1]) >> 64);
    int64_t e, d;
    int wide;
    hi = (uint64_t)(top >> 64);
    lo = (uint64_t)top;
    /* T >= 2^126: its fraction is the low 10 bits of hi, or 11 where
       T >= 2^127, and lo; f and half are their high parts */
    wide = (int)(hi >> 63);
    m = wide ? hi >> 11 : hi >> 10;
    f = hi & (wide ? 0x7FF : 0x3FF);
    half = wide ? 0x400 : 0x200;
    e = 10 + wide + 128 + (int64_t)row[2] - shift; /* the mantissa's unit, 2^e */
    d = (int64_t)(f - half);
    if ((d == 0 && lo < READ_WINDOW) || (d == -1 && lo > UINT64_MAX - (READ_WINDOW - 1)))
        return -1;
    m += d >= 0;
    /* m * 2^e, m in [2^52, 2^53]: the biased exponent e + 1075, or one more
       where m = 2^53, which the sum below carries into */
    if (e + 1075 + (int64_t)(m >> 53) < 1 || e + 1075 + (int64_t)(m >> 53) > 2046)
        return -1;
    bits = ((uint64_t)(e + 1074) << 52) + m;
    memcpy(value, &bits, sizeof bits);
    return 0;
}

/* The double w * 10^q of at most MAX_DIGITS significant digits w, negated
 * where `negative`, into *value: zero where w is; eisel_lemire where q is
 * in the table, which decides every cell but the near ties, without a
 * branch on w's size; and Clinger's exact path for those where w < 2^53
 * and |q| <= 22, one correctly rounded IEEE multiplication or division of
 * doubles that hold w and 10^|q| exactly.  Returns -1 where strtod must
 * read it. */
INLINE int decimal(uint64_t w, int64_t q, int negative, const uint64_t *pow10, double *value)
{
    double v = 0.0;
    if (w != 0 && (q < POW10_MIN || q > POW10_MAX || eisel_lemire(w, (int)q, pow10, &v))) {
        if (!(w < (1ULL << 53) && q >= -22 && q <= 22))
            return -1;
        v = q < 0 ? (double)w / EXACT_POW10[-q] : (double)w * EXACT_POW10[q];
    }
    *value = negative ? -v : v;
    return 0;
}

/* A float cell at p, -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?: its value as
 * float() reads it into *value, and its end, or NULL where the grammar does
 * not take it (then "1e", "-", ".5"; and "1e5e5", "1-2", "1.5.5" or "5."
 * end where the caller finds no separator).  Its significant digits, at
 * most MAX_DIGITS, make w and q, the value w * 10^q, which decimal()
 * reads; strtod reads the rest: more digits, and what decimal() leaves; in
 * a locale whose decimal point is not '.', its end pointer then falls
 * short of the cell's end, which refuses the cell. */
INLINE const char *read_float(const char *p, const char *end, const uint64_t *pow10,
                              double *value)
{
    const char *cell = p, *start;
    char *stop;
    int negative = *p == '-';
    int64_t digits, q = 0;
    uint64_t w = 0;
    /* a branch, which the CPU predicts, so that the next cell's start does
       not wait for this byte */
    if (negative)
        p++;
    if (!is_digit(*p))
        return NULL;
    while (*p == '0')
        p++;
    for (start = p; is_digit(*p); p++)
        w = w * 10 + (uint64_t)(*p - '0');
    digits = p - start;
    if (*p == '.' && is_digit(p[1])) {
        const char *point = ++p;
        if (digits == 0)
            while (*p == '0')
                p++;
        start = p;
        p += digit_run(p, end, &w);
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
    if (digits <= MAX_DIGITS && !decimal(w, q, negative, pow10, value))
        return p;
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

#if defined(__x86_64__) && !defined(HL_PORTABLE)
/* The bytes the wide reader indexes at a time, a multiple of 64 */
#define WIDE_BLOCK 4096

/* the highest set bit of each nonzero lane of x, from the exponent of its
   double: one more where the conversion rounds x up to a power of two, as
   it may where all of x's bits below its top 53 are near set; never for a
   lane of one set bit a byte */
WIDE_INLINE __m512i top_bit_x8(__m512i x)
{
    return _mm512_cvttpd_epi64(_mm512_getexp_pd(_mm512_cvtepu64_pd(x)));
}

/* 0x80 in each byte of each lane of x that is zero, as zero_bytes */
WIDE_INLINE __m512i zero_bytes_x8(__m512i x)
{
    const __m512i low7 = _mm512_set1_epi64(0x7F7F7F7F7F7F7F7FLL);
    __m512i set = _mm512_or_si512(_mm512_add_epi64(_mm512_and_si512(x, low7), low7), x);
    return _mm512_andnot_si512(_mm512_or_si512(set, low7), _mm512_set1_epi64(-1));
}

/* the bits of the bytes of each lane from its byte n on: all of them where
   n <= 0, none where n >= 8 */
WIDE_INLINE __m512i bytes_from_x8(__m512i n)
{
    return _mm512_sllv_epi64(_mm512_set1_epi64(-1),
                             _mm512_max_epi64(_mm512_setzero_si512(), _mm512_slli_epi64(n, 3)));
}

/* value8 of each lane of x: digit pairs, then quads, by multiply-adds of
   bytes and of 16-bit parts */
WIDE_INLINE __m512i value8_x8(__m512i x)
{
    __m512i quads = _mm512_madd_epi16(_mm512_maddubs_epi16(x, _mm512_set1_epi16(0x010A)),
                                      _mm512_set1_epi32(0x00010064));
    return _mm512_add_epi64(_mm512_mul_epu32(quads, _mm512_set1_epi64(10000)),
                            _mm512_srli_epi64(quads, 32));
}

/* The rows of the table that cells_x8 takes, q = -23..0, their high words
   and their exponents (q = 8 i + j - SHORT_ROWS in element j of rows[i] and
   of rows[3 + i]), and one of them for row q of each lane, by permutes of
   rows[0..2] or rows[3..5] */
#define SHORT_ROWS 23
WIDE_INLINE __m512i row_x8(const __m512i *rows, __m512i q)
{
    __m512i i = _mm512_add_epi64(q, _mm512_set1_epi64(SHORT_ROWS));
    return _mm512_mask_blend_epi64(_mm512_cmpge_epi64_mask(i, _mm512_set1_epi64(16)),
                                   _mm512_permutex2var_epi64(rows[0], i, rows[1]),
                                   _mm512_permutexvar_epi64(i, rows[2]));
}

/* The GROUP float cells of text that end at e[0..GROUP-1], cell i from
 * e[i - 1] + 1, into out[0..GROUP-1], as read_float and decimal() read
 * them, lane by lane: each cell of 1 to 24 bytes after the 24 bytes before
 * its end in the text, -?[0-9]+(\.[0-9]+)? of at most 19 digits, is read
 * from those bytes, as three words gathered, its point the last '.' of
 * them; then eisel_lemire, its shift from the exponent of w's double, from
 * the product of W and the row's high word alone.  W times the row's low
 * word adds less than 2^64 units to that product's top 128 bits, hi and lo,
 * which may carry one into hi: only where f lies one or two below one half
 * does that move the rounding or eisel_lemire's window, and those lanes go
 * to read_float.  Returns the lanes it read; the others, another shape, a
 * zero, a near tie or a result that is not a normal double, are
 * read_float's. */
WIDE_INLINE __mmask8 cells_x8(const char *text, const int64_t *e_at, const __m512i *rows,
                              double *out)
{
    const __m512i ones = _mm512_set1_epi64(-1), zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi64(1), dot = _mm512_set1_epi64((long long)BYTES('.'));
    __m512i e = _mm512_loadu_si512(e_at), w[3], first, sel, t, g, digits, value, q;
    __m512i hi, lo, top, shift, m, f, half, fb, ex, d, tb;
    __mmask8 ok, negative, point, carry, window;
    int k;
    first = _mm512_sub_epi64(_mm512_set1_epi64(25),
                             _mm512_sub_epi64(e, _mm512_loadu_si512(e_at - 1)));
    /* 1 to 24 bytes, after 24 in the text */
    ok = _mm512_cmple_epu64_mask(first, _mm512_set1_epi64(23))
         & _mm512_cmpge_epi64_mask(e, _mm512_set1_epi64(24));
    for (k = 0; k < 3; k++) {
        __m512i at = _mm512_add_epi64(e, _mm512_set1_epi64(8 * k - 24));
        w[k] = _mm512_mask_i64gather_epi64(zero, ok, at, (const void *)text, 1);
    }
    /* the cell's first byte, of word first / 8: a sign, and the digits
       after it */
    sel = _mm512_srli_epi64(first, 3);
    g = _mm512_mask_blend_epi64(_mm512_cmpeq_epi64_mask(sel, one), w[0], w[1]);
    g = _mm512_mask_blend_epi64(_mm512_cmpeq_epi64_mask(sel, _mm512_set1_epi64(2)), g, w[2]);
    g = _mm512_srlv_epi64(g, _mm512_slli_epi64(_mm512_and_si512(first, _mm512_set1_epi64(7)), 3));
    negative = _mm512_cmpeq_epi64_mask(_mm512_and_si512(g, _mm512_set1_epi64(0xFF)),
                                       _mm512_set1_epi64('-'));
    first = _mm512_mask_add_epi64(first, negative, first, one);
    /* the point's place t, the last '.' of the 24 bytes, where it lies in
       the cell, else -1 */
    t = ones;
    for (k = 0; k < 3; k++) {
        __m512i dots = zero_bytes_x8(_mm512_xor_si512(w[k], dot));
        t = _mm512_mask_add_epi64(t, _mm512_test_epi64_mask(dots, dots),
                                  _mm512_srli_epi64(top_bit_x8(dots), 3), _mm512_set1_epi64(8 * k));
    }
    point = _mm512_cmpge_epi64_mask(t, first);
    t = _mm512_mask_mov_epi64(ones, point, t);
    /* a digit before the point, one after it, and at most 19 digits */
    ok &= _mm512_cmpgt_epi64_mask(_mm512_mask_mov_epi64(_mm512_set1_epi64(24), point, t), first)
          & ~_mm512_mask_cmpeq_epi64_mask(point, t, _mm512_set1_epi64(23))
          & _mm512_cmple_epi64_mask(_mm512_sub_epi64(_mm512_set1_epi64(24), first),
                                    _mm512_mask_mov_epi64(_mm512_set1_epi64(19), point,
                                                          _mm512_set1_epi64(20)));
    /* the bytes below the point move one place on, those before the cell
       turn to zeros, and digits are 0 to 9, as in digit_run */
    g = _mm512_mask_add_epi64(first, point, first, one);
    digits = zero;
    for (k = 2; k >= 0; k--) {
        __m512i keep = bytes_from_x8(_mm512_sub_epi64(t, _mm512_set1_epi64(8 * k - 1)));
        __m512i moved = _mm512_slli_epi64(w[k], 8);
        if (k)
            moved = _mm512_or_si512(moved, _mm512_srli_epi64(w[k - 1], 56));
        /* keep ? w : moved, bit by bit */
        w[k] = _mm512_xor_si512(_mm512_ternarylogic_epi64(keep, w[k], moved, 0xCA),
                                _mm512_set1_epi64((long long)BYTES('0')));
        w[k] = _mm512_and_si512(w[k], bytes_from_x8(_mm512_sub_epi64(g, _mm512_set1_epi64(8 * k))));
        digits = _mm512_or_si512(digits, _mm512_add_epi64(w[k], _mm512_set1_epi64(BYTES(0x06))));
        digits = _mm512_or_si512(digits, w[k]);
    }
    ok &= _mm512_testn_epi64_mask(digits, _mm512_set1_epi64((long long)0xF0F0F0F0F0F0F0F0ULL));
    /* (v0 10^8 + v1) 10^8 + v2, v0 < 10^3: 32 x 32 -> 64-bit products, the
       second of the first sum's halves */
    value = _mm512_add_epi64(_mm512_mul_epu32(value8_x8(w[0]), _mm512_set1_epi64((long long)E8)),
                             value8_x8(w[1]));
    value = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_slli_epi64(_mm512_mul_epu32(_mm512_srli_epi64(value, 32),
                                                            _mm512_set1_epi64((long long)E8)), 32),
                         _mm512_mul_epu32(value, _mm512_set1_epi64((long long)E8))),
        value8_x8(w[2]));
    ok &= _mm512_test_epi64_mask(value, value);
    q = _mm512_mask_sub_epi64(zero, point, t, _mm512_set1_epi64(23));
    /* eisel_lemire of each lane */
    tb = top_bit_x8(value);
    shift = _mm512_sub_epi64(_mm512_set1_epi64(63), tb);
    top = _mm512_sllv_epi64(value, shift);
    carry = _mm512_cmpgt_epi64_mask(top, _mm512_set1_epi64(-1)); /* the top bit clear */
    top = _mm512_mask_slli_epi64(top, carry, top, 1);
    shift = _mm512_mask_add_epi64(shift, carry, shift, one);
    hi = mul_x8(top, row_x8(rows, q), &lo);
    fb = _mm512_add_epi64(_mm512_set1_epi64(10), _mm512_srli_epi64(hi, 63));
    m = _mm512_srlv_epi64(hi, fb);
    f = _mm512_and_si512(hi, _mm512_sub_epi64(_mm512_sllv_epi64(one, fb), one));
    half = _mm512_sllv_epi64(one, _mm512_sub_epi64(fb, one));
    ex = _mm512_add_epi64(_mm512_add_epi64(fb, _mm512_set1_epi64(128)), row_x8(rows + 3, q));
    ex = _mm512_sub_epi64(ex, shift);
    d = _mm512_sub_epi64(f, half);
    /* d = 0 with lo in the window, or d = -1 or -2 */
    window = _mm512_mask_cmplt_epu64_mask(_mm512_cmpeq_epi64_mask(d, zero), lo,
                                          _mm512_set1_epi64(READ_WINDOW))
             | _mm512_cmplt_epu64_mask(_mm512_add_epi64(d, _mm512_set1_epi64(2)),
                                       _mm512_set1_epi64(2));
    m = _mm512_mask_add_epi64(m, _mm512_cmpge_epi64_mask(d, zero), m, one);
    /* the biased exponent, as eisel_lemire's */
    f = _mm512_add_epi64(_mm512_add_epi64(ex, _mm512_set1_epi64(1075)), _mm512_srli_epi64(m, 53));
    ok &= ~window & _mm512_cmpge_epi64_mask(f, one)
          & _mm512_cmple_epi64_mask(f, _mm512_set1_epi64(2046));
    m = _mm512_add_epi64(_mm512_slli_epi64(_mm512_add_epi64(ex, _mm512_set1_epi64(1074)), 52), m);
    m = _mm512_mask_or_epi64(m, negative, m, _mm512_set1_epi64(INT64_MIN));
    _mm512_mask_storeu_pd(out, ok, _mm512_castsi512_pd(m));
    return ok;
}

/* hl_parse_rows' reading of whole lines of float cells from the start of
 * text, a WIDE_BLOCK at a time, where every kind is CELL_FLOAT, as
 * Langdale and Lemire's simdjson reads JSON: first an index of the block's
 * separators, 64 bytes by two compares of bytes, their places written out
 * 4 at a time whether there are so many or not, then one at a time past
 * that; each cell's separator checked; then the cells of the block's
 * whole lines, GROUP at a time by cells_x8, each from where the index puts
 * it, so that no cell waits for the one before it to find its end; the
 * lanes cells_x8 leaves, and a last few cells, go to read_float.  It
 * leaves to hl_parse_rows the text from a line it does not reach: its last
 * line, and any line longer than a block.  Returns the lines read, their
 * end in *resume, or -1 where the text is not of the strict form or holds
 * more than `capacity` lines. */
WIDE_TARGET static int64_t parse_rows_x8(const char *text, int64_t len, int64_t capacity,
                                         int64_t cols, const uint64_t *pow10, double *out,
                                         const char **resume)
{
    int64_t at_[WIDE_BLOCK + GROUP + 1], *at = at_ + 1, pos = 0, rows = 0, c, k;
    const char *end = text + len;
    double *values;
    __m512i table[6];
    for (k = 0; k < 6; k++) /* word 0 of the rows, then word 2 */
        table[k] = _mm512_i64gather_epi64(
            _mm512_add_epi64(
                _mm512_set1_epi64(3 * (8 * (k % 3) - SHORT_ROWS - POW10_MIN) + k / 3 * 2),
                _mm512_set_epi64(21, 18, 15, 12, 9, 6, 3, 0)),
            (const void *)pow10, 8);
    while (len - pos >= 64) {
        int64_t block = len - pos < WIDE_BLOCK ? len - pos : WIDE_BLOCK, n = 0, last = -1, j, cells;
        for (j = 0; j < block; j += 64) {
            __mmask64 valid = block - j >= 64 ? ~(__mmask64)0 : ((__mmask64)1 << (block - j)) - 1;
            __m512i x = _mm512_maskz_loadu_epi8(valid, text + pos + j);
            __mmask64 newlines = _mm512_cmpeq_epi8_mask(x, _mm512_set1_epi8('\n'));
            uint64_t mask = newlines | _mm512_cmpeq_epi8_mask(x, _mm512_set1_epi8(','));
            int count = 0;
            if (newlines)
                last = pos + j + 63 - __builtin_clzll(newlines);
            for (k = 0; k < 4; k++) {
                at[n + k] = pos + j + __builtin_ctzll(mask | 1ULL << 63);
                count += mask != 0;
                mask &= mask - 1;
            }
            for (; mask; mask &= mask - 1)
                at[n + count++] = pos + j + __builtin_ctzll(mask);
            n += count;
        }
        if (last < 0)
            break;
        for (cells = n; at[cells - 1] != last; cells--)
            ;
        if (cells % cols || rows + cells / cols > capacity)
            return -1;
        at[-1] = pos - 1;
        for (k = 0, c = 1; k < cells; k++, c = c == cols ? 1 : c + 1)
            if (text[at[k]] != (c < cols ? ',' : '\n'))
                return -1;
        values = out + rows * cols;
        for (k = 0; k < cells; k += GROUP) {
            unsigned left = cells - k < GROUP ? (1u << (cells - k)) - 1
                                              : ~cells_x8(text, at + k, table, values + k) & 0xFFu;
            for (; left; left &= left - 1) {
                int64_t i = k + __builtin_ctz(left);
                if (read_float(text + at[i - 1] + 1, end, pow10, values + i) != text + at[i])
                    return -1;
            }
        }
        rows += cells / cols;
        pos = last + 1;
    }
    *resume = text + pos;
    return rows;
}
#else
#define parse_rows_x8(text, len, capacity, cols, pow10, out, resume) ((void)(resume), 0)
#endif

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
 * gives.  On a CPU that takes the wide draws, where every kind is
 * CELL_FLOAT, parse_rows_x8 reads the lines it reaches first.  Returns the
 * lines read, or -1 where the text is not so or holds more than `capacity`
 * lines, and the caller reads it itself. */
int64_t hl_parse_rows(const char *text, int64_t len, int64_t capacity, int64_t cols,
                      const int64_t *kinds, const uint64_t *pow10, double *out)
{
    const char *p = text, *end = text + len;
    int64_t r = 0, c;
    for (c = 0; c < cols && kinds[c] == CELL_FLOAT; c++)
        ;
    if (c == cols && wide_cpu())
        r = parse_rows_x8(text, len, capacity, cols, pow10, out, &p);
    if (r < 0)
        return -1;
    for (; p < end; r++) {
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
