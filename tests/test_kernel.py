"""The compiled lane kernel against the numpy block pipeline it replaces in
Monte Carlo runs and single paths: the same bits, path by path and run by
run, with draws given or drawn in the kernel from streams it seeds itself,
and the same points where it writes them; and a loader that reads numpy's
ziggurat tables, checks the kernel's draws and falls back to numpy quietly
when it cannot build."""

import copy
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import hestonlab as hl
import hestonlab.kernel as kernel
import hestonlab.montecarlo as mc
from hestonlab.cli import main
from hestonlab.estimate import SUM_TILE, PathSums
from hestonlab.simulate import advance_variance, draw_normals, price_block

SCHEMES = list(hl.Scheme)


def lane_kernel_or_skip():
    """The kernel; the test is skipped where it does not build, and fails
    where it builds but its draws are not numpy's."""
    k = kernel.lane_kernel()
    if k is None:
        try:
            k = kernel.load()
        except (OSError, subprocess.SubprocessError) as e:
            pytest.skip(f"the lane kernel does not build here: {e}")
    return k


@pytest.fixture
def lane_kernel():
    return lane_kernel_or_skip()


def bits(a):
    """The bits of an array, every NaN taken as one NaN (the numpy pipeline
    itself keeps a NaN's sign only up to the order of an add's operands)."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.view(np.uint64).tolist()


def numpy_block(params, dt, scheme, eta, zeta, state, sums):
    """What advance_lanes does with a block when the kernel is not there."""
    y, state, aborted = advance_variance(params, dt, scheme, eta, state)
    steps = eta.shape[1]
    for t0 in range(0, steps, SUM_TILE):
        t1 = min(t0 + SUM_TILE, steps)
        y_t = y[:, t0 : t1 + 1]
        sums.fold(y_t, price_block(params, dt, y_t, eta[:, t0:t1], zeta[:, t0:t1], sums.x_end))
    return state, aborted


def both_routes(params, dt, scheme, blocks):
    """Run a path of (eta, zeta) blocks through the kernel, the blocks
    joined into one call, and through numpy block by block, dropping the
    lanes that abort at the end of their block, as advance_lanes does;
    assert that both give the same bits, and return the abort steps (by
    lane, counted from the path's start; 0 for none)."""
    steps_k, sums_k = lane_kernel_or_skip()(
        params, dt, scheme, *(np.concatenate(b, axis=1) for b in zip(*blocks)))
    lanes = blocks[0][0].shape[0]
    sums_n = PathSums(np.full(lanes, params.y0), np.full(lanes, params.x0))
    live, state, steps_n, done = np.arange(lanes), None, np.zeros(lanes, dtype=np.int64), 0
    for eta, zeta in blocks:
        state, aborted = numpy_block(params, dt, scheme, eta[live], zeta[live], state, sums_n)
        steps_n[live[aborted > 0]] = done + aborted[aborted > 0]
        keep = aborted == 0
        live, state = live[keep], state[keep]
        sums_n.select(keep)
        done += eta.shape[1]
    assert steps_k.tolist() == steps_n.tolist()
    assert np.flatnonzero(steps_k == 0).tolist() == live.tolist()
    assert sums_k.steps == sums_n.steps
    for name in ("y_start", "x_start", "y_end", "x_end", "sums", "mean", "m2"):
        assert bits(getattr(sums_k, name)) == bits(getattr(sums_n, name)), name
    return steps_k


def draws(rng, lanes, *block_steps):
    return [(rng.standard_normal((lanes, n)), rng.standard_normal((lanes, n)))
            for n in block_steps]


NEAR_ZERO = hl.ModelParams(a=0.15, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4, sigma2=0.3,
                           rho=0.2, y0=0.5, x0=0.1)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_random_groups_give_numpy_bits(scheme):
    """Random coefficients, steps and lane counts (1 to 13, so that the last
    of the kernel's groups of four is short), in blocks of whole tiles and a
    last partial one."""
    rng = np.random.default_rng([17, SCHEMES.index(scheme)])
    for _ in range(12):
        sigma1 = float(rng.uniform(0.1, 0.8))
        a = float(rng.uniform(0.05, 1.0))
        if scheme.uses_sqrt_state:
            a = max(a, 0.5 * sigma1 * sigma1 * float(rng.uniform(1.01, 2.0)))
        params = hl.ModelParams(
            a=a, b=float(rng.uniform(-1.0, 2.0)), alpha=float(rng.normal()),
            beta=float(rng.normal()), sigma1=sigma1, sigma2=float(rng.uniform(0.1, 1.0)),
            rho=float(rng.uniform(-0.9, 0.9)), y0=float(rng.uniform(0.001, 1.0)),
            x0=float(rng.normal()))
        dt = float(rng.choice([0.001, 0.01, 0.1, 0.4]))
        lanes = int(rng.integers(1, 14))
        tiles = [SUM_TILE * int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 3)))]
        both_routes(params, dt, scheme, draws(rng, lanes, *tiles, int(rng.integers(1, 300))))


@pytest.mark.parametrize("last", [5, 32, 104, 127, 128])
def test_every_shape_of_tile_sum_gives_numpy_bits(last):
    """numpy sums a row of fewer than 8 values in one loop, and up to 128 in
    8 accumulators and a remainder: last tiles of each shape."""
    rng = np.random.default_rng(last)
    for scheme in (hl.Scheme.AVE, hl.Scheme.DISRE):
        both_routes(hl.canonical_params(), 0.1, scheme, draws(rng, 5, SUM_TILE, SUM_TILE + last))


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_special_draws_give_numpy_bits(scheme):
    """Draws of +-0.0, NaN and +-inf, and the NaN and +-inf states they
    lead to, run on as numpy runs them."""
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
    blocks = draws(rng, 9, 2 * SUM_TILE, 77)
    for lane, value in enumerate(special):
        for eta, zeta in blocks:
            eta[lane, lane :: 37] = value
            zeta[lane + 1, lane :: 29] = value
    both_routes(NEAR_ZERO, 0.1, scheme, blocks)


@pytest.mark.parametrize("scheme", [hl.Scheme.AVE, hl.Scheme.TE], ids=lambda s: s.value)
def test_a_tile_of_negative_zeros_sums_to_zero(scheme):
    """A negative variance under no noise and no price drift: a first draw
    takes Y from 0.2 to about -1e6 without moving the price (rho = 0), so
    each Y dX of the tiles after it is -0.0, and the running sum of Y dX
    stays +0.0."""
    params = hl.ModelParams(a=0.4, b=0.0, alpha=0.0, beta=0.0, sigma1=0.4, sigma2=0.3,
                            rho=0.0, y0=0.2, x0=0.1)
    eta, zeta = np.zeros((5, 3 * SUM_TILE)), np.zeros((5, 3 * SUM_TILE))
    eta[:, 0] = -1e6 / (0.4 * math.sqrt(0.2 * 0.1))  # sigma1*sqrt(y0)*sqrt(dt)*eta
    both_routes(params, 0.1, scheme, [(eta, zeta)])


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_overflowing_variance_gives_numpy_bits(scheme):
    """b = -1 over T = 800 (8000 steps): the variance overflows to inf and
    the sums to inf and NaN on every route."""
    params = hl.ModelParams(a=0.4, b=-1.0, alpha=0.1, beta=0.15, sigma1=0.4, sigma2=0.3,
                            rho=0.2, y0=0.2, x0=0.1)
    rng = np.random.default_rng(9)
    both_routes(params, 0.1, scheme, draws(rng, 10, *[1024] * 7, 832))


def test_desre_aborts_at_a_block_start_and_in_a_partial_tile():
    """Lane 1 aborts at the first step of the second block, lane 2 inside
    the partial last tile of the last block, lane 3 at the first step of
    all; the lanes beside them run on."""
    rng = np.random.default_rng(3)
    blocks = draws(rng, 6, 2 * SUM_TILE, 2 * SUM_TILE, SUM_TILE + 40)
    blocks[1][0][1, 0] = -1e3
    blocks[2][0][2, SUM_TILE + 30] = -1e3
    blocks[0][0][3, 0] = -1e3
    steps = both_routes(hl.canonical_params(), 0.1, hl.Scheme.DESRE, blocks)
    assert steps[[1, 2, 3]].tolist() == [2 * SUM_TILE + 1, 4 * SUM_TILE + SUM_TILE + 31, 1]


def run_lanes_both_ways(cfg, block, monkeypatch):
    monkeypatch.setattr(hl.simulate, "BLOCK_ELEMENTS", cfg.replicates * block)
    assert hl.simulate._block_steps(cfg.replicates) == block
    got = mc._run_lanes(cfg, 0, cfg.replicates)
    with monkeypatch.context() as m:
        m.setattr(kernel, "lane_kernel", lambda: None)
        want = mc._run_lanes(cfg, 0, cfg.replicates)
    (index_k, f_k, fail_k), (index_n, f_n, fail_n) = got, want
    assert index_k.tolist() == index_n.tolist()
    assert fail_k == fail_n
    assert (f_k is None) == (f_n is None)
    if f_k is not None:
        for name, col in vars(f_n).items():
            assert bits(getattr(f_k, name)) == bits(col), name
    return got


def test_lane_groups_that_drop_lanes_mid_run_give_numpy_results(lane_kernel, monkeypatch):
    """DESRE near zero in blocks of 128 and 384 steps: lanes abort in many
    blocks and the group narrows block after block."""
    cfg = hl.ExperimentConfig(params=NEAR_ZERO, grid=hl.TimeGrid(200.0, 1000),
                              scheme=hl.Scheme.DESRE, replicates=64, master_seed=17)
    for block in (SUM_TILE, 3 * SUM_TILE):
        index, _, failures = run_lanes_both_ways(cfg, block, monkeypatch)
        assert 0 < len(failures) < cfg.replicates
        assert len({fl.step // block for fl in failures}) >= 3


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_overflowing_runs_fail_as_numpy_fails_them(lane_kernel, monkeypatch, scheme):
    params = hl.ModelParams(a=0.4, b=-1.0, alpha=0.1, beta=0.15, sigma1=0.4, sigma2=0.3,
                            rho=0.2, y0=0.2, x0=0.1)
    cfg = hl.ExperimentConfig(params=params, grid=hl.TimeGrid(231.0, 2310), scheme=scheme,
                              replicates=12, master_seed=1)
    _, _, failures = run_lanes_both_ways(cfg, 4 * SUM_TILE, monkeypatch)
    assert {fl.reason for fl in failures} <= {"NonFinitePath", "NonPositiveZ"}


def test_monte_carlo_runs_use_the_kernel(lane_kernel, monkeypatch):
    """One call per lane group takes it through all N steps, drawing its
    own normals."""
    calls = []

    class Counting:
        def draw(self, params, dt, scheme, streams, steps, paths=None):
            calls.append((len(streams), steps))
            return lane_kernel.draw(params, dt, scheme, streams, steps, paths)

    monkeypatch.setattr(kernel, "lane_kernel", Counting)
    monkeypatch.setattr(mc, "_MAX_LANES", 5)
    for name in ("advance_variance", "draw_normals", "lane_generators"):
        monkeypatch.setattr(hl.simulate, name, None)  # never reached
    cfg = hl.ExperimentConfig(params=hl.canonical_params(), grid=hl.TimeGrid(100.0, 1000),
                              scheme=hl.Scheme.DISRE, replicates=12, master_seed=901)
    hl.run_replicates(cfg)
    assert calls == [(5, 1000), (5, 1000), (2, 1000)]


# ---------------------------------------------------------------------------
# noise drawn in the kernel


def advanced(stream_pair, count):
    """Copies of an (eta, zeta) pair of generators after ``count`` more
    normals of each."""
    copies = copy.deepcopy(stream_pair)
    for gen in copies:
        gen.standard_normal(count)
    return copies


def generator(words):
    """A numpy generator in the state of a kernel stream (4 uint64 words:
    state high and low, increment high and low)."""
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
        "state": {"state": (int(words[0]) << 64) | int(words[1]),
                  "inc": (int(words[2]) << 64) | int(words[3])}}
    return gen


def drawn_against_given(params, dt, scheme, lanes, steps, seed=23, k=None):
    """A kernel call that draws a group's noise against draw_normals and a
    call on the draws it gives, from streams and generators of the same
    seeds: the same bits.  A lane that does not abort leaves its streams
    where draw_normals leaves its generators; an aborted lane stops drawing
    after the tile of its abort.  Returns the abort steps (0 for none)."""
    k = k or lane_kernel_or_skip()
    streams = hl.lane_seeds(seed, range(lanes))
    given = hl.lane_generators(seed, range(lanes))
    start = [advanced(pair, 0) for pair in given]
    aborted_d, sums_d = k.draw(params, dt, scheme, streams, steps)
    aborted_g, sums_g = k(params, dt, scheme, *draw_normals(given, steps))
    assert aborted_d.tolist() == aborted_g.tolist()
    assert sums_d.steps == sums_g.steps == steps
    for name in ("y_start", "x_start", "y_end", "x_end", "sums", "mean", "m2"):
        assert bits(getattr(sums_d, name)) == bits(getattr(sums_g, name)), name
    for lane, step in enumerate(aborted_d.tolist()):
        if step:
            want = advanced(start[lane], min(steps, -(-step // SUM_TILE) * SUM_TILE))
        else:
            want = given[lane]
        for gen, ref in zip(map(generator, streams[lane]), want):
            assert gen.bit_generator.state == ref.bit_generator.state, lane
            assert gen.standard_normal() == ref.standard_normal(), lane
    return aborted_d


@pytest.mark.parametrize("steps", [5, 128, 1000, 20077])
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_drawn_noise_gives_the_bits_of_draw_normals(scheme, steps):
    """Every scheme near the boundary, 1 to 13 lanes (so that the last of
    the kernel's groups of four is padded), whole tiles and partial ones."""
    for lanes in range(1, 14):
        drawn_against_given(NEAR_ZERO, 0.1, scheme, lanes, steps, seed=lanes)


@pytest.mark.parametrize("steps", [1000, 20077])
def test_drawn_noise_of_desre_groups_that_abort(steps):
    aborted = drawn_against_given(NEAR_ZERO, 0.2, hl.Scheme.DESRE, 64, steps)
    assert 0 < np.count_nonzero(aborted) < 64
    assert np.count_nonzero(aborted % SUM_TILE) > 0


def test_seeded_streams_are_the_generators_of_lane_generators(lane_kernel):
    """A drawing call of no steps leaves each stream in the state PCG64
    seeds it to from the same SeedSequence words, for replicate indices of
    one and two 32-bit words."""
    replicates = [0, 5, 2**32 - 1, 2**32, 2**40 + 3]
    streams = hl.lane_seeds(2**64 + 9, replicates)
    lane_kernel.draw(hl.canonical_params(), 0.1, hl.Scheme.DISRE, streams, 0)
    assert streams.shape == (5, 2, 4) and streams.dtype == np.uint64
    for words, pair in zip(streams, hl.lane_generators(2**64 + 9, replicates)):
        for stream, gen in zip(words, pair):
            assert generator(stream).bit_generator.state == gen.bit_generator.state


# ---------------------------------------------------------------------------
# single paths: the points a drawing call writes


def numpy_paths(params, dt, scheme, seed, lanes, steps):
    """The variance and price points and the abort steps of the numpy
    pipeline of simulate_paths, for replicates 0..lanes-1 of a seed."""
    eta, zeta = draw_normals(hl.lane_generators(seed, range(lanes)), steps)
    y, _, aborted = advance_variance(params, dt, scheme, eta)
    return y, price_block(params, dt, y, eta, zeta, params.x0), aborted


def drawn_paths(k, params, dt, scheme, seed, lanes, steps):
    """The points and abort steps of one drawing call with ``paths``; asserts
    that the call leaves the sums and streams of one without."""
    out = []
    for paths in (np.empty((2, lanes, steps + 1)), None):
        streams = hl.lane_seeds(seed, range(lanes))
        aborted, sums = k.draw(params, dt, scheme, streams, steps,
                               None if paths is None else tuple(paths))
        out.append((paths, aborted, [streams.tolist()] + [
            bits(getattr(sums, name)) for name in vars(sums) if name != "steps"]))
    (paths, aborted, with_paths), (_, aborted_without, without) = out
    assert aborted.tolist() == aborted_without.tolist()
    assert with_paths == without
    return paths[0], paths[1], aborted


def assert_rows_match(got, want, aborted):
    """The rows of the lanes that do not abort have the same bits; an
    aborted lane's, up to the start of the tile it aborts in."""
    for lane, step in enumerate(aborted.tolist()):
        end = (step - 1) // SUM_TILE * SUM_TILE + 1 if step else None
        for a, b in zip(got, want):
            a, b = (np.where(np.isnan(v), np.nan, v) for v in (a[lane, :end], b[lane, :end]))
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), lane


@pytest.mark.parametrize("steps", [5, 128, 20077])
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_drawn_paths_give_the_bits_of_the_numpy_pipeline(lane_kernel, scheme, steps):
    """Every scheme near the boundary, 1 to 13 lanes (so that the last of
    the kernel's groups of four is padded), whole tiles and partial ones.
    Lanes do not mix, so the first lanes of one 13-lane numpy group are the
    reference of every group."""
    y_n, x_n, aborted_n = numpy_paths(NEAR_ZERO, 0.1, scheme, 29, 13, steps)
    for lanes in range(1, 14):
        y, x, aborted = drawn_paths(lane_kernel, NEAR_ZERO, 0.1, scheme, 29, lanes, steps)
        assert aborted.tolist() == aborted_n[:lanes].tolist()
        assert_rows_match((y, x), (y_n, x_n), aborted)


def test_drawn_paths_of_a_desre_group_that_aborts(lane_kernel):
    y_n, x_n, aborted_n = numpy_paths(NEAR_ZERO, 0.2, hl.Scheme.DESRE, 23, 64, 1000)
    y, x, aborted = drawn_paths(lane_kernel, NEAR_ZERO, 0.2, hl.Scheme.DESRE, 23, 64, 1000)
    assert 0 < np.count_nonzero(aborted) < 64
    assert np.count_nonzero(aborted % SUM_TILE) > 0
    assert aborted.tolist() == aborted_n.tolist()
    assert_rows_match((y, x), (y_n, x_n), aborted)


def test_bad_paths_are_refused(lane_kernel):
    p = hl.canonical_params()
    streams = hl.lane_seeds(1, range(4))
    before = streams.copy()
    good, read_only = np.zeros((4, 11)), np.zeros((4, 11))
    read_only.flags.writeable = False
    for paths in ((good,), (good, good, good), [good, good], good, (good, None),
                  (good, good.tolist()), (good, np.zeros((4, 10))), (good, np.zeros((3, 11))),
                  (good, np.zeros((4, 11), dtype=np.float32)), (good, np.zeros((4, 11), order="F")),
                  (good, np.zeros((4, 22))[:, ::2]), (read_only, good)):
        with pytest.raises(ValueError, match="paths"):
            lane_kernel.draw(p, 0.1, hl.Scheme.DISRE, streams, 10, paths=paths)
    assert streams.tobytes() == before.tobytes()
    assert not good.any()


def test_simulate_draws_each_lane_group_in_one_kernel_call(lane_kernel, monkeypatch, tmp_path):
    """heston-lab simulate of five replicates in groups of two: one drawing
    call a group, with paths, and none of the numpy pipeline; the files are
    the numpy pipeline's."""
    calls = []

    class Counting:
        def __getattr__(self, name):
            return getattr(lane_kernel, name)

        def draw(self, params, dt, scheme, streams, steps, paths=None):
            calls.append((len(streams), steps, paths is not None))
            return lane_kernel.draw(params, dt, scheme, streams, steps, paths)

    def simulate(name):
        out = tmp_path / name
        assert main(["simulate", "--preset", "desk", "--out", str(out), "--set", "N=40",
                     "--set", "T=4", "--set", "replicates=5"]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    monkeypatch.setattr(hl.simulate, "BLOCK_ELEMENTS", 2 * 40)
    with monkeypatch.context() as m:
        m.setattr(kernel, "lane_kernel", Counting)
        for name in ("advance_variance", "draw_normals", "lane_generators"):
            m.setattr(hl.simulate, name, None)  # never reached
        got = simulate("kernel")
    assert calls == [(2, 40, True), (2, 40, True), (1, 40, True)]
    monkeypatch.setattr(kernel, "lane_kernel", lambda: None)
    assert got == simulate("numpy") and len(got) == 5


def test_a_call_writes_the_points_a_drawing_call_writes(lane_kernel):
    """For the normals a drawing call draws, a call on those draws given
    writes the same points and aborts; it refuses bad paths as draw does."""
    lanes, steps = 7, 300
    for scheme in SCHEMES:
        drawn, given = np.empty((2, lanes, steps + 1)), np.empty((2, lanes, steps + 1))
        aborted_d, _ = lane_kernel.draw(NEAR_ZERO, 0.2, scheme, hl.lane_seeds(5, range(lanes)),
                                        steps, tuple(drawn))
        aborted_g, _ = lane_kernel(NEAR_ZERO, 0.2, scheme,
                                   *draw_normals(hl.lane_generators(5, range(lanes)), steps),
                                   paths=tuple(given))
        assert aborted_d.tolist() == aborted_g.tolist()
        assert_rows_match(given, drawn, aborted_d)
    eta = np.zeros((lanes, steps))
    for paths in ((drawn[0],), (drawn[0], np.zeros((lanes, steps)))):
        with pytest.raises(ValueError, match="paths"):
            lane_kernel(NEAR_ZERO, 0.2, hl.Scheme.DISRE, eta, eta, paths=paths)


def simulate_y_both_ways(k, monkeypatch, params, grid, scheme, draws):
    """simulate_y in the kernel, with the numpy step loop out of reach, and
    on the numpy step loop: the same path bits, or the same error type,
    message and step; returns them."""
    out = []
    for route in (lambda: k, lambda: None):
        with monkeypatch.context() as m:
            m.setattr(kernel, "lane_kernel", route)
            if route() is not None:
                m.setattr(hl.simulate, "advance_variance", None)  # never reached
            try:
                out.append(bits(hl.simulate_y(params, grid, scheme, draws)))
            except hl.HestonLabError as e:
                out.append((type(e), str(e), getattr(e, "step", None)))
    assert out[0] == out[1]
    return out[0]


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_simulate_y_gives_the_same_paths_on_both_routes(lane_kernel, monkeypatch, scheme):
    """Chosen draws at three parameter sets, one of them near zero."""
    rng = np.random.default_rng([41, SCHEMES.index(scheme)])
    grid = hl.TimeGrid(100.0, 1000)
    steep = hl.ModelParams(a=2.0, b=3.0, alpha=-0.5, beta=1.0, sigma1=1.2, sigma2=0.8, rho=-0.6,
                           y0=1.5, x0=0.0)
    for params in (hl.canonical_params(), NEAR_ZERO, steep):
        draws = hl.GaussianDraws(rng.standard_normal(grid.steps), rng.standard_normal(grid.steps))
        got = simulate_y_both_ways(lane_kernel, monkeypatch, params, grid, scheme, draws)
        assert len(got) == grid.steps + 1 or got[0] is hl.NonPositiveZ


def test_simulate_y_aborts_desre_at_the_same_step_on_both_routes(lane_kernel, monkeypatch):
    eta = np.random.default_rng(4).standard_normal(300)
    eta[200] = -1e3
    draws = hl.GaussianDraws(eta, np.zeros(300))
    error, _, step = simulate_y_both_ways(lane_kernel, monkeypatch, hl.canonical_params(),
                                          hl.TimeGrid(30.0, 300), hl.Scheme.DESRE, draws)
    assert error is hl.NonPositiveZ and step == 201


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_simulate_y_overflows_at_the_same_grid_index_on_both_routes(lane_kernel, monkeypatch,
                                                                    scheme):
    """b = -1 over T = 800 (8000 steps): the variance overflows."""
    params = hl.ModelParams(a=0.4, b=-1.0, alpha=0.1, beta=0.15, sigma1=0.4, sigma2=0.3,
                            rho=0.2, y0=0.2, x0=0.1)
    draws = hl.GaussianDraws.from_lineage(hl.SeedLineage(9, 0), 8000)
    error, message, _ = simulate_y_both_ways(lane_kernel, monkeypatch, params,
                                             hl.TimeGrid(800.0, 8000), scheme, draws)
    assert error is hl.NonFinitePath, message


TABLES = kernel._ziggurat_tables(kernel.NPYRANDOM.read_bytes()) if kernel.NPYRANDOM.is_file() \
    else None


def rare_draws(gen, count):
    """Where the next ``count`` normals of a generator leave the ziggurat's
    rectangles, read from the raw words of a copy: (the number of tail
    draws, the layers of the wedge tests), as numpy's random_standard_normal
    takes them.  Asserts that the copy, advanced by the words they took,
    stands where ``count`` normals leave the generator."""
    ki, wi, fi = TABLES[0], TABLES[1].view(float), TABLES[2].view(float)
    bits = np.random.PCG64()
    bits.state = gen.bit_generator.state
    words = bits.random_raw(count + count // 16 + 64)
    layer, rabs = (words & 0xFF).astype(np.intp), (words >> np.uint64(9)) & ((1 << 52) - 1)
    rare = iter(np.flatnonzero(rabs >= ki[layer]).tolist())
    tails, wedges, at, left = 0, [], 0, count
    uniform = lambda k: (int(words[k]) >> 11) * 2.0 ** -53  # noqa: E731
    for k in rare:
        if k < at:
            continue
        if k - at >= left:
            break
        left -= k - at
        i, at = int(layer[k]), k + 1
        if i == 0:
            tails += 1
            while True:  # the tail beyond r, as numpy draws it
                xx = -0.27366123732975827203338247596 * math.log1p(-uniform(at))
                yy = -math.log1p(-uniform(at + 1))
                at += 2
                if yy + yy > xx * xx:
                    break
            left -= 1
        else:
            wedges.append(i)
            x = int(rabs[k]) * wi[i]
            at += 1
            left -= int((fi[i - 1] - fi[i]) * uniform(at - 1) + fi[i] < math.exp(-0.5 * x * x))
    at += left
    copied = np.random.PCG64()
    copied.state = gen.bit_generator.state
    copied.advance(at)
    gen = copy.deepcopy(gen)
    gen.standard_normal(count)
    assert copied.state == gen.bit_generator.state
    return tails, wedges


def test_the_drawing_tests_take_the_tail_and_the_wedges(lane_kernel):
    """The streams that test_drawn_noise_gives_the_bits_of_draw_normals
    draws 20077 normals of, 1 to 13 lanes, and those of load()'s check,
    take both of the ziggurat's rare paths."""
    for seed, lanes, steps in [(lanes, lanes, 20077) for lanes in range(1, 14)] + [
            (kernel._CHECK_SEED, kernel._CHECK_LANES, kernel._CHECK_STEPS)]:
        tails, wedges = 0, 0
        for pair in hl.lane_generators(seed, range(lanes)):
            for gen in pair:
                t, w = rare_draws(gen, steps)
                tails, wedges = tails + t, wedges + len(w)
        assert tails > 0 and wedges > tails, (seed, lanes)


# ---------------------------------------------------------------------------
# the loader


def report_files(tmp_path, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 0.15\nb = 0.3\nalpha = 0.1\nbeta = 0.15\nsigma1 = 0.4\n"
                   "sigma2 = 0.3\nrho = 0.2\ny0 = 0.5\nx0 = 0.1\nT = 200\nN = 1000\n"
                   "scheme = DESRE\nreplicates = 24\nseed = 17\n")
    out = tmp_path / name
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def assert_quiet_fallback(tmp_path, monkeypatch, capfd, error=OSError):
    """With the loader patched to fail: no warning, no stderr, no kernel,
    and mc files byte-identical to the forced fallback's."""
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(kernel, "_loaded", [])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = report_files(tmp_path, "failed-build")
    assert seen == []
    assert kernel.lane_kernel() is None
    assert capfd.readouterr().err == ""
    with pytest.raises(error):
        kernel.load()
    monkeypatch.setattr(kernel, "lane_kernel", lambda: None)
    assert got == report_files(tmp_path, "fallback")


@pytest.mark.parametrize("compiler", ["false", "no-such-compiler-here"])
def test_a_failing_compiler_leaves_the_numpy_pipeline_quietly(tmp_path, monkeypatch, capfd,
                                                                compiler):
    monkeypatch.setattr(kernel, "COMPILER", compiler)
    assert_quiet_fallback(tmp_path, monkeypatch, capfd)


def test_a_compile_that_runs_over_its_time_leaves_the_numpy_pipeline_quietly(
        tmp_path, monkeypatch, capfd):
    """load() raises it as an OSError, naming the compiler."""
    def over_time(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", over_time)
    assert_quiet_fallback(tmp_path, monkeypatch, capfd)
    with pytest.raises(OSError, match=r"cc did not finish in 120 s$"):
        kernel.load()


def test_a_missing_numpy_archive_leaves_the_numpy_pipeline_quietly(tmp_path, monkeypatch,
                                                                   capfd):
    monkeypatch.setattr(kernel, "NPYRANDOM", tmp_path / "no-such-dir" / "libnpyrandom.a")
    assert_quiet_fallback(tmp_path, monkeypatch, capfd)


def elf_object(symbols):
    """A little-endian ELF64 object whose .rodata holds each (name, bytes,
    type) symbol, type 1 for an OBJECT and 2 for a FUNC."""
    rodata = b"".join(data for _, data, _ in symbols)
    strtab = b"\0" + b"".join(name.encode() + b"\0" for name, _, _ in symbols)
    symtab, name_at, value = bytes(24), 1, 0  # the null symbol first
    for name, data, kind in symbols:
        symtab += struct.pack("<IBBHQQ", name_at, kind, 0, 1, value, len(data))
        name_at, value = name_at + len(name) + 1, value + len(data)

    def section(kind, offset, size, link=0):
        return struct.pack("<IIQQQQIIQQ", 0, kind, 0, 0, offset, size, link, 0, 8, 0)

    body = rodata + symtab + strtab
    header = b"\x7fELF\x02\x01\x01" + bytes(9) + struct.pack(
        "<HHIQQQIHHHHHH", 1, 62, 1, 0, 0, 64 + len(body), 0, 64, 0, 0, 64, 4, 0)
    return header + body + bytes(64) + section(1, 64, len(rodata)) + section(
        2, 64 + len(rodata), len(symtab), link=3) + section(
        3, 64 + len(rodata) + len(symtab), len(strtab))


def ar_archive(members):
    """An ar archive of (name, bytes) members, their names in a GNU table
    of long names."""
    def member(name, data):
        return b"%-16s%-12s%-6s%-6s%-8s%-10s`\n" % (
            name, b"0", b"0", b"0", b"644", str(len(data)).encode()) + data + b"\n" * (
            len(data) % 2)
    out, at = b"!<arch>\n" + member(b"//", b"".join(n.encode() + b"/\n" for n, _ in members)), 0
    for name, data in members:
        out, at = out + member(b"/%d" % at, data), at + len(name) + 2
    return out


def table_archive(tables=None, member=kernel._TABLE_MEMBER, symbols=kernel._TABLE_SYMBOLS,
                  size=256 * 8, obj=None):
    """A sampler archive whose member holds the ziggurat tables."""
    rows = np.asarray(TABLES if tables is None else tables, dtype="<u8")
    obj = obj or elf_object([(name, row.tobytes()[:size], 1)
                             for name, row in zip(symbols, rows)])
    return ar_archive([("src_legacy_legacy-distributions.c.o", elf_object([])),
                       (member, obj)])


def use_archive(tmp_path, monkeypatch, data):
    archive = tmp_path / "libnpyrandom.a"
    archive.write_bytes(data)
    monkeypatch.setattr(kernel, "NPYRANDOM", archive)


def test_the_reader_finds_the_tables_in_a_built_archive(lane_kernel):
    """A member found by its long name, three objects among other symbols:
    the tables the installed archive gives, ki first."""
    obj = elf_object([("wi_double", TABLES[1].tobytes(), 1), ("random_f", b"\xc3" * 16, 2),
                      ("fi_double", TABLES[2].tobytes(), 1), ("we_double", bytes(2048), 1),
                      ("ki_double", TABLES[0].tobytes(), 1)])
    got = kernel._ziggurat_tables(table_archive(obj=obj))
    assert got.dtype == np.uint64 and got.tobytes() == TABLES.tobytes()
    fi = TABLES[2].view(float)
    assert fi[0] == 1.0 and np.all(np.diff(fi) < 0) and fi[255] > 0


BROKEN_ARCHIVES = {
    "no member": lambda: table_archive(member="src_distributions_other.c.o"),
    "no symbol": lambda: table_archive(symbols=("ki_double", "wi_double", "fi_doubles")),
    "a 2040-byte table": lambda: table_archive(size=2040),
    "not ELF": lambda: table_archive(obj=b"\x7fELF\x01\x01" + bytes(58)),
    "not an archive": lambda: b"!<thin>\n",
}


@pytest.mark.parametrize("broken", BROKEN_ARCHIVES)
def test_an_archive_without_the_tables_leaves_the_numpy_pipeline_quietly(
        tmp_path, monkeypatch, capfd, broken):
    use_archive(tmp_path, monkeypatch, BROKEN_ARCHIVES[broken]())
    with pytest.raises(OSError):
        kernel._ziggurat_tables(kernel.NPYRANDOM.read_bytes())
    assert_quiet_fallback(tmp_path, monkeypatch, capfd)


def check_layers():
    """The layers whose wedge test the draws of load()'s check take."""
    return {layer for pair in hl.lane_generators(kernel._CHECK_SEED, range(kernel._CHECK_LANES))
            for gen in pair for layer in rare_draws(gen, kernel._CHECK_STEPS)[1]}


@pytest.mark.parametrize("table", [0, 1, 2], ids=kernel._TABLE_SYMBOLS)
def test_a_flipped_table_entry_fails_the_loaders_check(lane_kernel, tmp_path, monkeypatch,
                                                      capfd, table):
    """ki's tail layer set to take every point as inside, one wi entry's
    exponent bit, and the fi entry of a layer whose wedge the check takes:
    the kernel draws other normals, and load() refuses it."""
    tables = TABLES.copy()
    entry, bit = {0: (0, 62), 1: (100, 52), 2: (min(check_layers()), 51)}[table]
    tables[table, entry] ^= np.uint64(1 << bit)
    use_archive(tmp_path, monkeypatch, table_archive(tables))
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "cache")
    with pytest.raises(RuntimeError, match="draws differ from numpy's"):
        kernel.load()
    if table == 0:
        assert_quiet_fallback(tmp_path, monkeypatch, capfd, RuntimeError)


@pytest.mark.parametrize("branch", [lambda z: z > -1.0, lambda z: -37.5 <= z <= -1.0,
                                    lambda z: z < -37.5], ids=["upper", "middle", "tail"])
def test_a_log_phi_that_moves_a_bit_fails_the_loaders_check(lane_kernel, monkeypatch, branch):
    """One ulp off on one formula's interval: load() refuses the kernel."""
    exact = kernel.log_ndtr_scalar
    monkeypatch.setattr(kernel, "log_ndtr_scalar",
                        lambda z: math.nextafter(exact(z), 0.0) if branch(z) else exact(z))
    with pytest.raises(RuntimeError, match="log Phi differs from Python's"):
        kernel.load()


def test_the_loader_caches_one_build_per_source(lane_kernel, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setattr(kernel, "CACHE_DIR", cache)
    kernel.load()
    built = sorted(cache.iterdir())
    assert len(built) == 1 and built[0].name.startswith("kernel-")
    assert built[0].suffix == ".so"
    assert cache.stat().st_mode & 0o777 == 0o700

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiled again")

    with monkeypatch.context() as m:
        m.setattr(subprocess, "run", no_compiler)
        kernel.load()
    assert sorted(cache.iterdir()) == built
    # another source is another library; its compile unlinks the builds
    # unused for over a week, and no file of another name
    stale, recent, other = cache / "kernel-stale.so", cache / "kernel-recent.so", cache / "tmp1.so"
    for old, days in ((stale, 8), (recent, 1), (other, 8)):
        old.write_bytes(b"")
        os.utime(old, (time.time() - days * 86400,) * 2)
    source = tmp_path / "kernel.c"
    source.write_text(kernel.SOURCE.read_text() + "\n")
    monkeypatch.setattr(kernel, "SOURCE", source)
    kernel.load()
    assert not stale.exists() and recent.exists() and other.exists()
    recent.unlink()
    other.unlink()
    assert len(list(cache.iterdir())) == 2


def test_a_changed_numpy_archive_is_built_afresh(lane_kernel, tmp_path, monkeypatch):
    """Another numpy's sampler archive is another library, as after an
    upgrade."""
    cache, archive = tmp_path / "cache", tmp_path / "libnpyrandom.a"
    archive.write_bytes(kernel.NPYRANDOM.read_bytes())
    monkeypatch.setattr(kernel, "CACHE_DIR", cache)
    monkeypatch.setattr(kernel, "NPYRANDOM", archive)
    kernel.load()
    [first] = cache.iterdir()
    # one more archive member, which the link does not use
    data = archive.read_bytes()
    note = b"changed\n"
    header = b"%-16s%-12s%-6s%-6s%-8s%-10s`\n" % (
        b"note.txt/", b"0", b"0", b"0", b"644", str(len(note)).encode())
    archive.write_bytes(data + b"\n" * (len(data) % 2) + header + note)
    rebuilt = kernel.load()
    assert len(list(cache.iterdir())) == 2 and first.is_file()
    drawn_against_given(NEAR_ZERO, 0.1, hl.Scheme.DISRE, 3, 300, k=rebuilt)


def test_threads_that_ask_at_once_share_one_build(lane_kernel, tmp_path, monkeypatch):
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(kernel, "_loaded", [])
    compiles = []
    run = subprocess.run

    def counting_run(*args, **kwargs):
        compiles.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = [f.result(timeout=120) for f in
                   [pool.submit(kernel.lane_kernel) for _ in range(6)]]
    finally:
        sys.setswitchinterval(interval)
    assert len(compiles) == 1
    assert got[0] is not None and all(k is got[0] for k in got)


def test_draws_and_streams_that_disagree_are_refused(lane_kernel):
    p = hl.canonical_params()
    for eta, zeta in ((np.zeros((4, 10)), np.zeros((4, 9))), (np.zeros((4, 10)), np.zeros((5, 10))),
                      (np.zeros(10), np.zeros(10))):
        with pytest.raises(ValueError, match="lanes"):
            lane_kernel(p, 0.1, hl.Scheme.DISRE, eta, zeta)
    streams = hl.lane_seeds(1, range(4))
    before = streams.copy()
    for lanes, steps in ((streams, -1), (streams, 2.0), (streams, True),
                         (np.concatenate([streams, streams[:, :, :1]], axis=2), 10),
                         (streams.astype(np.int64), 10), (streams[::-1], 10),
                         (hl.lane_generators(1, range(4)), 10)):
        with pytest.raises(ValueError):
            lane_kernel.draw(p, 0.1, hl.Scheme.DISRE, lanes, steps)
    assert streams.tobytes() == before.tobytes()
    for words in (np.zeros((4, 2, 3), dtype=np.uint64), np.zeros((4, 2, 4)), [[1, 2]]):
        with pytest.raises(ValueError):
            lane_kernel.draw(p, 0.1, hl.Scheme.DISRE, words, 10)


def exported_parameter_counts(source: str) -> dict[str, int]:
    """The parameter count of each exported (not static) hl_* function that
    C source defines."""
    return {name: 0 if params.strip() in ("", "void") else params.count(",") + 1
            for name, params in re.findall(r"^\w+\s+\**(hl_\w+)\(([^)]*)\)\s*\{", source,
                                           re.MULTILINE)}


def test_the_parameter_counter_reads_definitions_only():
    source = ("/* int64_t hl_note(int a) { */\nint64_t hl_two(int a,\n            double *b)\n"
              "{\n}\nvoid hl_none(void)\n{\n}\nstatic int hl_inner(int a)\n{\n}\n"
              "int64_t hl_declared(int a);\n")
    assert exported_parameter_counts(source) == {"hl_two": 2, "hl_none": 0}


def test_each_kernel_entry_takes_the_arguments_load_declares(monkeypatch):
    """ctypes passes the arguments as argtypes declares them, so a C
    parameter more or less would shift every argument after it without an
    error.  Read before any call: such a call may crash the process."""
    for check in ("_check_draws", "_check_codec", "_check_log_ndtr"):
        monkeypatch.setattr(kernel, check, lambda k: None)
    try:
        k = kernel.load()
    except (OSError, subprocess.SubprocessError) as e:
        pytest.skip(f"the lane kernel does not build here: {e}")
    declared = {fn.__name__: len(fn.argtypes)
                for fn in (k.fn, k.format_fn, k.parse_fn, k.log_ndtr_fn)}
    assert declared == exported_parameter_counts(kernel.SOURCE.read_text())


def test_the_loader_refuses_a_cache_others_can_write(lane_kernel, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    os.chmod(cache, 0o777)
    monkeypatch.setattr(kernel, "CACHE_DIR", cache)
    with pytest.raises(PermissionError):
        kernel.load()
    assert list(cache.iterdir()) == []


def test_importing_the_cli_builds_and_opens_nothing():
    """Nor does it hash the source or numpy's archive."""
    code = (
        "import builtins, hashlib, io, json\n"
        "seen = []\n"
        "def recording(fn, what):\n"
        "    def call(*args, **kwargs):\n"
        "        seen.append(what if what else str(args[0]))\n"
        "        return fn(*args, **kwargs)\n"
        "    return call\n"
        "builtins.open = io.open = recording(io.open, None)\n"
        "hashlib.sha256 = recording(hashlib.sha256, 'sha256')\n"
        "import hestonlab.cli, hestonlab.kernel as k\n"
        "print(json.dumps([k._loaded == [], 'ctypes' in vars(k), seen]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(kernel.SOURCE.parent.parent)] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    unloaded, has_ctypes, seen = json.loads(out.stdout)
    assert unloaded and not has_ctypes
    assert "sha256" not in seen
    assert not [p for p in seen if p.endswith((".c", ".a", ".so")) or ".cache" in p], seen


def test_a_cached_kernel_loads_without_starting_a_process(lane_kernel):
    """Only a compile runs one: keying the cache must not either, as
    platform.platform() does with `uname -p`."""
    code = ("import sys, hestonlab.kernel as k\n"
            "assert k.lane_kernel() is not None\n"
            "print('subprocess' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(kernel.SOURCE.parent.parent)] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"
