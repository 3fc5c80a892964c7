"""Fixtures that more than one test module takes."""

import subprocess

import pytest

import hestonlab.kernel as kernel


@pytest.fixture(scope="session")
def portable_build(tmp_path_factory):
    """The kernel built with the test-only define HL_PORTABLE, which leaves
    out the AVX-512 draws, lane steps, fold and CSV steps, into a cache of its
    own, where load() runs every check on it; skipped where the kernel does
    not build, and failing where it builds but a check fails."""
    if kernel.lane_kernel() is None:
        try:
            kernel.load()
        except (OSError, subprocess.SubprocessError) as e:
            pytest.skip(f"the lane kernel does not build here: {e}")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernel, "CACHE_DIR", tmp_path_factory.mktemp("portable"))
        m.setattr(kernel, "FLAGS", (*kernel.FLAGS, "-DHL_PORTABLE"))
        k = kernel.load()
    assert not k.wide_draws
    return k
