"""Golden report files: the sha256 of every file `heston-lab mc` writes, for a
small DISRE experiment and a small DESRE experiment in which 4 of 24
replicates abort, pinned at one and two threads and with lane blocks cut
short.

A change that keeps the results bit-identical keeps these hashes, and
`heston-lab report` must rebuild the same files from report.json and
replicates.csv.  Runs take the compiled lane kernel where it builds, and
the same hashes are pinned for the numpy pipeline it replaces.  The files
also hold values computed by numpy's and scipy's transcendental functions
(the histogram overlay, the normality p-values), so another numpy or scipy
build may move their last bits; the failure then names the file.
"""

import hashlib

import pytest

import hestonlab.kernel as kernel
import hestonlab.simulate as simulate
from hestonlab.cli import main

COMMON = """\
alpha = 0.1
beta = 0.15
sigma2 = 0.3
rho = 0.2
x0 = 0.1
"""

CONFIGS = {
    # N = 500 ends inside the fourth 128-step summation tile
    "disre": COMMON + """\
a = 0.4
b = 0.3
sigma1 = 0.4
y0 = 0.2
T = 50
N = 500
scheme = DISRE
replicates = 12
seed = 9
""",
    # replicates 3, 0, 18 and 8 abort at grid indices 12, 581, 798 and 822
    "desre": COMMON + """\
a = 0.15
b = 0.3
sigma1 = 0.4
y0 = 0.5
T = 200
N = 1000
scheme = DESRE
replicates = 24
seed = 17
""",
}

GOLDEN = {
    "disre": {
        "fig1_a.csv": "5530169ef6620d99b60ec281d16b1508b9e142c2bf967a9e83a3f1583b6032d0",
        "fig1_alpha.csv": "c1c67364b048ca14ae46718387525cc13d54c156d4ce1612a0adc3a022e71dd9",
        "fig1_b.csv": "e8068370d93605e0a12df4a4168464d0ec7e921a350c0a8e1263045acaf0ed27",
        "fig1_beta.csv": "7c5b90b114f237fc3f45c33a2c09765de39e0fce1696a82b5aa5d9a9a4432d56",
        "replicates.csv": "23c3986cb6c1f12fccf4a99aa085b0401e9324cd0d65895ee48f66d52bd2d592",
        "report.json": "5a75a5f01fea3581c51e0e60284048e6fa78d64c2914e9a5534d5867e8ed8de8",
        "table1.csv": "33ecfcdac8b4a162fc55efd7a560f395e23b59947317eeaf7d58bdbae1c29813",
        "table2.csv": "08cb3b67417958cc4bbd5d6b1fa18cb70662a97da02b7d9ed3dfc2d2eb25c039",
        "table3.csv": "5c7804f18df0500037f74c9835588eed4915f7fe73b0674853da65048f746b02",
        "table4.csv": "4feeaaaf5a2efa3760dbf40d6c6c41bdf2d2ed86384c1074cf517fad84c9da69",
        "table5.csv": "3b470e25cac0690233bb49404c65771089ba6c1b172de25c21852f3639df9c28",
    },
    "desre": {
        "fig1_a.csv": "d2ff173d70cc579bb799add8c84281772f6cb9cbdc755bd6297ea46db73b367a",
        "fig1_alpha.csv": "bdbf3168f9ae111ec7718e09cf8c578cac17ec84d4e166f95fb4b77e63d54995",
        "fig1_b.csv": "b5f46733f2acbf4797c3bc387efc9fb7db7edbe67cd0650d321cda4282729e70",
        "fig1_beta.csv": "4119f99d3f4d8bf560c7387f3110eddd9bff967129bf0fe36c31530dafa2b10c",
        "replicates.csv": "916e72e9d070df9e57ac791da0223a8592cd1ee739393dbddb7a72eb0dc6da3d",
        "report.json": "4d8081168b19757252a5b6a9351a6a15698ff9545a9603d58ae0d0a81d6eedb0",
        "table1.csv": "1dd7957cae20fa4ab51295f5f4d14a7c76a8c75e8a12ecaa8f42227f82242139",
        "table2.csv": "c40a7d39d9d64f69454c0c2ec40a75be1ed8cc49ae636b6795c981727792cbb5",
        "table3.csv": "7a8b201b1e6ca799741682aa767be2491178360f88f18b45928de0478af0ba4a",
        "table4.csv": "11ae0e493f571c1c5b170faf9f7db63b16fdc887d2d479ff2d7fd1d94faef8f1",
        "table5.csv": "ca329960280d8a45f2d8d999e35d0cf8b0ae1221cc6ce6ba3fcca4e088c23888",
    },
}


def report_hashes(tmp_path, name, threads):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(CONFIGS[name])
    out = tmp_path / "report"
    assert main(["mc", "--config", str(cfg), "--out", str(out),
                 "--threads", str(threads)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("budget", [None, 1 << 12], ids=["one-block", "short-blocks"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_files_are_golden(tmp_path, monkeypatch, name, threads, budget):
    if budget is not None:
        # blocks of 128 to 640 steps, so that most paths run through several
        # blocks and the DESRE aborts fall inside them
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", budget)
    got = report_hashes(tmp_path, name, threads)
    assert sorted(got) == sorted(GOLDEN[name])
    for file_name, digest in GOLDEN[name].items():
        assert got[file_name] == digest, file_name


@pytest.mark.parametrize("budget", [None, 1 << 12], ids=["one-block", "short-blocks"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_files_are_golden_without_the_kernel(tmp_path, monkeypatch, name, threads,
                                                    budget):
    """The numpy block pipeline, which runs where the compiled lane kernel
    does not build, writes the same files."""
    monkeypatch.setattr(kernel, "lane_kernel", lambda: None)
    test_report_files_are_golden(tmp_path, monkeypatch, name, threads, budget)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_regenerates_golden_files(tmp_path, name):
    """`heston-lab report` rebuilds every file from report.json and
    replicates.csv with the same bytes."""
    report_hashes(tmp_path, name, 1)
    out = tmp_path / "report"
    for path in out.iterdir():
        if path.name not in ("report.json", "replicates.csv"):
            path.unlink()
    assert main(["report", "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN[name]
