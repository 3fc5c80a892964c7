"""Golden single-path files: the sha256 of every CSV `heston-lab simulate`
writes, and of what `heston-lab estimate` prints on it, for each of the five
variance schemes.

The config sends the variance close enough to zero that the three Euler
schemes take different paths, yet no DESRE path aborts, and N = 500 ends
inside the fourth 128-step summation tile.  A change that keeps single paths
bit-identical keeps these hashes.
"""

import hashlib

import pytest

from hestonlab.cli import main

CONFIG = """\
a = 0.55
b = 0.3
alpha = 0.1
beta = 0.15
sigma1 = 0.9
sigma2 = 0.3
rho = 0.2
y0 = 0.05
x0 = 0.1
T = 50
N = 500
scheme = DISRE
replicates = 2
seed = 9
"""

# file name: (sha256 of the CSV, sha256 of the estimate command's stdout)
GOLDEN = {
    "AVE": {
        "path_AVE_s9_r0000.csv": (
            "20b20e0c49468f08a9aae1db2e220173a3034198c2bac5ce3146fad696505174",
            "2527ba0bec46fdf0ff86b59539458342cd4c28827bb743045427475aa01fb7ed"),
        "path_AVE_s9_r0001.csv": (
            "798f9172b110428d0834c59caf7384844200d6c79585bc19134df59cfbc72539",
            "75e9a4c24ea2a17d60015c56d51d794a89659d6a18c0b922274fba074665819f"),
    },
    "TE": {
        "path_TE_s9_r0000.csv": (
            "9418600eaf2a570be2fafb1c857341330899b7cf69165c2197256196e5f1fa04",
            "6b605214b5f9a4e6fb63397f411098fbdd84cf657f2904148e82f30ed9edb0d0"),
        "path_TE_s9_r0001.csv": (
            "906a2320b8d51d7f82093601cf37cee8c55a0014a8703d853d46eb4788ffe9cb",
            "d5b3fa52caea530edab8781c6a954d8728e4fcb75fde26d88f8b8a7e4ba040fb"),
    },
    "SE": {
        "path_SE_s9_r0000.csv": (
            "b3eb4e433be5ae31ee78a2520241f933eea4abf99807b58267a529ec8c57ddc2",
            "4d10e787fa8b7183f58ee3ec9f01de3a61b5dbb0604bced098bc04a5c53a1657"),
        "path_SE_s9_r0001.csv": (
            "d289e07ed28ae50bfc6bad71901b01812aa29ecc03dd1949488c4acdb68ed2dd",
            "69846d36cce150cd0a1810a3066cf91dfa42b773ac9e0c6b469e12ecc853e03d"),
    },
    "DESRE": {
        "path_DESRE_s9_r0000.csv": (
            "30a2f2add4c720c7b85ed1b1fa665cc6defa7322cba55ec8985f94777237739f",
            "4d27f4ed60ea463dc9013bf42555984cde08618bf41d1860be8d46e9752a47d3"),
        "path_DESRE_s9_r0001.csv": (
            "33adc84613957b7a28d2250d7012abc8b101a1b73694436bf905158e1c3902f4",
            "5fbe5c352e9d7342bb8d8812eda48b7693f09e8cf4cdff41811d4ec61ca822bf"),
    },
    "DISRE": {
        "path_DISRE_s9_r0000.csv": (
            "c5820cd88e59b2e61ca73dc8537e77b4d43722255ef278f266d729dec7c04b0f",
            "fafece7195630ac91f6354267859cabac964d9fa3189e5cebfeaf414dd90baa6"),
        "path_DISRE_s9_r0001.csv": (
            "44b8d7559dae5e6622d25b186205ac6f39ec15b91803edd7564e61d55a1c4ba3",
            "f8c083898991e7ea8ebeb5d29cdcc6884c2c3d20d84766cbf4f76156f446924d"),
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("scheme", sorted(GOLDEN))
def test_simulate_and_estimate_are_golden(tmp_path, capsys, scheme):
    cfg = tmp_path / "paths.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "paths"
    assert main(["simulate", "--config", str(cfg), "--set", f"scheme={scheme}",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(GOLDEN[scheme])
    for name, (csv_digest, stdout_digest) in GOLDEN[scheme].items():
        assert sha256((out / name).read_bytes()) == csv_digest, name
        capsys.readouterr()
        assert main(["estimate", str(out / name), "--config", str(cfg)]) == 0
        assert sha256(capsys.readouterr().out.encode()) == stdout_digest, name
