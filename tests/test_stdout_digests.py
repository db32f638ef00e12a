"""SHA-256 of ``simulate`` stdout for ten fields on small grids (Smith
in one, two and three dimensions), of the two ensemble commands
(``compare-reps`` and ``verify``, 100 replicates each) and of two Monte
Carlo ``fdd`` exponents, seeds 9001-9003.

The digests pin every byte a field or a report prints: its values, its
header and the random streams that made it.  They move only when a change moves the
streams (what a replicate reads, or in which order), or when numpy's
generators change; such a change updates them here and says so in
CHANGES.md.  A refactor of the engine that keeps its streams leaves them
as they are.  Several of these fields grow the arrival table to a second
layer (Smith 1-D on seeds 9002 and 9003, Smith 2-D on 9002,
Brown-Resnick at alpha = 0.5 and the exponential law on 9003).
Brown-Resnick runs where its paths use no BLAS and do not depend on the
batch: circulant paths on a 1-D lattice at alpha = 0.5, and Brownian
steps at alpha = 1 on a lattice and on an unsorted, irregular point
list.  Off a 1-D lattice at alpha != 1 (Cholesky paths) its last bits
follow the BLAS library and thread count, so it is not pinned here.
"""
import hashlib

import pytest

from maxstable.cli import main

# 40 points 0.3 j + 0.01 (j^2 mod 7), j = 17 k mod 40: irregular steps, unsorted
IRREGULAR = ",".join(str(round(0.3 * j + 0.01 * (j * j % 7), 2)) for j in (k * 17 % 40 for k in range(40)))
CALLS = {
    "smith-1d": ["--construction", "smith", "--sigma", "0.1", "--grid", "-5:0.05:201"],
    "smith-2d": ["--construction", "smith", "--sigma", "0.1,0,0,0.1", "--grid", "0:0.2:12x0:0.2:12"],
    "br-lattice": ["--construction", "br", "--variogram", "fractional:alpha=0.5", "--grid", "-5:0.05:201"],
    "br-brownian": ["--construction", "br", "--variogram", "fractional:alpha=1", "--grid", "-5:0.05:201"],
    "br-brownian-unsorted": ["--construction", "br", "--variogram", "fractional:alpha=1", "--grid", IRREGULAR],
    "mmm": ["--construction", "mmm", "--sigma", "1", "--grid", "-5:0.05:201"],
    "general-exp": ["--construction", "general", "--dist", "exp:lambda=1", "--kappa", "cgf",
                    "--grid", "-5:0.05:119"],
    "general-gamma": ["--construction", "general", "--dist", "gamma:k=2;theta=1", "--kappa", "cgf",
                      "--grid", "-0.9:0.05:37"],
    "smith-3d": ["--construction", "smith", "--sigma", "1,0,0,0,1,0,0,0,1", "--grid", "0:0.5:5x0:0.5:4x0:0.5:3"],
    "general-uniform": ["--construction", "general", "--dist", "uniform:a=-1;b=2", "--grid", "-2:0.05:81"],
}

DIGESTS = {
    ("smith-1d", 9001): "a2e2c141f55812e82b1b502ba63055a27daf4d7d28b357e8329192873a9c86b5",
    ("smith-1d", 9002): "ccd78d40fcae8148fd016ea57f17a0d6412bf0ed5bdff8b1399274e06dfb432c",
    ("smith-1d", 9003): "307ed8b117ec2f724b07c179a8a16c1a997e10d64c46aa5b3e476337f6c87dfb",
    ("smith-2d", 9001): "7c9eff9e58e9933a93f655c326095401f197a04a263240b7f680ea20c1a62763",
    ("smith-2d", 9002): "29fd04e720c900020db5291e03a8c71c15509ad6bddfae32cd88e5716f586662",
    ("smith-2d", 9003): "460d474da9295bfb1cd9a26bebba07b2058b4a9ec117ff4ba35e3a4bf4cc89de",
    ("br-lattice", 9001): "e43f723d108bbe30367a897f3a2dceb46ed71cc7049e62f1bcdd76eb67cdd8a5",
    ("br-lattice", 9002): "3d8046fdc61c742c597fe3b61e3ba56237962a555506cbccbb623ae12c0ad7cc",
    ("br-lattice", 9003): "cac109990dd7dd43da057fc860d4a81e473c57cf2c60777e3c6b6d7d3238213b",
    ("br-brownian", 9001): "0eb3db52bd9dcf4a0f7adb990d2e5987f827f165a23115a88446ffd521f24f3c",
    ("br-brownian", 9002): "8284921c2855e097b140dd934f0fca02597c6a2fea1910d35a766bf1f4634245",
    ("br-brownian", 9003): "ae8ed92d65d9cf506560cb18306cc5147591119d5bce5a351a3f219b86a4751c",
    ("br-brownian-unsorted", 9001): "d26a28345343e01d16666f385a5343057b9d96b546744195a09e1ca3ba6ed830",
    ("br-brownian-unsorted", 9002): "8da15e31af6306b78abda075e348fb27d0b42b308c209b008ea6ed15ac90ba4c",
    ("br-brownian-unsorted", 9003): "ab09f34513069580c40aa6d2cc16e3656a5e2752a1269231a85493c47d32682d",
    ("mmm", 9001): "b02fc16d38c0e3093771b312ad2fcac91bad7fcfe356490e37af3ff086ab0f31",
    ("mmm", 9002): "783befe7c9b3151ac5971e11fd380e708fead30e671a143d806b5a08f6efee7a",
    ("mmm", 9003): "9bb9f8cb36252a148bacd997839597af7b8c556efed44b66f9255194d343b7cc",
    ("general-exp", 9001): "caebb8eb30c5565d2c44c8e8033079e068b15f8ccc70028e2351557c11c6a68d",
    ("general-exp", 9002): "d707776260979ffa02c2e7c949f26e09e22f25a78bc8607d4dbf2c92fb29d37a",
    ("general-exp", 9003): "ac3fbd1274f3750e4cf6d8d160f1b6c6f301a3abbd577e4a83631ed30516c759",
    ("general-gamma", 9001): "8e259e835f4e5cce4f22782b3a0bbbd6663d1b11ab81ae3289d7ebff0851b6ea",
    ("general-gamma", 9002): "1ceffa2cce1e9429c061c9df0ee2a9d70de56d9b0203cd385c547b77edec4b2d",
    ("general-gamma", 9003): "e3024571f591881cef479e68ee559d2f1072ad53bfe3d37461848d2b9d12d7a5",
    ("smith-3d", 9001): "bd3125e28bd8018adcfb653feaf8bc1b8e8fa3c1d483d32847de8b0de1fd9391",
    ("smith-3d", 9002): "18ac3ef8a0794a998cb7d306c5fdc04bc52104e9ee00f0e9bef8e4f8e0d17aee",
    ("smith-3d", 9003): "c0987beeaaf3e0974d6a5a8e2b38b2f60779b3e77cad1f421199ee662c2cebbf",
    ("general-uniform", 9001): "43db2e5bba41d45c4a80b7e648756b619a5253344680fdf4e5d14d639a6d62c0",
    ("general-uniform", 9002): "d4f984c11c5c440fde7cb4c7f462cc9482b9d1be790b33f2961d78e855bbc3a8",
    ("general-uniform", 9003): "150d41f086f8fc7c32428300baa35955620bb502d3b08cb97da03eeb0455476b",
}


# the ensemble commands run simulate_many on 64-slot blocks; both exit 1 at
# these seeds (compare-reps at its default threshold 0.02, verify on the
# uniform law's non-stationarity)
ENSEMBLE_CALLS = {
    "compare-reps": ["compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", "100"],
    "verify": ["verify", "--dist", "uniform:a=0;b=1", "--replicates", "100", "--budget", "100"],
}

ENSEMBLE_DIGESTS = {
    ("compare-reps", 9001): "05d6c23f12e3609cbebff18d79354a4fe10cfdf5b196df613a63c3a0875b00b2",
    ("compare-reps", 9002): "9e5bd4c045da58a407f1222641b6b263452221053eaae9016771665ffe5217c5",
    ("compare-reps", 9003): "a16795b7eeaee83510085bd4f561b38a12e55ac7929992aae9e54c599182d4c6",
    ("verify", 9001): "1b018aa769a87e4229b246558a1370565c864a59b41f7c953081fabb13ba97f6",
    ("verify", 9002): "34a9aeb355c8b5ad78a8e62ede1627585b53d6233149cb879a22fddd4fc019c0",
    ("verify", 9003): "4dabeb5c770d69f585d3f01b7bbd9fd0418fa1b1a3c7d70e4808a2bc1084c772",
}


# 200 000 draws give 100 000 and 66 666 base rows, several chunks of
# exponent_mc at any chunk size from 2^14 to 2^16 rows
FDD_CALLS = {
    "fdd-gaussian": ["--dist", "gaussian:mu=0;sigma=4", "--ts", "0;1", "--xs", "1,1"],
    "fdd-gamma": ["--dist", "gamma:k=2;theta=1", "--ts", "0;0.3;0.6", "--xs", "1,1,1"],
}

FDD_DIGESTS = {
    ("fdd-gaussian", 9001): "5c5a7ecdfca549d95f567415b6d9d3be67bebf76d63c3e1ac2d0a9ef45f3f6e3",
    ("fdd-gaussian", 9002): "a1fed864d9915e98beb35c7fad2cbe9b0fb32663abf25b41236cad58cbbab06e",
    ("fdd-gaussian", 9003): "714f166417ef7d4aab2a6ff503c01a2e2a64b905314bcf62aa4fd9d68b2f794c",
    ("fdd-gamma", 9001): "122573f0c6e1aa53a7a1136b2f2a2b7daa89e507f56c0136a09f7fef34a5b236",
    ("fdd-gamma", 9002): "d9f44ffa785ba2cc4e97834f1e113d5661a47268d82ac8fbb804659ba85e3680",
    ("fdd-gamma", 9003): "f2ba91d5ecc6266e17a8eeb0e035c1bb28df4c2cb21f35b231c33178d0dc4b39",
}


def stdout_digest(argv, code, capsys):
    assert main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("law, seed", sorted(DIGESTS), ids=lambda v: str(v))
def test_simulate_stdout_digest(law, seed, capsys):
    assert stdout_digest(["simulate", *CALLS[law], "--seed", str(seed)], 0, capsys) == DIGESTS[law, seed]


@pytest.mark.parametrize("command, seed", sorted(ENSEMBLE_DIGESTS), ids=lambda v: str(v))
def test_ensemble_stdout_digest(command, seed, capsys):
    argv = [*ENSEMBLE_CALLS[command], "--seed", str(seed)]
    assert stdout_digest(argv, 1, capsys) == ENSEMBLE_DIGESTS[command, seed]


@pytest.mark.parametrize("query, seed", sorted(FDD_DIGESTS), ids=lambda v: str(v))
def test_fdd_mc_stdout_digest(query, seed, capsys):
    argv = ["fdd", "--method", "mc", *FDD_CALLS[query], "--mc-n", "200000", "--seed", str(seed)]
    assert stdout_digest(argv, 0, capsys) == FDD_DIGESTS[query, seed]
