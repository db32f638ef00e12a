"""SHA-256 of ``simulate`` stdout for eleven fields (ten on small grids,
Smith in one, two and three dimensions), of the two ensemble commands
(``compare-reps`` and ``verify``, 100 replicates each) and of two Monte
Carlo ``fdd`` exponents, seeds 9001-9003.

The digests pin every byte a field or a report prints: its values, its
header and the random streams that made it.  They move only when a change moves the
streams (what a replicate reads, or in which order), or when the bit
generator that ``seeding.derive_rng`` builds, or numpy's generators, change;
such a change updates them here and says so in CHANGES.md.  A refactor of the engine that keeps its streams leaves them
as they are.  Some of these fields grow the arrival table to a second
layer: Smith 2-D and 3-D on seed 9001, and Brown-Resnick at alpha = 1 on
the 501-point lattice of the benchmark's ``wide-grid`` workload
(``br-wide``) on 9001, which also carries its Brownian paths across the
layers; so do the ``verify`` ensembles on 9001 and 9003.
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
    "br-wide": ["--construction", "br", "--variogram", "fractional:scale=1;alpha=1", "--grid", "-5:0.02:501"],
}

DIGESTS = {
    ("smith-1d", 9001): "c73517ef1a16a0fa53bea2aed813181515f7bdbc0e478f84c6a9aa60e3c66e7f",
    ("smith-1d", 9002): "1085e32679afc76459c5a9332bd2ecac405013e30fb883c723038f3c887c8af0",
    ("smith-1d", 9003): "8e8c7b5dbf1aa3535f736b92d8db8d0b40827929980763e29e03545b2149c7ee",
    ("smith-2d", 9001): "b310494f2bcae557c420bb307db2fc55a75849e7036443040be791b4748752a9",
    ("smith-2d", 9002): "b1914fc63be2291db27f6d91cd4fcf1af318ff642a86e68e43defd0565c80f6e",
    ("smith-2d", 9003): "e465b324895c87096e9b01b6ca57d93f050529c23f50a9521a37b8e5c27affa8",
    ("br-lattice", 9001): "920d0db2d0f25c9dd4680563ee7fde8bf8d6e0eb61797530066fd6b9b9bd05de",
    ("br-lattice", 9002): "ab80f6f9df4712a80066d3a51acc01b8ed324475df3683972d2b83239ec4427f",
    ("br-lattice", 9003): "f6b2ef22c3c468739a06edc70022e5039bf586d61b861193b45a41adc248bc27",
    ("br-brownian", 9001): "62ea26a2b4b037ec37616f883243afa20d7a1d7f896ca9c489b03ed134c0b5a1",
    ("br-brownian", 9002): "ae30f8f926a69fdb7f966b5d16e8b6ab25b8cab7f193024c5b20c0244593d531",
    ("br-brownian", 9003): "8b8f70916ab84587f9278405b63df46bfd26bcdf7ead26f61c5a41fc4ff210c3",
    ("br-brownian-unsorted", 9001): "34d42ad1b1fdf2fb158f168330434a118cc9836bbd5983fea339b629d02b6f2d",
    ("br-brownian-unsorted", 9002): "10370e9f1dc55a3166f9871043a8270171f99904e0031dc53cf93c6fa7753bcb",
    ("br-brownian-unsorted", 9003): "12d91369c0db76f2a2cf12e570131b0d4606505ca1c8c3b64431ac867c9399a5",
    ("mmm", 9001): "897e1faab7681c091c41a51ef48c23a179519bc10dda867320522c7c9f8be46f",
    ("mmm", 9002): "8a5326d4863cc7a2edd075322e99e096de2a9ba5d53198824bea379cf06f373b",
    ("mmm", 9003): "c04cea824027a37c55b34f840dcdd0bd4a03be623d69e03da48523a18530a562",
    ("general-exp", 9001): "c4a98fe143403c3cf25875cb8def6b9b13e780c253f9352b870d441934715ff7",
    ("general-exp", 9002): "f8b13923ff8c87f78a4a49822a28bb39806407c7813f608e3487bbc9be46d46a",
    ("general-exp", 9003): "9de5380dc4a94e33119599616197405659524df904690881372349ba6d1a02ba",
    ("general-gamma", 9001): "1d5849601f3caebfaeea5daa7efd89e338389d6f14bb0ce52ebcc6ee8de62c60",
    ("general-gamma", 9002): "db972d561064c43c8996807d511ef192b0a7a6e7429efe26cfeb4b8f609fe9a8",
    ("general-gamma", 9003): "8f0810740c070b676a6fe0714b84395f5a1f8c3401e6bd8c1bb062049b1c9196",
    ("smith-3d", 9001): "2b2b7aba53d7d79a8d00e28b3bac5e263bd11f5ab481c542876107718b015fee",
    ("smith-3d", 9002): "7efb365bab50263aa3995358ce8f818b0b6e76d3d7783e69aea13ae90a46fe5f",
    ("smith-3d", 9003): "b9a620a48a6d4a504a017a6914661e1d00fcb38d478796fa7f49740620fc7311",
    ("general-uniform", 9001): "2ca0f4608d65a916873ba82127ea8eaa759bdeaee52c82751f7f8083ee18d7fe",
    ("general-uniform", 9002): "4c373052d9b5688f5825dd9dc6f4c936bf03da4eca11f88a3e41e70afbbc80d0",
    ("general-uniform", 9003): "92732d89cf4355d27d0ffa392c94ad71bd979eb783e4ca34874bb1750801e448",
    ("br-wide", 9001): "354bc644d656a42636082e4bb1a992e5d9b3026af4da1a2c4eeb55d41e91df04",
    ("br-wide", 9002): "0643ea89cac3c4d9c1efb9fc4917790e9e77b6ee7e2af08e09eedfd065474449",
    ("br-wide", 9003): "3536e692d21b73dade2f6b0ccbbc566bfde35a776256c0f452efad5cccca70bb",
}


# the ensemble commands run simulate_many on 64-slot blocks; both exit 1 at
# these seeds (compare-reps at its default threshold 0.02, verify on the
# uniform law's non-stationarity)
ENSEMBLE_CALLS = {
    "compare-reps": ["compare-reps", "--sigma", "1", "--grid", "0,1", "--replicates", "100"],
    "verify": ["verify", "--dist", "uniform:a=0;b=1", "--replicates", "100", "--budget", "100"],
}

ENSEMBLE_DIGESTS = {
    ("compare-reps", 9001): "23892f8f7d1ccf1160dd92059bf83384b9ab447de6de8a07fc240cb10533483d",
    ("compare-reps", 9002): "332dca10ab9ee8f09f25c1841c83908acbaabc3817c96e02cf0df69f2ee6314a",
    ("compare-reps", 9003): "34445c6fa69a13fae3c936b15d712a06e2b1caa235a23d26bf50ade3391d7ac3",
    ("verify", 9001): "accd3a6f3b2e62cb5bbc7095b21c61e73ff788f1e9beb76274d017e446b96a65",
    ("verify", 9002): "5eef0d70f64b3671c0a874e3aa7eac5cb323a8860d90c2d798b9ad04391c701b",
    ("verify", 9003): "cbc8ac7185639bf7073f6a777b5d5714965604eb99be1395f0521cf57fe7b6c8",
}


# 200 000 draws give 100 000 and 66 666 base rows, several chunks of
# exponent_mc at any chunk size from 2^14 to 2^16 rows
FDD_CALLS = {
    "fdd-gaussian": ["--dist", "gaussian:mu=0;sigma=4", "--ts", "0;1", "--xs", "1,1"],
    "fdd-gamma": ["--dist", "gamma:k=2;theta=1", "--ts", "0;0.3;0.6", "--xs", "1,1,1"],
}

FDD_DIGESTS = {
    ("fdd-gaussian", 9001): "95dc4e48ba4eaa88cc2e85f76fa65ffdc1f21ffb4371705c879eb1868dd691f1",
    ("fdd-gaussian", 9002): "cadd78c928a94df7b761d62904d7fe03c790a315a4096f11af03fec09400857a",
    ("fdd-gaussian", 9003): "7e2ade42b993ee13c5c0129f828a32f032b002d2fe150bea24995e7aa33012bb",
    ("fdd-gamma", 9001): "812265a9dc4bf4a8c9767256c2eae8b0d0ca0264fab604e1306163e7d3381dea",
    ("fdd-gamma", 9002): "7c02950b03a0b65b650cd652d5c8197b8229d5988fe10ba683d4464e41e69ec2",
    ("fdd-gamma", 9003): "49bdd28f9c4421bc0fdcca5930295ffc03e86f64756d5a5b64dceeb1dff73dbc",
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
