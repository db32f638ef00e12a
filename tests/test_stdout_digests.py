"""SHA-256 of ``simulate`` stdout for five laws on small grids, and of the
two ensemble commands (``compare-reps`` and ``verify``, 100 replicates
each), seeds 9001-9003.

The digests pin every byte a field or a report prints: its values, its
header and the random streams that made it.  They move only when a change moves the
streams (what a replicate reads, or in which order), or when numpy's
generators change; such a change updates them here and says so in
CHANGES.md.  A refactor of the engine that keeps its streams leaves them
as they are.  Several of these fields read arrivals past their location's
arrival table (Smith 1-D on seeds 9002 and 9003, Smith 2-D on 9002,
Brown-Resnick and the exponential law on 9003).  Brown-Resnick runs on a
1-D lattice, whose paths need no BLAS; off a lattice its last bits follow
the BLAS library and thread count, so it is not pinned here.
"""
import hashlib

import pytest

from maxstable.cli import main

CALLS = {
    "smith-1d": ["--construction", "smith", "--sigma", "0.1", "--grid", "-5:0.05:201"],
    "smith-2d": ["--construction", "smith", "--sigma", "0.1,0,0,0.1", "--grid", "0:0.2:12x0:0.2:12"],
    "br-lattice": ["--construction", "br", "--variogram", "fractional:alpha=0.5", "--grid", "-5:0.05:201"],
    "mmm": ["--construction", "mmm", "--sigma", "1", "--grid", "-5:0.05:201"],
    "general-exp": ["--construction", "general", "--dist", "exp:lambda=1", "--kappa", "cgf",
                    "--grid", "-5:0.05:119"],
}

DIGESTS = {
    ("smith-1d", 9001): "a2e2c141f55812e82b1b502ba63055a27daf4d7d28b357e8329192873a9c86b5",
    ("smith-1d", 9002): "34581484305707db0b2165d9b25512ee640f015ea18d24ee7b77157032f395d4",
    ("smith-1d", 9003): "307ed8b117ec2f724b07c179a8a16c1a997e10d64c46aa5b3e476337f6c87dfb",
    ("smith-2d", 9001): "7c9eff9e58e9933a93f655c326095401f197a04a263240b7f680ea20c1a62763",
    ("smith-2d", 9002): "3bcc0101b50e17b6e1a45bbe1993f9be856847bc3d5a12423cbf25eafc2da5f1",
    ("smith-2d", 9003): "460d474da9295bfb1cd9a26bebba07b2058b4a9ec117ff4ba35e3a4bf4cc89de",
    ("br-lattice", 9001): "6f21118aa160fd726333276d85824e77b368ed90a64473e05464e0779feb2632",
    ("br-lattice", 9002): "a7002cea9f97735ba9ff51649e743ad3981fe38f53653502d5325483bbda556d",
    ("br-lattice", 9003): "9adcb228e2cb4d6a8246aff0eef92fff824978d0e5f53e8a34e2d514ad1489c7",
    ("mmm", 9001): "b02fc16d38c0e3093771b312ad2fcac91bad7fcfe356490e37af3ff086ab0f31",
    ("mmm", 9002): "783befe7c9b3151ac5971e11fd380e708fead30e671a143d806b5a08f6efee7a",
    ("mmm", 9003): "9bb9f8cb36252a148bacd997839597af7b8c556efed44b66f9255194d343b7cc",
    ("general-exp", 9001): "caebb8eb30c5565d2c44c8e8033079e068b15f8ccc70028e2351557c11c6a68d",
    ("general-exp", 9002): "d707776260979ffa02c2e7c949f26e09e22f25a78bc8607d4dbf2c92fb29d37a",
    ("general-exp", 9003): "f92cec28657111b1bae402f912cb53768b0765a8c0e22b65a8f024d7e76538c8",
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
    ("verify", 9001): "92a987c857698589c05dfa5117e91c962c75d3f9d7b28dcef2a18423ecf1069c",
    ("verify", 9002): "0e3a17626577c8cea7483fc20e980b790f5b93bc50506ab253d9bed2397901a8",
    ("verify", 9003): "5707744d67fc6e3b13b117bcb549281aacb7952169a779dd4b502b558d2d72f9",
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
