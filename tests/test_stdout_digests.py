"""SHA-256 of ``simulate`` stdout for five laws on small grids, seeds 9001-9003.

The digests pin every byte a field prints: its values, its header and the
random streams that made it.  They move only when a change moves the
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


@pytest.mark.parametrize("law, seed", sorted(DIGESTS), ids=lambda v: str(v))
def test_simulate_stdout_digest(law, seed, capsys):
    assert main(["simulate", *CALLS[law], "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[law, seed]
