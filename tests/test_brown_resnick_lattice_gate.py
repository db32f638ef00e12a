"""Closed-form gate on Brown-Resnick fields simulated on a 1-D lattice.

On a lattice the engine draws a candidate's path by circulant embedding
(``simulator._circulant_increments``, which reads the lattice's lags from
the grid's variogram table and evaluates only its padding lags), or for
alpha = 1 from independent Brownian steps
(``simulator._brownian_increments``), not from the Cholesky factor that the
6-point grids of ``test_bivariate_gate.py`` take for alpha != 1, and that a
lattice takes only when its embedding is negative or its padding
overflows.  Each variogram
gamma(h) = |h|^alpha is simulated on one lattice that reaches far from the
origin, and the fields are checked against the law every Brown-Resnick
field has: unit Frechet marginals, by a KS distance at several locations,
and Husler-Reiss pairs (Kabluchko, Schlather & de Haan 2009),
P(Z(s) <= x1, Z(t) <= x2) = exp(-V_HR(gamma(s - t), x1, x2)), at lags 1,
10 and m - 1, each (pair, threshold) cell as a z score against its
binomial standard error.  The bound is Bonferroni over every KS test and
cell at a family-wise level fixed in advance.
"""
import math
from statistics import NormalDist

import numpy as np
import pytest

from maxstable.fdd import frechet_cdf, frechet_quantile, husler_reiss_V, ks_distance
from maxstable.simulator import Grid, Variogram, prepare_brown_resnick

N_POINTS = 10_000
REPLICATES = 8_000
LATTICE = Grid(-2.0 + 0.25 * np.arange(41))  # -2, -1.75, ..., 8
LOCATIONS = [0, 10, 20, 30, 40]
PAIRS = [(0, 1), (15, 25), (0, 40)]  # lags 1, 10 and m - 1
THRESHOLDS = [(frechet_quantile(a), frechet_quantile(b))
              for a, b in [(0.2, 0.2), (0.5, 0.5), (0.8, 0.8), (0.2, 0.8)]]
ALPHAS = {0.5: 23_001, 1.0: 23_002, 1.5: 23_003}  # alpha -> seed
FAMILY_LEVEL = 1e-3
N_TESTS = len(ALPHAS) * (len(LOCATIONS) + len(PAIRS) * len(THRESHOLDS))
TEST_LEVEL = FAMILY_LEVEL / N_TESTS
# Kolmogorov's tail P(sqrt(n) D > x) <= 2 exp(-2 x^2), and two-sided normal cells
KS_BOUND = math.sqrt(math.log(2.0 / TEST_LEVEL) / 2.0) / math.sqrt(REPLICATES)  # 0.0268 for 51 tests
Z_BOUND = NormalDist().inv_cdf(1.0 - TEST_LEVEL / 2.0)  # 4.27 for 51 tests


@pytest.mark.parametrize("alpha", ALPHAS)
def test_lattice_fields_have_frechet_marginals_and_husler_reiss_pairs(alpha):
    vario = Variogram.fractional(1.0, alpha)
    law = prepare_brown_resnick(vario, LATTICE, N_POINTS)
    assert law.provenance["increments"] == ("brownian" if alpha == 1.0 else "circulant")
    values, _ = law.simulate_many(ALPHAS[alpha], range(REPLICATES))
    worst_ks = 0.0
    for j in LOCATIONS:
        ks = ks_distance(values[:, j], frechet_cdf)
        worst_ks = max(worst_ks, ks)
        assert ks < KS_BOUND, f"alpha {alpha} at t = {LATTICE.locations[j, 0]}: KS {ks:.4f}"
    t = LATTICE.locations[:, 0]
    worst_z = 0.0
    for a, b in PAIRS:
        gamma_h = float(vario(np.array([t[b] - t[a]]))[0])
        for x1, x2 in THRESHOLDS:
            want = math.exp(-husler_reiss_V(gamma_h, x1, x2).value)
            got = float(np.mean((values[:, a] <= x1) & (values[:, b] <= x2)))
            z = (got - want) / math.sqrt(want * (1.0 - want) / REPLICATES)
            worst_z = max(worst_z, abs(z))
            assert abs(z) < Z_BOUND, f"alpha {alpha} pair {t[a]}, {t[b]} at ({x1:.3f}, {x2:.3f}): z = {z:.2f}"
    print(f"alpha {alpha}: worst KS {worst_ks:.4f} < {KS_BOUND:.4f}, worst |z| {worst_z:.2f} < {Z_BOUND:.2f}")
