"""Closed-form gate on the bivariate law of every construction.

A pair (Z(s), Z(t)) of a Smith, Brown-Resnick or moving-maxima field is
Husler-Reiss with parameter gamma(s - t) (Kabluchko, Schlather & de Haan
2009): P(Z(s) <= x1, Z(t) <= x2) = exp(-V_HR(gamma(s - t), x1, x2)), with
gamma(h) = <h, Sigma h> for Smith and moving maxima.  Each construction is
simulated on the points of three fixed pairs, some far from the origin,
and every (pair, threshold) cell's empirical probability is compared with
the closed form as a z score against its binomial standard error.  The
bound is Bonferroni over all cells at a family-wise level fixed in advance.
"""
import math
from statistics import NormalDist

import numpy as np
import pytest

from maxstable.fdd import frechet_quantile, husler_reiss_V
from maxstable.simulator import (
    Grid,
    Variogram,
    prepare_brown_resnick,
    prepare_moving_maxima,
    prepare_smith,
)

N_POINTS = 10_000
REPLICATES = 40_000
THRESHOLDS = [(frechet_quantile(a), frechet_quantile(b))
              for a, b in [(0.2, 0.2), (0.5, 0.5), (0.8, 0.8), (0.2, 0.8)]]
SIGMA_2D = [[1.0, 0.6], [0.6, 0.5]]
PAIRS_1D = [(0.0, 0.5), (-3.0, -2.5), (4.0, 5.0)]
PAIRS_2D = [((0.0, 0.0), (0.5, 0.5)), ((3.0, -2.0), (3.5, -2.0)), ((-2.0, 3.0), (-2.0, 3.5))]

# name -> (prepare(grid), gamma(h), the pairs, seed)
CASES = {
    "smith-1d": (lambda g: prepare_smith([[1.0]], g, N_POINTS),
                 Variogram.quadratic([[1.0]]), PAIRS_1D, 12_001),
    "smith-2d": (lambda g: prepare_smith(SIGMA_2D, g, N_POINTS),
                 Variogram.quadratic(SIGMA_2D), PAIRS_2D, 12_002),
    **{
        f"brown-resnick-alpha-{alpha}": (
            lambda g, a=alpha: prepare_brown_resnick(Variogram.fractional(1.0, a), g, N_POINTS),
            Variogram.fractional(1.0, alpha), PAIRS_1D, 12_003 + k)
        for k, alpha in enumerate((0.5, 1.0, 1.5))
    },
    "moving-maxima": (lambda g: prepare_moving_maxima([[2.0]], g),
                      Variogram.quadratic([[2.0]]), PAIRS_1D, 12_006),
}
FAMILY_LEVEL = 1e-3
N_CELLS = sum(len(case[2]) for case in CASES.values()) * len(THRESHOLDS)
Z_BOUND = NormalDist().inv_cdf(1.0 - FAMILY_LEVEL / (2 * N_CELLS))  # 4.35 for 72 cells


@pytest.mark.parametrize("name", CASES)
def test_pairs_are_husler_reiss(name):
    prepare, gamma, pairs, seed = CASES[name]
    points = np.array(pairs, dtype=float).reshape(2 * len(pairs), -1)
    values, _ = prepare(Grid(points)).simulate_many(seed, range(REPLICATES))
    worst = 0.0
    for p, (s, t) in enumerate(pairs):
        h = np.subtract(t, s, dtype=float)
        gamma_h = float(gamma(h)[0])
        z1, z2 = values[:, 2 * p], values[:, 2 * p + 1]
        for x1, x2 in THRESHOLDS:
            want = math.exp(-husler_reiss_V(gamma_h, x1, x2).value)
            got = float(np.mean((z1 <= x1) & (z2 <= x2)))
            z = (got - want) / math.sqrt(want * (1.0 - want) / REPLICATES)
            worst = max(worst, abs(z))
            assert abs(z) < Z_BOUND, f"{name} pair {s}, {t} at ({x1:.3f}, {x2:.3f}): z = {z:.2f}"
    print(f"{name}: worst |z| {worst:.2f} < {Z_BOUND:.2f}")
