"""Figure 1: the nonzero block structure of the odd-even ``R`` factor.

The paper shows the factor for ``k = 50`` states: a block diagonal in
elimination order with at most two off-diagonal blocks per block row,
O(k) nonzero blocks in total.  This target regenerates the occupancy
picture, saves it under ``results/fig1.json``, and benchmarks the
factorization that produces it.
"""

import numpy as np
import pytest

from repro.bench.figures import fig1_structure
from repro.bench.harness import save_results
from repro.core.oddeven_qr import oddeven_factorize
from repro.model.generators import random_orthonormal_problem


@pytest.mark.benchmark(group="fig1")
def test_fig1_structure(benchmark):
    data = benchmark(fig1_structure, 50)
    occ = data["occupancy"]
    # The paper's picture: upper triangular in elimination order,
    # <= 3 blocks per row, O(k) fill.
    assert occ.shape == (51, 51)
    assert np.array_equal(occ, np.triu(occ))
    assert occ.sum(axis=1).max() <= 3
    assert data["nonzero_blocks"] <= 3 * 51
    # the same record ``python -m repro.bench.figures fig1`` writes
    save_results(
        "fig1", {k: v for k, v in data.items() if k != "occupancy"}
    )
    print("\nFigure 1 — odd-even R structure, k=50 "
          f"({data['nonzero_blocks']} nonzero blocks):")
    print(data["ascii"])


@pytest.mark.benchmark(group="fig1")
def test_fig1_factorization_cost(benchmark):
    """Time the k=50 factorization itself (the object Fig 1 depicts)."""
    problem = random_orthonormal_problem(n=6, k=50, seed=0)
    factor = benchmark(oddeven_factorize, problem)
    assert factor.k == 50
