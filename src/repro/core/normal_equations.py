"""Block odd-even reduction of the normal equations (paper §6).

The conclusions observe that ``(U A)^T (U A)`` is block tridiagonal, so
the smoothed states can also be obtained by block cyclic reduction of
the normal equations — "yielding a third parallel algorithm for Kalman
smoothing.  However, this approach is unstable and does not appear to
have any advantage over our new algorithm."

We implement it as the ablation baseline for the stability study:
forming ``A^T A`` squares the condition number, so accuracy degrades
quadratically with the conditioning of the inputs, while the QR-based
smoothers degrade only linearly.  ``benchmarks/test_ablation_stability.py``
sweeps ill-conditioned covariances to reproduce that contrast.
"""

from __future__ import annotations

import numpy as np

from ..api import Capabilities, EstimatorConfig, SmootherBase
from ..kalman.result import SmootherResult
from ..linalg.triangular import instrumented_matmul
from ..model.problem import StateSpaceProblem, WhitenedProblem
from ..parallel.backend import Backend
from ..parallel.tally import add_cost
from .smoother import reject_nonfinite, reject_nonfinite_outputs

__all__ = ["NormalEquationsSmoother", "build_normal_equations"]

_NAME = "the normal-equations smoother"


def build_normal_equations(
    white: WhitenedProblem,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Assemble the block-tridiagonal ``T = (UA)^T (UA)`` and RHS.

    Returns ``(diag, sub, rhs)`` where ``sub[i] = T[i+1, i]`` (the
    block below the diagonal; the matrix is symmetric).
    """
    steps = white.steps
    k = white.k
    diag: list[np.ndarray] = []
    sub: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    for i, ws in enumerate(steps):
        t_ii = instrumented_matmul(ws.C.T, ws.C)
        v_i = instrumented_matmul(ws.C.T, ws.rhs_C)
        if i > 0:
            t_ii = t_ii + instrumented_matmul(ws.D.T, ws.D)
            v_i = v_i + instrumented_matmul(ws.D.T, ws.rhs_BD)
        if i < k:
            nxt = steps[i + 1]
            t_ii = t_ii + instrumented_matmul(nxt.B.T, nxt.B)
            v_i = v_i - instrumented_matmul(nxt.B.T, nxt.rhs_BD)
            # T[i+1, i] = D_{i+1}^T (-B_{i+1})
            sub.append(-instrumented_matmul(nxt.D.T, nxt.B))
        diag.append(t_ii)
        rhs.append(v_i)
    return diag, sub, rhs


def _cyclic_reduction(
    diag: list[np.ndarray],
    sub: list[np.ndarray],
    rhs: list[np.ndarray],
    backend: Backend,
    level: int = 0,
) -> list[np.ndarray]:
    """Solve the SPD block-tridiagonal system by odd-even reduction.

    Even-indexed unknowns are eliminated in parallel; the Schur
    complement on the odd unknowns is again block tridiagonal and the
    routine recurses, mirroring [4], [5].
    """
    k = len(diag) - 1
    if k == 0:
        add_cost(diag[0].shape[0] ** 3)
        return [np.linalg.solve(diag[0], rhs[0])]

    evens = list(range(0, k + 1, 2))
    odds = list(range(1, k + 1, 2))

    def eliminate(e: int):
        """Invert pivot e into its (at most two) odd neighbours."""
        t_ee = diag[e]
        n = t_ee.shape[0]
        add_cost(n**3 / 3.0)
        inv = np.linalg.inv(t_ee)
        out = {"rhs_part": instrumented_matmul(inv, rhs[e]), "inv": inv}
        return out

    pivots = backend.map(
        evens, eliminate, phase=f"normaleq/L{level}/pivot"
    )
    piv_by_pos = dict(zip(evens, pivots))

    def schur(o_idx: int):
        """Schur complement row for odd position ``odds[o_idx]``."""
        o = odds[o_idx]
        # Couplings: T[o, o-1] = sub[o-1]^T ... careful: sub[i]=T[i+1,i].
        left = sub[o - 1]  # T[o, o-1]
        right = sub[o].T if o < k else None  # T[o, o+1]
        inv_l = piv_by_pos[o - 1]["inv"]
        d = diag[o] - instrumented_matmul(
            left, instrumented_matmul(inv_l, left.T)
        )
        v = rhs[o] - instrumented_matmul(left, piv_by_pos[o - 1]["rhs_part"])
        if right is not None and o + 1 in piv_by_pos:
            inv_r = piv_by_pos[o + 1]["inv"]
            d = d - instrumented_matmul(
                right, instrumented_matmul(inv_r, right.T)
            )
            v = v - instrumented_matmul(right, piv_by_pos[o + 1]["rhs_part"])
        new_sub = None
        if o + 2 <= k:
            # Coupling to the next odd unknown through even pivot o+1.
            mid_inv = piv_by_pos[o + 1]["inv"]
            t_next_mid = sub[o + 1]  # T[o+2, o+1]
            t_mid_o = sub[o].T  # T[o+1, o] ... sub[o] = T[o+1, o]
            new_sub = -instrumented_matmul(
                t_next_mid, instrumented_matmul(mid_inv, sub[o])
            )
        return d, v, new_sub

    schur_rows = backend.map(
        range(len(odds)), schur, phase=f"normaleq/L{level}/schur"
    )
    new_diag = [row[0] for row in schur_rows]
    new_rhs = [row[1] for row in schur_rows]
    new_sub = [row[2] for row in schur_rows[:-1]]
    if any(s is None for s in new_sub):  # pragma: no cover - structural
        raise AssertionError("interior Schur coupling missing")

    odd_solution = _cyclic_reduction(
        new_diag, new_sub, new_rhs, backend, level + 1
    )
    u: list[np.ndarray | None] = [None] * (k + 1)
    for idx, o in enumerate(odds):
        u[o] = odd_solution[idx]

    def back(e: int):
        v = rhs[e].copy()
        if e > 0:
            # T[e, e-1] = sub[e-1]
            v = v - instrumented_matmul(sub[e - 1], u[e - 1])
        if e < k:
            # T[e, e+1] = sub[e]^T
            v = v - instrumented_matmul(sub[e].T, u[e + 1])
        return instrumented_matmul(piv_by_pos[e]["inv"], v)

    even_solution = backend.map(
        evens, back, phase=f"normaleq/L{level}/back"
    )
    for e, val in zip(evens, even_solution):
        u[e] = val
    return [x for x in u]  # type: ignore[return-value]


class NormalEquationsSmoother(SmootherBase):
    """The unstable third parallel smoother (means only).

    Provided for the §6 stability ablation; production use should
    prefer :class:`~repro.core.smoother.OddEvenSmoother`.  The
    ``means_only`` capability flag makes any covariance request an
    error through the canonical config path.  Non-finite data raises
    ``ValueError`` naming its step and field.
    """

    name = "normal-equations"
    capabilities = Capabilities(means_only=True)

    def _smooth(
        self, problem: StateSpaceProblem, config: EstimatorConfig
    ) -> SmootherResult:
        try:
            white = problem.whiten()
            diag, sub, rhs = build_normal_equations(white)
            means = _cyclic_reduction(diag, sub, rhs, config.backend)
        except np.linalg.LinAlgError as exc:
            reject_nonfinite([problem], exc, smoother=_NAME)
            raise
        reject_nonfinite_outputs([problem], means, smoother=_NAME)
        return SmootherResult(
            means=means,
            covariances=None,
            residual_sq=None,
            algorithm="normal-equations",
        )
