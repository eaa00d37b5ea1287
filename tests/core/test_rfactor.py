"""Tests for the factor data structures."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.core.rfactor import BidiagonalR, OddEvenR, RowGroup


class TestBidiagonalR:
    def test_to_dense(self):
        diag = [np.array([[2.0]]), np.array([[3.0]])]
        off = [np.array([[5.0]])]
        rhs = [np.array([1.0]), np.array([2.0])]
        factor = BidiagonalR(diag=diag, offdiag=off, rhs=rhs)
        assert np.allclose(
            factor.to_dense(), [[2.0, 5.0], [0.0, 3.0]]
        )

    def test_mismatched_offdiag_count(self):
        with pytest.raises(ValueError):
            BidiagonalR(
                diag=[np.eye(1), np.eye(1)], offdiag=[], rhs=[np.zeros(1)] * 2
            )

    def test_dims(self):
        factor = BidiagonalR(
            diag=[np.zeros((2, 2)), np.zeros((3, 3))],
            offdiag=[np.zeros((2, 3))],
            rhs=[np.zeros(2), np.zeros(3)],
        )
        assert factor.dims == [2, 3]
        assert factor.k == 1


def group(col, diag, rhs, *couplings):
    """A one-row :class:`RowGroup`; ``couplings`` are ``(col, block)``."""
    return RowGroup(
        np.array([col]),
        np.array([diag]),
        tuple((np.array([c]), np.array([block])) for c, block in couplings),
        np.array([rhs]),
    )


def tiny_oddeven(row0=None, row1=None):
    """Hand-built two-column factor: col 0 eliminated first."""
    if row0 is None:
        row0 = group(0, [[2.0]], [4.0], (1, [[1.0]]))
    if row1 is None:
        row1 = group(1, [[3.0]], [6.0])
    return OddEvenR(groups=[[row0], [row1]], levels=[[0], [1]], dims=[1, 1])


class TestOddEvenR:
    def test_order(self):
        assert tiny_oddeven().order == [0, 1]

    def test_validate_accepts_good_factor(self):
        tiny_oddeven().validate()

    def test_validate_rejects_forward_reference(self):
        factor = tiny_oddeven(row1=group(1, [[3.0]], [6.0], (0, [[1.0]])))
        with pytest.raises(AssertionError, match="not upper triangular"):
            factor.validate()

    def test_validate_rejects_bad_shape(self):
        bad = group(0, [[2.0]], [4.0], (1, np.zeros((2, 2))))
        factor = tiny_oddeven(row0=bad)
        with pytest.raises(AssertionError, match="shape"):
            factor.validate()

    def test_validate_rejects_bad_permutation(self):
        factor = tiny_oddeven()
        factor.levels = [[0], [0]]
        with pytest.raises(AssertionError, match="permutation"):
            factor.validate()

    def test_validate_rejects_groups_off_their_level(self):
        factor = tiny_oddeven()
        factor.groups.reverse()
        with pytest.raises(AssertionError, match="row groups hold"):
            factor.validate()

    def test_to_dense_and_rhs(self):
        factor = tiny_oddeven()
        assert np.allclose(factor.to_dense(), [[2.0, 1.0], [0.0, 3.0]])
        assert np.allclose(factor.rhs_dense(), [4.0, 6.0])

    def test_nonzero_blocks(self):
        assert tiny_oddeven().nonzero_blocks() == 3

    def test_structure_rows(self):
        rows = dict(tiny_oddeven().structure_rows())
        assert rows[0] == [1]
        assert rows[1] == []

    def test_rows_are_read_only_views_of_the_groups(self):
        factor = tiny_oddeven()
        row = factor.rows[0]
        assert (row.col, row.level, row.offdiag_cols()) == (0, 0, [1])
        assert np.shares_memory(row.diag, factor.groups[0][0].diag)
        assert factor.rows is factor.rows
        with pytest.raises(TypeError):
            factor.rows[0] = row
        with pytest.raises(FrozenInstanceError):
            row.diag = np.eye(1)
