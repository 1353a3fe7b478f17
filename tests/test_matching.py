from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraseseg import IOU_THRESHOLDS, RleMask, iom_nms, local_f1, matching, optimal_match
from phraseseg.image_metrics import _evaluate_matrix
from phraseseg.matching import IouMatrix

from _reference import brute_match, greedy_match_total, validate_matrix
from conftest import datapoint, det, mask_from_pixels, rect_mask


class TestOptimalMatch:
    def test_two_by_two(self):
        match = optimal_match([[0.9, 0.2], [0.3, 0.8]])
        assert match.gt_for() == {0: 0, 1: 1}
        assert match.total() == pytest.approx(1.7)

    def test_identity_diagonal(self):
        match = optimal_match(np.eye(4))
        assert match.gt_for() == {i: i for i in range(4)}

    def test_one_by_three(self):
        match = optimal_match([[0.1, 0.7, 0.4]])
        assert match.gt_for() == {0: 1}

    def test_empty_sides(self):
        assert optimal_match(np.zeros((0, 3))).pairs == ()
        assert optimal_match(np.zeros((3, 0))).pairs == ()

    def test_zero_pairs_unmatched(self):
        assert optimal_match([[0.0, 0.0], [0.0, 0.0]]).pairs == ()
        match = optimal_match([[0.0, 0.5], [0.0, 0.0]])
        assert match.gt_for() == {0: 1}

    def test_lexicographic_tie_break(self):
        match = optimal_match([[0.5, 0.5], [0.5, 0.5]])
        assert match.gt_for() == {0: 0, 1: 1}
        # Tie between matching row 0 or row 1 to the only useful column:
        # the earlier prediction wins.
        match = optimal_match([[0.0, 0.5], [0.0, 0.5]])
        assert match.gt_for() == {0: 1}

    def test_rectangular(self):
        match = optimal_match([[0.6, 0.1], [0.5, 0.9], [0.4, 0.2]])
        assert match.gt_for() == {0: 0, 1: 1}

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            optimal_match([[1.5]])
        with pytest.raises(ValueError):
            optimal_match([[np.nan]])
        with pytest.raises(ValueError):
            optimal_match([[-0.1]])

    def test_matches_brute_force_totals_and_pairs(self, rng):
        for _ in range(300):
            n, m = rng.integers(0, 6, size=2)
            matrix = np.round(rng.random((n, m)), 3)
            matrix[rng.random((n, m)) < 0.3] = 0.0
            got = optimal_match(matrix)
            pairs, total = brute_match(matrix.tolist())
            assert got.total() == total
            assert tuple((p, g) for p, g, _ in got.pairs) == pairs

    def test_tie_heavy_matrices_match_brute_force(self, rng):
        # quantized entries force many optimal assignments; the deterministic
        # tie-break must agree with the enumeration oracle pair for pair.
        # Entries stay multiples of 1/8, so sums are exact and near-ties
        # cannot round differently in the oracle.
        levels = np.array([0.0, 0.25, 0.5, 0.5, 1.0])

        def structured(n, m):
            matrix = levels[rng.integers(0, len(levels), size=(n, m))]
            kind = rng.integers(0, 5)
            if kind == 0:  # duplicated rows
                matrix = matrix[rng.integers(0, n, size=n)]
            elif kind == 1:  # duplicated columns
                matrix = matrix[:, rng.integers(0, m, size=m)]
            elif kind == 2:  # an all-equal block
                r, c = rng.integers(0, n), rng.integers(0, m)
                matrix[r:, c:] = rng.integers(1, 9) / 8
            elif kind == 3:  # all-zero rows and columns
                matrix[rng.random(n) < 0.3] = 0.0
                matrix[:, rng.random(m) < 0.3] = 0.0
            return matrix

        shapes = [tuple(rng.integers(1, 6, size=2)) for _ in range(300)]
        shapes += [(1, k) for k in range(1, 7)] + [(k, 1) for k in range(1, 7)]
        for n, m in shapes * 2:
            matrix = structured(n, m)
            got = optimal_match(matrix)
            pairs, total = brute_match(matrix.tolist())
            assert got.total() == total
            assert tuple((p, g) for p, g, _ in got.pairs) == pairs

    def test_one_solve_without_ties(self, monkeypatch):
        calls = []
        solve = matching.linear_sum_assignment
        monkeypatch.setattr(
            matching, "linear_sum_assignment", lambda *a, **k: calls.append(1) or solve(*a, **k)
        )
        # no row or column holds two positive cells: nothing is solved
        perm = [3, 0, 4, 1, 2]
        match = optimal_match(np.eye(5)[perm])
        assert match.gt_for() == dict(enumerate(perm))
        assert len(calls) == 0
        # positive cells conflict, but the first solve is already the
        # lexicographically smallest optimum, so nothing is re-solved
        matrix = [[0.3, 0.9, 0.0], [0.0, 0.6, 0.7], [0.0, 0.0, 0.2]]
        match = optimal_match(matrix)
        assert match.gt_for() == {0: 1, 1: 2}
        assert tuple((p, g) for p, g, _ in match.pairs) == brute_match(matrix)[0]
        assert len(calls) == 1

    def test_dominates_greedy(self, rng):
        for _ in range(200):
            n, m = rng.integers(1, 7, size=2)
            matrix = rng.random((n, m))
            assert optimal_match(matrix).total() >= greedy_match_total(matrix.tolist()) - 1e-12


@st.composite
def _conflict_free(draw):
    """A matrix whose positive cells share no row and no column: random,
    tied or 1e-12-scale values; the other cells are 0.0 or -0.0."""
    n, k = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 8)),
        st.tuples(st.integers(1, 8), st.just(1)),
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
    ))
    value = st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([0.25, 0.5, 1.0]),
        st.floats(1e-13, 1e-11),
    )
    matrix = [[draw(st.sampled_from([0.0, -0.0])) for _ in range(k)] for _ in range(n)]
    cols = draw(st.permutations(range(max(n, k))))
    for i in range(n):
        if cols[i] < k and draw(st.booleans()):
            matrix[i][cols[i]] = draw(value)
    return matrix


def _outcome(check, matrix):
    try:
        check(matrix)
    except ValueError as e:
        return str(e)
    return None


_SPECIAL = [0.0, -0.0, 0.5, 1.0, 5e-324, -5e-324, -1e-12, np.nextafter(1.0, 2.0), 2.0,
            np.nan, np.inf, -np.inf]


class TestConflictFree:
    @settings(max_examples=400, deadline=None)
    @given(_conflict_free())
    def test_equals_brute_force_without_a_solve(self, matrix):
        def no_solve(rows):
            raise AssertionError("solver called")

        with mock.patch.object(matching, "linear_sum_assignment", no_solve):
            got = optimal_match(matrix)
        pairs, _ = brute_match(matrix)
        assert tuple((p, g) for p, g, _ in got.pairs) == pairs
        assert [iou for _, _, iou in got.pairs] == [matrix[p][g] for p, g in pairs]

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda s: st.lists(st.sampled_from(_SPECIAL), min_size=s[0] * s[1], max_size=s[0] * s[1])
        .map(lambda cells: np.array(cells, dtype=float).reshape(s))
    ))
    def test_validation_equals_numpy_checks(self, matrix):
        # 0xk and kx0 arrays included; lists too, except the 0-row ones,
        # which a nested list cannot express
        assert _outcome(optimal_match, matrix) == _outcome(validate_matrix, matrix)
        if len(matrix):
            rows = matrix.tolist()
            assert _outcome(optimal_match, rows) == _outcome(validate_matrix, rows)

    @pytest.mark.parametrize("matrix", [[], [0.5], [[[0.5]]], np.zeros((2, 0, 1)), [[0.5], [0.5, 0.5]]])
    def test_rejects_what_numpy_rejects(self, matrix):
        expected = _outcome(validate_matrix, matrix)
        assert expected is not None
        assert _outcome(optimal_match, matrix) == expected


def _matrices(max_side):
    cell = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    sides = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return sides.flatmap(
        lambda s: st.lists(
            st.lists(cell, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]
        )
    )


def _structured(rng, n, k):
    """A random matrix of one of the kinds that exercise the solver's ties."""
    kind = rng.integers(0, 6)
    if kind == 0:
        return rng.random((n, k))
    if kind == 1:  # 1/8 steps
        return rng.integers(0, 9, size=(n, k)) / 8
    if kind == 2:  # tenths, whose sums round
        return rng.integers(0, 11, size=(n, k)) / 10
    if kind == 3:  # duplicated rows or columns
        m = rng.integers(0, 5, size=(n, k)) / 4
        if rng.random() < 0.5:
            return m[rng.integers(0, n, size=n)]
        return m[:, rng.integers(0, k, size=k)]
    if kind == 4:  # all equal
        return np.full((n, k), rng.integers(0, 9) / 8)
    return rng.random((n, k)) * 1e-9


class TestSolver:
    """``matching.linear_sum_assignment``, the in-repo port of scipy's solver."""

    @settings(max_examples=300, deadline=None)
    @given(_matrices(8))
    def test_duals_certify_the_optimum(self, rows):
        pairs, u, v = matching.linear_sum_assignment(rows)
        assert len(pairs) == min(len(rows), len(rows[0]))
        slack = [[u[i] + v[j] - x for j, x in enumerate(row)] for i, row in enumerate(rows)]
        assert min(map(min, slack)) >= -1e-12
        assert all(slack[i][j] <= 1e-12 for i, j in pairs)
        matched_rows, matched_cols = {i for i, _ in pairs}, {j for _, j in pairs}
        assert all(abs(x) <= 1e-12 for i, x in enumerate(u) if i not in matched_rows)
        assert all(abs(x) <= 1e-12 for j, x in enumerate(v) if j not in matched_cols)
        if len(rows) * len(rows[0]) <= 30:
            total = sum(rows[i][j] for i, j in pairs)
            assert total == pytest.approx(brute_match(rows)[1], rel=0.0, abs=1e-12)

    def test_pairs_equal_scipy(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(11)
        shapes = [tuple(rng.integers(1, 13, size=2)) for _ in range(30_000)]
        shapes += [(1, k) for k in range(1, 13)] * 40 + [(k, 1) for k in range(1, 13)] * 40
        for n, k in shapes:
            m = _structured(rng, n, k)
            rows, cols = scipy_optimize.linear_sum_assignment(m, maximize=True)
            pairs, _, _ = matching.linear_sum_assignment(m.tolist())
            assert pairs == list(zip(rows.tolist(), cols.tolist())), m

    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(matching.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import phraseseg.cli, sys; print([m for m in sys.modules if m.startswith('scipy')])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


def _iou(array):
    """An ndarray as the IoU matrix type ``_evaluate_matrix`` takes."""
    return IouMatrix(array.tolist(), array.shape[1])


class TestCounts:
    """One matching thresholded per tau: a matched pair with IoU >= tau is a
    TP, FP = n_pred - TP and FN = n_gt - TP."""

    @staticmethod
    def counts(ev, k=0):
        return ev.tp[k], ev.n_pred - ev.tp[k], ev.n_gt - ev.tp[k]

    @staticmethod
    def spec_example():
        # two predictions, one ground truth; the matched pair has IoU 3/5 = 0.6
        gt = mask_from_pixels(4, 4, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
        pred = mask_from_pixels(4, 4, [(0, 0), (0, 1), (0, 2)])
        far = mask_from_pixels(4, 4, [(3, 3)])
        return datapoint([gt], [det(pred, 0.9), det(far, 0.9)])

    def test_spec_example_low_threshold(self):
        ev = _evaluate_matrix(_iou(np.array([[0.6], [0.0]])), (0.5,))
        assert self.counts(ev) == (1, 1, 0)
        assert local_f1(self.spec_example(), 0, 0.5) == 2 / 3

    def test_spec_example_high_threshold(self):
        ev = _evaluate_matrix(_iou(np.array([[0.6], [0.0]])), (0.75,))
        assert self.counts(ev) == (0, 2, 1)
        assert local_f1(self.spec_example(), 0, 0.75) == 0.0

    def test_perfect(self):
        ev = _evaluate_matrix(_iou(np.eye(4)), (0.5, 0.75, 1.0))
        for k in range(3):
            assert self.counts(ev, k) == (4, 0, 0)
        assert ev.f1 == [1.0, 1.0, 1.0]

    def test_invalid_tau(self):
        dp = self.spec_example()
        for tau in (0.0, 1.1):
            with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\]"):
                local_f1(dp, 0, tau)

    def test_single_matching_rethresholded(self):
        # the matching is computed once on raw IoU: the max-total assignment
        # here pairs (0.55, 0.5), so at tau 0.6 there are no TPs even though
        # a tau-specific rematch could have scored prediction 0 against
        # ground truth 0 (IoU 0.6)
        matrix = np.array([[0.6, 0.55], [0.5, 0.0]])
        assert optimal_match(matrix).gt_for() == {0: 1, 1: 0}
        assert self.counts(_evaluate_matrix(_iou(matrix), (0.6,))) == (0, 2, 2)

    def test_threshold_grid_exact(self):
        assert IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

    def test_tp_monotone_and_totals_constant(self, rng):
        for _ in range(50):
            n, m = rng.integers(1, 6, size=2)
            matrix = rng.random((n, m))
            ev = _evaluate_matrix(_iou(matrix))
            ious = [iou for _, _, iou in optimal_match(matrix).pairs]
            assert ev.tp == tuple(sum(iou >= t for iou in ious) for t in IOU_THRESHOLDS)
            assert list(ev.tp) == sorted(ev.tp, reverse=True)
            assert (ev.n_pred, ev.n_gt) == (n, m)
            assert ev.tp[0] <= min(n, m)
            assert ev.fn_fp_total == sum(n + m - 2 * tp for tp in ev.tp)
            assert ev.f1 == [2 * tp / (n + m) for tp in ev.tp]


class TestIomNms:
    def test_nested_suppressed(self):
        outer = rect_mask(8, 8, 1, 1, 5, 5)
        inner = rect_mask(8, 8, 2, 2, 2, 2)
        kept = iom_nms([det(outer, 0.9), det(inner, 0.8)], 0.5)
        assert [d.score for d in kept] == [0.9]

    def test_disjoint_all_kept(self):
        a = rect_mask(8, 8, 0, 0, 3, 3)
        b = rect_mask(8, 8, 4, 4, 3, 3)
        kept = iom_nms([det(a, 0.3), det(b, 0.9)], 0.5)
        assert len(kept) == 2
        assert [d.score for d in kept] == [0.9, 0.3]  # kept order is visit order

    def test_boundary_iom_suppresses(self):
        # IoM exactly 0.5: the smaller mask is half-covered.
        big = rect_mask(4, 4, 0, 0, 4, 2)
        small = mask_from_pixels(4, 4, [(1, 0), (2, 0)])
        kept = iom_nms([det(big, 0.9), det(small, 0.8)], 0.5)
        assert [d.score for d in kept] == [0.9]

    def test_score_tie_prefers_earlier(self):
        outer = rect_mask(8, 8, 1, 1, 5, 5)
        inner = rect_mask(8, 8, 2, 2, 2, 2)
        kept = iom_nms([det(inner, 0.8), det(outer, 0.8)], 0.5)
        assert kept[0].mask == inner

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            iom_nms([det(RleMask.full(2, 2)), det(RleMask.full(3, 3))])

    @pytest.mark.parametrize(
        "first, second, threshold, n_kept",
        [
            (RleMask.full(2, 2), RleMask.empty(2, 2), 0.0, 1),  # IoM 0 reaches a threshold of 0
            (RleMask.empty(2, 2), RleMask.empty(2, 2), 0.0, 1),  # two empties count as IoM 0
            (RleMask.empty(2, 2), RleMask.empty(2, 2), 0.5, 2),
            (RleMask.empty(2, 2), RleMask.full(2, 2), 0.5, 2),
        ],
    )
    def test_empty_masks(self, first, second, threshold, n_kept):
        assert len(iom_nms([det(first, 0.9), det(second, 0.8)], threshold)) == n_kept

    def test_antichain_property(self, rng):
        for _ in range(50):
            dets = []
            for _ in range(int(rng.integers(1, 8))):
                x, y = rng.integers(0, 5, size=2)
                w, h = rng.integers(1, 4, size=2)
                dets.append(det(rect_mask(8, 8, x, y, w, h), float(rng.random())))
            kept = iom_nms(dets, 0.5)
            from phraseseg import mask_iom

            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert mask_iom(kept[i].mask, kept[j].mask) < 0.5
            # suppression only removes; kept detections are a subset
            assert len(kept) <= len(dets)


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        import phraseseg
        from phraseseg import image_metrics, matching

        assert all(hasattr(phraseseg, name) for name in phraseseg.__all__)
        assert phraseseg.gate is image_metrics.gate is matching.gate
