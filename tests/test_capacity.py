import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from squeezelab.capacity import (
    BoundKind,
    CapacityCurve,
    capacity_coherent,
    capacity_coherent_squeezed_detection,
    capacity_squeezed_encoding,
    curve_suite,
    default_nbar_grid,
    holevo_bound,
    write_curves_csv,
)

R_PAPER = 0.3776  # exp(-2r) = 0.47, the -3.2 dB operating point


class TestCoherent:
    def test_values(self):
        assert capacity_coherent(0.0) == 0.0
        assert capacity_coherent(1.0) == pytest.approx(0.5 * math.log2(5), rel=1e-12)
        assert capacity_coherent(1.0) == pytest.approx(1.161, abs=1e-3)
        assert capacity_coherent(2.0) == pytest.approx(0.5 * math.log2(9), rel=1e-12)
        assert capacity_coherent(2.0) == pytest.approx(1.585, abs=1e-3)


class TestSqueezedDetection:
    def test_reduces_to_coherent(self):
        for nbar in (0.0, 0.5, 3.0):
            assert capacity_coherent_squeezed_detection(nbar, 0.0) == pytest.approx(
                capacity_coherent(nbar), rel=1e-12
            )

    def test_paper_operating_point(self):
        r = 0.5 * math.log(1 / 0.47)
        assert capacity_coherent_squeezed_detection(1.0, r) == pytest.approx(1.625, abs=1e-3)

    def test_zero_photons(self):
        assert capacity_coherent_squeezed_detection(0.0, 2.0) == 0.0

    @pytest.mark.parametrize("bound, args", [
        (capacity_coherent_squeezed_detection, (1.0, 400.0)),  # e^{2r} overflows
        (capacity_coherent_squeezed_detection, (1e308, 1.0)),  # 4 e^{2r} nbar overflows
        (capacity_coherent, (math.inf,)),
        (capacity_squeezed_encoding, (1e300, 400.0)),  # before sinh^2(r) overflows
    ])
    def test_refuses_a_gain_that_is_not_finite(self, bound, args):
        with pytest.raises(ValueError, match="4 exp\\(2r\\) nbar finite"):
            bound(*args)

    def test_largest_finite_gain_is_accepted(self):
        # 4 e^{2r} is finite up to 2r = ln(max float / 4), and the law runs there
        r = 0.5 * math.log(sys.float_info.max / 4.0) - 1e-9
        assert math.isfinite(capacity_coherent_squeezed_detection(0.5, r))
        with pytest.raises(ValueError):
            capacity_coherent_squeezed_detection(0.5, r + 1e-6)


class TestSqueezedEncoding:
    def test_reduces_to_coherent(self):
        for nbar in (0.5, 3.0):
            assert capacity_squeezed_encoding(nbar, 0.0) == pytest.approx(
                capacity_coherent(nbar), rel=1e-12
            )

    def test_paper_operating_point(self):
        c = capacity_squeezed_encoding(1.0, R_PAPER)
        expected = 0.5 * math.log2(1 + 4 * math.exp(2 * R_PAPER) * (1 - math.sinh(R_PAPER) ** 2))
        assert c == pytest.approx(expected, rel=1e-12)
        assert c == pytest.approx(1.521, abs=1e-3)

    def test_vanishes_at_constraint_boundary(self):
        r = R_PAPER
        eps = 1e-9
        c = capacity_squeezed_encoding(math.sinh(r) ** 2 + eps, r)
        assert c < 1e-6

    def test_rejects_constraint_violation(self):
        with pytest.raises(ValueError):
            capacity_squeezed_encoding(0.1, R_PAPER)


class TestHolevo:
    def test_limit_at_zero(self):
        assert holevo_bound(0.0) == 0.0

    def test_one_photon(self):
        assert holevo_bound(1.0) == pytest.approx(2.0, rel=1e-12)

    def test_three_photons(self):
        assert holevo_bound(3.0) == pytest.approx(4 * 2 - 3 * math.log2(3), rel=1e-12)
        assert holevo_bound(3.0) == pytest.approx(3.245, abs=1e-3)

    @pytest.mark.parametrize("nbar", [1e12, 1e15, 1e18, 1e308])
    def test_large_n_without_cancellation(self, nbar):
        # (1+n)log2(1+n) - n log2 n = log2 n + 1/ln 2 + O(1/n)
        assert holevo_bound(nbar) == pytest.approx(math.log2(nbar) + 1 / math.log(2), rel=1e-13)

    def test_every_bound_refuses_infinite_nbar(self):
        for bound in (capacity_coherent, holevo_bound,
                      lambda n: capacity_coherent_squeezed_detection(n, R_PAPER),
                      lambda n: capacity_squeezed_encoding(n, R_PAPER)):
            with pytest.raises(ValueError, match="inf"):
                bound(math.inf)

    def test_subnormal_n_is_tiny_not_inf(self):
        # 1/n overflows below about 5.6e-309; -n log2 n dominates there
        assert holevo_bound(1e-320) == pytest.approx(-1e-320 * math.log2(1e-320), rel=1e-2)

    @given(nbar=st.floats(1e-6, 100.0), r=st.sampled_from([0.0, R_PAPER, 1.0]))
    def test_dominates_other_bounds(self, nbar, r):
        hol = holevo_bound(nbar)
        assert hol >= capacity_coherent(nbar) - 1e-12
        if r <= R_PAPER:
            # the squeezed-detection curve does not count the reference
            # squeezing photons in nbar, so it can cross the Holevo bound
            # for strong squeezing; it stays below it in the regime studied
            assert hol >= capacity_coherent_squeezed_detection(nbar, r) - 1e-12
        if nbar > math.sinh(r) ** 2:
            assert hol >= capacity_squeezed_encoding(nbar, r) - 1e-12


class TestArrays:
    GRID = np.array([0.0, 0.01, 0.2, 1.0, 7.3])

    def test_bounds_match_scalar(self):
        for r in (0.0, R_PAPER, 1.0):
            for bound in (capacity_coherent, holevo_bound,
                          lambda n: capacity_coherent_squeezed_detection(n, r)):
                assert np.array_equal(bound(self.GRID), [bound(n) for n in self.GRID])
            above = self.GRID[self.GRID > math.sinh(r) ** 2]
            assert np.array_equal(
                capacity_squeezed_encoding(above, r),
                [capacity_squeezed_encoding(n, r) for n in above],
            )

    def test_holevo_zero_in_array(self):
        assert holevo_bound(self.GRID)[0] == 0.0

    def test_any_invalid_element_raises(self):
        bad = np.array([0.5, -1e-3])
        for bound in (capacity_coherent, holevo_bound,
                      lambda n: capacity_coherent_squeezed_detection(n, R_PAPER)):
            with pytest.raises(ValueError):
                bound(bad)
        with pytest.raises(ValueError):
            capacity_squeezed_encoding(np.array([1.0, 0.1]), R_PAPER)
        with pytest.raises(ValueError):
            capacity_coherent_squeezed_detection(self.GRID, -0.1)
        with pytest.raises(ValueError, match="^grid and capacities must be aligned$"):
            CapacityCurve([0.1, 0.2], [1.0], BoundKind.HOLEVO)
        for grid in ([], [0.2, 0.1], [0.0, 0.1]):  # empty, not increasing, not positive
            with pytest.raises(ValueError,
                               match="^nbar_grid must be a 1-D array, finite, positive and strictly increasing$"):
                curve_suite(grid, R_PAPER)


class TestCurveSuite:
    def test_r_zero_collapses_curves(self):
        grid = default_nbar_grid(0.2, 5.0, 20)
        curves = {c.bound_kind: c for c in curve_suite(grid, 0.0)}
        np.testing.assert_allclose(
            curves[BoundKind.COHERENT].capacities,
            curves[BoundKind.COHERENT_WITH_SQUEEZED_DETECTION].capacities,
        )
        np.testing.assert_allclose(
            curves[BoundKind.COHERENT].capacities,
            curves[BoundKind.SQUEEZED_ENCODING].capacities,
        )

    def test_paper_ordering(self):
        grid = default_nbar_grid(0.01, 10.0, 200)
        curves = {c.bound_kind: c for c in curve_suite(grid, R_PAPER)}
        coh = curves[BoundKind.COHERENT].capacities
        det = curves[BoundKind.COHERENT_WITH_SQUEEZED_DETECTION].capacities
        hol = curves[BoundKind.HOLEVO].capacities
        assert np.all(coh <= det + 1e-12)
        assert np.all(det <= hol + 1e-12)

    def test_encoding_gap_is_nan_not_zero(self):
        grid = default_nbar_grid(0.01, 10.0, 50)
        curves = {c.bound_kind: c for c in curve_suite(grid, R_PAPER)}
        enc = curves[BoundKind.SQUEEZED_ENCODING]
        below = grid <= math.sinh(R_PAPER) ** 2
        assert below.any()
        assert np.all(np.isnan(enc.capacities[below]))
        assert not np.any(enc.capacities[below] == 0.0)

    @given(r=st.floats(0.0, 1.5))
    def test_detection_beats_encoding(self, r):
        grid = default_nbar_grid(max(0.02, 1.2 * math.sinh(r) ** 2), 10.0, 30)
        det = [capacity_coherent_squeezed_detection(n, r) for n in grid]
        enc = [capacity_squeezed_encoding(n, r) for n in grid]
        assert all(d >= e - 1e-12 for d, e in zip(det, enc))

    @given(n1=st.floats(0.0, 50.0), dn=st.floats(1e-6, 10.0))
    def test_capacities_nondecreasing(self, n1, dn):
        assert capacity_coherent(n1 + dn) >= capacity_coherent(n1)
        assert holevo_bound(n1 + dn) >= holevo_bound(n1)

    def test_csv_export(self, tmp_path):
        path = tmp_path / "capacity.csv"
        write_curves_csv(path, curve_suite(default_nbar_grid(0.01, 10.0, 20), R_PAPER))
        lines = path.read_text().splitlines()
        assert lines[0] == "nbar,capacity_bits,bound_kind"
        assert len(lines) == 1 + 4 * 20
        # gap rows are empty, not zero
        assert any(line.split(",")[1] == "" for line in lines[1:])
