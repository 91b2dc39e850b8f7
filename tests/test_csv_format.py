"""The CSV format, byte for byte: header row, floats as repr, NaN as an empty
cell, `\\r\\n` line ends, no quoting; and the writer's memory per row."""
import math
import tracemalloc

import numpy as np

from squeezelab import cli
from squeezelab.capacity import BoundKind, CapacityCurve, curve_suite, default_nbar_grid, write_curves_csv
from squeezelab.spectrum import SpectrumTrace, TraceLabel, write_traces_csv


def test_traces_awkward_floats(tmp_path):
    path = tmp_path / "traces.csv"
    write_traces_csv(path, [
        SpectrumTrace(np.array([1e-05, 0.1, 1e16]), np.array([5e-324, -0.0, 1e+16]), TraceLabel.SHOT_NOISE),
        SpectrumTrace(np.array([]), np.array([]), TraceLabel.ELECTRONIC_NOISE),
        SpectrumTrace(np.array([1.0]), np.array([-3.2]), TraceLabel.SQUEEZED_QUADRATURE),
    ])
    assert path.read_bytes() == (
        b"frequency_hz,value_db,label\r\n"
        b"1e-05,5e-324,shot_noise\r\n"
        b"0.1,-0.0,shot_noise\r\n"
        b"1e+16,1e+16,shot_noise\r\n"
        b"1.0,-3.2,squeezed_quadrature\r\n"
    )


def test_curves_nan_is_an_empty_cell(tmp_path):
    path = tmp_path / "curves.csv"
    write_curves_csv(path, [
        CapacityCurve([0.01, 2.5], [math.nan, 0.5], BoundKind.SQUEEZED_ENCODING),
        CapacityCurve([0.01, 2.5], [0.0, 1e-05], BoundKind.HOLEVO),
    ])
    assert path.read_bytes() == (
        b"nbar,capacity_bits,bound_kind\r\n"
        b"0.01,,squeezed_encoding\r\n"
        b"2.5,0.5,squeezed_encoding\r\n"
        b"0.01,0.0,holevo\r\n"
        b"2.5,1e-05,holevo\r\n"
    )


def test_many_rows_match_the_row_by_row_format(tmp_path):
    curves = curve_suite(default_nbar_grid(0.01, 1000.0, 10_007), 0.3776)
    path = tmp_path / "curves.csv"
    write_curves_csv(path, curves)
    expected = "nbar,capacity_bits,bound_kind\r\n" + "".join(
        f"{n!r},{'' if math.isnan(c) else repr(c)},{curve.bound_kind.value}\r\n"
        for curve in curves for n, c in zip(curve.nbar_grid.tolist(), curve.capacities.tolist())
    )
    assert path.read_bytes() == expected.encode()


def test_cavity_csv(tmp_path):
    assert cli.main(["cavity", "--out", str(tmp_path)]) == 0
    assert next(tmp_path.glob("cavity-*.csv")).read_bytes() == (
        b"quantity,value\r\n"
        b"free_spectral_range_hz,2669567747.105966\r\n"
        b"finesse,122.30113442710852\r\n"
        b"fwhm_hz,21827824.89803501\r\n"
        b"threshold_power_w,0.16318537859007862\r\n"
        b"escape_efficiency,1.0\r\n"
    )


def test_correct_csv(tmp_path):
    argv = ["correct", "--observed-db", "-3", "--mode", "equal-power", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert next(tmp_path.glob("correct-*.csv")).read_bytes() == (
        b"observed_db,power_ratio,mode,corrected_db\r\n"
        b"-3.0,0.0380952380952381,equal-power,-3.167864457839318\r\n"
    )


def test_memory_does_not_grow_with_points(tmp_path):
    def peak(points):
        curves = curve_suite(default_nbar_grid(0.01, 1000.0, points), 0.3776)
        tracemalloc.start()
        try:
            write_curves_csv(tmp_path / f"{points}.csv", curves)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # warm-up: caches filled on first use are not per-row memory
    assert peak(100_000) - peak(10_000) < 1e6
