"""The CSV format, byte for byte: header row, floats as repr, NaN as an empty
cell, `\\r\\n` line ends, no quoting; and the writer's memory per row."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from squeezelab import cli
from squeezelab.capacity import BoundKind, CapacityCurve, curve_suite, default_nbar_grid, write_curves_csv
from squeezelab.spectrum import CSV_CHUNK_ROWS, SpectrumTrace, TraceLabel, _cells, write_csv, write_traces_csv


def cell(v):
    """One cell of the format: str as given, numbers as repr, NaN as ""."""
    return v if isinstance(v, str) else "" if math.isnan(v) else repr(v)


def row_by_row(header, blocks):
    """The format a cell at a time; a plain str column is that str on every
    row of its block."""
    def rows_of(columns):
        n = next(len(c) for c in columns if not isinstance(c, str))
        return zip(*([c] * n if isinstance(c, str) else np.asarray(c).tolist() for c in columns))

    rows = [",".join(header)] + [",".join(map(cell, row)) for columns in blocks for row in rows_of(columns)]
    return "".join(row + "\r\n" for row in rows).encode()


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 64),  # both sides of the 16-cell cut
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_float_cells_match_repr(a):
    assert _cells(a) == list(map(cell, a.tolist()))


def _random_bit_patterns():
    # every sign, exponent and mantissa: NaN payloads, subnormals, both exponent layouts
    return np.random.default_rng(20).integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)


def _layout_boundaries():
    # repr switches to an exponent below 1e-4 and from 1e16, where orjson's own layout differs
    edges = np.array([1e-4, 1e16, 5e-324, np.finfo(np.float64).max])
    with np.errstate(over="ignore"):
        near = [np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
    a = np.concatenate([edges, *near, [0.0, -0.0, math.nan, math.inf, -math.inf]])
    return np.concatenate([a, -a])


@pytest.mark.parametrize("make", [_random_bit_patterns, _layout_boundaries], ids=["bit-patterns", "boundaries"])
def test_fixed_float_samples_match_repr(make):
    a = make()
    assert _cells(a) == list(map(cell, a.tolist()))


@pytest.mark.parametrize("blocks, match", [
    ([([1.0, 2.0], [3.0, 4.0], "x"), ("a", "b", "y")], "block 1 has only str columns"),
    ([([1.0, 2.0], [3.0, 4.0], "x"), ([1.0, 2.0], [3.0], "y")], r"block 1 column 'b' has shape \(1,\)"),
    ([(np.ones((2, 1)), [3.0, 4.0], "x")], r"block 0 column 'a' has shape \(2, 1\)"),
    ([([1.0, 2.0], [3.0, 4.0])], "block 0 has 2 columns for 3 header names"),
], ids=["only-str", "unequal-lengths", "two-dimensional", "column-count"])
def test_malformed_block_is_refused_by_name(tmp_path, blocks, match):
    with pytest.raises(ValueError, match=match):
        write_csv(tmp_path / "bad.csv", ("a", "b", "label"), blocks)


def _nan_around_the_chunk_boundary():
    values = np.linspace(-1.0, 1.0, 2 * CSV_CHUNK_ROWS + 3)
    values[[CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS]] = math.nan  # last row of one chunk, first of the next
    return [(np.arange(values.size) * 0.1, values, np.broadcast_to("holevo", values.shape))]


def _float_column(values):
    values[1:4] = math.nan, 1e17, -1e-5  # cells in repr's exponent layout too
    return [(values, np.arange(values.size) * 0.25, "x")]


def _thirds(n):
    return np.arange(n) / 3.0 - 5.0


@pytest.mark.parametrize("header, blocks", [
    (("observed_db", "power_ratio", "mode", "corrected_db"), [([-3.0], [0.038], ["blocked"], [math.nan])]),
    (("nbar", "capacity_bits", "bound_kind"), _nan_around_the_chunk_boundary()),
    (("x", "y"), [([math.inf, 1.0, -math.inf], [-math.inf, math.nan, 2.0])]),
    (("a", "b", "label"), _float_column(_thirds(2 * CSV_CHUNK_ROWS + 7)[::2])),  # over two chunks
    (("a", "b", "label"), _float_column(_thirds(40).astype(">f8"))),
    # written as its float64 value's repr, not float32's shortest digits
    (("a", "b", "label"), _float_column(_thirds(40).astype(np.float32))),
], ids=["one-row-nan", "nan-at-chunk-boundary", "infinite", "strided", "big-endian", "float32"])
def test_edge_cases_match_the_row_by_row_format(tmp_path, header, blocks):
    write_csv(tmp_path / "edge.csv", header, blocks)
    assert (tmp_path / "edge.csv").read_bytes() == row_by_row(header, blocks)


def _blocks_sharing_a_grid():
    grid = np.linspace(0.1, 2.0, 7)
    return [(grid, grid**2, "squeezed"), (grid, -grid, "shot"), (grid.copy(), grid, "copy")]


def _columns_equal_but_for_signed_zero_or_nan():
    # each column differs from the one before only in a zero's sign, a NaN's
    # place, a cell after the first, or its dtype (an int 0 has a float 0.0's bytes)
    columns = [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, -0.0],
               [math.nan, 1.0], [1.0, math.nan], [0.0, 0.0], np.array([0, 0]), [0.0, 5e-324]]
    return [(np.asarray(c), f"c{i}") for i, c in enumerate(columns)]


def _shared_column_over_several_chunks():
    grid = np.linspace(1.0, 2.0, 3 * CSV_CHUNK_ROWS)
    level = np.zeros(grid.size)  # equal chunks, one after the other
    level[-5] = -0.0  # but the last differs in one cell
    tail_differs = grid.copy()
    tail_differs[-1] = 3.0
    return [(grid, level, "a"), (grid, grid * 2, "b"), (tail_differs, level, "c")]


def _str_constant_next_to_a_text_column():
    names = np.array(["finesse", "nan", "fwhm_hz"])
    return [("label", names, [1.0, math.nan, 3.0]), ("label", names, [4.0, 5.0, 6.0]),
            ("other", names[::-1], names)]


@pytest.mark.parametrize("header, blocks", [
    (("x", "y", "label"), _blocks_sharing_a_grid()),
    (("x", "label"), _columns_equal_but_for_signed_zero_or_nan()),
    (("x", "y", "label"), _shared_column_over_several_chunks()),
    (("label", "name", "value"), _str_constant_next_to_a_text_column()),
], ids=["shared-grid", "signed-zero-and-nan", "longer-than-a-chunk", "str-constant"])
def test_shared_columns_match_the_row_by_row_format(tmp_path, header, blocks):
    write_csv(tmp_path / "shared.csv", header, blocks)
    assert (tmp_path / "shared.csv").read_bytes() == row_by_row(header, blocks)


def test_object_column_is_formatted_in_each_block(tmp_path):
    # an object array's bytes are addresses: an equal address need not give an equal cell
    class Level:
        value = 0

        def __repr__(self):
            return str(self.value)

    level = Level()

    def blocks():
        for value in (1, 2):
            level.value = value
            yield (np.array([level], dtype=object), "x")

    write_csv(tmp_path / "object.csv", ("level", "label"), blocks())
    assert (tmp_path / "object.csv").read_bytes() == b"level,label\r\n1,x\r\n2,x\r\n"


@pytest.mark.parametrize("header, blocks", [
    (("a", "b", "c"), [(np.full(5, 2.5), np.linspace(0.0, 1.0, 5), np.arange(5))]),
    (("a", "b", "c"), [(np.linspace(0.0, 1.0, 5), np.full(5, 2.5), np.arange(5))]),
    (("a", "b", "c"), [(np.linspace(0.0, 1.0, 5), np.arange(5), np.full(5, 2.5))]),
    (("a", "b", "label", "name"), [(np.full(3, 1e-05), np.full(3, 7), "shot", np.array(["x", "x", "x"]))]),
    (("x", "y", "label"), [(np.linspace(0.0, 1.0, 4), np.full(4, math.nan), "floor")]),
    (("x", "y", "label"), [(np.linspace(0.0, 1.0, 4), np.array([0.0, -0.0, 0.0, 0.0]), "a"),
                           (np.linspace(0.0, 1.0, 4), np.full(4, -0.0), "b")]),
    (("n", "x", "y"), [(np.full(4, 3), np.full(4, 3.0), np.arange(4)),
                       (np.full(4, 3.0), np.full(4, 3), np.arange(4).view(float))]),  # the ints' bytes
    (("observed_db", "power_ratio", "mode", "corrected_db"), [
        ([-3.0], [0.038], ["blocked"], [math.nan]), ([-3.0], [0.038], ["nan"], [-0.0]), ([2], [-0.0], "x", [5e-324])]),
], ids=["constant-first", "constant-middle", "constant-last", "all-constant", "constant-nan",
        "signed-zero-among-zeros", "int-next-to-float", "one-row-blocks"])
def test_constant_columns_match_the_row_by_row_format(tmp_path, header, blocks):
    write_csv(tmp_path / "constant.csv", header, blocks)
    assert (tmp_path / "constant.csv").read_bytes() == row_by_row(header, blocks)


@pytest.mark.parametrize("rows", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
def test_constant_blocks_across_the_chunk_boundary(tmp_path, rows):
    grid = np.arange(rows) * 0.5
    level = np.full(rows, -3.2)
    blocks = [(grid, level, "shot"), (level, level, "flat")]  # the second block has no varying column
    write_csv(tmp_path / "blocks.csv", ("x", "y", "label"), blocks)
    assert (tmp_path / "blocks.csv").read_bytes() == row_by_row(("x", "y", "label"), blocks)


def test_object_column_is_never_folded(tmp_path):
    # one object on every row has one address on every row, but need not give one cell
    class Count:
        calls = 0

        def __repr__(self):
            Count.calls += 1
            return str(Count.calls)

    count = Count()
    write_csv(tmp_path / "object.csv", ("count", "label"), [(np.array([count] * 3, dtype=object), "x")])
    assert (tmp_path / "object.csv").read_bytes() == b"count,label\r\n1,x\r\n2,x\r\n3,x\r\n"


def test_str_column_is_written_as_given(tmp_path):
    # only a number column blanks its "nan" cells
    names = ("finesse", "nan", "1e-05", "equal-power")
    write_csv(tmp_path / "str.csv", ("quantity", "value"), [(names, (1.0, 2.0, 3.0, math.nan))])
    assert (tmp_path / "str.csv").read_bytes() == (
        b"quantity,value\r\nfinesse,1.0\r\nnan,2.0\r\n1e-05,3.0\r\nequal-power,\r\n")


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
    blocks = [(c.nbar_grid, c.capacities, [c.bound_kind.value] * c.nbar_grid.size) for c in curves]
    assert path.read_bytes() == row_by_row(("nbar", "capacity_bits", "bound_kind"), blocks)


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
