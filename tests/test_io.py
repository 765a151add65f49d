import numpy as np
import pytest

from metricdep import InputError
from metricdep.io import read_paired_sample, read_square_matrix, render_json


class TestPairedSampleCsv:
    def test_multicolumn_sample(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x_1,x_2,y_1\n0,1,2\n3,4,5\n")
        x, y = read_paired_sample(path)
        np.testing.assert_array_equal(x, [[0.0, 1.0], [3.0, 4.0]])
        np.testing.assert_array_equal(y, [[2.0], [5.0]])

    def test_header_required(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(InputError, match="header"):
            read_paired_sample(path)

    @pytest.mark.parametrize("header", ["y_1,x_1", "x_1,y_1,x_2"])
    def test_x_columns_come_before_y_columns(self, tmp_path, header):
        path = tmp_path / "s.csv"
        path.write_text(header + "\n" + ",".join(["0"] * len(header.split(","))) + "\n")
        with pytest.raises(InputError, match="header must name columns x_1..x_p then y_1..y_q"):
            read_paired_sample(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(InputError, match="empty"):
            read_paired_sample(path)

    def test_short_row_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x_1,y_1\n0,1\n2\n")
        with pytest.raises(InputError, match="row 3"):
            read_paired_sample(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x_1,y_1\n0,1\n\n2,3\n \n4,5\n\n")
        x, y = read_paired_sample(path)
        np.testing.assert_array_equal(x, [[0.0], [2.0], [4.0]])
        np.testing.assert_array_equal(y, [[1.0], [3.0], [5.0]])

    def test_rows_are_named_by_their_line_in_the_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x_1,y_1\n\n0,1\n\n2,z\n")
        with pytest.raises(InputError) as err:
            read_paired_sample(path)
        assert str(err.value) == f"{path}: row 5, column 'y_1': could not parse 'z'"

    def test_cells_parse_as_python_float(self, tmp_path):
        cells = [[" 1.5", "-0.0 ", "1e400", "1_000"], [".5", "5.", "-Infinity", "0.1000000000000000055511151231257827"]]
        rng = np.random.default_rng(0)
        cells += [[repr(float(v)) for v in row] for row in rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))]
        path = tmp_path / "s.csv"
        path.write_text("x_1,x_2,y_1,y_2\n" + "".join(",".join(row) + "\n" for row in cells))
        x, y = read_paired_sample(path)
        expected = np.array([[float(cell) for cell in row] for row in cells])
        assert np.array_equal(np.hstack([x, y]), expected)
        assert np.array_equal(np.signbit(x), np.signbit(expected[:, :2]))


    def test_every_layout_of_a_sample_reads_alike(self, tmp_path):
        # CRLF endings, quoted cells, blank and whitespace rows, a lone
        # carriage return and no final newline give the plain file's bits
        values = np.random.default_rng(3).standard_normal((30, 3))
        cells = [["x_1", "y_1", "y_2"]] + [[repr(v) for v in row] for row in values.tolist()]
        lines = [",".join(row) for row in cells]
        quoted = [",".join(f'"{c}"' if k % 2 else c for k, c in enumerate(row)) for row in cells]
        layouts = [
            "\n".join(lines) + "\n",
            "\r\n".join(lines) + "\r\n",
            "\n".join(quoted) + "\n",
            "\n\n".join(lines[:10]) + "\n \n , , \n" + "\n".join(lines[10:]) + "\n\n\n",
            "\r".join(lines),
            "\n".join(lines),
        ]
        path = tmp_path / "s.csv"
        read = []
        for text in layouts:
            path.write_bytes(text.encode())
            read.append(np.hstack(read_paired_sample(path)))
        assert all(np.array_equal(a, values) for a in read)

    def test_rows_whose_fields_add_up_to_whole_rows_are_named(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x_1,y_1\n0,1,2\n3\n")
        with pytest.raises(InputError) as err:
            read_paired_sample(path)
        assert str(err.value) == f"{path}: row 2 has 3 fields, expected 2"


class TestSquareMatrixCsv:
    def test_reads_floats(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1.5\n1.5,0\n")
        np.testing.assert_array_equal(read_square_matrix(path), [[0.0, 1.5], [1.5, 0.0]])

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n1,0,3\n")
        with pytest.raises(InputError, match="square"):
            read_square_matrix(path)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\nx,0\n")
        with pytest.raises(InputError, match="row 2, column 1"):
            read_square_matrix(path)
        path.write_text("0,1,2\n1,0,1\n2, 1e-3e,0\n")
        with pytest.raises(InputError) as err:
            read_square_matrix(path)
        assert str(err.value) == f"{path}: row 3, column 2: could not parse '1e-3e'"

    def test_rows_after_a_blank_line_are_named_by_their_line_in_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n\nx,0\n")
        with pytest.raises(InputError) as err:
            read_square_matrix(path)
        assert str(err.value) == f"{path}: row 3, column 1: could not parse 'x'"
        path.write_text("\n0,1\n , \n1,0\n\n")
        np.testing.assert_array_equal(read_square_matrix(path), [[0.0, 1.0], [1.0, 0.0]])

    def test_rows_whose_fields_add_up_to_whole_rows_are_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0,2\n3\n")
        with pytest.raises(InputError) as err:
            read_square_matrix(path)
        assert str(err.value) == f"{path}: row 2 has 3 fields, expected 2 (ragged matrix)"

    def test_ragged_row_named_before_a_later_bad_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1\nx,0\n")
        with pytest.raises(InputError) as err:
            read_square_matrix(path)
        assert str(err.value) == f"{path}: row 2 has 1 fields, expected 2 (ragged matrix)"


class TestRenderJson:
    def test_full_precision_round_trip(self):
        import json

        value = 0.1 + 0.2  # not representable cleanly in short decimal
        text = render_json({"v": value, "a": np.array([1.0 / 3.0])})
        doc = json.loads(text)
        assert doc["v"] == value
        assert doc["a"][0] == 1.0 / 3.0

    def test_sorted_keys_and_newline(self):
        text = render_json({"b": 1, "a": np.int64(2)})
        assert text == '{"a": 2, "b": 1}\n'

    def test_numpy_values_render_as_python_values(self):
        doc = {
            "f32": np.float32(0.1),
            "i64": np.int64(-7),
            "b": np.bool_(True),
            "arr": np.array([[1.5, 2.0], [0.1 + 0.2, -0.0]]),
            "tup": (1, np.float64(1 / 3), "x"),
            "nested": {"z": [np.float32(3.25), {"q": np.bool_(False)}], "a": np.float64(1e-300)},
        }
        assert render_json(doc) == (
            '{"arr": [[1.5, 2.0], [0.30000000000000004, -0.0]], "b": true, '
            '"f32": 0.10000000149011612, "i64": -7, "nested": {"a": 1e-300, '
            '"z": [3.25, {"q": false}]}, "tup": [1, 0.3333333333333333, "x"]}\n'
        )

    def test_other_objects_are_rejected(self):
        with pytest.raises(TypeError):
            render_json({"v": object()})
