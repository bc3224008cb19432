import csv
import io

import numpy as np
import pytest

from glmmselect.errors import DataError
from glmmselect.ioutil import parse_floats, read_csv, write_csv


def csv_writer_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class TestWriteCsv:
    @pytest.mark.parametrize(
        "header, rows",
        [
            (["a", "b", "c"], [[0.1, 1 / 3, -2.5e-8], [float("nan"), float("inf"), -float("inf")], [1e-300, 5e-324, 1e308]]),
            (["iteration", "x"], [[1, 0.0], [2, -0.0], [10**20, 7]]),
            (["model", "count"], [("plain text", 3), ("", 0), (" padded ", 1)]),
            (["model", "count", "percent"], [("fixed[1,2] random[1]", 4, 50.0), ('say "hi"', 1, 0.5), ("two\nlines", 2, 1.0)]),
            (["cr", "x"], [("a\rb", 1)]),
            (["only"], [[""], ["x"], [2.5]]),
            (["a,b", 'q"h', "plain"], []),
        ],
    )
    def test_bytes_equal_csv_writer(self, tmp_path, header, rows):
        path = tmp_path / "t.csv"
        write_csv(str(path), header, iter(rows))
        assert path.read_bytes() == csv_writer_text(header, rows).encode("utf-8")

    def test_floats_round_trip(self, tmp_path):
        values = np.random.default_rng(0).standard_normal((5, 4)) * 10.0 ** np.arange(-150, 150, 75)
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b", "c", "d"], values.tolist())
        header, rows = read_csv(path)
        np.testing.assert_array_equal(parse_floats(path, header, rows, header), values)


class TestReadCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('a,b\n1,"x, y"\n')
        assert read_csv(str(path)) == (["a", "b"], [["1", "x, y"]])

    def test_header_alone_gives_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        assert read_csv(str(path)) == (["a", "b"], [])

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_csv(str(tmp_path / "absent.csv"))
        (tmp_path / "binary.csv").write_bytes(b"a,b\n\xff\xfe,1\n")
        with pytest.raises(DataError, match="cannot read"):
            read_csv(str(tmp_path / "binary.csv"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(DataError, match="t.csv: file is empty"):
            read_csv(str(path))

    def test_ragged_row_is_named(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="t.csv: row 3 has 1 cells, header has 2"):
            read_csv(str(path))


class TestParseFloats:
    def test_named_columns_in_order(self):
        header, rows = ["a", "note", "b"], [["1", "x", "2.5"], ["-3", "y", "nan"]]
        out = parse_floats("t.csv", header, rows, ["b", "a"])
        np.testing.assert_array_equal(out, [[2.5, 1.0], [np.nan, -3.0]])
        assert parse_floats("t.csv", header, [], ["a"]).shape == (0, 1)

    @pytest.mark.parametrize("cell", ["abc", "", "1,5"])
    def test_bad_cell_is_named(self, cell):
        rows = [["1", "2"], ["3", cell]]
        with pytest.raises(DataError, match=f"t.csv: column 'b' has a missing or non-numeric value {cell!r} in row 3"):
            parse_floats("t.csv", ["a", "b"], rows, ["a", "b"])

    def test_missing_column_is_named(self):
        with pytest.raises(DataError, match="t.csv: missing column 'c'"):
            parse_floats("t.csv", ["a", "b"], [["1", "2"]], ["a", "c"])
