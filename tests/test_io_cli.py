import csv
import dataclasses
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmfic import (
    FicRow,
    FocusSpec,
    SimConfig,
    SpatialWeights,
    SubmodelId,
    cli,
    errors,
    fic_table,
    fit_mle,
    monte_carlo,
    morans_i,
    safic_table,
    slm,
)
from slmfic.cli import main
from slmfic.errors import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
    FocusSpecError,
    InputError,
    InvalidSizeError,
    IsolatedUnitError,
    NumericalError,
)
from slmfic.io import (
    _REPORT_COLUMNS,
    config_from_json,
    json_text,
    load_dataset,
    load_weights,
    run_report_to_json,
    write_report,
)

from conftest import knn_adjacency, random_dataset, random_symmetric_adjacency


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def small_files(tmp_path, rng):
    """A 5-unit dataset CSV plus a matching dense chain weights CSV."""
    n = 5
    X = rng.standard_normal((n, 2)).round(3)
    Y = (X @ np.array([1.0, -1.0]) + rng.standard_normal(n)).round(3)
    lines = ["y,a,b"]
    for i in range(n):
        lines.append(f"{Y[i]},{X[i, 0]},{X[i, 1]}")
    data_path = write_csv(tmp_path / "data.csv", "\n".join(lines) + "\n")
    w_rows = []
    for i in range(n):
        row = ["1" if abs(i - j) == 1 else "0" for j in range(n)]
        w_rows.append(",".join(row))
    weights_path = write_csv(tmp_path / "w.csv", "\n".join(w_rows) + "\n")
    return data_path, weights_path


class TestLoadWeights:
    def test_dense(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "0,1,0\n1,0,1\n0,1,0\n")
        W = load_weights(path)
        assert W.matrix.toarray().tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_dense_row_normalized(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "0,1,0\n1,0,1\n0,1,0\n")
        W = load_weights(path, row_normalize=True)
        assert W.matrix.toarray()[1].tolist() == [0.5, 0, 0.5]

    def test_edge_list(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "i,j,w\n0,1,1\n1,0,1\n1,2,1\n2,1,1\n")
        W = load_weights(path)
        assert W.matrix.toarray().tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_nonzero_diagonal_reported(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "1,1\n1,0\n")
        with pytest.raises(DataFormatError) as exc:
            load_weights(path)
        assert str(exc.value).startswith(f"{path}: diagonal must be zero, unit 0 ")

    @pytest.mark.parametrize("text, row_normalize, error, message", [
        ("0,1,0\n-1,0,1\n0,1,0\n", False, DataFormatError,
         "negative adjacency entry -1.0 at row 1, column 0"),
        ("i,j,w\n0,1,1\n1,0,-1\n1,2,1\n2,1,1\n", False, DataFormatError,
         "negative adjacency entry -1.0 at row 1, column 0"),
        ("i,j,w\n0,1,1\n1,0,nan\n1,2,1\n2,1,1\n", False, DataFormatError,
         "non-finite adjacency entry nan at row 1, column 0"),
        ("0,1,0\n1,0,0\n0,0,0\n", True, IsolatedUnitError, "unit 2 has no neighbors"),
        ("0\n", False, InvalidSizeError, "need at least 2 spatial units, got 1"),
    ], ids=["dense-negative", "edge-negative", "edge-nan", "isolated", "one-unit"])
    def test_adjacency_errors_name_the_file(self, tmp_path, capsys, text, row_normalize,
                                            error, message):
        """The checks of SpatialWeights.from_adjacency keep their class and
        gain the path, in load_weights and in the CLI (exit 1)."""
        path = write_csv(tmp_path / "w.csv", text)
        with pytest.raises(error) as exc:
            load_weights(path, row_normalize=row_normalize)
        assert str(exc.value).startswith(f"{path}: {message}")
        data = write_csv(tmp_path / "data.csv", "y,a\n1,0.5\n2,-1\n0.3,2\n")
        flags = ["--row-normalize"] if row_normalize else []
        assert main(["fit", "--data", data, "--weights", path, "--response", "y", *flags]) == 1
        assert f"input error: {path}: {message}" in capsys.readouterr().err

    def test_ragged_rows(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "0,1\n1,0,1\n")
        with pytest.raises(DataFormatError, match="line 2 has 3 columns, expected 2"):
            load_weights(path)

    def test_bad_edge_line(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "i,j,w\n0,1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_weights(path)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "")
        with pytest.raises(DataFormatError):
            load_weights(path)

    def test_repeated_edge_names_both_lines(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "i,j,w\n1,0,1\n0,1,1\n0,1,2\n")
        with pytest.raises(DataFormatError, match="lines 3 and 4 both give the edge 0,1"):
            load_weights(path)

    def test_edge_list_path_allocates_no_dense_matrix(self, tmp_path):
        side = 55
        n = side * side
        idx = np.arange(n).reshape(side, side)
        pairs = np.concatenate([np.c_[idx[:, :-1].ravel(), idx[:, 1:].ravel()],
                                np.c_[idx[:-1].ravel(), idx[1:].ravel()]])
        edges = np.concatenate([pairs, pairs[:, ::-1]])
        path = write_csv(tmp_path / "w.csv",
                         "i,j,w\n" + "".join(f"{i},{j},1\n" for i, j in edges.tolist()))
        x = np.random.default_rng(0).standard_normal(n)
        tracemalloc.start()
        try:
            W = load_weights(path, row_normalize=True)
            morans_i(x, W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert W.matrix.nnz == len(edges)
        assert peak < n * n * 8 / 4  # a quarter of one dense n x n matrix


    def test_line_counts_blank_lines(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "i,j,w\n\n0,1,1\n1,0,1\n1,2,x\n2,1,1\n")
        with pytest.raises(DataFormatError, match="line 5, column w: could not convert"):
            load_weights(path)

    def test_negative_index_names_its_line(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "i,j,w\n0,1,1\n\n1,-2,1\n")
        with pytest.raises(DataFormatError, match="line 4: negative index"):
            load_weights(path)

    def test_float_index_rejected(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "i,j,w\n0,1,1\n1.0,0,1\n")
        with pytest.raises(DataFormatError, match=r"line 3, column i: invalid literal for int\(\)"):
            load_weights(path)

    def test_edge_list_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_bytes("\ufeffi,j,w\r\n0,1,1\r\n1,0,1\r\n".encode("utf-8"))
        assert load_weights(str(path)).matrix.toarray().tolist() == [[0, 1], [1, 0]]


class TestReader:
    """Both weights formats of one adjacency load to the CSR arrays of
    SpatialWeights.from_adjacency, whatever the file's blank lines, byte-order
    mark and line endings, and a bad cell is named at its line in the file."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), bom=st.booleans(),
           crlf=st.booleans())
    def test_round_trip(self, tmp_path_factory, n, seed, bom, crlf):
        rng = np.random.default_rng(seed)
        scale = np.triu(rng.uniform(0.5, 2.0, (n, n)))
        A = random_symmetric_adjacency(rng, n) * (scale + scale.T)
        ref = SpatialWeights.from_adjacency(A).matrix
        i, j = np.nonzero(A)
        forms = {  # name: (column names, the file's lines)
            "dense": (range(n), [",".join(map(repr, row)) for row in A.tolist()]),
            "edges": ("ijw", ["i,j,w"] + [f"{i[k]},{j[k]},{A[i[k], j[k]].item()!r}"
                                          for k in rng.permutation(len(i))]),
        }
        end = "\r\n" if crlf else "\n"
        for name, (columns, lines) in forms.items():
            for _ in range(rng.integers(4)):
                lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(["", "  ", ","])))
            path = tmp_path_factory.mktemp(name) / "w.csv"
            path.write_bytes(("\ufeff" * bom + end.join(lines) + end).encode("utf-8"))
            W = load_weights(str(path)).matrix
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(W, part), getattr(ref, part))

            numeric = [k for k, line in enumerate(lines) if line.strip(" ,")][name == "edges":]
            k = numeric[rng.integers(len(numeric))]
            cells = lines[k].split(",")
            c = int(rng.integers(len(cells)))
            lines[k] = ",".join(cells[:c] + ["x"] + cells[c + 1:])
            path.write_bytes(("\ufeff" * bom + end.join(lines) + end).encode("utf-8"))
            with pytest.raises(DataFormatError, match=f"line {k + 1}, column {columns[c]}: "):
                load_weights(str(path))


class TestLoadDataset:
    def test_roundtrip(self, small_files):
        data_path, weights_path = small_files
        data = load_dataset(data_path, weights_path, response="y", row_normalize=True)
        assert data.n == 5
        assert data.p == 2
        assert data.names == ("a", "b")

    def test_explicit_columns(self, small_files):
        data_path, weights_path = small_files
        data = load_dataset(
            data_path, weights_path, response="y", columns=["b"], row_normalize=True
        )
        assert data.p == 1
        assert data.names == ("b",)

    def test_missing_response(self, small_files):
        data_path, weights_path = small_files
        with pytest.raises(DataFormatError, match="no column named"):
            load_dataset(data_path, weights_path, response="z")

    def test_dimension_mismatch(self, small_files, tmp_path):
        data_path, _ = small_files
        w3 = write_csv(tmp_path / "w3.csv", "0,1,0\n1,0,1\n0,1,0\n")
        with pytest.raises(DataFormatError, match="5 rows"):
            load_dataset(data_path, w3, response="y")

    def test_empty_file(self, small_files, tmp_path, capsys):
        _, weights_path = small_files
        empty = write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(DataFormatError) as exc:
            load_dataset(empty, weights_path, response="y")
        assert str(exc.value) == f"{empty}: empty file"
        rc = main(["fit", "--data", empty, "--weights", weights_path, "--response", "y"])
        _one_input_error(capsys, rc, f"{empty}: empty file")

    def test_non_numeric_cell_located(self, small_files, tmp_path):
        _, weights_path = small_files
        bad = write_csv(
            tmp_path / "bad.csv", "y,a,b\n" + "1,2,3\n1,oops,3\n" + "1,2,3\n" * 3
        )
        with pytest.raises(DataFormatError, match="line 3, column a: could not convert"):
            load_dataset(bad, weights_path, response="y")


    def test_byte_order_mark(self, small_files, tmp_path):
        data_path, weights_path = small_files
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(data_path).read_bytes())
        assert load_dataset(str(bom), weights_path, response="y").names == ("a", "b")

    def test_blank_lines_skipped(self, small_files, tmp_path):
        data_path, weights_path = small_files
        lines = Path(data_path).read_text(encoding="utf-8").splitlines()
        spaced = write_csv(tmp_path / "spaced.csv", "\n".join(lines[:3] + ["", " , ,"] + lines[3:]))
        data = load_dataset(spaced, weights_path, response="y")
        expected = load_dataset(data_path, weights_path, response="y")
        assert np.array_equal(data.Y, expected.Y) and np.array_equal(data.X, expected.X)


def rows_as_dicts(rows) -> list[dict]:
    """The dict of each table row that write_report once built and
    serialized: the oracle of its fixed-schema JSON and of its CSV."""
    out = []
    for r in rows:
        d = {
            "rank": r.rank,
            "label": r.submodel.label(),
            "mask": r.submodel.mask,
            "variables": list(r.labels),
            "bias2": r.bias2,
            "variance": r.variance,
            "score": r.score,
        }
        if r.scheme is not None:
            d["scheme"] = r.scheme
        out.append(d)
    return out


def csv_oracle(rows) -> str:
    dicts = rows_as_dicts(rows)
    cols = list(_REPORT_COLUMNS) + (["scheme"] if dicts and "scheme" in dicts[0] else [])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, cols, lineterminator="\n")
    writer.writeheader()
    writer.writerows(dict(d, variables="+".join(d["variables"])) for d in dicts)
    return buf.getvalue()


SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
                  0.1, 1e16, 1e-7, math.nan, math.inf, -math.inf)
report_floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()
report_names = st.sampled_from(("", "x1", 'a"b', "c\\d", "e\x00\x1f\x7f", "\u00e9t\u00e9",
                                "\u2603", "\U0001f600", "a,b", "l\nm\r")) | st.text(max_size=6)
report_rows = st.integers(0, 7).flatmap(lambda p: st.builds(
    FicRow,
    submodel=st.builds(SubmodelId, st.integers(0, 2**p - 1), st.just(p)),
    labels=st.lists(report_names, max_size=p).map(tuple),
    bias2=report_floats,
    variance=report_floats,
    score=report_floats,
    rank=st.integers(0, 2**20),
    scheme=st.none() | report_names,
))


class TestReportSerialization:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(report_rows, max_size=8))
    def test_json_table_equals_json_dumps(self, rows):
        expected = json.dumps(rows_as_dicts(rows), indent=2, sort_keys=True) + "\n"
        assert write_report(rows, None, fmt="json") == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(report_rows, max_size=8), st.none() | report_names)
    def test_csv_table_equals_dict_writer(self, rows, scheme):
        rows = [dataclasses.replace(r, scheme=scheme) for r in rows]  # one scheme per table
        assert write_report(rows, None, fmt="csv") == csv_oracle(rows)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            write_report([], None, fmt="xml")

    def test_special_floats_and_empty_tables(self):
        S = SubmodelId(5, 3)
        rows = [FicRow(S, (), x, y, z, 1, s) for x, y, z in
                [(math.nan, 0.0, -0.0), (math.inf, -math.inf, 5e-324), (1e308, math.nan, math.inf)]
                for s in (None, "kernel")]
        text = write_report(rows, None)
        assert text == json_text(rows_as_dicts(rows))
        assert {"NaN", "Infinity", "-Infinity", "5e-324", "1e+308", "-0.0"} <= set(
            text.replace(",", " ").split())
        assert write_report([], None) == "[]\n" == json_text([])
        header = ",".join(_REPORT_COLUMNS) + "\n"
        assert write_report([], None, fmt="csv") == csv_oracle([]) == header

    def test_json_sorted_and_ranked(self, rng):
        from slmfic import FocusSpec, fic_table

        data = random_dataset(rng, n=25, p=2)
        rows = fic_table(FocusSpec("conditional_mean", location=0), data)
        text = write_report(rows, None, fmt="json")
        parsed = json.loads(text)
        assert [d["rank"] for d in parsed] == [1, 2, 3, 4]
        assert text == write_report(rows, None, fmt="json")

    def test_csv_shape(self, rng):
        from slmfic import FocusSpec, fic_table

        data = random_dataset(rng, n=25, p=2)
        rows = fic_table(FocusSpec("conditional_mean", location=0), data)
        lines = write_report(rows, None, fmt="csv").strip().split("\n")
        assert lines[0].startswith("rank,label,mask")
        assert len(lines) == 5

    def test_config_roundtrip(self, tmp_path):
        cfg = SimConfig(n=20, p=2, beta_true=(0.0, 0.3), reps=2, seed=9, rho_true=0.2)
        report = monte_carlo(cfg)
        text = run_report_to_json(report)
        payload = json.loads(text)
        assert payload["config"]["n"] == 20
        assert payload["reps_completed"] == 2

    def test_config_from_json(self, tmp_path):
        raw = {
            "n": 20,
            "p": 2,
            "rho_true": 0.2,
            "beta_true": [0.0, 0.3],
            "reps": 2,
            "seed": 3,
            "criteria": [
                {"kind": "fic", "name": "F", "focus": {"kind": "conditional_mean", "location": 1}},
                {"kind": "aic", "name": "AIC"},
            ],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        cfg = config_from_json(str(path))
        assert cfg.n == 20
        assert cfg.criteria[0].focus.location == 1
        assert cfg.criteria[1].kind == "aic"

    def test_empty_coeff_subset_selects_every_coefficient(self, tmp_path):
        """FocusSpec("beta_coeffs", coeff_subset=()) and a config's
        "coeff_subset": [] are the spec without a subset, so they rank the
        subsets as it does, not by the tie order of a zero-dimensional focus
        whose every score is 0."""
        from slmfic import FocusSpec, fic_table

        path = write_config(tmp_path, p=3, beta_true=[0.0, 0.4, 0.2], criteria=[
            {"kind": "fic", "name": "F", "focus": {"kind": "beta_coeffs", "coeff_subset": []}}])
        specs = [config_from_json(path).criteria[0].focus,
                 FocusSpec("beta_coeffs", coeff_subset=()), FocusSpec("beta_coeffs")]
        assert specs[0] == specs[1] == specs[2] and specs[1].coeff_subset is None
        data = random_dataset(np.random.default_rng(4), n=40, p=3)
        tables = [fic_table(spec, data) for spec in specs]
        assert tables[0] == tables[1] == tables[2]
        assert all(row.score > 0 for row in tables[0])


class TestCli:
    def test_fit(self, small_files, tmp_path, capsys):
        data_path, weights_path = small_files
        out = tmp_path / "fit.json"
        rc = main(
            [
                "fit",
                "--data", data_path,
                "--weights", weights_path,
                "--response", "y",
                "--row-normalize",
                "--out", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"submodel", "variables", "rho", "sigma2", "beta", "loglik",
                                "aic", "iterations"}
        assert set(payload["beta"]) == {"a", "b"}

    def test_fit_subset(self, small_files, tmp_path):
        data_path, weights_path = small_files
        out = tmp_path / "fit.json"
        rc = main(
            [
                "fit",
                "--data", data_path,
                "--weights", weights_path,
                "--response", "y",
                "--row-normalize",
                "--subset", "b",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert list(json.loads(out.read_text(encoding="utf-8"))["beta"]) == ["b"]

    def test_fit_empty_subset_is_the_narrow_model(self, small_files, tmp_path):
        data_path, weights_path = small_files
        out = tmp_path / "fit.json"
        rc = main(["fit", "--data", data_path, "--weights", weights_path, "--response", "y",
                   "--row-normalize", "--subset", "", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert (payload["submodel"], payload["variables"], payload["beta"]) == ("S1", [], {})

    def test_fic_csv_to_stdout(self, small_files, capsys):
        data_path, weights_path = small_files
        rc = main(
            [
                "fic",
                "--data", data_path,
                "--weights", weights_path,
                "--response", "y",
                "--row-normalize",
                "--format", "csv",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5  # header + 4 submodels

    def test_csv_report_quotes_names_with_commas_and_quotes(self, small_files, tmp_path, capsys):
        """Covariate names that a quoted CSV header allows come back whole."""
        data_path, weights_path = small_files
        text = Path(data_path).read_text(encoding="utf-8").replace("y,a,b", 'y,"a,b","q""x"', 1)
        data_path = write_csv(tmp_path / "quoted.csv", text)
        rc = main(["safic", "--data", data_path, "--weights", weights_path, "--response", "y",
                   "--row-normalize", "--format", "csv"])
        assert rc == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["rank", "label", "mask", "variables", "bias2", "variance", "score",
                          "scheme"]
        assert all(len(row) == len(header) for row in rows)
        assert [row[3] for row in sorted(rows, key=lambda row: int(row[2]))] == [
            "", "a,b", 'q"x', 'a,b+q"x']

    def test_safic_kernel(self, small_files, tmp_path):
        data_path, weights_path = small_files
        out = tmp_path / "safic.json"
        rc = main(
            [
                "safic",
                "--data", data_path,
                "--weights", weights_path,
                "--response", "y",
                "--row-normalize",
                "--scheme", "kernel",
                "--z0", "0,0",
                "--bandwidth", "2.0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        parsed = json.loads(out.read_text(encoding="utf-8"))
        assert all(d["scheme"] == "kernel" for d in parsed)

    def test_moran(self, small_files, capsys):
        data_path, weights_path = small_files
        rc = main(
            [
                "moran",
                "--data", data_path,
                "--weights", weights_path,
                "--response", "y",
                "--row-normalize",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"I", "expected", "z", "p_value"} <= set(payload)

    def test_moran_on_weights_without_a_positive_entry(self, small_files, tmp_path, capsys):
        data_path, _ = small_files
        weights_path = write_csv(tmp_path / "zero.csv", "0,0,0,0,0\n" * 5)
        rc = main(["moran", "--data", data_path, "--weights", weights_path, "--response", "y"])
        _one_input_error(capsys, rc, "weights have no positive entry")

    @pytest.mark.parametrize("command", [["fit"], ["fic", "--focus", "maxvar"],
                                         ["safic", "--scheme", "kernel"], ["moran"]],
                             ids=["fit", "fic", "safic", "moran"])
    def test_knn_edge_list(self, tmp_path, capsys, command):
        """Row-normalized k-nearest-neighbour weights, whose spectrum is complex,
        from an i,j,w file: every command runs, and fit prints the library's rho."""
        rng = np.random.default_rng(3)
        A = knn_adjacency(rng, 60)
        i, j = np.nonzero(A)
        weights_path = write_csv(tmp_path / "w.csv",
                                 "i,j,w\n" + "".join(f"{a},{b},1\n" for a, b in zip(i, j)))
        data = random_dataset(rng, n=60, p=2, rho=0.5, adjacency=lambda rng, n: A)
        data_path = write_csv(tmp_path / "data.csv", "y,a,b\n" + "".join(
            f"{y!r},{a!r},{b!r}\n" for y, (a, b) in zip(data.Y.tolist(), data.X.tolist())))
        rc = main([*command, "--data", data_path, "--weights", weights_path, "--response", "y",
                   "--row-normalize"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        if command == ["fit"]:
            fit = fit_mle(data, SubmodelId.wide(2), with_info=False)
            assert payload["rho"] == fit.theta_hat.rho

    def test_simulate_with_config(self, tmp_path, capsys):
        cfg = {
            "n": 20,
            "p": 2,
            "rho_true": 0.3,
            "beta_true": [0.0, 0.4],
            "reps": 2,
            "seed": 11,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["simulate", "--config", str(path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reps_completed"] == 2
        assert main(["simulate", "--config", str(path), "--reps", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["reps_completed"] == 3

    def test_failed_replications_exit_2(self, tmp_path, capsys):
        # innovations of variance 1e-30 and no signal: every fit is degenerate
        cfg = {"n": 20, "p": 2, "beta_true": [0.0, 0.0], "sigma2_true": 1e-30, "reps": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["simulate", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "3/3 replications failed" in err
        assert "Traceback" not in err

    def test_inadmissible_rho_true_is_input_error(self, tmp_path, capsys):
        cfg = {"n": 20, "p": 2, "rho_true": 1.5, "beta_true": [0.0, 0.4], "reps": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["simulate", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: rho_true=1.5 outside admissible interval")
        assert "Traceback" not in err

    def test_empty_criteria_is_input_error(self, tmp_path, capsys):
        """A study without a criterion ranks nothing: it is refused, naming
        criteria, before any replication is drawn."""
        with pytest.raises(ConfigError, match="^criteria is empty"):
            SimConfig(criteria=())
        path = write_config(tmp_path, criteria=[])
        with pytest.raises(ConfigError, match="^criteria is empty"):
            config_from_json(path)
        rc = main(["simulate", "--config", path])
        _one_input_error(capsys, rc, "criteria is empty")

    @pytest.mark.parametrize(
        "raw, named",
        [
            ({"n": 20, "p": 2, "rhoo_true": 0.3, "beta_true": [0.0, 0.4]}, "'rhoo_true'"),
            (
                {"n": 20, "p": 2, "beta_true": [0.0, 0.4],
                 "criteria": [{"kind": "fic", "name": "F", "focus": {"location": 0}}]},
                "criteria[0].focus is missing the field 'kind'",
            ),
            ([1, 2], "must be a JSON object"),
            (
                {"n": 20, "p": 2, "beta_true": 3},
                "'beta_true' in the config must be tuple[float, ...], not 3",
            ),
            (
                {"n": "20", "p": 2, "beta_true": [0.0, 0.4]},
                "'n' in the config must be int, not \"20\"",
            ),
            (
                {"n": True, "p": 2, "beta_true": [0.0, 0.4]},
                "'n' in the config must be int, not true",
            ),
        ],
        ids=["misspelt-key", "focus-without-kind", "not-an-object", "scalar-beta", "string-n",
             "bool-n"],
    )
    def test_malformed_config_is_input_error(self, tmp_path, capsys, raw, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        rc = main(["simulate", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: ")
        assert named in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("location", [99, -1])
    def test_fic_focus_location_out_of_range_is_input_error(self, tmp_path, capsys, location):
        cfg = {
            "n": 20, "p": 2, "beta_true": [0.0, 0.4], "reps": 2,
            "criteria": [{"kind": "fic", "name": "F",
                          "focus": {"kind": "conditional_mean", "location": location}}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["simulate", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            f"input error: criterion 'F': focus location {location} out of range for n=20\n"
        )

    @pytest.mark.parametrize("location", [99, -1])
    def test_safic_location_out_of_range_is_input_error(self, small_files, capsys, location):
        data_path, weights_path = small_files
        rc = main(
            [
                "safic",
                "--data", data_path,
                "--weights", weights_path,
                "--response", "y",
                "--row-normalize",
                "--scheme", "kernel",
                f"--location={location}",
            ]
        )
        assert rc == 1
        assert f"input error: --location {location} out of range" in capsys.readouterr().err

    def test_nan_response_is_input_error(self, small_files, tmp_path, capsys):
        data_path, weights_path = small_files
        lines = Path(data_path).read_text(encoding="utf-8").splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        bad = write_csv(tmp_path / "nan.csv", "\n".join(lines) + "\n")
        rc = main(["fit", "--data", bad, "--weights", weights_path, "--response", "y"])
        assert rc == 1
        assert "input error: non-finite response nan at row 2" in capsys.readouterr().err

    def test_inf_weight_is_input_error(self, small_files, tmp_path, capsys):
        data_path, _ = small_files
        edges = ["i,j,w"] + [f"{i},{i + 1},1\n{i + 1},{i},1" for i in range(4)]
        edges[2] = "1,2,inf\n2,1,1"
        weights = write_csv(tmp_path / "w.csv", "\n".join(edges) + "\n")
        rc = main(
            [
                "fit",
                "--data", data_path,
                "--weights", weights,
                "--response", "y",
                "--row-normalize",
            ]
        )
        assert rc == 1
        assert "non-finite adjacency entry inf at row 1, column 2" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        rc = main(
            [
                "fit",
                "--data", "/nonexistent/data.csv",
                "--weights", "/nonexistent/w.csv",
                "--response", "y",
            ]
        )
        assert rc == 1

    def test_bad_weights_is_input_error(self, small_files, tmp_path, capsys):
        data_path, _ = small_files
        bad = write_csv(tmp_path / "bad.csv", "1,0\n0,1\n")
        rc = main(
            ["fit", "--data", data_path, "--weights", bad, "--response", "y"]
        )
        assert rc == 1

    def test_unknown_subset_is_input_error(self, small_files, capsys):
        data_path, weights_path = small_files
        rc = main(
            [
                "fit",
                "--data", data_path,
                "--weights", weights_path,
                "--response", "y",
                "--row-normalize",
                "--subset", "nope",
            ]
        )
        assert rc == 1

    def test_degenerate_data_is_numerical_error(self, tmp_path, capsys):
        # exact linear fit: zero residual variance
        lines = ["y,a"]
        for i in range(5):
            lines.append(f"{2.0 * i},{float(i)}")
        data_path = write_csv(tmp_path / "exact.csv", "\n".join(lines) + "\n")
        w_rows = []
        for i in range(5):
            w_rows.append(",".join("1" if abs(i - j) == 1 else "0" for j in range(5)))
        weights_path = write_csv(tmp_path / "w.csv", "\n".join(w_rows) + "\n")
        rc = main(
            [
                "fit",
                "--data", data_path,
                "--weights", weights_path,
                "--response", "y",
                "--row-normalize",
            ]
        )
        assert rc == 2

    def test_kernel_safic_without_covariates_is_input_error(self, small_files, tmp_path, capsys):
        data_path, weights_path = small_files
        lines = Path(data_path).read_text(encoding="utf-8").splitlines()
        y_only = write_csv(tmp_path / "y.csv", "".join(ln.split(",")[0] + "\n" for ln in lines))
        rc = main(["safic", "--data", y_only, "--weights", weights_path, "--response", "y",
                   "--scheme", "kernel"])
        _one_input_error(capsys, rc, "the median-distance bandwidth is 0 for p=0")


# Exit code of every error class through cli.main: 1 for bad input, 2 for a
# failed computation (StencilError, raised by the finite-difference oracle, too).
EXIT_CODES = {
    "InvalidSizeError": 1,
    "IsolatedUnitError": 1,
    "RhoOutOfRangeError": 1,
    "SingularFactorizationError": 2,
    "RankError": 1,
    "DegenerateVarianceError": 2,
    "ConvergenceError": 2,
    "SingularInformationError": 2,
    "StencilError": 2,
    "FocusSpecError": 1,
    "SweepTooLargeError": 1,
    "BandwidthError": 2,
    "ZeroVarianceError": 1,
    "DataFormatError": 1,
    "ConfigError": 1,
    "ReplicationFailureError": 2,
}
_BASES = (errors.SlmficError, InputError, NumericalError)


def write_config(tmp_path, **changes):
    """A 2-replication study config (n = 20, p = 2) with changes, as a UTF-8 file."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 20, "p": 2, "beta_true": [0.0, 0.4], "reps": 2, **changes}),
                    encoding="utf-8")
    return str(path)


def _one_input_error(capsys, rc, named):
    """Exit 1 with a single `input error:` line that contains named."""
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1
    assert named in captured.err
    assert "Traceback" not in captured.err


class TestFailureContract:
    def test_every_error_class_has_exactly_one_base(self):
        classes = {
            name: cls for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, Exception) and cls not in _BASES
        }
        assert set(classes) == set(EXIT_CODES)
        for cls in classes.values():
            assert issubclass(cls, InputError) != issubclass(cls, NumericalError), cls
            assert issubclass(cls, (ValueError, RuntimeError)), cls

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_exit_code(self, monkeypatch, capsys, name):
        def raise_it(args):
            raise getattr(errors, name)("boom")

        monkeypatch.setitem(cli._COMMANDS, "simulate", raise_it)
        rc = main(["simulate", "--config", "unused.json"])
        err = capsys.readouterr().err
        assert rc == EXIT_CODES[name]
        assert err.startswith("input error: " if rc == 1 else "numerical failure: ")
        assert err.count("\n") == 1

    def test_internal_value_error_is_a_bug(self, small_files, monkeypatch):
        def broken(spec, data):
            raise ValueError("internal invariant broken")

        monkeypatch.setattr(cli, "fic_table", broken)
        data_path, weights_path = small_files
        with pytest.raises(ValueError, match="internal invariant broken"):
            main(["fic", "--data", data_path, "--weights", weights_path, "--response", "y"])

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--z0", "a,b"], "--z0 'a,b': could not convert string to float: 'a'"),
            (["--z0", "1,2,3"], "kernel center has 3 entries, X has 2 columns"),
            (["--bandwidth", "-1"], "bandwidth must be finite and positive, got -1.0"),
            (["--bandwidth", "0"], "bandwidth must be finite and positive, got 0.0"),
        ],
        ids=["z0-not-a-number", "z0-wrong-length", "negative-bandwidth", "zero-bandwidth"],
    )
    def test_safic_input_error(self, small_files, capsys, args, named):
        data_path, weights_path = small_files
        rc = main(["safic", "--data", data_path, "--weights", weights_path, "--response", "y",
                   "--row-normalize", "--scheme", "kernel", *args])
        _one_input_error(capsys, rc, named)

    @pytest.mark.parametrize("scheme", [[], ["--scheme", "uniform"]], ids=["default", "uniform"])
    @pytest.mark.parametrize(
        "args, flag",
        [(["--bandwidth", "-1"], "--bandwidth"),
         (["--bandwidth", "2.0"], "--bandwidth"),
         (["--z0", "1,2"], "--z0"),
         (["--z0", "0,0", "--bandwidth", "2.0"], "--z0")],
        ids=["negative-bandwidth", "bandwidth", "z0", "z0-and-bandwidth"],
    )
    def test_kernel_flags_under_the_uniform_scheme_are_input_errors(self, small_files, capsys,
                                                                    scheme, args, flag):
        """--z0 and --bandwidth set the kernel only: under the uniform scheme
        they were ignored, even where --scheme kernel rejects the value."""
        data_path, weights_path = small_files
        rc = main(["safic", "--data", data_path, "--weights", weights_path, "--response", "y",
                   *scheme, *args])
        _one_input_error(capsys, rc, f"{flag} applies to --scheme kernel only")

    @pytest.mark.parametrize("subset", ["a,a", "a,b,a"])
    def test_repeated_subset_name_is_input_error(self, small_files, capsys, subset):
        """As --columns a,a is: a repeated name was fitted once, silently."""
        data_path, weights_path = small_files
        rc = main(["fit", "--data", data_path, "--weights", weights_path, "--response", "y",
                   "--subset", subset])
        _one_input_error(capsys, rc, "--subset: covariate 'a' is listed twice")

    @pytest.mark.parametrize("command", ["fit", "fic", "safic"])
    @pytest.mark.parametrize(
        "columns, named",
        [("y,a", "the response 'y' is also listed as a covariate"),
         ("a,b,a", "covariate 'a' is listed twice"),
         ("a,zz", "missing columns ['zz']")],
        ids=["response-as-covariate", "repeated-covariate", "missing-column"],
    )
    def test_covariate_list_error(self, small_files, capsys, command, columns, named):
        # without the check: a numerical failure (residual variance below floor) or
        # an unnamed "design matrix X is rank deficient"
        data_path, weights_path = small_files
        rc = main([command, "--data", data_path, "--weights", weights_path, "--response", "y",
                   "--columns", columns])
        _one_input_error(capsys, rc, f"{data_path}: {named}")

    @pytest.mark.parametrize(
        "command, args, table, error, named",
        [("fic", ["--location", "5"],
          lambda data: fic_table(FocusSpec("conditional_mean", location=5), data),
          FocusSpecError, "location 5 out of range for n=5"),
         ("safic", ["--scheme", "kernel", "--z0", "1"],
          lambda data: safic_table(data, "kernel", z0=[1.0]),
          ConfigError, "kernel center has 1 entries, X has 2 columns")],
        ids=["fic-location", "safic-kernel-center"],
    )
    def test_an_input_error_beats_a_failing_fit(self, small_files, capsys, monkeypatch,
                                                command, args, table, error, named):
        """With the rho search cut to one step every fit fails, yet a focus
        location or a kernel centre that does not fit the data is an input
        error, from the table and from the CLI, not a ConvergenceError."""
        data_path, weights_path = small_files
        data = load_dataset(data_path, weights_path, "y")
        monkeypatch.setattr(slm, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            slm.fit_mle(data, SubmodelId.wide(data.p))
        with pytest.raises(error, match=named):
            table(data)
        rc = main([command, "--data", data_path, "--weights", weights_path, "--response", "y",
                   *args])
        _one_input_error(capsys, rc, named)

    @pytest.mark.parametrize("h", ["1e-200", "1e-300"])
    def test_tiny_bandwidth_is_numerical_failure(self, small_files, capsys, h):
        data_path, weights_path = small_files
        rc = main(["safic", "--data", data_path, "--weights", weights_path, "--response", "y",
                   "--row-normalize", "--scheme", "kernel", "--bandwidth", h])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"numerical failure: bandwidth h={float(h)} too small: " \
                               "kernel weights underflow\n"
        assert "NaN" not in captured.out

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"criteria": [{"kind": "safic", "name": "K", "scheme": "kernel", "z0": [1.0]}]},
             "criterion 'K': kernel center has 1 entries, X has 2 columns"),
            ({"criteria": [{"kind": "safic", "name": "K", "scheme": "kernel", "bandwidth": 0.0}]},
             "criterion 'K': bandwidth must be finite and positive, got 0.0"),
            ({"criteria": [{"kind": "safic", "name": "K", "scheme": "kernel",
                            "bandwidth": float("inf")}]},
             "criterion 'K': bandwidth must be finite and positive, got inf"),
            ({"criteria": [{"kind": "safic", "name": "K", "scheme": "kernel",
                            "z0": [0.0, float("nan")]}]},
             "criterion 'K': kernel center must be finite, got [0.0, nan]"),
            ({"p": 0, "beta_true": [], "criteria": [{"kind": "safic", "name": "K",
                                                     "scheme": "kernel"}]},
             "criterion 'K': the median-distance bandwidth is 0 for p=0; supply a bandwidth"),
            ({"criteria": [{"kind": "fic", "name": "B",
                            "focus": {"kind": "beta_coeffs", "coeff_subset": [5]}}]},
             "criterion 'B': coeff_subset [5] out of range for p=2"),
            ({"criteria": [{"kind": "fic", "name": "B",
                            "focus": {"kind": "beta_coeffs", "coeff_subset": [-1]}}]},
             "coeff_subset [-1] has a negative index"),
            ({"n": 4, "p": 5, "beta_true": [0.0] * 5},
             "design matrix X is rank deficient: 5 columns, 4 rows"),
            ({"n": 30, "p": 21, "beta_true": [0.0] * 21, "reps": 3},
             "exhaustive sweep over 2^21 submodels refused"),
            ({"criteria": [{"kind": "aic", "name": "A"}, {"kind": "safic", "name": "A"}]},
             "criterion name 'A' is repeated"),
            ({"sigma2_true": float("nan")}, "sigma2_true must be finite and positive, got nan"),
            ({"beta_true": [float("inf"), 0.0]}, "beta_true [inf, 0.0] has a non-finite entry"),
            ({"seed": -1}, "seed must be non-negative, got -1"),
            ({"criteria": [{"kind": "safic", "name": "S", "scheme": "bogus"}]},
             "criterion 'S': unknown scheme 'bogus'"),
        ],
        ids=["z0-wrong-length", "zero-bandwidth", "infinite-bandwidth", "nan-z0",
             "p0-kernel-without-bandwidth", "coeff-subset-5", "coeff-subset-negative",
             "fewer-rows-than-columns", "p21", "duplicate-names", "nan-sigma2", "infinite-beta",
             "negative-seed", "unknown-scheme"],
    )
    def test_simulate_input_error(self, tmp_path, capsys, changes, named):
        rc = main(["simulate", "--config", write_config(tmp_path, **changes)])
        _one_input_error(capsys, rc, named)

    def test_negative_seed_flag(self, tmp_path, capsys):
        rc = main(["simulate", "--config", write_config(tmp_path), "--seed", "-1"])
        _one_input_error(capsys, rc, "seed must be non-negative, got -1")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_flag_below_one(self, tmp_path, capsys, jobs):
        rc = main(["simulate", "--config", write_config(tmp_path), "--jobs", jobs])
        _one_input_error(capsys, rc, f"jobs must be at least 1, got {jobs}")

    def test_weights_file_of_another_size(self, tmp_path, capsys):
        weights = tmp_path / "w.csv"
        weights.write_text("i,j,w\n" + "".join(f"{i},{i + 1},1\n{i + 1},{i},1\n" for i in range(9)),
                           encoding="utf-8")
        rc = main(["simulate", "--config", write_config(tmp_path, weights_kind=str(weights))])
        _one_input_error(capsys, rc, "weights file has n=10, config says n=20")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["safic", "--bandwidth", "abc"], "argument --bandwidth: invalid float value: 'abc'"),
            (["fic", "--data", "a.csv"],
             "slmfic fic: the following arguments are required: --weights, --response"),
            (["bogus"], "slmfic: argument command: invalid choice: 'bogus'"),
        ],
        ids=["bad-float", "missing-flag", "unknown-command"],
    )
    def test_usage_error_is_input_error(self, small_files, capsys, argv, named):
        data_path, weights_path = small_files
        if argv[0] == "safic":
            argv = argv + ["--data", data_path, "--weights", weights_path, "--response", "y"]
        rc = main(argv)
        _one_input_error(capsys, rc, named)

    @pytest.mark.parametrize("argv", [["--help"], ["safic", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: slmfic")

    def test_study_without_covariates(self, tmp_path, capsys):
        assert main(["simulate", "--config", write_config(tmp_path, p=0, beta_true=[])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reps_completed"] == 2

    @pytest.mark.parametrize("command", ["fit", "moran"])
    def test_format_flag_only_on_reports(self, small_files, capsys, command):
        data_path, weights_path = small_files
        rc = main([command, "--data", data_path, "--weights", weights_path, "--response", "y",
                   "--format", "csv"])
        _one_input_error(capsys, rc, "unrecognized arguments: --format csv")

    def test_undecodable_file_is_input_error(self, small_files, tmp_path, capsys):
        _, weights_path = small_files
        data_path = tmp_path / "binary.csv"
        data_path.write_bytes(b"\xff\xfe\x00y,a\n")
        rc = main(["fit", "--data", str(data_path), "--weights", weights_path, "--response", "y"])
        _one_input_error(capsys, rc, f"{data_path}: 'utf-8' codec can't decode")
