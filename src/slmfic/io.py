"""File ingestion (dense/edge-list weights, CSV datasets) and report emission."""

from __future__ import annotations

import csv
import json
import types
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass
from io import StringIO

import numpy as np
import scipy.sparse

from .errors import ConfigError, DataFormatError
from .focus import FocusSpec
from .simulate import CriterionSpec, RunReport, SimConfig
from .slm import Dataset
from .weights import SpatialWeights


def _read_text(path: str) -> str:
    """The text of a file; bytes that do not decode raise DataFormatError naming it."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def load_weights(path: str, row_normalize: bool = False) -> SpatialWeights:
    """Load spatial weights from a dense n x n CSV or an `i,j,w` edge list.

    Edge lists have a header row, zero-based indices and each pair i,j once.
    """
    rows = list(csv.reader(_read_text(path).splitlines()))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise DataFormatError(f"{path}: empty weights file")
    header = [c.strip().lower() for c in rows[0]]
    if header[:3] == ["i", "j", "w"]:
        A = _parse_edge_list(path, rows[1:])
    else:
        A = _parse_dense(path, rows)
    if np.any(A.diagonal() != 0):
        bad = int(np.flatnonzero(A.diagonal())[0])
        raise DataFormatError(
            f"{path}: nonzero diagonal at unit {bad}; self-neighbors are not allowed"
        )
    return SpatialWeights.from_adjacency(A, row_normalize=row_normalize)


def _parse_dense(path, rows):
    n = len(rows)
    A = np.empty((n, n))  # dense: the file holds all n^2 numbers anyway
    for i, r in enumerate(rows):
        if len(r) != n:
            raise DataFormatError(f"{path}: row {i} has {len(r)} columns, expected {n}")
        try:
            A[i] = [float(c) for c in r]
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {i}: {exc}") from exc
    return A


def _parse_edge_list(path, rows):
    values, first_line = [], {}  # first_line: (i, j) -> the line that gave it
    for line_no, r in enumerate(rows, start=2):
        if len(r) < 3:
            raise DataFormatError(f"{path}: line {line_no}: expected i,j,w")
        try:
            i, j, w = int(r[0]), int(r[1]), float(r[2])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {line_no}: {exc}") from exc
        if i < 0 or j < 0:
            raise DataFormatError(f"{path}: line {line_no}: negative index")
        if (i, j) in first_line:
            raise DataFormatError(f"{path}: lines {first_line[i, j]} and {line_no} "
                                  f"both give the edge {i},{j}")
        first_line[i, j] = line_no
        values.append(w)
    ij = np.array(list(first_line), dtype=np.intp).reshape(-1, 2)
    n = int(ij.max(initial=-1)) + 1
    return scipy.sparse.csr_array((values, (ij[:, 0], ij[:, 1])), shape=(n, n))


def load_dataset(
    data_path: str,
    weights_path: str,
    response: str,
    columns: list[str] | None = None,
    row_normalize: bool = False,
) -> Dataset:
    """Assemble a Dataset from a CSV data table and a weights file.

    The response column is named; the remaining numeric columns (or an
    explicit list) become the design matrix.
    """
    reader = csv.reader(_read_text(data_path).splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{data_path}: empty file") from None
    header = [h.strip() for h in header]
    table = list(reader)
    if response not in header:
        raise DataFormatError(f"{data_path}: no column named {response!r}")
    if columns is None:
        columns = [h for h in header if h != response]
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataFormatError(f"{data_path}: missing columns {missing}")
    col_idx = {h: k for k, h in enumerate(header)}

    def parse(row_no, row, name):
        try:
            return float(row[col_idx[name]])
        except (ValueError, IndexError) as exc:
            raise DataFormatError(
                f"{data_path}: row {row_no}, column {name!r}: {exc}"
            ) from exc

    Y = np.array([parse(r + 2, row, response) for r, row in enumerate(table)])
    X = np.array(
        [[parse(r + 2, row, c) for c in columns] for r, row in enumerate(table)]
    )
    W = load_weights(weights_path, row_normalize=row_normalize)
    if len(Y) != W.n:
        raise DataFormatError(
            f"{data_path} has {len(Y)} rows but weights are {W.n} x {W.n}"
        )
    return Dataset(Y=Y, X=X, W=W, names=tuple(columns))


# ---------------------------------------------------------------------------
# report emission

_REPORT_COLUMNS = ("rank", "label", "mask", "variables", "bias2", "variance", "score")


def report_rows_to_dicts(rows) -> list[dict]:
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


def write_report(rows, out_path: str | None, fmt: str = "json") -> str:
    """Serialize a FIC/sAFIC table, rows in the order given (rank order from
    a sweep); returns the text written.  CSV cells are quoted where needed."""
    dicts = report_rows_to_dicts(rows)
    if fmt == "json":
        text = json.dumps(dicts, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        cols = list(_REPORT_COLUMNS) + (["scheme"] if dicts and "scheme" in dicts[0] else [])
        buf = StringIO()
        writer = csv.DictWriter(buf, cols, lineterminator="\n")
        writer.writeheader()
        writer.writerows(dict(d, variables="+".join(d["variables"])) for d in dicts)
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    return text


def run_report_to_json(report: RunReport, top_k: int = 5) -> str:
    """Deterministic JSON rendering of a Monte-Carlo run."""
    cfg = report.config
    payload = {
        "config": _config_to_dict(cfg),
        "reps_completed": report.reps_completed,
        "failures": [{"rep": r, "error": m} for r, m in report.failures],
        "criteria": {
            name: {
                "top_models": [
                    {
                        "label": f"S{mask + 1}",
                        "mask": mask,
                        "count": count,
                    }
                    for mask, count in report.top_models(name, top_k)
                ],
                "top1_counts": {str(k): v for k, v in sorted(counts.items())},
            }
            for name, counts in report.top1_counts.items()
        },
        "per_rep_top1": [
            {name: masks[0] for name, masks in rankings.items()}
            for rankings in report.per_rep_rankings
        ],
    }
    if report.realized_mse is not None:
        payload["realized_focus_mse"] = {str(k): v for k, v in report.realized_mse.items()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _config_to_dict(cfg: SimConfig) -> dict:
    d = asdict(cfg)
    d["criteria"] = [
        {k: v for k, v in asdict(c).items() if v is not None} for c in cfg.criteria
    ]
    return d


def config_from_json(path: str) -> SimConfig:
    """Parse a SimConfig (with nested criteria) from a JSON file.

    A non-object where an object belongs, an unknown key, a missing required
    field or a value of the wrong JSON type raises ConfigError naming the file
    and the key."""
    raw = _checked_fields(path, "the config", json.loads(_read_text(path)), SimConfig)
    criteria = raw.pop("criteria", None)
    if criteria is not None:
        raw["criteria"] = []
        for i, c in enumerate(criteria):
            c = _checked_fields(path, f"criteria[{i}]", c, CriterionSpec)
            if c.get("focus") is not None:
                focus = _checked_fields(path, f"criteria[{i}].focus", c["focus"], FocusSpec)
                subset = focus.get("coeff_subset") or None  # empty selects every coefficient
                c["focus"] = FocusSpec(**{**focus, "coeff_subset": subset})
            if c.get("z0") is not None:
                c["z0"] = tuple(c["z0"])
            raw["criteria"].append(CriterionSpec(**c))
    return SimConfig(**raw)


def _checked_fields(path: str, where: str, obj, cls) -> dict:
    """A copy of the JSON value obj, which must be an object whose keys are
    fields of the dataclass cls, include every field without a default and
    hold values of the JSON types the fields' annotations allow."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: {where} must be a JSON object, not {type(obj).__name__}")
    unknown = [key for key in obj if key not in {f.name for f in fields(cls)}]
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r} in {where}")
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in obj:
            raise ConfigError(f"{path}: {where} is missing the field {f.name!r}")
        if f.name in obj and not _json_matches(obj[f.name], hints[f.name]):
            value = json.dumps(obj[f.name])
            raise ConfigError(f"{path}: {f.name!r} in {where} must be {f.type}, not {value}")
    return dict(obj)


def _json_matches(value, hint) -> bool:
    """Whether a parsed JSON value fits a field annotated hint: a list for a
    tuple, an object for a dataclass, any number for a float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_json_matches(value, a) for a in args)
    if origin is tuple:
        return isinstance(value, list) and all(_json_matches(v, args[0]) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, dict if is_dataclass(hint) else hint)
