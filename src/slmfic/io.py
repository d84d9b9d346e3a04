"""File ingestion (dense/edge-list weights, CSV datasets) and report emission."""

from __future__ import annotations

import csv
import json
import operator
import types
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass
from io import StringIO
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np
import scipy.sparse

from .errors import ConfigError, DataFormatError, InputError
from .focus import FocusSpec
from .simulate import CriterionSpec, RunReport, SimConfig
from .slm import Dataset
from .submodels import SubmodelId
from .weights import SpatialWeights


def _read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 file, endings kept and a leading byte-order mark
    dropped; bytes that do not decode raise DataFormatError naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _read_table(path: str) -> list[tuple[int, list[str]]]:
    """The CSV records of a file that have a non-blank cell, each paired with
    its 1-based line in the file (the header and blank lines counted)."""
    reader = csv.reader(_read_lines(path))
    return [(reader.line_num, cells) for cells in reader if "".join(cells).strip()]


def _numbers(path: str, records, cols, names, kind=float) -> np.ndarray:
    """The cells at columns cols of the (line, cells) records as one
    len(records) x len(cols) array of kind.  The first missing or malformed
    cell, in file order, raises DataFormatError naming its line and its
    column, names[k] for cols[k]."""
    try:
        flat = [cells[c] for _, cells in records for c in cols]  # no per-record lists to collect
        return np.array(flat, dtype=kind).reshape(len(records), len(cols))
    except (IndexError, ValueError, OverflowError):
        for line, cells in records:
            for c, name in zip(cols, names):
                cell = cells[c] if c < len(cells) else ""
                try:
                    np.array([cell], dtype=kind)
                except (ValueError, OverflowError) as exc:
                    reason = exc if cell.strip() else "missing value"
                    raise DataFormatError(f"{path}: line {line}, column {name}: {reason}") from None
        raise


def load_weights(path: str, row_normalize: bool = False) -> SpatialWeights:
    """Load spatial weights from a dense n x n CSV or an `i,j,w` edge list.

    Edge lists have a header row, zero-based indices and each pair i,j once.
    Every InputError, the checks of SpatialWeights.from_adjacency too, names
    the file.
    """
    records = _read_table(path)
    if not records:
        raise DataFormatError(f"{path}: empty weights file")
    if [c.strip().lower() for c in records[0][1][:3]] == ["i", "j", "w"]:
        A = _edge_list_matrix(path, records[1:])
    else:
        n = len(records)  # dense: the file holds all n^2 numbers anyway
        for line, cells in records:
            if len(cells) != n:
                raise DataFormatError(f"{path}: line {line} has {len(cells)} columns, expected {n}")
        A = _numbers(path, records, range(n), range(n))
    try:
        return SpatialWeights.from_adjacency(A, row_normalize=row_normalize)
    except InputError as exc:  # the same class, its message naming the file
        exc.args = (f"{path}: {exc}",)
        raise


def _edge_list_matrix(path: str, edges) -> scipy.sparse.csr_array:
    """The sparse n x n matrix of the (line, [i, j, w]) records, n the largest
    index plus one; a negative index or a repeated pair i,j names its line."""
    ij = _numbers(path, edges, (0, 1), "ij", kind=int)
    w = _numbers(path, edges, (2,), "w")[:, 0]
    lines = [line for line, _ in edges]
    negative = np.flatnonzero((ij < 0).any(axis=1))
    if negative.size:
        raise DataFormatError(f"{path}: line {lines[negative[0]]}: negative index")
    n = int(ij.max(initial=-1)) + 1
    _, first, pair = np.unique(ij[:, 0] * n + ij[:, 1], return_index=True, return_inverse=True)
    repeated = np.flatnonzero(first[pair] != np.arange(len(edges)))
    if repeated.size:
        k = repeated[0]
        raise DataFormatError(f"{path}: lines {lines[first[pair[k]]]} and {lines[k]} "
                              f"both give the edge {ij[k, 0]},{ij[k, 1]}")
    return scipy.sparse.csr_array((w, (ij[:, 0], ij[:, 1])), shape=(n, n))


def load_dataset(
    data_path: str,
    weights_path: str,
    response: str,
    columns: list[str] | None = None,
    row_normalize: bool = False,
) -> Dataset:
    """Assemble a Dataset from a CSV data table and a weights file.

    The response column is named; the remaining numeric columns (or an
    explicit list, which may neither hold the response nor repeat a name)
    become the design matrix.
    """
    records = _read_table(data_path)
    if not records:
        raise DataFormatError(f"{data_path}: empty file")
    header = [h.strip() for h in records[0][1]]
    if response not in header:
        raise DataFormatError(f"{data_path}: no column named {response!r}")
    if columns is None:
        columns = [h for h in header if h != response]
    for k, c in enumerate(columns):
        if c == response:
            raise DataFormatError(f"{data_path}: the response {c!r} is also listed as a covariate")
        if c in columns[:k]:
            raise DataFormatError(f"{data_path}: covariate {c!r} is listed twice")
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataFormatError(f"{data_path}: missing columns {missing}")
    col_idx = {h: k for k, h in enumerate(header)}
    names = [response, *columns]
    values = _numbers(data_path, records[1:], [col_idx[c] for c in names], names)
    W = load_weights(weights_path, row_normalize=row_normalize)
    if len(values) != W.n:
        raise DataFormatError(f"{data_path} has {len(values)} rows but weights are {W.n} x {W.n}")
    return Dataset(Y=values[:, 0].copy(), X=values[:, 1:].copy(), W=W, names=tuple(columns))


# ---------------------------------------------------------------------------
# report emission

_REPORT_COLUMNS = ("rank", "label", "mask", "variables", "bias2", "variance", "score")
_JSON_BLOCK = 512  # rows rendered at once: the columns of one block are the transient text
_JSON_FIELDS = operator.attrgetter("bias2", "submodel.mask", "rank", "scheme", "score",
                                   "labels", "variance")
# The text between the columns of a table row, in json_text's key order (the
# label is SubmodelId.label(), "S" and mask + 1); every row starts ",\n" and
# write_report drops the first row's.
_JSON_KEYS = (',\n  {\n    "bias2": ', ',\n    "label": "S', '",\n    "mask": ', ',\n    "rank": ',
              ',\n', '    "score": ', ',\n    "variables": [\n      ', '\n    ],\n    "variance": ',
              '\n  }')
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(value) -> str:
    """The JSON text of every report: keys sorted, two-space indent, one
    final newline.  write_report renders the fixed-schema tables to the same
    text without it."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _json_floats(xs) -> list[str]:
    """json's spelling of each float: its repr, or NaN, Infinity, -Infinity.
    Only these reprs hold an "n", so a finite column is not looked up."""
    texts = list(map(float.__repr__, xs))
    if "n" in "".join(texts):
        texts = list(map(_JSON_NONFINITE.get, texts, texts))
    return texts


def _json_block(rows) -> str:
    """The rows as json_text writes them inside a table's list, each row
    starting ",\n": every field read once, each column turned to text by one
    map, and the columns zipped with the _JSON_KEYS between them."""
    bias2, masks, ranks, schemes, scores, labels, variances = zip(*map(_JSON_FIELDS, rows))
    scheme = {s: "" if s is None else f'    "scheme": {encode_basestring_ascii(s)},\n'
              for s in set(schemes)}
    names = map(",\n      ".join, map(map, repeat(encode_basestring_ascii), labels))
    key = list(map(repeat, _JSON_KEYS))
    text = "".join(map("".join, zip(
        key[0], _json_floats(bias2), key[1], map(int.__repr__, map((1).__add__, masks)),
        key[2], map(int.__repr__, masks), key[3], map(int.__repr__, ranks),
        key[4], map(scheme.__getitem__, schemes), key[5], _json_floats(scores),
        key[6], names, key[7], _json_floats(variances), key[8])))
    # An encoded name never holds a raw newline, so this pattern is an empty list.
    return text if all(labels) else text.replace("[\n      \n    ]", "[]")


def write_report(rows, out_path: str | None, fmt: str = "json") -> str:
    """Serialize a FIC/sAFIC table, rows in the order given (rank order from
    a sweep); returns the text written.

    JSON renders the rows by columns, _JSON_BLOCK rows at a time, byte for
    byte json_text of the rows as dicts (keys bias2, label, mask, rank, scheme
    unless None, score, variables, variance; json's NaN and Infinity,
    ASCII-escaped strings).  CSV has the columns _REPORT_COLUMNS, plus scheme
    when the first row has one, variables joined by "+", cells quoted where
    needed."""
    if fmt == "json":
        body = "".join(_json_block(rows[i:i + _JSON_BLOCK])
                       for i in range(0, len(rows), _JSON_BLOCK))
        text = f"[{body[1:]}\n]\n" if body else "[]\n"
    elif fmt == "csv":
        scheme = bool(rows) and rows[0].scheme is not None
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS + ("scheme",) * scheme)
        writer.writerows((r.rank, r.submodel.label(), r.submodel.mask, "+".join(r.labels),
                          r.bias2, r.variance, r.score) + (r.scheme,) * scheme for r in rows)
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def run_report_to_json(report: RunReport) -> str:
    """Deterministic JSON rendering of a Monte-Carlo run, with each criterion's
    five most frequent winners (RunReport.top_models)."""
    cfg = report.config
    payload = {
        "config": _config_to_dict(cfg),
        "reps_completed": report.reps_completed,
        "failures": [{"rep": r, "error": m} for r, m in report.failures],
        "criteria": {
            name: {
                "top_models": [
                    {
                        "label": SubmodelId(mask, cfg.p).label(),
                        "mask": mask,
                        "count": count,
                    }
                    for mask, count in report.top_models(name)
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
    return json_text(payload)


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
    raw = _checked_fields(path, "the config", json.loads("".join(_read_lines(path))), SimConfig)
    criteria = raw.pop("criteria", None)
    if criteria is not None:
        raw["criteria"] = []
        for i, c in enumerate(criteria):
            c = _checked_fields(path, f"criteria[{i}]", c, CriterionSpec)
            if c.get("focus") is not None:
                focus = _checked_fields(path, f"criteria[{i}].focus", c["focus"], FocusSpec)
                c["focus"] = FocusSpec(**focus)
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
