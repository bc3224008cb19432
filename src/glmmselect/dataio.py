"""Data ingestion and model-spec documents.

Data arrives as a headed CSV (UTF-8, '.' decimal); model specs are JSON.
Column name "1" denotes a constant intercept column that need not exist in
the file.  Grouping columns may hold arbitrary labels; they are mapped to
dense indices in order of first appearance.
"""

import csv
import json
import math
from dataclasses import fields

import numpy as np

from .errors import ConfigurationError, DataError, SpecValidationError
from .families import CANONICAL_LINKS, Family
from .ioutil import atomic_write_text
from .model import (
    BlockData,
    Dataset,
    Hyperparameters,
    ModelSpec,
    MODES,
    RandomBlock,
    SamplerSettings,
)

__all__ = ["load_dataset", "parse_spec", "settings_from_doc", "spec_from_dict", "spec_to_dict", "write_dataset_csv"]

INTERCEPT_NAME = "1"


def _read_csv_columns(path: str) -> tuple[list, dict]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    ncol = len(header)
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, header has {ncol}")
    columns = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    return header, columns


def _numeric_column(columns: dict, name: str, path: str) -> np.ndarray:
    raw = columns[name]
    out = np.empty(len(raw))
    for i, cell in enumerate(raw):
        try:
            out[i] = float(cell)
        except ValueError:
            raise DataError(
                f"{path}: non-numeric value {cell!r} in column {name!r}, row {i + 2}"
            ) from None
        if math.isnan(out[i]):
            raise DataError(f"{path}: NaN in column {name!r}, row {i + 2}")
    return out


def load_dataset(path: str, spec: ModelSpec) -> Dataset:
    """Materialize the columns named by the spec into a typed Dataset."""
    _, columns = _read_csv_columns(path)
    n = len(next(iter(columns.values())))

    def design_column(name: str) -> np.ndarray:
        if name == INTERCEPT_NAME:
            return np.ones(n)
        if name not in columns:
            raise DataError(f"{path}: missing column {name!r}")
        return _numeric_column(columns, name, path)

    if spec.response not in columns:
        raise DataError(f"{path}: missing response column {spec.response!r}")
    y = _numeric_column(columns, spec.response, path)
    X = np.column_stack([design_column(name) for name in spec.fixed_effects])

    blocks = []
    for rb in spec.random_blocks:
        if rb.group not in columns:
            raise DataError(f"{path}: missing grouping column {rb.group!r}")
        labels = columns[rb.group]
        index = {}
        groups = np.empty(n, dtype=np.int64)
        for i, lab in enumerate(labels):
            if lab not in index:
                index[lab] = len(index)
            groups[i] = index[lab]
        Z = np.column_stack([design_column(name) for name in rb.columns])
        blocks.append(BlockData(Z=Z, groups=groups, n_groups=len(index)))

    offset = None
    if spec.offset is not None:
        if spec.offset not in columns:
            raise DataError(f"{path}: missing offset column {spec.offset!r}")
        offset = _numeric_column(columns, spec.offset, path)

    data = Dataset(y=y, X=X, blocks=tuple(blocks), offset=offset)
    data.validate_for(spec.family)
    return data


def settings_from_doc(doc: dict, section: str, cls: type, problems: list[str]):
    """``cls`` built from the object ``doc[section]`` (absent: defaults), or None.

    An unknown key or a rejected value is appended to ``problems``, named
    with ``section``, and gives None.
    """
    values = doc.get(section, {})
    if not isinstance(values, dict):
        problems.append(f"{section} must be an object")
        return None
    names = {f.name for f in fields(cls)}
    unknown = [key for key in values if key not in names]
    if unknown:
        problems.append(f"{section}: unknown key(s) {', '.join(map(repr, unknown))}")
        return None
    try:
        return cls(**values)
    except (ConfigurationError, TypeError, ValueError) as exc:
        problems.append(f"{section}: {exc}")
        return None


def spec_from_dict(doc: dict) -> ModelSpec:
    """Validate a spec document, collecting every problem before raising."""
    problems = []

    fam_doc = doc.get("family", {})
    if isinstance(fam_doc, str):
        fam_doc = {"kind": fam_doc}
    kind = fam_doc.get("kind")
    if kind not in CANONICAL_LINKS:
        problems.append(f"unknown family kind {kind!r}")
    link = fam_doc.get("link")
    if kind in CANONICAL_LINKS and link is not None and link != CANONICAL_LINKS[kind]:
        problems.append(f"unsupported link {link!r} for family {kind!r}")
    if "dispersion" in fam_doc:
        problems.append("family.dispersion is not a setting: the family scale is sampled from its prior")

    response = doc.get("response")
    if not response:
        problems.append("missing response column name")

    fixed = doc.get("fixed_effects", [])
    if not fixed:
        problems.append("fixed_effects must list at least one column")
    if len(set(fixed)) != len(fixed):
        problems.append("duplicate fixed-effect columns")

    blocks = []
    for bi, bdoc in enumerate(doc.get("random_blocks", [])):
        group = bdoc.get("group")
        cols = bdoc.get("columns", [])
        if not group:
            problems.append(f"random block {bi + 1}: missing grouping column")
        if not cols:
            problems.append(f"random block {bi + 1}: needs at least one column")
        if len(set(cols)) != len(cols):
            problems.append(f"random block {bi + 1}: duplicate columns")
        blocks.append((group, tuple(cols)))

    hyper = settings_from_doc(doc, "hyperparameters", Hyperparameters, problems)
    sampler = settings_from_doc(doc, "sampler", SamplerSettings, problems)

    mode = doc.get("mode", "ssvs-full")
    if mode not in MODES:
        problems.append(f"unknown mode {mode!r}; choose from {MODES}")

    if problems:
        raise SpecValidationError(problems)

    family = Family(kind=kind, link=link)
    return ModelSpec(
        family=family,
        response=response,
        fixed_effects=tuple(fixed),
        random_blocks=tuple(RandomBlock(group=g, columns=c) for g, c in blocks),
        offset=doc.get("offset"),
        hyper=hyper,
        sampler=sampler,
        mode=mode,
    )


def parse_spec(path: str) -> ModelSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecValidationError([f"{path}: invalid JSON ({exc})"]) from exc
    return spec_from_dict(doc)


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "family": {"kind": spec.family.kind, "link": spec.family.link},
        "response": spec.response,
        "fixed_effects": list(spec.fixed_effects),
        "random_blocks": [
            {"group": rb.group, "columns": list(rb.columns)} for rb in spec.random_blocks
        ],
        "offset": spec.offset,
        "hyperparameters": {
            "h": spec.hyper.h,
            "v": spec.hyper.v,
            "nu": spec.hyper.nu,
            "g_shrink": spec.hyper.g_shrink,
            "prior_inclusion": spec.hyper.prior_inclusion,
        },
        "sampler": {
            "chains": spec.sampler.chains,
            "adapt": spec.sampler.adapt,
            "burnin": spec.sampler.burnin,
            "kept": spec.sampler.kept,
            "thin": spec.sampler.thin,
            "seed": spec.sampler.seed,
        },
        "mode": spec.mode,
    }


def write_dataset_csv(path: str, data: Dataset, spec: ModelSpec) -> None:
    """Persist a dataset using the column names of its spec."""
    header = [spec.response]
    cols = [data.y]
    for j, name in enumerate(spec.fixed_effects):
        header.append(name if name != INTERCEPT_NAME else "intercept")
        cols.append(data.X[:, j])
    for rb, bdata in zip(spec.random_blocks, data.blocks):
        header.append(rb.group)
        cols.append(bdata.groups)
        # random design columns that duplicate fixed columns are not repeated
        for j, name in enumerate(rb.columns):
            if name not in spec.fixed_effects and name != INTERCEPT_NAME:
                header.append(name)
                cols.append(bdata.Z[:, j])
    if data.offset is not None and spec.offset:
        header.append(spec.offset)
        cols.append(data.offset)
    lines = [",".join(header)]
    for i in range(data.n_obs):
        lines.append(",".join(repr(float(c[i])) if isinstance(c[i], (float, np.floating)) else str(c[i]) for c in cols))
    atomic_write_text(path, "\n".join(lines) + "\n")
