"""Data ingestion and model-spec documents.

Data arrives as a headed CSV (UTF-8, '.' decimal); model specs are JSON.
Column name "1" denotes a constant intercept column that need not exist in
the file.  Grouping columns may hold arbitrary labels; they are mapped to
dense indices in order of first appearance.
"""

import json
from dataclasses import asdict, fields

import numpy as np

from .errors import ConfigurationError, DataError, SpecValidationError
from .families import CANONICAL_LINKS, Family
from .ioutil import parse_floats, read_csv, write_csv
from .model import (
    BlockData,
    Dataset,
    Hyperparameters,
    ModelSpec,
    MODES,
    RandomBlock,
    SamplerSettings,
)

__all__ = ["check_keys", "load_dataset", "parse_spec", "read_json", "settings_from_doc", "spec_from_dict", "spec_to_dict", "write_dataset_csv"]

INTERCEPT_NAME = "1"


def load_dataset(path: str, spec: ModelSpec) -> Dataset:
    """Materialize the columns named by the spec into a typed Dataset."""
    header, rows = read_csv(path)
    if not rows:
        raise DataError(f"{path}: no data rows")
    n = len(rows)
    design = [name for name in (*spec.fixed_effects, *(c for rb in spec.random_blocks for c in rb.columns)) if name != INTERCEPT_NAME]
    names = list(dict.fromkeys([spec.response, *design, *([spec.offset] if spec.offset is not None else [])]))
    values = parse_floats(path, header, rows, names)
    if np.isnan(values).any():
        i, j = np.argwhere(np.isnan(values))[0]
        raise DataError(f"{path}: NaN in column {names[j]!r}, row {i + 2}")
    columns = dict(zip(names, np.ascontiguousarray(values.T)))

    def design_matrix(cols) -> np.ndarray:
        return np.column_stack([np.ones(n) if name == INTERCEPT_NAME else columns[name] for name in cols])

    blocks = []
    for rb in spec.random_blocks:
        if rb.group not in header:
            raise DataError(f"{path}: missing grouping column {rb.group!r}")
        j = header.index(rb.group)
        index = {}
        groups = np.empty(n, dtype=np.int64)
        for i, row in enumerate(rows):
            groups[i] = index.setdefault(row[j], len(index))
        blocks.append(BlockData(Z=design_matrix(rb.columns), groups=groups, n_groups=len(index)))

    X = design_matrix(spec.fixed_effects)
    data = Dataset(y=columns[spec.response], X=X, blocks=tuple(blocks), offset=columns.get(spec.offset))
    spec.family.validate_response(data.y)
    return data


def check_keys(doc: dict, allowed, where: str | None, problems: list[str]) -> bool:
    """Append a problem naming the keys of ``doc`` not in ``allowed`` (prefixed ``where: ``); whether there were none."""
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        problems.append(f"{where + ': ' if where else ''}unknown key(s) {', '.join(map(repr, unknown))}")
    return not unknown


def settings_from_doc(doc: dict, section: str, cls: type, problems: list[str]):
    """``cls`` built from the object ``doc[section]`` (absent: defaults), or None.

    An unknown key or a rejected value is appended to ``problems``, named
    with ``section``, and gives None.
    """
    values = doc.get(section, {})
    if not isinstance(values, dict):
        problems.append(f"{section} must be an object")
        return None
    if not check_keys(values, {f.name for f in fields(cls)}, section, problems):
        return None
    try:
        return cls(**values)
    except ConfigurationError as exc:
        problems.append(f"{section}: {exc}")
        return None


def _column_names(value, what: str, problems: list[str]) -> tuple | None:
    """``value`` as a tuple of column names, or None after appending a problem if it is not a list of strings."""
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        problems.append(f"{what} must be a list of column names, got {value!r}")
        return None
    return tuple(value)


_SPEC_KEYS = ("family", "response", "fixed_effects", "random_blocks", "offset", "hyperparameters", "sampler", "mode")


def spec_from_dict(doc: dict) -> ModelSpec:
    """Validate a spec document, collecting every problem before raising."""
    problems = []
    check_keys(doc, _SPEC_KEYS, None, problems)

    fam_doc = doc.get("family", {})
    if isinstance(fam_doc, str):
        fam_doc = {"kind": fam_doc}
    if not isinstance(fam_doc, dict):
        problems.append(f"family must be an object or a kind name, got {fam_doc!r}")
    else:
        # a dispersion key gets its own message below
        check_keys(fam_doc, ("kind", "link", "dispersion"), "family", problems)
        kind, link = fam_doc.get("kind"), fam_doc.get("link")
        if not isinstance(kind, str) or kind not in CANONICAL_LINKS:
            problems.append(f"unknown family kind {kind!r}")
        elif link is not None and link != CANONICAL_LINKS[kind]:
            problems.append(f"unsupported link {link!r} for family {kind!r}")
        if "dispersion" in fam_doc:
            problems.append("family.dispersion is not a setting: the family scale is sampled from its prior")

    response = doc.get("response")
    if not response:
        problems.append("missing response column name")
    elif not isinstance(response, str):
        problems.append(f"response must be a column name, got {response!r}")

    fixed = _column_names(doc.get("fixed_effects", []), "fixed_effects", problems)
    if fixed == ():
        problems.append("fixed_effects must list at least one column")
    if fixed and len(set(fixed)) != len(fixed):
        problems.append("duplicate fixed-effect columns")

    block_docs = doc.get("random_blocks", [])
    if not isinstance(block_docs, list):
        problems.append(f"random_blocks must be a list of objects, got {block_docs!r}")
        block_docs = []
    blocks = []
    for bi, bdoc in enumerate(block_docs):
        where = f"random block {bi + 1}"
        if not isinstance(bdoc, dict):
            problems.append(f"{where} must be an object, got {bdoc!r}")
            continue
        check_keys(bdoc, ("group", "columns"), where, problems)
        group = bdoc.get("group")
        cols = _column_names(bdoc.get("columns", []), f"{where}: columns", problems)
        if not group:
            problems.append(f"{where}: missing grouping column")
        elif not isinstance(group, str):
            problems.append(f"{where}: group must be a column name, got {group!r}")
        if cols == ():
            problems.append(f"{where}: needs at least one column")
        if cols and len(set(cols)) != len(cols):
            problems.append(f"{where}: duplicate columns")
        blocks.append((group, cols))

    offset = doc.get("offset")
    if offset is not None and not isinstance(offset, str):
        problems.append(f"offset must be a column name or null, got {offset!r}")

    hyper = settings_from_doc(doc, "hyperparameters", Hyperparameters, problems)
    sampler = settings_from_doc(doc, "sampler", SamplerSettings, problems)

    mode = doc.get("mode", "ssvs-full")
    if mode not in MODES:
        problems.append(f"unknown mode {mode!r}; choose from {MODES}")

    if problems:
        raise SpecValidationError(problems)

    return ModelSpec(
        family=Family(kind),
        response=response,
        fixed_effects=fixed,
        random_blocks=tuple(RandomBlock(group=g, columns=c) for g, c in blocks),
        offset=offset,
        hyper=hyper,
        sampler=sampler,
        mode=mode,
    )


def read_json(path: str) -> dict:
    """The JSON object in ``path`` (a spec, design or grid document).

    A file that cannot be read, invalid JSON, or a document that is not an
    object raises :class:`DataError` naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def parse_spec(path: str) -> ModelSpec:
    return spec_from_dict(read_json(path))


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "family": {"kind": spec.family.kind, "link": spec.family.link},
        "response": spec.response,
        "fixed_effects": list(spec.fixed_effects),
        "random_blocks": [
            {"group": rb.group, "columns": list(rb.columns)} for rb in spec.random_blocks
        ],
        "offset": spec.offset,
        "hyperparameters": asdict(spec.hyper),
        "sampler": asdict(spec.sampler),
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
    write_csv(path, header, zip(*(c.tolist() for c in cols)))
