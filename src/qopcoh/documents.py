"""JSON file formats: operation, superoperation, and report documents.

Complex scalars serialize as [re, im] pairs and matrices as row-major
nested arrays, so files stay language-neutral and diff-friendly.  All
documents carry schema_version "1".  Serialization uses a fixed key order
and two-space indentation, so parse-then-serialize is byte-stable and
seeded commands produce byte-identical reports.
"""

import json

import numpy as np

from .channel import ChoiState, QuantumOperation
from .exceptions import ParseError, QopcohError
from .linalg import require_finite
from .superop import Superoperation

SCHEMA_VERSION = "1"


def format_value(x: float) -> str:
    """Decimal rendering with 12 significant digits, for measure values."""
    return f"{float(x):.12g}"


def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def matrix_from_json(rows) -> np.ndarray:
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix: {exc}") from exc
    if a.ndim != 3 or a.shape[2] != 2:
        raise ParseError(f"matrix entries must be [re, im] pairs, got shape {a.shape}")
    require_finite(a.reshape(a.shape[0], -1), ParseError, "matrix")
    return a[:, :, 0] + 1j * a[:, :, 1]


def _require_fields(doc: dict, fields, what: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    for f in fields:
        if f not in doc:
            raise ParseError(f"{what} is missing field {f!r}")
    if str(doc["schema_version"]) != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc['schema_version']!r}")
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ParseError(f"{what} field 'd' must be a positive integer, got {d!r}")
    if not isinstance(doc.get("matrices", []), list):
        raise ParseError(f"{what} field 'matrices' must be a list")


def operation_to_document(op: QuantumOperation, metadata: dict | None = None) -> dict:
    if op.kind == "unitary":
        matrices = [matrix_to_json(op.unitary)]
    elif op.kind == "kraus":
        matrices = [matrix_to_json(k) for k in op.kraus_operators]
    else:
        matrices = [matrix_to_json(op.choi.matrix)]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": op.kind,
        "d": op.dim,
        "matrices": matrices,
        "metadata": dict(metadata or {}),
    }


def operation_from_document(doc: dict) -> QuantumOperation:
    _require_fields(doc, ("schema_version", "kind", "d", "matrices"), "operation document")
    kind = doc["kind"]
    d = doc["d"]
    matrices = [matrix_from_json(m) for m in doc["matrices"]]
    if not matrices:
        raise ParseError("operation document carries no matrices")
    try:
        if kind == "unitary":
            if len(matrices) != 1 or matrices[0].shape != (d, d):
                raise ParseError("unitary document needs exactly one d x d matrix")
            return QuantumOperation.from_unitary(matrices[0])
        if kind == "kraus":
            if any(m.shape != (d, d) for m in matrices):
                raise ParseError("kraus document matrices must all be d x d")
            return QuantumOperation.from_kraus(matrices)
        if kind == "choi":
            if len(matrices) != 1 or matrices[0].shape != (d * d, d * d):
                raise ParseError("choi document needs exactly one d^2 x d^2 matrix")
            return QuantumOperation.from_choi(ChoiState(matrices[0], d))
    except ParseError:
        raise
    except QopcohError as exc:
        raise ParseError(f"invalid {kind} operation: {exc}") from exc
    raise ParseError(f"unknown operation kind {kind!r}")


def superoperation_to_document(s: Superoperation, metadata: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": s.form,
        "d": s.d,
    }
    if s.form == "sandwich":
        doc["post"] = operation_to_document(s.post)
        doc["pre"] = operation_to_document(s.pre)
    elif s.form == "kraus_on_choi":
        doc["matrices"] = [matrix_to_json(k) for k in s.choi_kraus]
    else:
        doc["matrices"] = [matrix_to_json(s.matrix)]
    doc["metadata"] = dict(metadata or {})
    return doc


def superoperation_from_document(doc: dict) -> Superoperation:
    _require_fields(doc, ("schema_version", "kind", "d"), "superoperation document")
    kind = doc["kind"]
    d = doc["d"]
    try:
        if kind == "sandwich":
            if "post" not in doc or "pre" not in doc:
                raise ParseError("sandwich document needs post and pre operation documents")
            post, pre = operation_from_document(doc["post"]), operation_from_document(doc["pre"])
            if post.dim != d or pre.dim != d:
                raise ParseError(f"sandwich document declares d = {d}, its halves {post.dim} and {pre.dim}")
            return Superoperation.from_sandwich(post, pre)
        if kind == "kraus_on_choi":
            ks = [matrix_from_json(m) for m in doc.get("matrices", [])]
            if any(k.shape != (d * d, d * d) for k in ks):
                raise ParseError("kraus_on_choi matrices must be d^2 x d^2")
            return Superoperation.from_kraus_on_choi(ks)
        if kind == "matrix":
            ms = doc.get("matrices", [])
            if len(ms) != 1:
                raise ParseError("matrix document needs exactly one matrix")
            return Superoperation.from_matrix(matrix_from_json(ms[0]), d)
    except ParseError:
        raise
    except QopcohError as exc:
        raise ParseError(f"invalid {kind} superoperation: {exc}") from exc
    raise ParseError(f"unknown superoperation kind {kind!r}")


def report_document(
    command: str,
    parameters: dict,
    verdicts: dict | None = None,
    residuals: dict | None = None,
    values: dict | None = None,
    witness=None,
    checks: list | None = None,
    seed: int | None = None,
    wall_time_ms: float | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "verdicts": verdicts or {},
        "residuals": residuals or {},
        "values": values or {},
        "witness": witness,
        "seed": seed,
    }
    if checks is not None:
        doc["checks"] = checks
    if wall_time_ms is not None:
        doc["wall_time_ms"] = wall_time_ms
    return doc


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def save_document(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(doc))
