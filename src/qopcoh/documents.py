"""JSON file formats: operation, superoperation, and report documents.

Complex scalars serialize as [re, im] pairs and matrices as row-major
nested arrays, so files stay language-neutral and diff-friendly.  All
documents carry schema_version "1".  Serialization uses a fixed key order
and two-space indentation, so parse-then-serialize is byte-stable and
seeded commands produce byte-identical reports.
"""

import json

import numpy as np

from .channel import QuantumOperation
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
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
        raise ParseError(f"malformed matrix: {exc}") from exc
    if a.ndim != 3 or a.shape[2] != 2:
        raise ParseError(f"matrix entries must be [re, im] pairs, got shape {a.shape}")
    # numpy also reads true, false, numeric strings and null (as NaN) as numbers
    if not {type(x) for r in rows for z in r for x in z} <= {int, float}:
        raise ParseError("matrix entries must be JSON numbers")
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
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 2:
        raise ParseError(f"{what} field 'd' must be an integer of at least 2, got {d!r}")
    if not isinstance(doc.get("matrices", []), list):
        raise ParseError(f"{what} field 'matrices' must be a list")


def _require_declared_d(doc: dict, d: int, arrays: str) -> None:
    if d != doc["d"]:
        raise ParseError(f"{doc['kind']} document declares d = {doc['d']}, its {arrays} d = {d}")


def operation_to_document(op: QuantumOperation, metadata: dict | None = None) -> dict:
    if op.kind == "choi":
        matrices = [matrix_to_json(op.choi.matrix)]
    else:
        matrices = [matrix_to_json(k) for k in op.kraus_operators]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": op.kind,
        "d": op.d,
        "matrices": matrices,
        "metadata": dict(metadata or {}),
    }


def operation_from_document(doc: dict) -> QuantumOperation:
    _require_fields(doc, ("schema_version", "kind", "d", "matrices"), "operation document")
    kind = doc["kind"]
    matrices = [matrix_from_json(m) for m in doc["matrices"]]
    if not matrices:
        raise ParseError("operation document carries no matrices")
    if kind not in ("unitary", "kraus", "choi"):
        raise ParseError(f"unknown operation kind {kind!r}")
    if kind != "kraus" and len(matrices) != 1:
        raise ParseError(f"{kind} document needs exactly one matrix")
    try:
        if kind == "unitary":
            op = QuantumOperation.from_unitary(matrices[0])
        elif kind == "kraus":
            op = QuantumOperation.from_kraus(matrices)
        else:
            op = QuantumOperation.from_choi(matrices[0])
    except QopcohError as exc:
        raise ParseError(f"invalid {kind} operation: {exc}") from exc
    _require_declared_d(doc, op.d, "matrices")
    return op


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
    try:
        if kind == "sandwich":
            if "post" not in doc or "pre" not in doc:
                raise ParseError("sandwich document needs post and pre operation documents")
            halves = operation_from_document(doc["post"]), operation_from_document(doc["pre"])
            s = Superoperation.from_sandwich(*halves)
        elif kind == "kraus_on_choi":
            s = Superoperation.from_kraus_on_choi([matrix_from_json(m) for m in doc.get("matrices", [])])
        elif kind == "matrix":
            ms = doc.get("matrices", [])
            if len(ms) != 1:
                raise ParseError("matrix document needs exactly one matrix")
            s = Superoperation.from_matrix(matrix_from_json(ms[0]))
        else:
            raise ParseError(f"unknown superoperation kind {kind!r}")
    except ParseError:
        raise
    except QopcohError as exc:
        raise ParseError(f"invalid {kind} superoperation: {exc}") from exc
    _require_declared_d(doc, s.d, "halves" if kind == "sandwich" else "matrices")
    return s


def report_document(
    command: str,
    parameters: dict,
    verdicts: dict | None = None,
    residuals: dict | None = None,
    values: dict | None = None,
    witness=None,
    checks: list | None = None,
    seed: int | None = None,
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
    return doc


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def save_document(path: str, doc: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_document(doc))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
