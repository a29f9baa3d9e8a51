"""Run a fixed battery of qopcoh commands and print one line per command.

Usage:

    python tools/cli_battery.py ROOT WORKDIR

Each command runs in its own interpreter, with the package imported from
ROOT/src and WORKDIR as the working directory, so reports echo the same
relative file names whichever checkout is tested.  Each output line holds
the exit code, one digest of stdout, stderr and the --out file (when the
command writes one), and the command.  Run it against two checkouts, each
with its own empty WORKDIR, and diff the two outputs: a refactor that
keeps every report, message, exit code and written document prints the
same lines.

Before the first command the battery writes three superoperation
documents into WORKDIR with plain numpy and json, so that ``classify``
also reads the two document kinds ``random`` never writes: the d=2
projectors |ia><ia| as a ``kraus_on_choi`` document, a fixed 16x16
``matrix`` document, and the same matrix with one NaN entry, which must
exit 2.  It also writes seven documents whose arrays do not fit the d = 2
they declare; ``check`` or ``classify`` must reject each with exit 2.  Last
come four documents with finite entries past the 2^250 that admission
allows: three superoperation documents with entries of 1e200 (Kraus on
Choi, sandwich and matrix) and a Choi document holding the pair
+-1.7e308, whose products would overflow.  ``classify`` or ``check`` must
reject each with exit 2.  Then three documents that are not trace
preserving, each of which ``check --predicate cptp`` must answer with exit 1:
the d=2 maximally coherent operation K[a, i] = e^{i theta[i,a]}/sqrt 2 at
theta = (0.1, 0.2, 0.3, 0.4) as a ``kraus`` document, and the Choi states
diag(1, 0, 0, 0) at d=2 and diag(1, 0, ..., 0) at d=3.  That makes 98
commands.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

LAUNCH = "import sys; from qopcoh.cli import main; main(args=sys.argv[1:], prog_name='qopcoh')"
OPERATION_KINDS = ("unitary", "cptp", "incoherent-cptp")
OPERATION_DOCUMENT_KINDS = ("unitary", "kraus", "choi")


def commands() -> list:
    """The battery, in run order; later commands read the documents earlier ones write."""
    battery = [
        # the README session
        "random --kind cptp --d 2 --seed 7 --out channel.json",
        "check channel.json --predicate cptp",
        "dephase channel.json --out dephased.json",
        "check dephased.json --predicate incoherent",
        "measure dephased.json --method convex-roof --restarts 16 --seed 3",
        "verify --suite all --samples 200 --seed 1",
    ]
    docs = []
    for d in (2, 3):
        for kind in (*OPERATION_KINDS, "superop"):
            name = f"{kind}-d{d}"
            battery.append(f"random --kind {kind} --d {d} --seed {10 + d} --out {name}.json")
            if kind != "superop":
                docs.append(name)
    for name in docs:
        battery += [
            f"check {name}.json --predicate cptp",
            f"check {name}.json --predicate incoherent",
            f"dephase {name}.json --out {name}-dephased.json",
            *(
                f"convert {name}.json --to {target} --out {name}-{target}.json"
                for target in ("unitary", "kraus", "choi")
            ),
            f"measure {name}.json --seed 5",
            f"measure {name}-dephased.json --method convex-roof --restarts 8 --seed 3",
        ]
    battery += [f"classify superop-d{d}.json" for d in (2, 3)]
    battery += [f"classify {name}.json" for name in superoperation_documents()]
    for suite in ("theorem11", "theorem12", "theorem21", "corollary32", "axioms"):
        battery += [f"verify --suite {suite} --samples {samples} --seed 1" for samples in (1, 10)]
    # --samples 200 ran in the README session
    battery.append("verify --suite all --samples 20 --seed 1")
    # a method that does not apply to its input exits 2
    battery += [
        "measure channel.json --method pure",
        "measure channel.json --method qubit-closed-form",
        "measure channel.json --method convex-roof",
        # so does a step cap above the 100 steps the descent can take
        "measure unitary-d2-dephased.json --method convex-roof --restarts 8 --seed 3 --max-iter 2000",
    ]
    # the suite choices, as listed in the help and in a usage error
    battery += ["verify --help", "verify --suite theorem99 --seed 1"]
    # arrays that do not fit the declared d, then finite entries past 2^250
    for name, doc in {**malformed_documents(), **overflow_documents()}.items():
        battery.append(f"check {name}.json --predicate cptp" if doc["kind"] in OPERATION_DOCUMENT_KINDS else f"classify {name}.json")
    # operations that are not trace preserving: a false predicate exits 1
    battery += [f"check {name}.json --predicate cptp" for name in not_cptp_documents()]
    return battery


def _document(kind: str, matrices: list, d: int = 2) -> dict:
    pairs = [[[[float(z.real), float(z.imag)] for z in row] for row in m] for m in matrices]
    return {"schema_version": "1", "kind": kind, "d": d, "matrices": pairs}


def superoperation_documents() -> dict:
    """The hand-written documents, by file stem; the same in every checkout."""
    projectors = [np.outer(e, e).astype(complex) for e in np.eye(4)]
    k = np.arange(256).reshape(16, 16)
    m = ((k % 5 - 2) + 1j * (k % 3 - 1)) / 4
    nan = m.copy()
    nan[3, 5] = np.nan
    return {
        "projectors-kraus-on-choi": _document("kraus_on_choi", projectors),
        "fixed-matrix": _document("matrix", [m]),
        "fixed-matrix-nan": _document("matrix", [nan]),
    }


def malformed_documents() -> dict:
    """Hand-written documents declaring d = 2 whose arrays do not fit it, by file stem."""
    half = _document("unitary", [np.eye(3)], d=3)
    return {
        "unitary-3x3-under-d2": _document("unitary", [np.eye(3)]),
        "kraus-two-shapes": _document("kraus", [np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(2)]),
        "choi-two-matrices": _document("choi", [np.eye(4) / 4, np.eye(4) / 4]),
        "choi-9x9-under-d2": _document("choi", [np.eye(9) / 9]),
        "kraus-on-choi-9x9": _document("kraus_on_choi", [np.eye(9)]),
        "matrix-81x81": _document("matrix", [np.eye(81)]),
        "sandwich-halves-d3": {"schema_version": "1", "kind": "sandwich", "d": 2, "post": half, "pre": half},
    }


def overflow_documents() -> dict:
    """Hand-written d = 2 documents whose finite entries would overflow the products formed from them, by file stem."""
    half = _document("kraus", [1e200 * np.outer(e, np.eye(2)[0]) for e in np.eye(2)])
    pair = np.eye(4) / 4
    pair[0, 1], pair[1, 0] = 1.7e308, -1.7e308
    return {
        "kraus-on-choi-overflow": _document("kraus_on_choi", [1e200 * np.eye(4)]),
        "sandwich-overflow": {"schema_version": "1", "kind": "sandwich", "d": 2, "post": half, "pre": half},
        "choi-overflow": _document("choi", [pair]),
        "matrix-overflow": _document("matrix", [1e200 * np.eye(16)]),
    }


def not_cptp_documents() -> dict:
    """Hand-written documents of operations whose output marginal is not I/d, by file stem."""
    theta = np.array([0.1, 0.2, 0.3, 0.4]).reshape(2, 2)  # theta[i, a]
    return {
        "max-coherent-kraus": _document("kraus", [np.exp(1j * theta).T / np.sqrt(2)]),
        "choi-projector-d2": _document("choi", [np.diag(np.eye(4)[0])]),
        "choi-projector-d3": _document("choi", [np.diag(np.eye(9)[0])], d=3),
    }


def run(command: str, src: Path, workdir: Path) -> str:
    args = command.split()
    out = workdir / args[args.index("--out") + 1] if "--out" in args else None
    if out is not None and out.exists():
        out.unlink()
    env = dict(os.environ)
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCH, *args], cwd=workdir, env=env, capture_output=True, timeout=600
    )
    digest = hashlib.sha256()
    for part in (proc.stdout, proc.stderr, out.read_bytes() if out is not None and out.exists() else b""):
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return f"{proc.returncode}  {digest.hexdigest()[:16]}  {command}"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    if not (src / "qopcoh").is_dir():
        print(f"no qopcoh package under {src}", file=sys.stderr)
        return 2
    workdir = Path(argv[1]).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    documents = {**superoperation_documents(), **malformed_documents(), **overflow_documents(), **not_cptp_documents()}
    for name, doc in documents.items():
        (workdir / f"{name}.json").write_text(json.dumps(doc, indent=2))
    for command in commands():
        print(run(command, src, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
