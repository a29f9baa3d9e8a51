"""Check that this checkout prints the same bytes as a git ref.

Usage:

    python tools/same_outputs.py PARENT_REF

Exports PARENT_REF with ``git archive`` into a temporary directory and runs
the same 203 commands against it and against this checkout's working tree:
``tools/cli_battery.py``, ``tools/roof_probe.py``, ``verify --suite all
--samples 200 --seed 1``, ``verify --suite axioms --samples S --seed K``
for S in 1, 10 and 200 and K from 1 to 20, ``verify --suite X --samples S
--seed K`` for X in theorem12, corollary32 and theorem21, S in 1, 3 and 16
and K from 1 to 10, ``random --kind superop --d D --seed K`` for D in 2
and 3, ``random --kind cptp --d D --env-dim E --seed K`` for D in 2 and 3
and E in 1, 2 and 3, and ``random --kind incoherent-cptp --d D --seed K``
for D in 2 and 3, all for K from 1 to 5.  The random sandwiches draw
channels of mixed environment sizes.  The two tools are this
checkout's copies, so only the package differs between the runs.  Prints a
unified diff of the two outputs, exits 1 on any difference and 0
otherwise, and deletes the temporary directory either way.  Uses the
standard library only; each command runs in its own interpreter with BLAS
pinned to one thread.  It takes about 145 s on a 2-core x86 host.
"""

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAUNCH = "import sys; from qopcoh.cli import main; main(args=sys.argv[1:], prog_name='qopcoh')"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def commands(root: Path, workdir: Path) -> list:
    """(label, argv, PYTHONPATH) for every command run against the checkout at ``root``."""
    verify = [sys.executable, "-c", LAUNCH, "verify"]
    random = [sys.executable, "-c", LAUNCH, "random"]
    runs = [
        ("cli_battery", [sys.executable, str(HERE / "cli_battery.py"), str(root), str(workdir)], None),
        ("roof_probe", [sys.executable, str(HERE / "roof_probe.py"), str(root)], None),
        ("verify --suite all --samples 200 --seed 1", [*verify, "--suite", "all", "--samples", "200", "--seed", "1"], root),
    ]
    suites = [("axioms", samples, seed) for samples in (1, 10, 200) for seed in range(1, 21)]
    for suite in ("theorem12", "corollary32", "theorem21"):
        suites += [(suite, samples, seed) for samples in (1, 3, 16) for seed in range(1, 11)]
    for suite, samples, seed in suites:
        args = ["--suite", suite, "--samples", str(samples), "--seed", str(seed)]
        runs.append((f"verify {' '.join(args)}", [*verify, *args], root))
    draws = [["--kind", "superop", "--d", str(d)] for d in (2, 3)]
    draws += [["--kind", "cptp", "--d", str(d), "--env-dim", str(env)] for d in (2, 3) for env in (1, 2, 3)]
    draws += [["--kind", "incoherent-cptp", "--d", str(d)] for d in (2, 3)]
    for args in (draw + ["--seed", str(seed)] for draw in draws for seed in range(1, 6)):
        runs.append((f"random {' '.join(args)}", [*random, *args], root))
    return runs


def outputs(root: Path, workdir: Path) -> list:
    """One block of lines per command: its label, exit code, stdout and stderr."""
    lines = []
    for label, argv, path in commands(root, workdir):
        env = {**os.environ, **THREADS}
        if path is not None:
            env["PYTHONPATH"] = str(path / "src")
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True, timeout=1800)
        lines += [f"$ {label}  (exit {proc.returncode})", *proc.stdout.splitlines(), *proc.stderr.splitlines()]
    return lines


def main(parent_ref: str) -> int:
    checkout = HERE.parent
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(checkout), "archive", parent_ref], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        results = []
        for name, root in (("parent", parent), ("change", checkout)):
            workdir = Path(tmp) / f"work-{name}"
            workdir.mkdir()
            results.append(outputs(root, workdir))
    diff = list(difflib.unified_diff(*results, parent_ref, "working tree", lineterm=""))
    print("\n".join(diff) if diff else f"same outputs: {len(results[1])} lines")
    return 1 if diff else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
