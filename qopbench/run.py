"""qopcoh benchmark: one closed-loop client, three workloads.

Usage, from the root of a checkout:

    python3 qopbench/run.py --workload {roof,suites,cli} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the layers are wrapped in spans and
it carries the per-layer metrics instead.  Each run also writes its full
result (and, when traced, its spans) under ``.qopbench/`` in the checkout.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One client thread: BLAS must not spread its own threads over the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".qopbench"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qopcoh, qopcoh.cli; "
    "print(time.perf_counter() - t, qopcoh.__file__)"
)


def fail(message):
    print(f"qopbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_seconds() -> float:
    """Time to import qopcoh and its CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        fail(f"importing qopcoh failed:\n{proc.stderr}")
    seconds, location = proc.stdout.split(maxsplit=1)
    if Path(location.strip()).resolve().parent != SRC / "qopcoh":
        fail(f"qopcoh imported from {location.strip()}, not from {SRC}")
    return float(seconds)


class HostSpeed:
    """A fixed calibration kernel, timed right after every operation.

    This host's speed drifts by tens of percent in phases lasting seconds
    to minutes, and an operation's wall time and CPU time drift with it.
    The kernel is the kind of work the workload does and does not touch
    qopcoh, so its time tracks the host alone.  Its parts, counted per
    workload, are: ``numpy``, one step of small complex products, squared
    moduli, row sums and maxima; ``json``, a round trip of a 9x9 matrix
    document through JSON text; ``file``, writing that document to a file
    and reading it back.  Each latency is scaled by the kernel's nominal
    time (fixed by UNIT_S) over the median kernel
    time of the WINDOW operations centred on it: the latency the operation
    would have at that speed.  The median keeps the kernel's own jitter out
    of the tail.
    """

    UNIT_S = {"numpy": 20e-6, "json": 225e-6, "file": 630e-6}
    WINDOW = 5

    def __init__(self, parts, workdir):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.parts = parts
        self.ref_s = sum(self.UNIT_S[part] * n for part, n in parts.items())
        self.v = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        self.a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.doc = {"matrices": [[[float(x), float(-x)] for x in row] for row in rng.standard_normal((9, 9))]}
        self.path = os.path.join(workdir, "calibration.json")

    def kernel_seconds(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(self.parts.get("numpy", 0)):
            mod2 = np.abs(self.v @ self.a) ** 2
            p = mod2.sum(axis=1)
            float(np.sqrt(np.clip(p * (p - mod2.max(axis=1)), 0.0, None)).sum())
        for _ in range(self.parts.get("json", 0)):
            np.asarray(json.loads(json.dumps(self.doc))["matrices"], dtype=float)
        for _ in range(self.parts.get("file", 0)):
            with open(self.path, "w", encoding="utf-8") as fh:
                json.dump(self.doc, fh)
            with open(self.path, encoding="utf-8") as fh:
                json.load(fh)
        return time.perf_counter() - t0

    def scale(self, latencies, kernels) -> list:
        """Latencies at the nominal speed."""
        half = self.WINDOW // 2
        return [
            lat * self.ref_s / statistics.median(kernels[max(i - half, 0) : i + half + 1])
            for i, lat in enumerate(latencies)
        ]


def nearest_rank(sorted_values, percentile) -> float:
    return sorted_values[max(math.ceil(percentile / 100 * len(sorted_values)) - 1, 0)]


def min_ops_for_tail(percentile) -> int:
    """Fewest operations that leave ten beyond the nearest-rank percentile."""
    return math.ceil(10 / (1 - percentile / 100) - 1e-9)


class Outcomes:
    """Checks each output as it arrives, so that no output is kept.

    An operation that repeats in every round must give the same output as
    in its first round; only that first output goes through the full check.
    Problems of counted operations make the run incorrect; an uncounted
    operation whose check fails counts as failed.
    """

    def __init__(self):
        self.first = {}  # repeated op -> fingerprint of its first output
        self.problems = []
        self.failed = 0

    def add(self, rnd, op, output):
        if isinstance(output, Exception):
            found = [f"raised {type(output).__name__}: {output}"]
        elif op in self.first:
            found = [] if op.fingerprint(output) == self.first[op] else ["output differs from the first round"]
        else:
            found = op.check(output)
            if op.fingerprint is not None:
                self.first.setdefault(op, op.fingerprint(output))
        if found and op.counted:
            self.problems += [f"round {rnd}, {op.label}: {p}" for p in found]
        elif found:
            self.failed += 1


def timed_phase(workload, seconds, tracer, outcomes, host):
    """Repeat whole rounds until ``seconds`` have passed and the tail is defined.

    Returns (counted, latency, kernel seconds) in run order and the elapsed
    seconds.
    """
    records = []
    need = min_ops_for_tail(workload.tail_percentile)
    counted = 0
    started = time.perf_counter()
    rnd = 0
    while True:
        for op in workload.round_ops(rnd):
            if tracer is not None:
                tracer.op = len(records)
            t0 = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # a raising operation is reported, not fatal
                output = exc
            latency = time.perf_counter() - t0
            if op.after is not None and not isinstance(output, Exception):
                op.after(output)
            outcomes.add(rnd, op, output)
            records.append((op.counted, latency, host.kernel_seconds()))
            counted += op.counted
        rnd += 1
        if time.perf_counter() - started >= seconds and counted >= need:
            return records, time.perf_counter() - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be nonnegative")
    if not (SRC / "qopcoh" / "__init__.py").is_file():
        fail(f"no qopcoh sources under {SRC}")
    sys.path.insert(0, str(SRC))

    import resource

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="docs-") as workdir:
        workload = workloads.WORKLOADS[args.workload]()
        setups = []
        for _ in range(SETUP_REPEATS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir)
            setups.append(t_import + time.perf_counter() - t0)

        workload.round_ops(0)[0].run()  # warm-up, not counted
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        outcomes = Outcomes()
        host = HostSpeed(workload.calibration, workdir)
        try:
            records, elapsed = timed_phase(workload, args.seconds, tracer, outcomes, host)
        finally:
            if tracer is not None:
                tracer.uninstall()

        problems = outcomes.problems + workload.extra_checks()
        roof_mean, roof_problems = workload.roof_value_mean(outcomes.first)
        problems += roof_problems

    wall = [lat for is_counted, lat, _ in records if is_counted]
    kernels = [k for is_counted, _, k in records if is_counted]
    scaled = host.scale(wall, kernels)
    counted = len(wall)

    def timing(latencies) -> dict:
        ordered = sorted(latencies)
        return {
            "ops_per_s": (counted / sum(ordered), "1/s"),
            "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
            "op_tail_ms": (nearest_rank(ordered, workload.tail_percentile) * 1e3, "ms"),
        }

    e2e = {
        **timing(scaled),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "roof_value_mean": (roof_mean, "1"),
    }
    per_layer = tracer.per_layer_metrics(len(records)) if tracer is not None else {}
    shown = per_layer if tracer is not None else e2e
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        elapsed_s=elapsed,
        counted_ops=counted,
        tail_percentile=workload.tail_percentile,
        ops_beyond_tail=counted - math.ceil(workload.tail_percentile / 100 * counted),
        setup_samples_s=setups,
        end_to_end={name: value for name, (value, _) in e2e.items()},
        wall_clock={name: value for name, (value, _) in timing(wall).items()},
        latencies_ms=[round(lat * 1e3, 3) for lat in wall],
        kernel_ms=[round(k * 1e3, 3) for k in kernels],
        problems=problems[:50],
    )
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.npz")
        detail["spans"] = len(tracer.start)
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
