"""Time the convex-roof estimator of two checkouts in one process, alternating them.

Usage:

    python tools/roof_ab.py OLD NEW [SEED ...]

Imports qopcoh from OLD/src and from NEW/src into one interpreter and runs
both on the fixtures of the ``roof`` benchmark workload: its reference half
and, for each SEED, that seed's seeded half, built by ``roof_fixture_half``
of this checkout's ``qopbench/workloads.py`` and measured as the workload
measures them (``measure_coherence`` with the convex roof, ``restarts=6``,
``max_iter=600`` and the workload's roof seeds).  Each half runs for 10
rounds; a round times one pass of each side over the half's eight fixtures,
and the side that goes first alternates from round to round.  Prints each
half's median ms per call on both sides and the speedup (OLD over NEW), then
the median speedup over all halves.  Last it prints "bit-identical", or the
first fixture whose value, history or ensemble weights differ between the
sides, and exits 1.  Alternating within one process keeps both sides at the
same host speed, which drifts by tens of percent between separate runs.
Uses the standard library and numpy only; BLAS is pinned to one thread.
"""

import os
import statistics
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # after the thread pins, which BLAS reads when numpy loads it

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "qopbench"))
import workloads  # qopbench's modules import one another by bare name

ROUNDS = 10


def load(root: str):
    """The qopcoh package under ROOT/src, imported apart from any copy imported before it."""
    for name in [name for name in sys.modules if name == "qopcoh" or name.startswith("qopcoh.")]:
        del sys.modules[name]
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    try:
        import qopcoh
    finally:
        sys.path.remove(str(src))
    if Path(qopcoh.__file__).resolve().parent != src / "qopcoh":
        sys.exit(f"qopcoh imported from {qopcoh.__file__}, not from {src}")
    return qopcoh


def halves(seeds) -> list:
    """(name, [(label, Choi matrix, roof seed), ...]) for the reference half and each seeded half."""
    rng = np.random.default_rng(workloads.REFERENCE_SEED)
    out = [("reference", [(label, c, k) for k, (label, c, _) in enumerate(workloads.roof_fixture_half(rng))])]
    for seed in seeds:
        rng = np.random.default_rng([seed, 1])
        fixtures = workloads.roof_fixture_half(rng)
        out.append((f"seed {seed}", [(label, c, seed * 1000 + k) for k, (label, c, _) in enumerate(fixtures)]))
    return out


def timed_pass(qopcoh, ops) -> tuple:
    """(seconds, results) of one pass of the estimator over ``ops``."""
    start = time.perf_counter()
    results = [
        qopcoh.measure_coherence(
            op, method="convex-roof", restarts=workloads.ROOF_RESTARTS, max_iter=workloads.ROOF_MAX_ITER, seed=seed
        )
        for op, seed in ops
    ]
    return time.perf_counter() - start, results


def difference(a, b) -> str:
    """What differs between two roof results: "value", "history", "weights" or ""."""
    if a.value != b.value:
        return "value"
    if a.history != b.history:
        return "history"
    wa, wb = a.ensemble.weights, b.ensemble.weights
    return "" if wa.shape == wb.shape and (wa == wb).all() else "weights"


def main(old: str, new: str, seeds: list) -> int:
    sides = (load(old), load(new))
    print(f"{'half':10s} {'old ms/call':>12s} {'new ms/call':>12s} {'speedup':>8s}")
    speedups, first_difference = [], None
    for name, fixtures in halves(seeds):
        ops = [[(q.QuantumOperation.from_choi(c, 2), seed) for _, c, seed in fixtures] for q in sides]
        times, results = ([], []), [[], []]
        for rnd in range(ROUNDS):
            for side in (0, 1) if rnd % 2 == 0 else (1, 0):
                seconds, out = timed_pass(sides[side], ops[side])
                times[side].append(1e3 * seconds / len(fixtures))
                if rnd == 0:
                    results[side] = out
        old_ms, new_ms = (statistics.median(t) for t in times)
        speedups.append(old_ms / new_ms)
        print(f"{name:10s} {old_ms:12.3f} {new_ms:12.3f} {speedups[-1]:8.3f}", flush=True)
        for (label, _, _), a, b in zip(fixtures, *results):
            what = difference(a, b)
            if what and first_difference is None:
                first_difference = f"{name} {label}: {what} differs"
    print(f"median speedup {statistics.median(speedups):.3f} over {len(speedups)} halves")
    print(first_difference or "bit-identical")
    return 1 if first_difference else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2], [int(seed) for seed in sys.argv[3:]]))
