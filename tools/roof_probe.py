"""Print the convex-roof estimate of a fixed list of mixed operations, one line each.

Usage:

    python tools/roof_probe.py ROOT

Imports qopcoh from ROOT/src, builds 26 d=2 and 10 d=3 mixed operations
from fixed seeds with qopcoh's own generators (Stinespring channels,
two-unitary mixtures, 0.7 H + 0.3 I, incoherent mixtures), and runs
``mf_convex_roof(op, restarts=6, max_iter=600, seed=n)`` on each.  Each
line holds the input's label, the value, the number of descent steps and
one digest of the history and the ensemble weights.  Run it against two
checkouts and diff the outputs to see which inputs a change to the
estimator moved, and by how much.
"""

import hashlib
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def inputs(channel) -> list:
    """(label, operation) pairs, the same in every checkout."""
    rng = channel.rng_from(2024)
    ops = [("d2 0.7H+0.3I", channel.mix_operations([0.7, 0.3], [channel.hadamard_operation(), channel.identity_operation(2)]))]
    for d, rounds in ((2, 5), (3, 2)):
        for n in range(rounds):
            for env in (2, 3, 4):
                ops.append((f"d{d} stinespring-env{env} #{n}", channel.random_cptp(d, env, rng)))
            for kind, draw in (("unitary", channel.random_unitary), ("incoherent", channel.random_incoherent_cptp)):
                p = float(rng.uniform(0.2, 0.8))
                pair = [draw(d, rng), draw(d, rng)]
                ops.append((f"d{d} {kind}-mixture #{n}", channel.mix_operations([p, 1 - p], pair)))
    return ops


def main(root: str) -> None:
    sys.path.insert(0, str(Path(root) / "src"))
    from qopcoh import channel, coherence

    steps = []
    polar = coherence._polar
    coherence._polar = lambda v: steps.append(1) or polar(v)
    for n, (label, op) in enumerate(inputs(channel)):
        steps.clear()
        result = coherence.mf_convex_roof(op, restarts=6, max_iter=600, seed=n)
        digest = hashlib.sha256(repr(result.history).encode() + result.ensemble.weights.tobytes()).hexdigest()[:16]
        print(f"{label:28s} {result.value!r:22s} {len(steps):3d} {digest}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
