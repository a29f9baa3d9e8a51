"""Print the convex-roof estimate of a fixed list of mixed operations, one line each.

Usage:

    python tools/roof_probe.py ROOT

Imports qopcoh from ROOT/src, builds 26 d=2 and 10 d=3 mixed operations
from fixed seeds with qopcoh's own generators (Stinespring channels,
two-unitary mixtures, 0.7 H + 0.3 I, incoherent mixtures), and runs
``mf_convex_roof(op, restarts=6, max_iter=600, seed=n)`` on each.  Each
line holds the input's label, the value, the number of descent steps
(calls of the retraction, ``_retract``, or ``_polar`` on a checkout that
predates it), one digest of the history and the ensemble weights, and one
digest of the members' Choi matrices and of their weighted sum
sum_n p_n C_n.  Three columns follow on the Uhlmann lane: "uhlmann" where
the input has one, "none" where its Choi rank is below d, and "-" on a
checkout without it; then "won" or "lost" (the last lane's value lies
strictly below every other lane's, read off the history), and the gap
between the value and the lane's bound sqrt(1 - F), which is never above
1e-12.  The probe reads the ensemble only through ``weights`` and
``members``.

Then come 18 lines on the symmetric family C_p = p |+><+| + (1 - p) I/d^2
(|+><+| the all-1/d^2 matrix) for d = 2, 3 and p = 0.1, 0.2, ..., 0.9, each
run at the CLI defaults (``restarts=32, seed=3``).  Each holds d, p, the
value, the exact roof and the gap between them.  The exact roof is
p (1 - 1/d^2) for p <= (d^2 - 2)/(d^2 - 1), and otherwise
|sin(arccos(1/d) - arccos(sqrt t))| with t = p + (1 - p)/d^2; the gap is
never below -1e-12.  Run the probe against two checkouts and diff the
outputs to see which inputs a change to the estimator moved, and by how
much.
"""

import hashlib
import math
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # after the thread pins, which BLAS reads when numpy loads it


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


def symmetric_family() -> list:
    """(d, p, Choi matrix, exact roof) of the family C_p, the same in every checkout."""
    family = []
    for d in (2, 3):
        n = d * d
        for p in [k / 10 for k in range(1, 10)]:
            exact = p * (1 - 1 / n)
            if p > (n - 2) / (n - 1):
                exact = abs(math.sin(math.acos(1 / d) - math.acos(math.sqrt(p + (1 - p) / n))))
            family.append((d, p, p * np.ones((n, n)) / n + (1 - p) * np.eye(n) / n, exact))
    return family


def lane_columns(coherence, op, result) -> str:
    """Whether the Uhlmann lane ran, whether it won, and the value's gap to its bound."""
    if not hasattr(coherence, "_uhlmann_lane"):
        return "-       -    -"
    if op.choi.support().eigenvalues.size < op.d:
        return "none    -    -"
    f = coherence.incoherent_fidelity_ascent(op.choi.root, coherence._LANE_STEPS)[0]
    won = "won " if result.history[-1] < result.history[-2] else "lost"
    return f"uhlmann {won} {result.value - math.sqrt(1.0 - f):+.3e}"


def main(root: str) -> None:
    sys.path.insert(0, str(Path(root) / "src"))
    from qopcoh import channel, coherence

    steps = []
    name = "_retract" if hasattr(coherence, "_retract") else "_polar"
    retract = getattr(coherence, name)
    setattr(coherence, name, lambda v: steps.append(1) or retract(v))
    for n, (label, op) in enumerate(inputs(channel)):
        steps.clear()
        result = coherence.mf_convex_roof(op, restarts=6, max_iter=600, seed=n)
        ens = result.ensemble
        digest = hashlib.sha256(repr(result.history).encode() + ens.weights.tobytes()).hexdigest()[:16]
        matrices = [m.choi.matrix for m in ens.members]
        mixture = sum(w * m for w, m in zip(ens.weights, matrices))
        members = hashlib.sha256(b"".join(m.tobytes() for m in matrices) + mixture.tobytes()).hexdigest()[:16]
        print(f"{label:28s} {result.value!r:22s} {len(steps):3d} {digest} {members} {lane_columns(coherence, op, result)}")
    for d, p, choi, exact in symmetric_family():
        value = coherence.mf_convex_roof(channel.QuantumOperation.from_choi(choi), restarts=32, seed=3).value
        print(f"family d={d} p={p:.1f}             {value!r:22s} exact {exact!r:22s} gap {value - exact:+.3e}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
