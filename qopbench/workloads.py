"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup``, then exposes
rounds of operations that the timed phase runs whole.  An operation is a
callable returning its raw output, and a checker that tests that output
with the code in ``checks``, which does not call qopcoh.

* roof   - convex-roof estimates on mixed d=2 Choi states.
* suites - one pass of ``qopcoh verify`` over four suites per operation.
* cli    - one fixed session of CLI commands on JSON documents, plus two
           malformed documents run as operations of their own.
"""

import contextlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass

import numpy as np

import checks

# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Op:
    """One operation of a round.

    ``counted`` operations make up the rate and latency metrics;
    uncounted ones (the malformed CLI documents) only count as attempted,
    and as failed when their check fails.  For an operation that repeats
    in every round, ``fingerprint`` reduces an output to what each repeat
    must reproduce exactly.  ``after`` runs on each output right after the
    operation, outside its latency.
    """

    label: str
    run: object
    check: object
    counted: bool = True
    fingerprint: object = None
    after: object = None


class Workload:
    """A round of operations built by ``setup``, repeated by the timed phase."""

    tail_percentile = 90
    # parts of the host-speed calibration kernel (see run.HostSpeed)
    calibration = {"numpy": 150}

    def setup(self, seed, workdir):
        raise NotImplementedError

    def round_ops(self, rnd) -> list:
        return self.round

    def extra_checks(self) -> list:
        return []

    def roof_value_mean(self, first_outputs) -> tuple:
        """(mean roof value over the reference fixtures, their problems).

        Run after the timed phase, untimed, so that every workload reports
        the same roof-quality figure.
        """
        results, problems = [], []
        for op in reference_roof_ops():
            result = op.run()
            problems += [f"{op.label}: {p}" for p in op.check(result)]
            results.append(result)
        return float(np.mean([r.value for r in results])), problems


class CliRunner:
    """Runs ``qopcoh <args>`` in-process and returns (exit code, stdout, stderr).

    One pair of capture buffers serves every command: click keeps a text
    wrapper for each stdout object it has seen, and that cache holds on to
    the object, so a fresh buffer per command would leak one per command.
    An exception that escapes the command becomes exit code 1 with a
    traceback, as the interpreter would report it.
    """

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def __call__(self, args) -> tuple:
        from qopcoh.cli import main

        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            try:
                main.main(args=list(args), prog_name="qopcoh", standalone_mode=True)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception:
                traceback.print_exc()
                code = 1
        return code, self.out.getvalue(), self.err.getvalue()


def haar_unitary(d, rng) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def stinespring_kraus(d, env, rng) -> list:
    """Kraus operators of a random CPTP channel with an env-dimensional environment."""
    v = haar_unitary(d * env, rng)[:, :d]
    return [v[e * d : (e + 1) * d, :] for e in range(env)]


def incoherent_kraus(d, rng) -> list:
    """sqrt(T[a, i]) |a><i| for a random column-stochastic T."""
    t = rng.uniform(0.05, 1.0, size=(d, d))
    t /= t.sum(axis=0, keepdims=True)
    ks = []
    for i in range(d):
        for a in range(d):
            k = np.zeros((d, d), dtype=complex)
            k[a, i] = math.sqrt(t[a, i])
            ks.append(k)
    return ks


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

# ---------------------------------------------------------------------------
# roof
# ---------------------------------------------------------------------------

ROOF_RESTARTS = 6
ROOF_MAX_ITER = 600
# The reference half of the roof fixtures is drawn from this fixed seed, so
# roof_value_mean is the same computation in every run and every workload.
REFERENCE_SEED = 2201_00526


def roof_fixture_half(rng) -> list:
    """Eight mixed d=2 Choi states: (label, Choi matrix, convexity bound or None).

    Stinespring channels with environments 2, 3 and 4, two two-unitary
    mixtures, 0.7 H + 0.3 I, and two mixtures of incoherent channels,
    whose true roof is 0.
    """
    fixtures = []
    for env in (2, 3, 4):
        fixtures.append((f"stinespring-env{env}", checks.choi_of_kraus(stinespring_kraus(2, env, rng)), None))
    for _ in range(2):
        p = float(rng.uniform(0.2, 0.8))
        c = p * checks.choi_of_kraus([haar_unitary(2, rng)]) + (1 - p) * checks.choi_of_kraus([haar_unitary(2, rng)])
        fixtures.append(("unitary-mixture", c, None))
    # H and I have orthogonal Choi vectors, so the estimator's warm start
    # is exactly this ensemble and its value bounds the result.
    bound = 0.7 * checks.SQRT3_OVER_2 + 0.3 * checks.SQRT2_OVER_2
    c = 0.7 * checks.choi_of_kraus([HADAMARD]) + 0.3 * checks.choi_of_kraus([np.eye(2)])
    fixtures.append(("0.7H+0.3I", c, bound))
    for _ in range(2):
        p = float(rng.uniform(0.2, 0.8))
        c = p * checks.choi_of_kraus(incoherent_kraus(2, rng)) + (1 - p) * checks.choi_of_kraus(incoherent_kraus(2, rng))
        fixtures.append(("incoherent-mixture", c, None))
    return fixtures


def _roof_op(label, choi, bound, roof_seed):
    from qopcoh import QuantumOperation, measure_coherence

    op = QuantumOperation.from_choi(choi, 2)

    def run():
        return measure_coherence(
            op, method="convex-roof", restarts=ROOF_RESTARTS, max_iter=ROOF_MAX_ITER, seed=roof_seed
        )

    def check(result):
        return checks.check_roof(
            choi,
            2,
            result.value,
            result.ensemble.weights,
            [m.choi.matrix for m in result.ensemble.members],
            result.history,
            ROOF_RESTARTS,
            convex_bound=bound,
        )

    def fingerprint(result):
        return result.value, result.history, tuple(result.ensemble.weights)

    return Op(label, run, check, fingerprint=fingerprint)


def reference_roof_ops() -> list:
    rng = np.random.default_rng(REFERENCE_SEED)
    return [
        _roof_op(f"reference {label}", c, bound, k)
        for k, (label, c, bound) in enumerate(roof_fixture_half(rng))
    ]


class Roof(Workload):
    tail_percentile = 90

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        seeded = [
            _roof_op(f"seeded {label}", c, bound, seed * 1000 + k)
            for k, (label, c, bound) in enumerate(roof_fixture_half(rng))
        ]
        self.reference = reference_roof_ops()
        self.round = self.reference + seeded

    def roof_value_mean(self, first_outputs) -> tuple:
        """Taken from the reference fixtures of the timed phase.

        ``first_outputs`` maps each operation to the fingerprint of its
        first output, whose first entry is the roof value.
        """
        values = [first_outputs[op][0] for op in self.reference]
        return float(np.mean(values)), []


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# Samples per suite, set so that no suite takes most of a pass
# (about 3, 20, 20 and 16 ms on a 2-core x86 host).
SUITE_SAMPLES = (("theorem11", 1), ("theorem12", 16), ("corollary32", 16), ("theorem21", 1))
SPOT_UNITARIES = 16
SPOT_SUPEROPS = 8


class Suites(Workload):
    tail_percentile = 95

    def setup(self, seed, workdir):
        self.seed = seed
        self.run_cli = CliRunner()

    def round_ops(self, rnd) -> list:
        """One operation per round, with seeds of its own."""
        suite_seed = self.seed * 100_000 + rnd

        def run():
            return [
                (suite, samples, self.run_cli(["verify", "--suite", suite, "--samples", str(samples), "--seed", str(suite_seed)]))
                for suite, samples in SUITE_SAMPLES
            ]

        def check(outputs):
            problems = []
            for suite, samples, (code, stdout, _) in outputs:
                problems += checks.check_verify(suite, samples, code, stdout)
            return problems

        return [Op(f"verify pass seed={suite_seed}", run, check)]

    def extra_checks(self) -> list:
        """Closed form and classify on inputs the benchmark draws itself."""
        from qopcoh import classify, mf_single_qubit_unitary
        from qopcoh.superop import random_sandwich, sample_class_member

        rng = np.random.default_rng([self.seed, 2])
        problems = []
        for _ in range(SPOT_UNITARIES):
            u = haar_unitary(2, rng)
            problems += checks.check_qubit_closed_form(u, mf_single_qubit_unitary(u).value)
        superops = [random_sandwich(d, rng) for d in (2, 3)]
        superops += [sample_class_member(name, 2, rng) for name in ("miso", "miso_star", "diso")]
        superops += [random_sandwich(2, rng) for _ in range(SPOT_SUPEROPS - len(superops))]
        for s in superops:
            rep = classify(s)
            problems += checks.check_classification(s.matrix, s.d, vars(rep))
        return problems


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# A session runs the twelve commands of SESSION_SETS document sets, so that
# it lasts about as long as a suites pass; a round is SESSIONS sessions
# followed by the two malformed documents.
SESSIONS = 8
SESSION_SETS = 3


def _matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def operation_doc(kind, matrices) -> dict:
    return {
        "schema_version": "1",
        "kind": kind,
        "d": np.asarray(matrices[0]).shape[0],
        "matrices": [_matrix_json(m) for m in matrices],
        "metadata": {},
    }


def sandwich_doc(post_kraus, pre_kraus) -> dict:
    return {
        "schema_version": "1",
        "kind": "sandwich",
        "d": np.asarray(post_kraus[0]).shape[0],
        "post": operation_doc("kraus", post_kraus),
        "pre": operation_doc("kraus", pre_kraus),
        "metadata": {},
    }


class Cli(Workload):
    tail_percentile = 95
    # sessions parse JSON and write files besides their numpy work
    calibration = {"numpy": 50, "json": 8, "file": 3}

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        run_cli = CliRunner()

        def put(name, doc):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return path

        fixed = [
            (put(f"{name}.json", operation_doc("unitary", [u])), value)
            for name, u, value in (
                ("hadamard", HADAMARD, checks.SQRT3_OVER_2),
                ("identity", np.eye(2, dtype=complex), checks.SQRT2_OVER_2),
                ("pauli-x", PAULI_X, checks.SQRT2_OVER_2),
            )
        ]
        commands = []
        for j in range(SESSIONS * SESSION_SETS):
            cptp2 = stinespring_kraus(2, int(rng.integers(2, 4)), rng)
            cptp3 = stinespring_kraus(3, int(rng.integers(2, 4)), rng)
            inc3 = incoherent_kraus(3, rng)
            u = haar_unitary(2, rng)
            sops = []
            for d in (2, 3):
                post, pre = stinespring_kraus(d, 2, rng), stinespring_kraus(d, int(rng.integers(1, 3)), rng)
                sops.append((put(f"sop{d}-{j}.json", sandwich_doc(post, pre)), d, checks.sandwich_choi_kraus(post, pre)))
            paths = {
                "cptp2": put(f"cptp2-{j}.json", operation_doc("kraus", cptp2)),
                "cptp3": put(f"cptp3-{j}.json", operation_doc("kraus", cptp3)),
                "inc3": put(f"inc3-{j}.json", operation_doc("kraus", inc3)),
                "u": put(f"unitary-{j}.json", operation_doc("unitary", [u])),
                "dephased": os.path.join(workdir, f"dephased-{j}.json"),
                "converted": os.path.join(workdir, f"converted-{j}.json"),
            }
            commands.append(self._doc_set_commands(paths, cptp2, cptp3, inc3, u, sops, fixed))
        sessions = [
            self._session(f"session {k}", sum(commands[k * SESSION_SETS : (k + 1) * SESSION_SETS], []), run_cli)
            for k in range(SESSIONS)
        ]
        bad_d = operation_doc("unitary", [np.eye(2)])
        bad_d["d"] = "x"
        inf_unitary = operation_doc("unitary", [np.eye(2)])
        inf_unitary["matrices"][0][0][0][0] = math.inf
        malformed = [
            self._malformed("check: operation document with d='x'", ["check", put("bad-d.json", bad_d), "--predicate", "cptp"], run_cli),
            self._malformed("measure: unitary with an Infinity entry", ["measure", put("inf-unitary.json", inf_unitary)], run_cli),
        ]
        self.round = sessions + malformed

    @staticmethod
    def _malformed(label, args, run_cli):
        return Op(label, lambda: run_cli(args), lambda out: checks.check_usage_error(*out), counted=False)

    @staticmethod
    def _doc_set_commands(paths, cptp2, cptp3, inc3, u, sops, fixed):
        """The twelve commands on one document set: (args, checker of the output).

        An output is [exit code, stdout, stderr, text of the --out file].
        """
        commands = [
            (["check", paths["cptp2"], "--predicate", "cptp"], lambda o: checks.check_check_report(o[0], o[1], "cptp", cptp2)),
            (["check", paths["cptp3"], "--predicate", "incoherent"], lambda o: checks.check_check_report(o[0], o[1], "incoherent", cptp3)),
            (["check", paths["inc3"], "--predicate", "incoherent"], lambda o: checks.check_check_report(o[0], o[1], "incoherent", inc3)),
            (["dephase", paths["cptp3"], "--out", paths["dephased"]], lambda o: checks.check_written_choi(o[0], o[1], o[3], cptp3, dephased=True)),
            # Theorem 1.2: the dephased channel is still CPTP
            (["check", paths["dephased"], "--predicate", "cptp"], lambda o: checks.check_exit(o[0], 0)),
            (["convert", paths["cptp2"], "--to", "choi", "--out", paths["converted"]], lambda o: checks.check_written_choi(o[0], o[1], o[3], cptp2, dephased=False)),
            (["measure", paths["u"]], lambda o: checks.check_measure_report(o[0], o[1], checks.unitary_measure(u))),
        ]
        commands += [(["measure", path], lambda o, v=value: checks.check_measure_report(o[0], o[1], v)) for path, value in fixed]
        commands += [(["classify", path], lambda o, d=d, ck=ck: checks.check_classify_report(o[0], o[1], d, ck)) for path, d, ck in sops]
        return commands

    @staticmethod
    def _session(label, commands, run_cli):
        def run():
            return [[*run_cli(args), None] for args, _ in commands]

        def check(outputs):
            problems = []
            for (args, checker), out in zip(commands, outputs):
                problems += [f"{args[0]}: {p}" for p in checker(out)]
            return problems

        def snapshot(outputs):
            # read back what --out wrote, outside the timed operation
            for (args, _), out in zip(commands, outputs):
                if "--out" in args:
                    with open(args[args.index("--out") + 1], encoding="utf-8") as fh:
                        out[3] = fh.read()

        return Op(label, run, check, fingerprint=lambda outputs: outputs, after=snapshot)


WORKLOADS = {"roof": Roof, "suites": Suites, "cli": Cli}
