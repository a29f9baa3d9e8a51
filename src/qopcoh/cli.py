"""Command-line interface.

Exit codes: 0 for success or a true predicate, 1 for a false predicate or
a failed verification suite, 2 for usage and parse errors, an out-of-range
count or seed, a matrix entry above 2^250 in modulus (in a document, or in
the matrix a superoperation forms from it) and a request too large for
memory.
Every verdict uses the fixed tolerances of ``tolerances``, and every
randomized command takes an explicit --seed, so reports are byte-identical
for a fixed seed and input (pass --timing to add a wall-time field).

Click exits 2 on usage errors; the group class ``_Qopcoh`` turns every
QopcohError and every MemoryError into "error: ..." on stderr and exit 2.
The report commands return (report, exit code) to the ``_report``
decorator, which holds --timing and prints and exits.
"""

import functools
import sys
import time

import click

from . import channel, coherence, superop
from .documents import (
    dumps_document,
    format_value,
    load_document,
    operation_from_document,
    operation_to_document,
    report_document,
    save_document,
    superoperation_from_document,
    superoperation_to_document,
)
from .exceptions import QopcohError
from .suites import SUITE_NAMES, run_suite

COUNT = click.IntRange(min=1)
SEED = click.IntRange(min=0)


class _Qopcoh(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except QopcohError as exc:
            message = str(exc)
        except MemoryError as exc:  # numpy cannot allocate the arrays, say for a huge --d
            message = f"the request is too large for memory: {exc}"
        click.echo(f"error: {message}", err=True)
        sys.exit(2)


@click.group(cls=_Qopcoh)
def main():
    """Analyze the coherence of quantum operations via their Choi states."""


def _report(command):
    """Add --timing to a command whose body returns (report, exit code)."""

    @click.option("--timing", is_flag=True, default=False)
    @functools.wraps(command)
    def run(*args, timing, **kwargs):
        started = time.perf_counter()
        doc, code = command(*args, **kwargs)
        if timing:
            doc["wall_time_ms"] = (time.perf_counter() - started) * 1e3
        click.echo(dumps_document(doc), nl=False)
        sys.exit(code)

    return run


def _emit(doc: dict, out: str | None):
    if out:
        save_document(out, doc)
    else:
        click.echo(dumps_document(doc), nl=False)


def _load_operation(path: str):
    return operation_from_document(load_document(path))


def _convert(op, target: str):
    if target == op.kind:
        return op
    if target == "choi":
        return channel.QuantumOperation.from_choi(op.choi)
    if target == "kraus":
        return channel.QuantumOperation.from_kraus(op.kraus_operators)
    return channel.QuantumOperation.from_unitary(channel.unitary_from_choi(op.choi))


@main.command()
@click.argument("in_file", type=click.Path())
@click.option("--to", "target", required=True, type=click.Choice(["unitary", "kraus", "choi"]))
@click.option("--out", type=click.Path(), default=None, help="Output file (default: stdout).")
def convert(in_file, target, out):
    """Convert an operation document between representations."""
    _emit(operation_to_document(_convert(_load_operation(in_file), target)), out)


@main.command()
@click.argument("in_file", type=click.Path())
@click.option("--predicate", required=True, type=click.Choice(["cptp", "incoherent"]))
@_report
def check(in_file, predicate):
    """Test a predicate; exit 0 when it holds, 1 when it does not."""
    op = _load_operation(in_file)
    if predicate == "cptp":
        rep = channel.is_cptp(op.choi)
        residuals = {"min_eigenvalue": rep.min_eigenvalue, "marginal_residual": rep.marginal_residual}
    else:
        rep = channel.is_incoherent_operation(op.choi)
        residuals = {"max_offdiagonal": rep.max_offdiagonal}
    doc = report_document(
        "check",
        {"input": in_file, "predicate": predicate},
        verdicts={predicate: rep.ok},
        residuals=residuals,
    )
    return doc, 0 if rep.ok else 1


@main.command()
@click.argument("in_file", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Output file (default: stdout).")
def dephase(in_file, out):
    """Apply the phase-out superoperation to an operation document."""
    op = _load_operation(in_file)
    dephased = superop.apply(superop.phase_out(op.d), op)
    _emit(operation_to_document(dephased, metadata={"source": in_file, "dephased": "true"}), out)


@main.command()
@click.argument("in_file", type=click.Path())
@_report
def classify(in_file):
    """Classify a superoperation document against MISO / MISO* / DISO."""
    rep = superop.classify(superoperation_from_document(load_document(in_file)))
    doc = report_document(
        "classify",
        {"input": in_file},
        verdicts={"in_miso": rep.in_miso, "in_miso_star": rep.in_miso_star, "in_diso": rep.in_diso},
        residuals={
            "miso_residual": rep.miso_residual,
            "miso_star_residual": rep.miso_star_residual,
            "diso_residual": rep.diso_residual,
        },
    )
    return doc, 0


@main.command()
@click.argument("in_file", type=click.Path())
@click.option(
    "--method",
    default="auto",
    type=click.Choice(["auto", "pure", "qubit-closed-form", "convex-roof"]),
)
@click.option("--restarts", type=click.IntRange(1, 256), default=32, show_default=True)
@click.option(
    "--max-iter", type=click.IntRange(0, 100), default=100, show_default=True, help="Cap on the descent's steps."
)
@click.option("--seed", type=SEED, default=None, help="Required when the convex roof runs.")
@_report
def measure(in_file, method, restarts, max_iter, seed):
    """Evaluate the fidelity coherence measure of an operation document."""
    op = _load_operation(in_file)
    result = coherence.measure_coherence(op, method=method, restarts=restarts, max_iter=max_iter, seed=seed)
    if result.witness_index is not None:
        i, a = result.witness_index
        witness = {"basis_input": int(i), "basis_output": int(a), "linear_index": int(i * op.d + a)}
    else:
        ens = result.ensemble
        witness = {
            "ensemble_weights": [format_value(w) for w in ens.weights],
            "members": len(ens.weights),
            "reconstruction_residual": channel.max_abs(ens.reconstruction - op.choi.matrix),
        }
    doc = report_document(
        "measure",
        {"input": in_file, "method": method, "restarts": restarts, "max_iter": max_iter},
        values={"measure": format_value(result.value), "kind": result.kind},
        witness=witness,
        seed=seed,
    )
    return doc, 0


@main.command()
@click.option("--suite", required=True, type=click.Choice(list(SUITE_NAMES)))
@click.option("--samples", type=COUNT, default=200, show_default=True)
@click.option("--seed", type=SEED, required=True)
@_report
def verify(suite, samples, seed):
    """Run a named verification suite; exit 0 only if every check passes."""
    checks = run_suite(suite, samples, seed)
    ok = all(c["pass"] for c in checks)
    doc = report_document(
        "verify",
        {"suite": suite, "samples": samples},
        verdicts={"suite_passed": ok},
        checks=checks,
        seed=seed,
    )
    return doc, 0 if ok else 1


@main.command("random")
@click.option("--kind", required=True, type=click.Choice(["unitary", "cptp", "incoherent-cptp", "superop"]))
@click.option("--d", "dim", type=click.IntRange(min=2), default=2, show_default=True)
@click.option("--env-dim", type=COUNT, default=2, show_default=True, help="Environment size for CPTP sampling.")
@click.option("--seed", type=SEED, required=True)
@click.option("--out", type=click.Path(), default=None, help="Output file (default: stdout).")
def random_cmd(kind, dim, env_dim, seed, out):
    """Generate a random operation or superoperation document."""
    meta = {"generator": kind, "seed": str(seed)}
    if kind == "superop":
        _emit(superoperation_to_document(superop.random_sandwich(dim, seed), metadata=meta), out)
        return
    if kind == "unitary":
        op = channel.random_unitary(dim, seed)
    elif kind == "cptp":
        op = channel.random_cptp(dim, env_dim, seed)
    else:
        op = channel.random_incoherent_cptp(dim, seed)
    _emit(operation_to_document(op, metadata=meta), out)


if __name__ == "__main__":
    main()
