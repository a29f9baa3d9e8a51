"""Command-line interface.

Exit codes: 0 for success or a true predicate, 1 for a false predicate or
a failed verification suite, 2 for usage and parse errors, an out-of-range
count or seed, and an invalid QOPCOH_TOL.  Every randomized command takes
an explicit --seed; reports are byte-identical for a fixed seed and input
(pass --timing to add a wall-time field).
"""

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
from .exceptions import ParseError, QopcohError
from .suites import SUITE_NAMES, run_suite
from .tolerances import admission_atol

COUNT = click.IntRange(min=1)
SEED = click.IntRange(min=0)


@click.group()
def main():
    """Analyze the coherence of quantum operations via their Choi states."""
    try:
        admission_atol()
    except QopcohError as exc:
        _fail(exc)


def _fail(exc: Exception, code: int = 2):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


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
        if op.kind == "unitary":
            return channel.QuantumOperation.from_kraus([op.unitary])
        return channel.QuantumOperation.from_kraus(channel.kraus_from_choi(op.choi))
    if target == "unitary":
        return channel.QuantumOperation.from_unitary(channel.unitary_from_choi(op.choi))
    raise ParseError(f"unknown target kind {target!r}")


@main.command()
@click.argument("in_file", type=click.Path())
@click.option("--to", "target", required=True, type=click.Choice(["unitary", "kraus", "choi"]))
@click.option("--out", type=click.Path(), default=None, help="Output file (default: stdout).")
def convert(in_file, target, out):
    """Convert an operation document between representations."""
    try:
        op = _load_operation(in_file)
        converted = _convert(op, target)
        _emit(operation_to_document(converted), out)
    except QopcohError as exc:
        _fail(exc)


@main.command()
@click.argument("in_file", type=click.Path())
@click.option("--predicate", required=True, type=click.Choice(["cptp", "incoherent"]))
@click.option("--timing", is_flag=True, default=False)
def check(in_file, predicate, timing):
    """Test a predicate; exit 0 when it holds, 1 when it does not."""
    started = time.perf_counter()
    try:
        op = _load_operation(in_file)
        if predicate == "cptp":
            rep = channel.is_cptp(op.choi)
            verdicts = {"cptp": rep.ok}
            residuals = {
                "min_eigenvalue": rep.min_eigenvalue,
                "marginal_residual": rep.marginal_residual,
            }
            ok = rep.ok
        else:
            rep = channel.is_incoherent_operation(op.choi)
            verdicts = {"incoherent": rep.ok}
            residuals = {"max_offdiagonal": rep.max_offdiagonal}
            ok = rep.ok
        doc = report_document(
            "check",
            {"input": in_file, "predicate": predicate},
            verdicts=verdicts,
            residuals=residuals,
            wall_time_ms=(time.perf_counter() - started) * 1e3 if timing else None,
        )
        _emit(doc, None)
        sys.exit(0 if ok else 1)
    except QopcohError as exc:
        _fail(exc)


@main.command()
@click.argument("in_file", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Output file (default: stdout).")
def dephase(in_file, out):
    """Apply the phase-out superoperation to an operation document."""
    try:
        op = _load_operation(in_file)
        dephased = superop.apply(superop.phase_out(op.dim), op)
        _emit(operation_to_document(dephased, metadata={"source": in_file, "dephased": "true"}), out)
    except QopcohError as exc:
        _fail(exc)


@main.command()
@click.argument("in_file", type=click.Path())
@click.option("--timing", is_flag=True, default=False)
def classify(in_file, timing):
    """Classify a superoperation document against MISO / MISO* / DISO."""
    started = time.perf_counter()
    try:
        s = superoperation_from_document(load_document(in_file))
        rep = superop.classify(s)
        doc = report_document(
            "classify",
            {"input": in_file},
            verdicts={
                "in_miso": rep.in_miso,
                "in_miso_star": rep.in_miso_star,
                "in_diso": rep.in_diso,
            },
            residuals={
                "miso_residual": rep.miso_residual,
                "miso_star_residual": rep.miso_star_residual,
                "diso_residual": rep.diso_residual,
            },
            wall_time_ms=(time.perf_counter() - started) * 1e3 if timing else None,
        )
        _emit(doc, None)
    except QopcohError as exc:
        _fail(exc)


@main.command()
@click.argument("in_file", type=click.Path())
@click.option(
    "--method",
    default="auto",
    type=click.Choice(["auto", "pure", "qubit-closed-form", "convex-roof"]),
)
@click.option("--restarts", type=COUNT, default=32, show_default=True)
@click.option("--max-iter", type=click.IntRange(min=0), default=2000, show_default=True)
@click.option("--seed", type=SEED, default=None, help="Required when the convex roof runs.")
@click.option("--timing", is_flag=True, default=False)
def measure(in_file, method, restarts, max_iter, seed, timing):
    """Evaluate the fidelity coherence measure of an operation document."""
    started = time.perf_counter()
    try:
        op = _load_operation(in_file)
        result = coherence.measure_coherence(op, method=method, restarts=restarts, max_iter=max_iter, seed=seed)
        if result.witness_index is not None:
            i, a = result.witness_index
            witness = {"basis_input": int(i), "basis_output": int(a), "linear_index": int(i * op.dim + a)}
        else:
            ens = result.ensemble
            witness = {
                "ensemble_weights": [format_value(w) for w in ens.weights],
                "members": len(ens.members),
                "reconstruction_residual": channel.max_abs(ens.reconstruction() - op.choi.matrix),
            }
        doc = report_document(
            "measure",
            {"input": in_file, "method": method, "restarts": restarts, "max_iter": max_iter},
            values={"measure": format_value(result.value), "kind": result.kind},
            witness=witness,
            seed=seed,
            wall_time_ms=(time.perf_counter() - started) * 1e3 if timing else None,
        )
        _emit(doc, None)
    except QopcohError as exc:
        _fail(exc)


@main.command()
@click.option("--suite", required=True, type=click.Choice(list(SUITE_NAMES)))
@click.option("--samples", type=COUNT, default=200, show_default=True)
@click.option("--seed", type=SEED, required=True)
@click.option("--timing", is_flag=True, default=False)
def verify(suite, samples, seed, timing):
    """Run a named verification suite; exit 0 only if every check passes."""
    started = time.perf_counter()
    try:
        checks = run_suite(suite, samples, seed)
        ok = all(c["pass"] for c in checks)
        doc = report_document(
            "verify",
            {"suite": suite, "samples": samples},
            verdicts={"suite_passed": ok},
            checks=checks,
            seed=seed,
            wall_time_ms=(time.perf_counter() - started) * 1e3 if timing else None,
        )
        _emit(doc, None)
        sys.exit(0 if ok else 1)
    except QopcohError as exc:
        _fail(exc)


@main.command("random")
@click.option("--kind", required=True, type=click.Choice(["unitary", "cptp", "incoherent-cptp", "superop"]))
@click.option("--d", "dim", default=2, show_default=True)
@click.option("--env-dim", default=2, show_default=True, help="Environment size for CPTP sampling.")
@click.option("--seed", type=SEED, required=True)
@click.option("--out", type=click.Path(), default=None, help="Output file (default: stdout).")
def random_cmd(kind, dim, env_dim, seed, out):
    """Generate a random operation or superoperation document."""
    try:
        meta = {"generator": kind, "seed": str(seed)}
        if kind == "superop":
            s = superop.random_sandwich(dim, seed)
            _emit(superoperation_to_document(s, metadata=meta), out)
            return
        if kind == "unitary":
            op = channel.random_unitary(dim, seed)
        elif kind == "cptp":
            op = channel.random_cptp(dim, env_dim, seed)
        else:
            op = channel.random_incoherent_cptp(dim, seed)
        _emit(operation_to_document(op, metadata=meta), out)
    except QopcohError as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
