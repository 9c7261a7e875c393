"""dnc-lab command line.

Subcommands:

* ``run``      — full convergence study from a JSON config; writes the
                 report and audit table.
* ``check``    — condition verdicts and certified constants only (no
                 sampling).
* ``bounds``   — the x-independent bound profile per depth (CSV).
* ``rates``    — fitted empirical convergence rate.
* ``selftest`` — re-verify the shipped corpus (and that the diverging
                 controls fail the conditions) at reduced depth.

Exit codes: 0 success; 1 invalid configuration or usage, a network the
kernel refuses (an operator norm out of double range), an array too large
to allocate, or an output file that cannot be written; 2 a verified
inequality was violated or (with ``--require-pass``) a convergence
condition did not hold.
"""

from __future__ import annotations

import atexit
import functools
import gc
import os

import click

from . import __version__
from .analysis import (
    BoundContext,
    SamplerSpec,
    _apriori_bounds,
    derive_limit_constants,
    limit_bound_ctx,
    network_verdicts,
)
from .config import Experiment, load_config
from .corpus import control_instances, corpus_instances
from .report import (
    format_float,
    render_report,
    render_table,
    report_payload,
    timestamp,
    verdict_fields,
)
from .study import DepthPlan, convergence_study

__all__ = ["main"]


def _refusal_exits_1(command):
    """Report an invalid configuration (a ``ConfigError``), a ValueError
    raised while evaluating the configured network (an operator norm out of
    double range, say), an array too large to allocate (a MemoryError, from
    a sample count or a width far past the machine) or an output file that
    cannot be written (an OSError) as ``Error: ...`` with exit code 1.  An
    exception without text is named by its kind, and a MemoryError says
    which inputs to reduce."""

    @functools.wraps(command)
    def wrapped(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (OSError, ValueError, MemoryError) as exc:
            message = str(exc) or type(exc).__name__
            if isinstance(exc, MemoryError):
                message += "; reduce the depths, the widths or the sample count"
            raise click.ClickException(message) from exc

    return wrapped


def _study(exp: Experiment):
    return convergence_study(
        exp.seq,
        exp.act,
        exp.p,
        exp.domain,
        exp.sampler,
        exp.depths,
        extension=exp.extension,
        label=exp.label,
    )


def _write_text(path: str, text: str) -> None:
    # newline="" so CSV keeps its CRLF endings untouched on every platform
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


_config_opt = click.option(
    "--config",
    "config_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="JSON experiment configuration.",
)
_out_opt = click.option(
    "--out",
    "out_dir",
    default=".",
    show_default=True,
    type=click.Path(file_okay=False),
    help="Directory for output files.",
)
_threads_opt = click.option(
    "--threads", default=1, show_default=True, help="No effect (one batch, one thread)."
)
_require_pass_opt = click.option(
    "--require-pass",
    is_flag=True,
    help="Exit 2 unless the convergence condition holds.",
)


@click.group()
@click.version_option(__version__, prog_name="dnc-lab")
def main():
    """Numerical laboratory for deep-network layer recursions."""
    # At interpreter exit, move every tracked object to the permanent
    # generation: the final collections then skip the module graph that
    # numpy and dnclab built, and the OS reclaims its memory.  Every output
    # file is closed before then, and a caller that keeps running (a test's
    # CliRunner) freezes nothing until its own exit; unregistering first
    # keeps one hook per process however often the group runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)


@main.command()
@_config_opt
@_out_opt
@_threads_opt
@_require_pass_opt
@click.pass_context
@_refusal_exits_1
def run(ctx, config_path, out_dir, threads, require_pass):
    """Run the full study: sampled deviations against every bound."""
    exp = load_config(config_path)
    result = _study(exp)
    payload = report_payload(result, exp.echo)
    payload["generated_at"] = timestamp()
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, exp.report_name)
    table_path = os.path.join(out_dir, exp.table_name)
    _write_text(report_path, render_report(payload))
    _write_text(table_path, render_table(result))
    click.echo(result.summary())
    click.echo(f"report: {report_path}")
    click.echo(f"table: {table_path}")
    if not result.bounds_ok:
        click.echo("\n".join(result.violation_lines()))
        ctx.exit(2)
    if require_pass and not result.passed:
        click.echo("convergence condition failed (--require-pass)")
        ctx.exit(2)


@main.command()
@_config_opt
@click.option(
    "--out",
    "out_dir",
    default=None,
    type=click.Path(file_okay=False),
    help="Optionally write verdicts.json here.",
)
@_require_pass_opt
@click.pass_context
@_refusal_exits_1
def check(ctx, config_path, out_dir, require_pass):
    """Evaluate the convergence conditions without drawing samples."""
    exp = load_config(config_path)
    bctx = BoundContext(exp.seq, exp.act, exp.p, exp.extension)
    condition, mask_verdicts, constants, note = network_verdicts(
        bctx, exp.domain.norm_bound(exp.p)
    )
    click.echo(
        f"weight-norm condition: estimate={condition.estimate:.9g} "
        f"passed={condition.passed} ({condition.method})"
    )
    for name, v in (mask_verdicts or {}).items():
        click.echo(
            f"mask {name}: estimate={v.estimate:.9g} passed={v.passed} ({v.method})"
        )
    if constants is None:
        click.echo(f"limit constants: unavailable ({note})")
    else:
        click.echo(
            f"limit constants: omega0={constants.omega0:.9g} "
            f"w={constants.weight_sup:.9g} rho={constants.rho:.9g}"
        )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        payload = {
            "schema": "dnc-lab/verdicts/v1",
            "label": exp.label,
            **verdict_fields(condition, mask_verdicts, constants, note),
            "generated_at": timestamp(),
        }
        path = os.path.join(out_dir, "verdicts.json")
        _write_text(path, render_report(payload))
        click.echo(f"verdicts: {path}")
    if require_pass and not condition.passed:
        ctx.exit(2)


@main.command()
@_config_opt
@_out_opt
@click.pass_context
@_refusal_exits_1
def bounds(ctx, config_path, out_dir):
    """Tabulate the x-independent bounds per depth (no samples drawn).

    Columns: depth, the Lipschitz product bound (L*P)^n * prod |W_j|, the
    a-priori state-norm bound at the domain's norm bound, and the limit
    bound when certified constants exist (empty otherwise).
    """
    exp = load_config(config_path)
    bctx = BoundContext(exp.seq, exp.act, exp.p, exp.extension)
    xb = exp.domain.norm_bound(exp.p)
    constants, note = derive_limit_constants(bctx, xb)
    depths = sorted({*exp.depths.n_list, exp.depths.reference})
    lines = ["n,lipschitz_bound,apriori_bound,limit_bound"]
    # (L*P)^n * prod_{j<=n} |W_j| at every depth, as one running product
    # over the finite weight matrices' norms, each taken once
    factor = bctx.L * bctx.P
    lips = [1.0]
    for w in bctx.finite_weight_norms(1, depths[-1]):
        lips.append(lips[-1] * (factor * w))
    if constants is not None:
        # the limit column reads the drifts E_2 .. E_N: one batch, not
        # one lazy miss per depth
        bctx.prefetch(("E", k) for k in range(2, depths[-1] + 1))
    for n, apri in zip(depths, _apriori_bounds(bctx, depths, xb)):
        lip = lips[n]
        lim = None if constants is None else limit_bound_ctx(bctx, n, constants)
        lines.append(
            f"{n},{format_float(lip)},{format_float(apri)},{format_float(lim)}"
        )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "bounds.csv")
    _write_text(path, "\r\n".join(lines) + "\r\n")
    click.echo(f"bounds: {path}")
    if constants is None:
        click.echo(f"limit bound column empty: {note}")


@main.command()
@_config_opt
@_out_opt
@_threads_opt
@click.pass_context
@_refusal_exits_1
def rates(ctx, config_path, out_dir, threads):
    """Fit the empirical convergence rate of deviations to the reference."""
    exp = load_config(config_path)
    result = _study(exp)
    if result.rate is None:
        click.echo(f"rate fit unavailable: {result.rate_note}")
    else:
        click.echo(
            f"rate={result.rate.rate:.6g} amplitude={result.rate.amplitude:.6g} "
            f"R^2={result.rate.r_squared:.6f} "
            f"(n_used={result.rate.n_used}, excluded={result.rate.n_excluded})"
        )
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "schema": "dnc-lab/rates/v1",
        "label": exp.label,
        "rate": None if result.rate is None else result.rate.as_dict(),
        "rate_note": result.rate_note,
        "dev_to_reference": [
            {"n": r.n, "dev": r.dev_to_ref}
            for r in result.state_rows
            if r.dev_to_ref is not None
        ],
        "generated_at": timestamp(),
    }
    path = os.path.join(out_dir, "rates.json")
    _write_text(path, render_report(payload))
    click.echo(f"rates: {path}")
    if not result.bounds_ok:
        click.echo("bound violations detected during the rate study")
        ctx.exit(2)


@main.command()
@_threads_opt
@click.option("--samples", default=20, show_default=True, help="Inputs per instance.")
@click.pass_context
@_refusal_exits_1
def selftest(ctx, threads, samples):
    """Re-verify the shipped corpus at reduced depth.

    Every corpus instance must satisfy all bounds and its convergence
    condition; every diverging control must fail the condition while still
    satisfying the bounds.
    """
    if samples < 1:
        raise click.ClickException(f"--samples must be >= 1, got {samples}")
    plan = DepthPlan(n_list=(1, 2, 3, 4, 6, 8), m_list=(1, 2, 4), reference_depth=16)
    # (instance, whether its convergence condition must hold)
    cases = [(inst, True) for inst in corpus_instances()]
    cases += [(inst, False) for inst in control_instances()]
    failures: list[str] = []
    for inst, converges in cases:
        result = convergence_study(
            inst.build(),
            inst.activation(),
            inst.p,
            inst.domain(),
            SamplerSpec(count=samples, seed=inst.gen.seed + 7),
            plan,
            extension=inst.extension,
            label=inst.label,
        )
        ok = result.bounds_ok and result.condition.passed == converges
        note = "" if converges else " (diverging control: condition must fail)"
        click.echo(f"[{'ok' if ok else 'FAIL'}] {result.summary()}{note}")
        if not ok:
            failures.append(inst.label)
    click.echo(f"selftest: {len(cases) - len(failures)}/{len(cases)} instances ok")
    if failures:
        click.echo("failing: " + ", ".join(failures))
        ctx.exit(2)
