"""Command-line interface over files.

Subcommands
-----------
compute   one statistic from a paired-sample CSV
test      permutation independence test from a paired-sample CSV
oracle    exact measures (and Mercer decompositions) of a joint-law JSON
scenario  power/level study or the norm-distribution check
validate  Schoenberg negative-type check of a distance-matrix CSV

Exit codes: 0 success; 1 a validate run whose matrix is not of negative
type; 2 malformed input or usage, or a result that is not finite.  Primary
output is a deterministic JSON document (or an appended CSV row for
scenario --format csv): identical configuration and seed give
byte-identical output.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import asdict

import click
import numpy as np

from . import estimators, io, oracle, scenarios
from .kernels import (
    InputError,
    parse_kernel,
    parse_semimetric,
    resolve_bandwidth,
    validate_negative_type,
)

_ESTIMATOR_CHOICE = click.Choice(sorted(name.replace("_", "-") for name in estimators.ESTIMATORS))


def _fail(message, code=2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _emit(doc, output):
    try:
        text = io.render_json(doc)
    except InputError as err:
        _fail(err)
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w") as handle:
            handle.write(text)


def _parse_specs(kernel_spec, metric_spec):
    """The kernel and semimetric of --kernel/--metric, each None when not given."""
    return (
        parse_kernel(kernel_spec) if kernel_spec else None,
        parse_semimetric(metric_spec) if metric_spec else None,
    )


def _resolve_specs(estimator, kernel_spec, metric_spec, anchor_spec):
    """Parse --kernel/--metric and resolve them, with --anchor, for the
    estimator; returns (kernel, metric, label) with label the spec that runs."""
    kernel, metric = estimators.resolve_specs(
        estimator, *_parse_specs(kernel_spec, metric_spec), anchor_spec
    )
    return kernel, metric, (metric if kernel is None else kernel).spec


def _load_sample(path):
    try:
        return io.read_paired_sample(path)
    except (OSError, InputError) as err:
        _fail(err)


@click.group()
@click.version_option(package_name="metricdep")
def main():
    """Dependence measures on (semi)metric spaces of negative type.

    Kernel specs: linear | gaussian[:sigma=S] | matern:nu=N[,ell=L] |
    induced_kernel:base=METRIC[,anchor=origin|(v1;v2;...)].
    Metric specs: euclid2 | induced_metric:base=(KERNEL).
    A gaussian without sigma uses the median heuristic on the pooled sample.
    """
    # no floating-point warnings: io.render_json refuses a non-finite result
    click.get_current_context().with_resource(np.errstate(all="ignore"))


_estimator_option = click.option(
    "--estimator",
    type=_ESTIMATOR_CHOICE,
    required=True,
    help="Which statistic to compute.",
)
_kernel_option = click.option("--kernel", default=None, help="Kernel spec string.")
_metric_option = click.option("--metric", default=None, help="Semimetric spec string.")
_anchor_option = click.option(
    "--anchor", default=None, help="Anchor for induced kernels: origin or (v1;v2;...)."
)
_output_option = click.option("--output", default=None, type=click.Path(), help="Write the document here instead of stdout.")


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(), help="Paired-sample CSV (header x_1..x_p,y_1..y_q).")
@_estimator_option
@_kernel_option
@_metric_option
@_anchor_option
@_output_option
def compute(input_path, estimator, kernel, metric, anchor, output):
    """Compute one dependence statistic from a paired-sample CSV."""
    x, y = _load_sample(input_path)
    name = estimator.replace("-", "_")
    # looked up at call time, so a patched module attribute is the one called
    statistic = {
        "mcov": estimators.mcov_plugin,
        "mcov_trace": estimators.mcov_trace,
        "hsic": estimators.hsic_vstat,
        "dcov": estimators.dcov_vstat,
    }[name]
    try:
        kernel, metric, label = _resolve_specs(name, kernel, metric, anchor)
        value = statistic(x, y, metric if kernel is None else kernel)
    except InputError as err:
        _fail(err)
    doc = {
        "estimator": estimator,
        "kernel_or_metric": label,
        "n": int(x.shape[0]),
        "statistic": float(value),
    }
    _emit(doc, output)


@main.command("test")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Paired-sample CSV (header x_1..x_p,y_1..y_q).")
@_estimator_option
@_kernel_option
@_metric_option
@_anchor_option
@click.option("--B", "b", default=999, show_default=True, help="Number of permutations.")
@click.option("--seed", default=0, show_default=True, help="Master seed for the permutation streams.")
@click.option(
    "--alternative",
    type=click.Choice(["two-sided", "greater"]),
    default=None,
    help="Default: two-sided for mcov/mcov-trace, greater for hsic/dcov.",
)
@_output_option
def test_command(input_path, estimator, kernel, metric, anchor, b, seed, alternative, output):
    """Permutation independence test from a paired-sample CSV."""
    x, y = _load_sample(input_path)
    name = estimator.replace("-", "_")
    try:
        kernel, metric, label = _resolve_specs(name, kernel, metric, anchor)
        result = estimators.permutation_test(
            x,
            y,
            name,
            metric=metric,
            kernel=kernel,
            B=b,
            seed=seed,
            alternative=alternative.replace("-", "_") if alternative else None,
        )
    except InputError as err:
        _fail(err)
    _emit({**result.to_dict(), "estimator": estimator, "kernel_or_metric": label}, output)


@main.command("oracle")
@click.option("--input", "input_path", required=True, type=click.Path(), help='Joint law JSON {"support_x", "support_y", "P"}.')
@_kernel_option
@_metric_option
@_anchor_option
@click.option("--decompose", is_flag=True, help="Include Mercer decompositions (same-space joints).")
@_output_option
def oracle_command(input_path, kernel, metric, anchor, decompose, output):
    """Exact dependence measures of a finite-support joint law.

    Emits mcov (when the supports share a space), hsic and dcov.  With
    --decompose, adds the per-eigenfunction terms of both Mercer sums; over
    each eigenspace the single sum's terms show whether metric covariance
    loses dependence to cancellation.
    """
    try:
        joint = io.read_discrete_joint(input_path)
    except (OSError, InputError) as err:
        _fail(err)
    same_space = joint.support_x.shape[1] == joint.support_y.shape[1]
    try:
        # the kernel hsic runs on, and the given metric or its induced one
        kernel, metric = _parse_specs(kernel, metric)
        kernel, _ = estimators.resolve_specs("hsic", kernel, metric, anchor)
        _, metric = estimators.resolve_specs("dcov", kernel, metric)
        pool = (
            (joint.support_x, joint.support_y) if same_space else (joint.support_x,)
        )
        kernel = resolve_bandwidth(kernel, *pool)
        metric = resolve_bandwidth(metric, *pool)

        doc = {
            "kernel": kernel.spec,
            "metric": metric.spec,
            "hsic": oracle.exact_hsic(joint, kernel),
            "dcov": oracle.exact_dcov(joint, metric),
        }
        if same_space:
            doc["mcov"] = oracle.exact_mcov(joint, metric)
        if decompose:
            if not same_space:
                raise InputError("Mercer decompositions need supports in a common space")
            mdec = asdict(oracle.mercer_mcov_decomposition(joint, kernel))
            hdec = asdict(oracle.mercer_hsic_decomposition(joint, kernel))
            del mdec["system"], hdec["system"], hdec["covariances"]
            doc["mcov_decomposition"], doc["hsic_decomposition"] = mdec, hdec
    except InputError as err:
        _fail(err)
    _emit(doc, output)


@main.command("scenario")
@click.option("--config", "config_path", default=None, type=click.Path(), help="JSON or TOML file whose keys override the flags.")
@click.option("--scenario", default=None, type=click.Choice(sorted(scenarios.SCENARIOS)))
@click.option("--study", type=click.Choice(["power", "norms"]), default="power", show_default=True)
@click.option("--estimator", type=_ESTIMATOR_CHOICE, default="hsic", show_default=True)
@_kernel_option
@_metric_option
@click.option("--n", default=200, show_default=True, help="Sample size per replication.")
@click.option("--sigma", default=0.5, show_default=True, help="Mixture noise scale (coupled_mixture).")
@click.option("--alpha", default=0.05, show_default=True, help="Test level.")
@click.option("--reps", default=200, show_default=True, help="Number of replications.")
@click.option("--B", "B", default=199, show_default=True, help="Permutations per test.")
@click.option("--seed", default=0, show_default=True, help="Master seed.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@_output_option
def scenario_command(config_path, fmt, output, **settings):
    """Run a Monte Carlo power/level study or the norm-distribution check."""
    if config_path is not None:
        try:
            _apply_config(config_path, settings)
        except (OSError, InputError) as err:
            _fail(err)
    if settings["scenario"] is None:
        _fail("a scenario name is required (flag --scenario or config key 'scenario')")
    try:
        if settings.pop("study") == "norms":
            result = scenarios.norm_distribution_check(settings["n"], settings["sigma"], settings["seed"])
            _emit(asdict(result), output)
            return
        kernel, metric = _parse_specs(settings.pop("kernel"), settings.pop("metric"))
        settings["estimator"] = settings["estimator"].replace("-", "_")
        report = scenarios.power_study(**settings, kernel=kernel, metric=metric)
    except InputError as err:
        _fail(err)
    if fmt == "json":
        _emit(report.to_dict(), output)
    else:
        _append_csv(report, output)


def _apply_config(path, settings):
    """Override ``settings`` with the config's values, each cast and checked
    by the type of the option whose destination is its key."""
    ctx = click.get_current_context()
    params = {param.name: param for param in ctx.command.params}
    for key, value in _read_config(path).items():
        if key not in settings:
            raise InputError(f"{path}: unknown key {key!r}; expected one of {sorted(settings)}")
        if value is None and params[key].default is not None:
            raise InputError(f"{path}: {key}: must not be null")
        # casting would read a bool as a number and truncate a float to an
        # integer, where the flags refuse "true" and "2.5"
        kind = params[key].type
        integer = isinstance(kind, click.types.IntParamType)
        number = integer or isinstance(kind, click.types.FloatParamType)
        if (isinstance(value, bool) and number) or (isinstance(value, float) and integer):
            raise InputError(f"{path}: {key}: {value!r} is not a valid {kind.name}")
        try:
            settings[key] = params[key].type_cast_value(ctx, value)
        except (click.BadParameter, TypeError) as err:
            raise InputError(f"{path}: {key}: {err}") from None


def _read_config(path):
    with open(path, "rb") as handle:
        raw = handle.read()
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise InputError(f"{path}: TOML configs need Python 3.11 or newer; use a JSON config") from None

        try:
            return tomllib.loads(raw.decode())
        except tomllib.TOMLDecodeError as err:
            raise InputError(f"{path}: {err}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: {err}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: config must be a JSON object")
    return doc


def _append_csv(report, output):
    """The report's document as a CSV row, under a header of its keys."""
    doc = report.to_dict()
    if output is None:
        click.echo(",".join(doc))
        click.echo(",".join(str(v) for v in doc.values()))
        return
    fresh = not os.path.exists(output) or os.path.getsize(output) == 0
    with open(output, "a", newline="") as handle:
        writer = csv.writer(handle)
        if fresh:
            writer.writerow(doc)
        writer.writerow(doc.values())


@main.command("validate")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Square distance-matrix CSV, no header.")
@click.option("--tol", default=1e-8, show_default=True, help="Relative eigenvalue tolerance.")
@_output_option
def validate_command(input_path, tol, output):
    """Check a distance matrix for negative type (Schoenberg condition).

    Exit 0 when valid, 1 when the matrix is not of negative type, 2 on
    malformed input.
    """
    try:
        matrix = io.read_square_matrix(input_path)
        report = validate_negative_type(matrix, tol=tol)
    except (OSError, InputError) as err:
        _fail(err)
    doc = {
        "n": int(matrix.shape[0]),
        "tol": tol,
        "valid": bool(report.valid),
        "worst_eigenvalue": report.worst_eigenvalue,
    }
    _emit(doc, output)
    if not report.valid:
        sys.exit(1)


if __name__ == "__main__":
    main()
