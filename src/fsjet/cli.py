"""Command-line front end: compute, verify, transform, gallery.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors,
an unreadable spec or matrix file, or a result that cannot be written.
Complex numbers are written "a+bi" on the command line and printed with
17 significant digits.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import sys

import click
import numpy as np

from . import specfile
from .fekete import fs_mapping, fs_scalar, normalize_direction
from .gallery import GALLERY_NAMES, example_gallery
from .jets import MappingJet, invert, iterate, unitary_conjugate
from .semigroup import semigroup_jet
from .specfile import SpecFileError
from .transforms import detect_onedim, root_transform
from .verify import SUITE_NAMES, SuiteArgumentError, run_suite

def parse_complex(text: str) -> complex:
    """Parse a complex number in Python's ``complex()`` grammar with ``i``
    in place of ``j``: "2", "-i", "0.5i", "1-2e-3i", "(1+2i)", surrounding
    whitespace allowed.  A ``j``, a non-finite value or any other text
    raises ValueError."""
    try:
        if "j" in text.lower():
            raise ValueError
        z = complex(text.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"complex number {text!r} is not finite")
    return z


def format_real(x: float) -> str:
    return f"{x:.17g}"


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def format_vector(v: np.ndarray) -> str:
    return ",".join(format_complex(z) for z in v)


class ComplexParam(click.ParamType):
    name = "complex"

    def convert(self, value, param, ctx):
        try:
            return parse_complex(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


COMPLEX = ComplexParam()


# what reading a spec or matrix file, or writing a result, may raise
_FILE_ERRORS = (OSError, UnicodeDecodeError, SpecFileError)


def _load_spec(path: str) -> MappingJet:
    try:
        return specfile.load(path)
    except _FILE_ERRORS as exc:
        raise click.UsageError(f"cannot read spec {path}: {exc}")


def _emit(jet: MappingJet, output: str | None) -> None:
    """Write the spec of JET to OUTPUT, or to stdout; nothing is written if
    it cannot be serialized."""
    try:
        if output:
            specfile.save(jet, output)
        else:
            click.echo(specfile.dumps(jet), nl=False)
    except _FILE_ERRORS as exc:
        raise click.UsageError(f"cannot write the result: {exc}")


def _parse_direction(text: str, dim: int) -> np.ndarray:
    """The direction as given, once it is known to be a unit vector within
    ``E_NORM_TOL``: the evaluator or transform it goes to normalizes it,
    so it is normalized once."""
    try:
        e = np.array([parse_complex(p) for p in text.split(",")])
        if e.shape != (dim,):
            raise ValueError(
                f"direction has {e.size} components, the mapping has dimension {dim}"
            )
        normalize_direction(e)  # raises unless e is a unit vector
        return e
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _op_arg(arg: str | None, kind, usage: str):
    """The argument of an --op converted by KIND; exit 2 with USAGE if it fails."""
    try:
        return kind(arg)
    except (TypeError, ValueError):
        raise click.UsageError(usage) from None


@click.group()
def main():
    """Jet algebra and verification for Fekete-Szego type mappings."""


@main.command()
@click.argument("spec_path", type=click.Path())
@click.option("-e", "--direction", required=True, help="unit direction, comma-separated complex components")
@click.option("--lam", "--lambda", "lam", type=COMPLEX, default="0", show_default=True)
@click.option("--mu", type=COMPLEX, default="0", show_default=True)
@click.option("--variant", type=click.IntRange(1, 4), default=None,
              help="also print the scalar variant psi^(v)")
def compute(spec_path, direction, lam, mu, variant):
    """Evaluate the Fekete-Szego mapping of the jet in SPEC_PATH."""
    jet = _load_spec(spec_path)
    e = _parse_direction(direction, jet.dim)
    psi = fs_mapping(jet, e, lam, mu)
    click.echo(f"psi_vector={format_vector(psi)}")
    click.echo(f"psi_projection={format_complex(np.vdot(normalize_direction(e), psi))}")
    if variant is not None:
        val = fs_scalar(jet, e, lam, variant)
        click.echo(f"psi_variant_{variant}={format_complex(val)}")


@main.command()
@click.argument("suite", type=click.Choice(SUITE_NAMES))
@click.option("--trials", type=click.IntRange(min=0), default=None,
              help="trials per suite (default: suite-specific)")
@click.option("--seed", type=int, default=None, envvar="FSJET_SEED", show_default="0 or $FSJET_SEED")
@click.option("--tol", type=float, default=None, help="override the pass tolerance")
@click.option("--dims", default=None, help="comma-separated dimensions, e.g. 2,3")
@click.option("--json", "as_json", is_flag=True, help="emit one JSON document instead of key=value lines")
def verify(suite, trials, seed, tol, dims, as_json):
    """Run a named verification suite; nonzero exit on failure."""
    seed = 0 if seed is None else seed
    dim_list = None
    if dims:
        try:
            dim_list = [int(d) for d in dims.split(",")]
        except ValueError:
            raise click.UsageError(f"cannot parse dimension list {dims!r}")
    try:
        reports = run_suite(suite, trials=trials, seed=seed, tol=tol, dims=dim_list)
    except SuiteArgumentError as exc:
        raise click.UsageError(str(exc))
    if as_json:
        click.echo(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for r in reports:
            click.echo(
                f"suite={r.suite} trials={r.trials} seed={r.seed} "
                f"tolerance={format_real(r.tolerance)} "
                f"max_residual={format_real(r.max_residual)} "
                f"pass={'true' if r.passed else 'false'}"
            )
    if not all(r.passed for r in reports):
        sys.exit(1)


_OP_RE = re.compile(r"^(?P<name>[a-z]+)(?::(?P<arg>.+))?$")


@main.command()
@click.argument("spec_path", type=click.Path())
@click.option("--op", required=True,
              help="root:N (jet of the form s(x) x) | invert | iterate:M | "
                   "conjugate:MATRIX_PATH | semigroup:T")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="write the transformed spec here instead of stdout")
@click.option("-e", "--direction", default=None,
              help="unit direction for the root transform")
def transform(spec_path, op, output, direction):
    """Apply a jet transform and emit the resulting mapping spec."""
    jet = _load_spec(spec_path)
    m = _OP_RE.match(op.strip())
    if not m:
        raise click.UsageError(f"cannot parse operation {op!r}")
    name, arg = m.group("name"), m.group("arg")
    try:
        if name == "invert":
            result = invert(jet)
        elif name == "iterate":
            count = _op_arg(arg, int, "iterate needs an integer count, e.g. iterate:2")
            result = iterate(jet, count)
        elif name == "root":
            n = _op_arg(arg, int, "root needs an integer order, e.g. root:2")
            onedim = detect_onedim(jet)
            if onedim is None:
                raise click.UsageError("root transform needs a jet of the form s(x) x")
            if direction is None:
                e = np.zeros(jet.dim, dtype=complex)
                e[0] = 1.0
            else:
                e = _parse_direction(direction, jet.dim)
            result = root_transform(onedim, n, e)
        elif name == "conjugate":
            if not arg:
                raise click.UsageError("conjugate needs a matrix file, e.g. conjugate:U.json")
            try:
                U = specfile.load_matrix(arg, jet.dim)
            except _FILE_ERRORS as exc:
                raise click.UsageError(f"cannot read unitary matrix from {arg}: {exc}")
            result = unitary_conjugate(jet, U)
        elif name == "semigroup":
            t = _op_arg(arg, float, "semigroup needs a time, e.g. semigroup:0.5")
            # emitted as the normalized bracket; u_t = exp(-t) * bracket
            result = semigroup_jet(jet, t).bracket
            click.echo(f"# semigroup scale factor exp(-t)={format_real(math.exp(-t))}", err=True)
        else:
            raise click.UsageError(
                f"unknown operation {name!r}; expected root, invert, iterate, conjugate or semigroup"
            )
    except ValueError as exc:  # the transform rejects its arguments
        raise click.UsageError(str(exc))
    _emit(result, output)


@main.command()
@click.argument("name", type=click.Choice(GALLERY_NAMES))
@click.option("-o", "--output", type=click.Path(), default=None)
def gallery(name, output):
    """Emit the spec file of a named example mapping."""
    entry = example_gallery(name)
    click.echo(f"# {entry.description}", err=True)
    _emit(entry.jet, output)


if __name__ == "__main__":
    main()
