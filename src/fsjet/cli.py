"""Command-line front end: compute, verify, transform, gallery.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.
Complex numbers are written "a+bi" on the command line and printed with
17 significant digits.
"""

from __future__ import annotations

import json
import math
import re
import sys

import click
import numpy as np

from . import specfile
from .fekete import FSContext, fs_mapping, fs_scalar, normalize_direction
from .gallery import GALLERY_NAMES, example_gallery
from .jets import invert, iterate, unitary_conjugate
from .semigroup import semigroup_jet
from .specfile import MappingSpec, SpecFileError
from .transforms import root_transform
from .verify import SUITE_NAMES, SuiteArgumentError, run_suite

def parse_complex(text: str) -> complex:
    """Parse "a+bi" with optional parts ("2", "-i", "0.5i", "1-2e-3i")."""
    t = text.strip()
    if not t:
        raise ValueError("empty complex literal")
    try:
        if not t.endswith("i"):
            return complex(float(t), 0.0)
        body = t[:-1]
        # split at the last sign that is not an exponent sign; everything
        # before it is the real part
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                re_part = float(body[:pos])
                im_text = body[pos:]
                if im_text == "+":
                    return complex(re_part, 1.0)
                if im_text == "-":
                    return complex(re_part, -1.0)
                return complex(re_part, float(im_text))
        if body in ("", "+"):
            return 1.0j
        if body == "-":
            return -1.0j
        return complex(0.0, float(body))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


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


def _load_spec(path: str) -> MappingSpec:
    try:
        return specfile.load(path)
    except FileNotFoundError:
        raise click.UsageError(f"spec file not found: {path}")
    except SpecFileError as exc:
        raise click.UsageError(f"{path}: {exc}")


def _parse_direction(text: str, dim: int) -> np.ndarray:
    try:
        parts = [parse_complex(p) for p in text.split(",")]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    e = np.array(parts, dtype=complex)
    if e.shape != (dim,):
        raise click.UsageError(
            f"direction has {e.size} components, the mapping has dimension {dim}"
        )
    try:
        return normalize_direction(e)
    except ValueError as exc:
        raise click.UsageError(str(exc))


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
    spec = _load_spec(spec_path)
    e = _parse_direction(direction, spec.jet.dim)
    value = fs_mapping(spec.jet, FSContext(e, lam, mu))
    click.echo(f"psi_vector={format_vector(value.vector)}")
    click.echo(f"psi_projection={format_complex(value.scalar_projection)}")
    if variant is not None:
        val = fs_scalar(spec.jet, e, lam, variant)
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
              help="root:N | invert | iterate:M | conjugate:MATRIX_PATH | semigroup:T")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="write the transformed spec here instead of stdout")
@click.option("-e", "--direction", default=None,
              help="unit direction for the root transform")
def transform(spec_path, op, output, direction):
    """Apply a jet transform and emit the resulting mapping spec."""
    spec = _load_spec(spec_path)
    m = _OP_RE.match(op.strip())
    if not m:
        raise click.UsageError(f"cannot parse operation {op!r}")
    name, arg = m.group("name"), m.group("arg")
    if name == "invert":
        result = MappingSpec(jet=invert(spec.jet))
    elif name == "iterate":
        try:
            count = int(arg)
        except (TypeError, ValueError):
            raise click.UsageError("iterate needs an integer count, e.g. iterate:2")
        result = MappingSpec(jet=iterate(spec.jet, count))
    elif name == "root":
        try:
            n = int(arg)
        except (TypeError, ValueError):
            raise click.UsageError("root needs an integer order, e.g. root:2")
        if spec.onedim is None:
            raise click.UsageError(
                "root transform needs a spec with a onedim block"
            )
        if direction is None:
            e = np.zeros(spec.jet.dim, dtype=complex)
            e[0] = 1.0
        else:
            e = _parse_direction(direction, spec.jet.dim)
        try:
            result = MappingSpec(jet=root_transform(spec.onedim, n, e))
        except ValueError as exc:
            raise click.UsageError(str(exc))
    elif name == "conjugate":
        if not arg:
            raise click.UsageError("conjugate needs a matrix file, e.g. conjugate:U.json")
        try:
            rows = json.loads(open(arg).read())
            U = np.array(
                [[complex(c[0], c[1]) for c in row] for row in rows], dtype=complex
            )
        except (OSError, ValueError, TypeError, IndexError) as exc:
            raise click.UsageError(f"cannot read unitary matrix from {arg}: {exc}")
        try:
            result = MappingSpec(jet=unitary_conjugate(spec.jet, U))
        except ValueError as exc:
            raise click.UsageError(str(exc))
    elif name == "semigroup":
        try:
            t = float(arg)
        except (TypeError, ValueError):
            raise click.UsageError("semigroup needs a time, e.g. semigroup:0.5")
        try:
            flow = semigroup_jet(spec.jet, t)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        # emitted as the normalized bracket; u_t = exp(-t) * bracket
        click.echo(f"# semigroup scale factor exp(-t)={format_real(math.exp(-t))}", err=True)
        result = MappingSpec(jet=flow.bracket)
    else:
        raise click.UsageError(
            f"unknown operation {name!r}; expected root, invert, iterate, conjugate or semigroup"
        )
    text = specfile.dumps(result)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("name", type=click.Choice(GALLERY_NAMES))
@click.option("-o", "--output", type=click.Path(), default=None)
def gallery(name, output):
    """Emit the spec file of a named example mapping."""
    entry = example_gallery(name)
    text = specfile.dumps(MappingSpec(jet=entry.jet, onedim=entry.onedim))
    click.echo(f"# {entry.description}", err=True)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
