"""Command-line front end.

Subcommands: cohomology, spectrum, tomography, effects, transform,
admissibility.  Every report embeds the fully resolved configuration, and
identical configuration plus seed produces byte-identical output files.
The BLAS library's thread count (e.g. OPENBLAS_NUM_THREADS) is outside
this promise: it can move round-off-level report values, such as the
relative_error of `qps transform`, in the last digits.  Each command
imports only the layers it uses, so `qps cohomology` loads no numeric
layer and no scipy.

Exit codes: 0 success, 1 I/O or parse failure or a configuration too
large to allocate, 2 validation failure (a malformed flag included).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import formats


def _strict(kind):
    """An argparse type: ``kind(text)`` by the CSV reader's rule, ``formats.number`` (no '1_0')."""
    def parse(text: str):
        if (value := formats.number(text, kind)) is None:
            raise ValueError(text)
        return value
    parse.__name__ = kind.__name__  # argparse then reports "argument --dim: invalid int value: '2_4'"
    return parse


def _parse_generator(spec: str):
    """'ground', 'fock:n', or 'squeezed:r' -> (kind, kwargs)."""
    if spec == "ground":
        return "ground", {}
    kind, _, value = spec.partition(":")
    name, parse = {"fock": ("n", int), "squeezed": ("r", float)}.get(kind, (None, None))
    if parse and (number := formats.number(value, parse)) is not None:
        return kind, {name: number}
    raise ValueError(f"--generator {spec!r} is not one of ground, fock:n, squeezed:r")


def _parse_region(spec: str):
    """'disk:R' or 'rect:q0,q1,p0,p1' -> RegionSpec, which validates the values."""
    from . import localization as loc

    kind, _, value = spec.partition(":")
    numbers = [formats.number(x) for x in value.split(",")]
    if None not in numbers and (kind, len(numbers)) in (("disk", 1), ("rect", 4)):
        return getattr(loc.RegionSpec, kind)(*numbers)
    raise ValueError(f"--region {spec!r} is not one of disk:R, rect:q0,q1,p0,p1")


def _setup(args):
    """Grid, Fock context and generator from the common flags."""
    from . import wh_model as wh

    ctx = wh.fock_space(args.dim)
    grid = wh.build_grid(args.radius, args.spacing)
    kind, kwargs = _parse_generator(args.generator)
    eta = wh.resolution_generator(kind, ctx, **kwargs)
    return ctx, grid, eta


def _config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


def _csv_sibling(out: str) -> str:
    return str(Path(out).with_suffix(".csv"))


def _emit(report: dict, args, csv_writer=None, source=None) -> None:
    """The JSON report with its configuration; with ``--out``, also the
    command's table, if it has one, in the ``.csv`` sibling of that path.
    Refuses, before writing, an ``--out`` whose files would overwrite each
    other or ``source``, the file the command read."""
    if args.out is not None:
        out = Path(args.out).resolve()
        table = Path(_csv_sibling(args.out)).resolve() if csv_writer is not None else None
        if table == out:
            raise ValueError(f"--out {args.out!r} is also its .csv table's path; give the report another suffix")
        if source is not None and Path(source).resolve() in (out, table):
            raise ValueError(f"--out {args.out!r} would write over the input file {source!r}")
    formats.write_json({**report, "config": _config(args)}, args.out)
    if args.out is not None and csv_writer is not None:
        csv_writer(_csv_sibling(args.out))


def _text(vectors) -> list:
    """Exact rational vectors as lists of coordinate text ('3/4'), which JSON keeps exact."""
    return [[str(x) for x in vec] for vec in vectors]


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def cmd_cohomology(args) -> int:
    from . import lie_cohomology as lc

    source = None if args.algebra in lc.CATALOG else args.algebra
    if source is None:
        sc = lc.catalog(args.algebra)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            sc = lc.from_json_dict(json.load(fh))

    jacobi = lc.validate_algebra(sc)
    report = {
        "algebra": sc.label or args.algebra,
        "dim": sc.dim,
        "jacobi_ok": jacobi.ok,
        "violations": jacobi.violations,
    }
    if not jacobi.ok:
        _emit(report, args, source=source)
        print(
            f"Jacobi identity fails at {len(jacobi.violations)} quadruple(s), "
            f"first: {jacobi.violations[0]}",
            file=sys.stderr,
        )
        return 2

    h2 = lc.second_cohomology(sc)
    report["cohomology"] = {
        **vars(h2),
        "z2_basis": _text(ch.coords for ch in h2.z2_basis),
        "b2_basis": _text(ch.coords for ch in h2.b2_basis),
    }
    if args.omega is not None:
        try:
            coords = tuple(lc.parse_rational(x) for x in args.omega.split(","))
        except ZeroDivisionError:
            raise ValueError(f"--omega has a zero denominator: {args.omega!r}")
        except ValueError as exc:
            raise ValueError(f"--omega {args.omega!r} is not a comma list of rational numbers ({exc})")
        if len(coords) != (pairs := math.comb(sc.dim, 2)):
            raise ValueError(
                f"--omega {args.omega!r} has {len(coords)} coordinates; {report['algebra']} "
                f"needs {pairs}, one per basis pair i < j"
            )
        kernel = lc.kernel_subalgebra(sc, lc.Cochain(dim=sc.dim, coords=coords))
        report["kernel"] = {**vars(kernel), "h_basis": _text(kernel.h_basis)}
    _emit(report, args, source=source)
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    from . import localization as loc

    ctx, grid, eta = _setup(args)
    region = _parse_region(args.region)
    spec = loc.localization_spectrum(region, eta, grid, ctx, epsilon=args.epsilon)
    loc.clustering_report(spec)
    ratio = spec.mid_to_near_one_ratio
    report = {
        **{name: value for name, value in vars(spec).items() if name != "eigenvalues"},  # in the table
        # infinite when no eigenvalue is near one; strict JSON has no Infinity
        "mid_to_near_one_ratio": ratio if math.isfinite(ratio) else None,
        "capacity_count": spec.count_above(args.threshold),
        "capacity_threshold": args.threshold,
    }
    _emit(report, args, csv_writer=lambda p: formats.write_spectrum_csv(spec.eigenvalues, p))
    return 0


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------


# the grid flags of the two reconstruction modes; --positions-only builds no grid
_TOMOGRAPHY_GRID = {"radius": 5.0, "spacing": 0.4, "generator": "ground"}


def cmd_tomography(args) -> int:
    from . import tomography as tom
    from . import wh_model as wh

    if args.positions_only:
        for flag in _TOMOGRAPHY_GRID:
            if getattr(args, flag) is not None:
                raise ValueError(f"--positions-only builds no grid and takes no --{flag}")
        n_dim = wh.fock_space(args.dim).n_dim  # checks the dimension
        rep = tom.operator_family_rank([np.diag(row) for row in np.eye(n_dim, dtype=complex)])
        report = {"complete": rep.complete, "rank": rep.gram_rank, "required": rep.required}
        _emit(report, args)
        return 0

    for flag, default in _TOMOGRAPHY_GRID.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    ctx, grid, eta = _setup(args)
    if args.self_test is not None:  # the seed; 0 is a seed too
        rng = np.random.default_rng(args.self_test)
        rho = tom.random_density(rng, args.dim)
        probs = tom.classical_density(rho, eta, grid, ctx).values
        result = tom.reconstruct_state(probs, eta, grid, ctx)
        frob = float(np.linalg.norm(result.rho.matrix - rho.matrix))
    else:
        probs = formats.read_values_csv(args.probabilities, grid)
        result = tom.reconstruct_state(probs, eta, grid, ctx)
        frob = float(np.linalg.norm(result.rho.matrix))

    report = {
        "residual": result.residual,
        "rank": result.completeness.gram_rank,
        "frobenius_norm": frob,
    }
    _emit(
        report,
        args,
        csv_writer=lambda p: formats.write_values_csv(np.asarray(probs), grid, p),
        source=args.probabilities,
    )
    return 0


# ---------------------------------------------------------------------------
# effects
# ---------------------------------------------------------------------------


def _standard_battery(grid) -> list:
    from . import localization as loc

    half = loc.RegionSpec.rect(0.0, np.inf, -np.inf, np.inf)
    annulus = loc.RegionSpec.from_mask(
        loc.RegionSpec.disk(3.0).mask(grid) & ~loc.RegionSpec.disk(2.0).mask(grid),
        label="annulus(2,3)",
    )
    return [
        loc.RegionSpec.disk(1.0),
        loc.RegionSpec.disk(2.0),
        loc.RegionSpec.disk(3.0),
        half,
        annulus,
        loc.RegionSpec.rect(0.0, 2.0, 0.0, 2.0),
    ]


def cmd_effects(args) -> int:
    from . import effect_algebra as ea

    ctx, grid, eta = _setup(args)
    sampler = ea.effect_sampler(args.dim, seed=args.seed)
    axioms = ea.verify_axioms(sampler, args.trials)
    scan = ea.projection_scan(eta, grid, ctx, _standard_battery(grid))
    report = {
        "axioms": {
            "trials": axioms.trials,
            "failures": axioms.failures,
            "total_failures": axioms.total_failures,
        },
        "projection_scan": {
            "projection_gap": ea.PROJECTION_GAP,
            "all_pass": scan.all_pass,
            "regions": [vars(entry) for entry in scan.entries],
        },
    }
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# transform round trip
# ---------------------------------------------------------------------------


def cmd_transform(args) -> int:
    from . import transform as tr
    from . import wh_model as wh

    ctx, grid, eta = _setup(args)
    rng = np.random.default_rng(args.seed)
    block = wh.low_block(ctx).stop
    phi = np.zeros(ctx.n_dim, dtype=complex)
    phi[:block] = rng.normal(size=block) + 1j * rng.normal(size=block)
    phi /= np.linalg.norm(phi)

    samples = tr.w_transform(eta, grid, phi, ctx)
    recovered = tr.reconstruct(eta, grid, samples, ctx)
    rel = float(np.linalg.norm(recovered - phi) / np.linalg.norm(phi))
    report = {
        "relative_error": rel,
        "weighted_norm_sq": samples.weighted_norm_sq(),
    }
    _emit(report, args, csv_writer=lambda p: formats.write_samples_csv(samples, p))
    return 0


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def cmd_admissibility(args) -> int:
    from . import wh_model as wh

    ctx, grid, eta = _setup(args)
    _emit(vars(wh.admissibility(eta, grid, ctx, trials=args.trials, seed=args.seed)), args)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_grid_flags(sub, dim, radius, spacing, generator="ground"):
    sub.add_argument("--dim", type=_strict(int), default=dim, help="Fock truncation dimension")
    sub.add_argument("--radius", type=_strict(float), default=radius, help="grid disk radius")
    sub.add_argument("--spacing", type=_strict(float), default=spacing, help="grid lattice spacing")
    sub.add_argument(
        "--generator",
        default=generator,
        help="resolution generator: ground, fock:n, squeezed:r",
    )


def _add_output_flags(sub):
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _seed(text: str) -> int:
    """A non-negative integer, the only seeds numpy's generator takes."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer seed, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed argument in one line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qps`` parser, built once per process; parsing leaves it as it is."""
    parser = _Parser(prog="qps", description="Phase-space quantum mechanics toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cohomology", help="cohomology of a structure-constants file")
    p.add_argument("algebra", help="catalog name or JSON path")
    p.add_argument("--omega", default=None, help="closed 2-form coordinates, comma list")
    _add_output_flags(p)
    p.set_defaults(func=cmd_cohomology)

    p = subs.add_parser("spectrum", help="localization-operator spectrum of a region")
    _add_grid_flags(p, dim=32, radius=7.0, spacing=0.098)
    p.add_argument("--region", default="disk:3", help="disk:R or rect:q0,q1,p0,p1")
    p.add_argument("--epsilon", type=_strict(float), default=0.1, help="clustering band width")
    p.add_argument("--threshold", type=_strict(float), default=0.5, help="channel-capacity cut")
    _add_output_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("tomography", help="state reconstruction from grid probabilities")
    _add_grid_flags(p, dim=4, radius=None, spacing=None, generator=None)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--self-test", type=_seed, nargs="?", const=7, default=None, metavar="SEED",
        dest="self_test", help="round trip of a random state drawn with SEED (default 7)",
    )
    mode.add_argument("--positions-only", action="store_true", dest="positions_only")
    mode.add_argument("--probabilities", default=None, help="input CSV (q,p,value,weight)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_tomography)

    p = subs.add_parser("effects", help="effect-algebra axioms and projection scan")
    _add_grid_flags(p, dim=6, radius=7.0, spacing=0.15)
    p.add_argument("--trials", type=_strict(int), default=1000)
    p.add_argument("--seed", type=_seed, default=1)
    _add_output_flags(p)
    p.set_defaults(func=cmd_effects)

    p = subs.add_parser("transform", help="transform round trip on a random state")
    _add_grid_flags(p, dim=24, radius=7.0, spacing=0.15)
    p.add_argument("--seed", type=_seed, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_transform)

    p = subs.add_parser("admissibility", help="generator admissibility diagnostics")
    _add_grid_flags(p, dim=24, radius=7.0, spacing=0.15)
    p.add_argument("--trials", type=_strict(int), default=50)
    p.add_argument("--seed", type=_seed, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_admissibility)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a malformed flag that _Parser.error reported
        return exc.code
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc.msg} at line {exc.lineno}, column {exc.colno}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the configuration asks for more memory than there is
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
