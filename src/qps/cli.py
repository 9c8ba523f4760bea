"""Command-line front end.

Subcommands: cohomology, spectrum, tomography, effects, transform,
admissibility.  Every report embeds the fully resolved configuration, and
identical configuration plus seed produces byte-identical output files.
The BLAS library's thread count (e.g. OPENBLAS_NUM_THREADS) is outside
this promise: it can move round-off-level report values, such as the
relative_error of `qps transform`, in the last digits.  Each command
imports only the layers it uses, so `qps cohomology` loads no numeric
layer and no scipy.

Exit codes: 0 success, 1 I/O or parse failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import formats


class ValidationFailure(Exception):
    """Raised by command bodies for exit code 2."""


def _parse_generator(spec: str):
    """'ground', 'fock:n', or 'squeezed:r' -> (kind, kwargs)."""
    if spec == "ground":
        return "ground", {}
    if spec.startswith("fock:"):
        return "fock", {"n": int(spec.split(":", 1)[1])}
    if spec.startswith("squeezed:"):
        return "squeezed", {"r": float(spec.split(":", 1)[1])}
    raise ValidationFailure(
        f"unknown generator {spec!r}; use ground, fock:n, or squeezed:r"
    )


def _parse_region(spec: str):
    """'disk:R' or 'rect:q0,q1,p0,p1' -> RegionSpec, which validates the values."""
    from . import localization as loc

    if spec.startswith("disk:"):
        return loc.RegionSpec.disk(float(spec.split(":", 1)[1]))
    if spec.startswith("rect:"):
        parts = [float(x) for x in spec.split(":", 1)[1].split(",")]
        if len(parts) != 4:
            raise ValidationFailure("rect region needs q0,q1,p0,p1")
        return loc.RegionSpec.rect(*parts)
    raise ValidationFailure(f"unknown region {spec!r}; use disk:R or rect:q0,q1,p0,p1")


def _setup(args):
    """Grid, Fock context and generator from the common flags."""
    from . import wh_model as wh

    ctx = wh.fock_space(args.dim)
    grid = wh.build_grid(args.radius, args.spacing)
    kind, kwargs = _parse_generator(args.generator)
    eta = wh.resolution_generator(kind, ctx, **kwargs)
    return ctx, grid, eta


def _config(args, command: str) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    cfg["command"] = command
    return cfg


def _csv_sibling(out: str) -> str:
    return str(Path(out).with_suffix(".csv"))


def _emit(report: dict, args, csv_writer=None) -> None:
    """Primary artifact per --format; JSON report always available."""
    fmt = getattr(args, "format", "json")
    out = getattr(args, "out", None)
    if fmt == "csv":
        if csv_writer is None:
            raise ValidationFailure("this command has no CSV artifact")
        if out is None:
            raise ValidationFailure("--format csv requires --out")
        csv_writer(out)
        return
    formats.write_json(report, out)
    if out is not None and csv_writer is not None:
        csv_writer(_csv_sibling(out))


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def cmd_cohomology(args) -> int:
    from . import lie_cohomology as lc

    cfg = _config(args, "cohomology")
    if args.algebra in lc.CATALOG:
        sc = lc.catalog(args.algebra)
    else:
        with open(args.algebra, "r", encoding="utf-8") as fh:
            sc = lc.from_json_dict(json.load(fh))

    jacobi = lc.validate_algebra(sc)
    report = {
        "config": cfg,
        "algebra": sc.label or args.algebra,
        "dim": sc.dim,
        "jacobi_ok": jacobi.ok,
        "violations": [list(v) for v in jacobi.violations],
    }
    if not jacobi.ok:
        _emit(report, args)
        print(
            f"Jacobi identity fails at {len(jacobi.violations)} quadruple(s), "
            f"first: {jacobi.violations[0]}",
            file=sys.stderr,
        )
        return 2

    report["cohomology"] = lc.cohomology_report_json(lc.second_cohomology(sc))
    if args.omega:
        try:
            coords = tuple(lc.parse_rational(x) for x in args.omega.split(","))
        except ZeroDivisionError:
            raise ValidationFailure(f"--omega has a zero denominator: {args.omega!r}")
        omega = lc.Cochain(degree=2, dim=sc.dim, coords=coords)
        report["kernel"] = lc.kernel_report_json(lc.kernel_subalgebra(sc, omega))
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    from . import localization as loc

    cfg = _config(args, "spectrum")
    ctx, grid, eta = _setup(args)
    region = _parse_region(args.region)
    spec = loc.localization_spectrum(region, eta, grid, ctx, epsilon=args.epsilon)
    loc.clustering_report(spec)
    count = spec.count_above(args.threshold)
    ratio = spec.mid_to_near_one_ratio
    report = {
        "config": cfg,
        "trace": spec.trace,
        "mu_delta": spec.mu_delta,
        "near_one": spec.near_one,
        "near_zero": spec.near_zero,
        "mid": spec.mid,
        "epsilon": spec.epsilon,
        # infinite when no eigenvalue is near one; strict JSON has no Infinity
        "mid_to_near_one_ratio": ratio if math.isfinite(ratio) else None,
        "capacity_count": count,
        "capacity_threshold": args.threshold,
    }
    _emit(report, args, csv_writer=lambda p: formats.write_spectrum_csv(spec.eigenvalues, p))
    return 0


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------


def cmd_tomography(args) -> int:
    from . import tomography as tom

    cfg = _config(args, "tomography")
    ctx, grid, eta = _setup(args)

    if args.positions_only:
        projectors = [
            np.diag((np.arange(args.dim) == i).astype(complex)) for i in range(args.dim)
        ]
        rep = tom.operator_family_rank(projectors)
        report = {
            "config": cfg,
            "complete": rep.complete,
            "rank": rep.gram_rank,
            "required": rep.required,
        }
        _emit(report, args)
        return 0

    if args.self_test:
        rng = np.random.default_rng(args.seed)
        rho = tom.random_density(rng, args.dim)
        probs = tom.classical_density(rho, eta, grid, ctx).values
        result = tom.reconstruct_state(probs, eta, grid, ctx)
        frob = float(np.linalg.norm(result.rho.matrix - rho.matrix))
    else:
        if not args.probabilities:
            raise ValidationFailure(
                "tomography needs --self-test, --positions-only, or --probabilities CSV"
            )
        probs = formats.read_values_csv(args.probabilities, grid)
        result = tom.reconstruct_state(probs, eta, grid, ctx)
        frob = float(np.linalg.norm(result.rho.matrix))

    report = {
        "config": cfg,
        "residual": result.residual,
        "rank": result.completeness.gram_rank,
        "frobenius_norm": frob,
    }
    _emit(
        report,
        args,
        csv_writer=lambda p: formats.write_values_csv(np.asarray(probs), grid, p),
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

    cfg = _config(args, "effects")
    sampler = ea.effect_sampler(args.dim, seed=args.seed)
    axioms = ea.verify_axioms(sampler, args.trials)

    ctx, grid, eta = _setup(args)
    scan = ea.projection_scan(eta, grid, ctx, _standard_battery(grid))
    report = {
        "config": cfg,
        "axioms": {
            "trials": axioms.trials,
            "failures": axioms.failures,
            "total_failures": axioms.total_failures,
        },
        "projection_scan": {
            "projection_gap": scan.projection_gap,
            "all_pass": scan.all_pass,
            "regions": [
                {
                    "label": e.label,
                    "mu_delta": e.mu_delta,
                    "max_spectral_gap": e.max_spectral_gap,
                    "passes": e.passes,
                }
                for e in scan.entries
            ],
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

    cfg = _config(args, "transform")
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
        "config": cfg,
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

    cfg = _config(args, "admissibility")
    ctx, grid, eta = _setup(args)
    rep = wh.admissibility(eta, grid, ctx, trials=args.trials, seed=args.seed)
    report = {
        "config": cfg,
        "integral": rep.integral,
        "d_constant": rep.d_constant,
        "beta_ok": rep.beta_ok,
        "beta_max_deviation": rep.beta_max_deviation,
    }
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_grid_flags(sub, dim, radius, spacing, generator="ground"):
    sub.add_argument("--dim", type=int, default=dim, help="Fock truncation dimension")
    sub.add_argument("--radius", type=float, default=radius, help="grid disk radius")
    sub.add_argument("--spacing", type=float, default=spacing, help="grid lattice spacing")
    sub.add_argument(
        "--generator",
        default=generator,
        help="resolution generator: ground, fock:n, squeezed:r",
    )


def _add_output_flags(sub):
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=["json", "csv"], default="json")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed argument in one line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--epsilon", type=float, default=0.1, help="clustering band width")
    p.add_argument("--threshold", type=float, default=0.5, help="channel-capacity cut")
    _add_output_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("tomography", help="state reconstruction from grid probabilities")
    _add_grid_flags(p, dim=4, radius=5.0, spacing=0.4)
    p.add_argument("--self-test", action="store_true", dest="self_test")
    p.add_argument("--positions-only", action="store_true", dest="positions_only")
    p.add_argument("--probabilities", default=None, help="input CSV (q,p,value,weight)")
    p.add_argument("--seed", type=int, default=7)
    _add_output_flags(p)
    p.set_defaults(func=cmd_tomography)

    p = subs.add_parser("effects", help="effect-algebra axioms and projection scan")
    _add_grid_flags(p, dim=6, radius=7.0, spacing=0.15)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    _add_output_flags(p)
    p.set_defaults(func=cmd_effects)

    p = subs.add_parser("transform", help="transform round trip on a random state")
    _add_grid_flags(p, dim=24, radius=7.0, spacing=0.15)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_transform)

    p = subs.add_parser("admissibility", help="generator admissibility diagnostics")
    _add_grid_flags(p, dim=24, radius=7.0, spacing=0.15)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_admissibility)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc.msg} at line {exc.lineno}, column {exc.colno}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
