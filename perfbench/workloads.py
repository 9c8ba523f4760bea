"""Execution and checks of the benchmark ops.

``Workload.prepare(kind, params)`` turns a generated op into a pair
``(run, check)``.  ``run`` takes no arguments and is the only part that is
timed: it calls qps and returns its outputs.  ``check`` compares those
outputs with closed-form oracles, at the tolerances of the repository's test
suite, and returns an :class:`Outcome`.  Preparing inputs (building qps
input objects, writing input files) and checking happen outside the timed
region.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from qps import cli
from qps import effect_algebra as ea
from qps import lie_cohomology as lc
from qps import localization as loc
from qps import tomography as tom
from qps import transform as tr
from qps import wh_model as wh

from . import inputs

PASS, KNOWN_DEFECT, FAIL = "pass", "known_defect", "fail"


@dataclass
class Outcome:
    """Result of one op's checks.

    ``status`` is PASS, FAIL, or KNOWN_DEFECT: a failed check whose symptom is
    a defect already listed in ROADMAP.md.  ``error`` is the op's
    round-off-limited error, or None when it has none.
    """

    status: str
    error: float | None = None
    detail: str = ""


def _outcome(problems: list, error=None) -> Outcome:
    return Outcome(FAIL if problems else PASS, error, "; ".join(problems))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _load_report(path: str):
    """(strict report or None, text) for a JSON report written by the CLI."""
    if not os.path.exists(path):
        return None, ""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant), text
    except ValueError:
        return None, text


def _cli(argv: list, out: str):
    """Timed in-process ``qps`` call; a report left by an earlier op is removed first."""
    if os.path.exists(out):
        os.remove(out)

    def run():
        return cli.main(argv)

    return run


def _cli_problems(code, report) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if report is None:
        problems.append("report is not strict JSON")
    return problems


def _count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


class Workload:
    """Contexts and grids shared by all ops of a workload, built at set-up."""

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir

    def path(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)

    def prepare(self, kind: str, params: dict):
        return getattr(self, f"op_{kind}")(params)


# ---------------------------------------------------------------------------
# spectra: one frame (N = 32, grid R 7, h 0.098, vacuum generator), many symbols
# ---------------------------------------------------------------------------


class Spectra(Workload):
    RADIUS, SPACING, DIM = 7.0, 0.098, 32

    def __init__(self, tmpdir: str):
        super().__init__(tmpdir)
        self.ctx = wh.fock_space(self.DIM)
        self.grid = wh.build_grid(self.RADIUS, self.SPACING)
        self.eta = wh.resolution_generator("ground", self.ctx)
        self.q, self.p = inputs.lattice_points(self.RADIUS, self.SPACING)
        self.cell = self.SPACING**2 / (2 * np.pi)
        if len(self.grid) != len(self.q):
            raise RuntimeError(f"grid has {len(self.grid)} points, lattice has {len(self.q)}")
        r = np.hypot(self.q, self.p)
        annulus = loc.RegionSpec.from_mask((r <= 3.0) & (r > 2.0), label="annulus(2,3)")
        self.battery = [
            loc.RegionSpec.disk(1.0),
            loc.RegionSpec.disk(2.0),
            loc.RegionSpec.disk(3.0),
            loc.RegionSpec.rect(0.0, np.inf, -np.inf, np.inf),
            annulus,
            loc.RegionSpec.rect(0.0, 2.0, 0.0, 2.0),
        ]

    def _member(self, region: dict) -> np.ndarray:
        if region["shape"] == "disk":
            cq, cp = region["center"]
            return (self.q - cq) ** 2 + (self.p - cp) ** 2 <= region["radius"] ** 2
        q0, q1, p0, p1 = region["bounds"]
        return (self.q >= q0) & (self.q <= q1) & (self.p >= p0) & (self.p <= p1)

    def _spectrum_problems(self, lam, trace, mu_reported, count, mu) -> list:
        """Trace and norm bounds, and the capacity count against round(mu)."""
        problems = []
        if abs(mu_reported - mu) > 1e-9 * max(1.0, mu):
            problems.append(f"region measure {mu_reported} != lattice measure {mu}")
        if trace > mu * (1 + 1e-6):
            problems.append(f"trace {trace} exceeds measure {mu}")
        if lam[0] > min(1.0, mu) * (1 + 1e-6):
            problems.append(f"top eigenvalue {lam[0]} exceeds min(1, mu)")
        if abs(count - round(mu)) > 1:
            problems.append(f"capacity {count} not within 1 of round({mu})")
        return problems

    def op_region_spectrum(self, params):
        if params["shape"] == "disk":
            region = loc.RegionSpec.disk(params["radius"], params["center"])
        else:
            region = loc.RegionSpec.rect(*params["bounds"])
        mu = float(self._member(params).sum()) * self.cell
        centred = params["shape"] == "disk" and params["center"] == (0.0, 0.0)

        def run():
            spec = loc.localization_spectrum(region, self.eta, self.grid, self.ctx, epsilon=0.1)
            summary = loc.clustering_report(spec)
            count, _ = loc.channel_capacity(region, self.eta, self.grid, self.ctx, threshold=0.5)
            return spec, summary, count

        def check(out):
            spec, summary, count = out
            lam = spec.eigenvalues
            problems = self._spectrum_problems(lam, spec.trace, spec.mu_delta, count, mu)
            if summary.near_one + summary.near_zero + summary.mid != self.DIM:
                problems.append("clustering bands do not partition the spectrum")
            if centred:
                err = float(np.max(np.abs(lam[:9] - gammainc(np.arange(1, 10), mu))))
                if err > 1e-4:
                    problems.append(f"disk eigenvalues off P(n+1, mu) by {err:.2e}")
            return _outcome(problems)

        return run, check

    def op_expectation(self, params):
        rho = tom.DensityOperator(params["density"])
        values = inputs.symbol_values(params["symbol"], self.q, self.p)

        def run():
            return tom.expectation_pair(rho, values, self.eta, self.grid, self.ctx)

        def check(out):
            quantum, classical = out
            err = abs(quantum - classical) / (1 + abs(quantum))
            return _outcome([f"expectations differ by {err:.2e}"] if err > 1e-10 else [], err)

        return run, check

    def op_povm(self, params):
        labels = inputs.sector_labels(params["cuts"], self.q, self.p)
        parts = [
            loc.RegionSpec.from_mask(labels == i, label=f"sector{i}")
            for i in range(len(params["cuts"]))
        ]

        def run():
            return ea.povm_check(parts, self.eta, self.grid, self.ctx)

        def check(rep):
            return _outcome([] if rep.ok else [f"povm not ok: {rep}"], rep.additivity_error)

        return run, check

    def op_projection_scan(self, params):
        def run():
            return ea.projection_scan(self.eta, self.grid, self.ctx, self.battery)

        def check(rep):
            ok = rep.all_pass and len(rep.entries) == len(self.battery)
            return _outcome([] if ok else ["a quantized indicator is near a projection"])

        return run, check

    def op_axioms(self, params):
        samples = params["effects"]
        trials = len(samples) // 3

        def run():
            it = iter(samples)
            return ea.verify_axioms(lambda: next(it), trials)

        def check(rep):
            ok = rep.trials == trials and rep.total_failures == 0
            return _outcome([] if ok else [f"axiom failures {rep.failures}"])

        return run, check

    def op_cli_spectrum(self, params):
        region = params["region"]
        mu = float(self._member(region).sum()) * self.cell
        out = self.path("spectrum.json")
        argv = ["spectrum", "--region", inputs.region_arg(region), "--out", out]

        def check(code):
            report, text = _load_report(out)
            problems = _cli_problems(code, report)
            if code == 0 and report is None:
                loose = json.loads(text)
                if loose.get("mid_to_near_one_ratio") == math.inf and loose["near_one"] == 0:
                    # ROADMAP item 5c: no eigenvalue above 1 - epsilon gives Infinity.
                    return Outcome(KNOWN_DEFECT, None, "report contains Infinity")
            if not problems:
                with open(out[:-5] + ".csv", encoding="utf-8") as fh:
                    lam = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
                if len(lam) != self.DIM:
                    problems.append(f"spectrum CSV has {len(lam)} eigenvalues")
                else:
                    problems += self._spectrum_problems(
                        lam, report["trace"], report["mu_delta"], report["capacity_count"], mu
                    )
            return _outcome(problems)

        return _cli(argv, out), check


# ---------------------------------------------------------------------------
# roundtrips: a new generator or state on every op
# ---------------------------------------------------------------------------


class Roundtrips(Workload):
    def __init__(self, tmpdir: str):
        super().__init__(tmpdir)
        self.ctx24 = wh.fock_space(24)
        self.grid_wide = wh.build_grid(13.0, 0.35)
        self.grid_ref = wh.build_grid(7.0, 0.15)
        self.eta_ref = wh.resolution_generator("ground", self.ctx24)
        self.grid_tomo = wh.build_grid(6.0, 0.4)
        self.tomo = {}
        for n in inputs.TOMOGRAPHY_DIMS:
            ctx = wh.fock_space(n)
            self.tomo[n] = (ctx, wh.resolution_generator("ground", ctx))
        if len(self.grid_tomo) < max(inputs.TOMOGRAPHY_DIMS) ** 2:
            raise RuntimeError("tomography grid has fewer points than N^2")
        self.ref_q, self.ref_p = inputs.lattice_points(7.0, 0.15)

    def op_orthogonality(self, params):
        eta1, eta2, phi1, phi2 = params["vectors"]

        def run():
            return tr.orthogonality_check(eta1, eta2, phi1, phi2, self.grid_wide, self.ctx24)

        def check(rep):
            err = rep.relative_error
            return _outcome([f"relative error {err:.2e}"] if err > 1e-3 else [], err)

        return run, check

    def op_admissibility(self, params):
        eta = wh.resolution_generator(params["kind"], self.ctx24, n=params.get("level"),
                                      r=params.get("r"))

        def run():
            return wh.admissibility(eta, self.grid_wide, self.ctx24, seed=params["seed"])

        def check(rep):
            problems = []
            if not abs(rep.d_constant - 1.0) <= 1e-3:
                problems.append(f"d = {rep.d_constant}")
            if not rep.beta_ok:
                problems.append(f"commutator deviation {rep.beta_max_deviation:.2e}")
            return _outcome(problems)

        return run, check

    def op_transform(self, params):
        phi = params["state"]

        def run():
            samples = tr.w_transform(self.eta_ref, self.grid_ref, phi, self.ctx24)
            return tr.reconstruct(self.eta_ref, self.grid_ref, samples, self.ctx24)

        def check(recovered):
            err = float(np.linalg.norm(recovered - phi) / np.linalg.norm(phi))
            return _outcome([f"round trip error {err:.2e}"] if err > 1e-10 else [], err)

        return run, check

    def op_tomography(self, params):
        n = params["n"]
        ctx, eta = self.tomo[n]
        rho = tom.DensityOperator(params["density"])

        def run():
            probs = tom.classical_density(rho, eta, self.grid_tomo, ctx).values
            return tom.reconstruct_state(probs, eta, self.grid_tomo, ctx)

        def check(result):
            err = float(np.linalg.norm(result.rho.matrix - rho.matrix))
            if err <= 1e-6:
                return Outcome(PASS, err)
            # ROADMAP item 3: the KKT normal equations square the condition
            # number; the error passes 1e-6 at N = 16 and, for some states, N = 12.
            status = KNOWN_DEFECT if n >= 12 else FAIL
            return Outcome(status, err, f"N={n} Frobenius error {err:.2e}")

        return run, check

    def op_cli_transform(self, params):
        out = self.path("transform.json")
        argv = ["transform", "--seed", str(params["seed"]), "--out", out]

        def check(code):
            report, _ = _load_report(out)
            problems = _cli_problems(code, report)
            err = None
            if not problems:
                err = report["relative_error"]
                if not err <= 1e-10:
                    problems.append(f"relative error {err}")
                rows = _count_lines(out[:-5] + ".csv") - 1
                if rows != len(self.ref_q):
                    problems.append(f"samples CSV has {rows} rows, grid has {len(self.ref_q)}")
            return _outcome(problems, err)

        return _cli(argv, out), check

    def op_cli_tomography(self, params):
        rho = params["density"]
        csv_path = self.path("probabilities.csv")
        values = inputs.husimi_values(rho, self.ref_q, self.ref_p)
        weight = repr(0.15**2 / (2 * np.pi))
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("q,p,value,weight\n")
            for q, p, v in zip(self.ref_q, self.ref_p, values):
                fh.write(f"{float(q)!r},{float(p)!r},{float(v)!r},{weight}\n")
        out = self.path("tomography.json")
        argv = ["tomography", "--probabilities", csv_path, "--dim", str(rho.shape[0]),
                "--radius", "7", "--spacing", "0.15", "--out", out]
        frob = float(np.linalg.norm(rho))

        def check(code):
            report, _ = _load_report(out)
            problems = _cli_problems(code, report)
            err = None
            if not problems:
                err = abs(report["frobenius_norm"] - frob) / frob
                if report["rank"] != rho.shape[0] ** 2:
                    problems.append(f"rank {report['rank']}")
                if not err <= 1e-6:
                    problems.append(f"Frobenius norm off by {err:.2e}")
                if not report["residual"] <= 1e-8:
                    problems.append(f"residual {report['residual']}")
            return _outcome(problems, err)

        return _cli(argv, out), check


# ---------------------------------------------------------------------------
# cohomology: exact arithmetic on generated algebras
# ---------------------------------------------------------------------------


class Cohomology(Workload):
    def _structure(self, params):
        family, n, basis = params["family"], params["n"], params["basis"]
        if family == "catalog":
            sc = lc.catalog(n)
            dim, names, c = sc.dim, sc.names, sc.c
        elif family == "so":
            dim, names, c = inputs.so_algebra(n)
        else:
            dim, names, c = inputs.heisenberg_algebra(n)
        if basis is not None:
            c = inputs.change_basis(dim, c, basis)
        label = f"{family}:{n}" + ("'" if basis is not None else "")
        return dim, names, c, label

    def op_cohomology(self, params):
        dim, names, c, label = self._structure(params)
        sc = lc.StructureConstants(dim=dim, names=names, c=c, label=label)
        h1, h2 = inputs.cohomology_oracle(params["family"], params["n"])

        def run():
            jacobi = lc.validate_algebra(sc)
            report = lc.second_cohomology(sc)
            kernel = lc.kernel_subalgebra(sc, report.z2_basis[0]) if report.z2_basis else None
            return jacobi, report, kernel

        def check(out):
            jacobi, report, kernel = out
            problems = []
            if not jacobi.ok:
                problems.append(f"Jacobi fails at {jacobi.violations[:3]}")
            if (report.dim_h1, report.dim_h2) != (h1, h2):
                problems.append(f"{label}: H1, H2 = {report.dim_h1}, {report.dim_h2}, expected {h1}, {h2}")
            if kernel is None:
                problems.append("no closed 2-form")
            elif not kernel.is_subalgebra or kernel.gamma_dim % 2:
                problems.append(f"kernel of the first closed 2-form: {kernel.is_subalgebra}, "
                                f"rank {kernel.gamma_dim}")
            return _outcome(problems, 0.0)

        return run, check

    def op_cli_cohomology(self, params):
        dim, names, c, label = self._structure(params)
        src = self.path("algebra.json")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump(inputs.algebra_json(label, names, c), fh)
        out = self.path("cohomology.json")
        h1, h2 = inputs.cohomology_oracle(params["family"], params["n"])

        def check(code):
            report, _ = _load_report(out)
            problems = _cli_problems(code, report)
            if not problems:
                coh = report.get("cohomology", {})
                if not report["jacobi_ok"] or report["dim"] != dim:
                    problems.append("Jacobi check or dimension wrong")
                if (coh.get("dim_h1"), coh.get("dim_h2")) != (h1, h2):
                    problems.append(f"H1, H2 = {coh.get('dim_h1')}, {coh.get('dim_h2')}")
            return _outcome(problems, 0.0)

        return _cli(["cohomology", src, "--out", out], out), check


WORKLOADS = {"spectra": Spectra, "roundtrips": Roundtrips, "cohomology": Cohomology}
