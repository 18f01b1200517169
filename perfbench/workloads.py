"""The three benchmark workloads and the loop that runs their passes.

A pass is a fixed list of jobs; each job is one call (or one command)
into corrpeaks and is timed on its own.  After the jobs, every output of
the pass is checked against references from ``checks``.  Inputs derive
from the benchmark seed and are the same in every pass of a run.

corrpeaks is imported inside the in-process workloads' constructors, so
that the import is paid inside the timed set-up.
"""

import hashlib
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks as ck

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _corrpeaks():
    import corrpeaks

    return corrpeaks


def child_env():
    """Environment for a fresh interpreter that imports corrpeaks from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Pass:
    """Outputs, per-job latencies and failures of one pass."""

    def __init__(self):
        self.outputs = {}
        self.latency = {}
        self.failed = {}
        self.errors = []
        self.figures = {}
        self.seconds = None


def run_jobs(workload, tracer):
    result = Pass()
    t_pass = time.perf_counter()
    for name, fn in workload.jobs():
        t0 = time.perf_counter()
        try:
            with tracer.span("job:" + name):
                result.outputs[name] = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            result.failed[name] = f"{type(exc).__name__}: {exc}"
        result.latency[name] = time.perf_counter() - t0
    result.seconds = time.perf_counter() - t_pass
    return result


def check_pass(workload, result):
    """Run every check whose jobs all produced output.

    A check that breaks on an output it cannot read (a missing file, a
    malformed table) counts as a wrong result, like a failed comparison.
    """
    for needs, check in workload.checks():
        if any(n not in result.outputs or n in result.failed for n in needs):
            continue
        try:
            result.figures.update(check(result.outputs) or {})
        except ck.OperationFailed as exc:
            result.failed[needs[0]] = f"OperationFailed: {exc}"
        except ck.CheckFailed as exc:
            result.errors.append(str(exc))
        except Exception as exc:  # noqa: BLE001 - reported, the run goes on
            result.errors.append(f"{'/'.join(needs)}: {type(exc).__name__}: {exc}")
    # Checked outputs are dropped, so memory does not grow with the pass count.
    result.outputs = {}


def run_pass(workload, tracer):
    """One timed pass: jobs, then checks; ``seconds`` covers both."""
    t0 = time.perf_counter()
    result = run_jobs(workload, tracer)
    check_pass(workload, result)
    result.seconds = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------

class _Traced:
    """A correlation callable whose evaluations are recorded as spans.

    Attributes such as ``breakpoints`` are forwarded, so the transforms
    see the wrapped model's own cut points.  Each span records the
    number of angles evaluated, which is the transform's node count.
    """

    def __init__(self, fn, tracer, name):
        self.fn, self.tracer, self.span_name = fn, tracer, name

    def __getattr__(self, attr):
        return getattr(self.fn, attr)

    def __call__(self, theta):
        with self.tracer.span(self.span_name, nodes=int(np.size(theta))):
            return self.fn(theta)


class Spectra:
    """Transforms-heavy: Legendre at ell 2000 and 6000, small-angle, resummation."""

    name = "spectra"
    ELL_MAX = 2000
    MODELS = ("c1", "c2", "toy2-uniform", "toy2-distance")
    LEGENDRE_JOBS = MODELS + ("cap",)

    def __init__(self, seed, tracer):
        cp = _corrpeaks()
        self.cp, self.tracer = cp, tracer
        rng = np.random.default_rng([seed, 1])
        self.models = {m: _Traced(cp.default_model(m), tracer, "corr_models.eval")
                       for m in self.MODELS}
        self.theta0 = math.radians(rng.uniform(2.0, 4.0))
        # k = ell + 1/2 on every other multipole up to ell 1999.
        self.k_ells = 2 * np.arange(1000) + seed % 2
        ell = np.arange(self.ELL_MAX + 1)
        self.band = cp.PowerSpectrum(ell, rng.uniform(0.5, 1.5, ell.size) / (1.0 + ell) ** 2)
        self.resum_theta = np.linspace(0.0, math.pi, 7201)
        self.check_ells = np.unique(np.r_[0, rng.integers(1, self.ELL_MAX, 4), self.ELL_MAX])
        self.check_ells_6000 = np.unique(np.r_[0, rng.integers(self.ELL_MAX, 6000, 4), 6000])
        self.check_theta_idx = np.unique(np.r_[0, rng.integers(1, self.resum_theta.size, 4)])
        self.refs = None

    def _spectrum(self, corr, ell_max, **kw):
        call = self.tracer.call
        spec = call("transforms.legendre_coefficients", self.cp.legendre_coefficients,
                    corr, ell_max=ell_max, **kw)
        return spec, call("peak_analysis.analyze_spectrum", self.cp.analyze_spectrum, spec)

    def _cap(self):
        theta0 = self.theta0
        cap = _Traced(lambda t: (t <= theta0).astype(float), self.tracer, "cap.eval")
        return self._spectrum(cap, self.ELL_MAX, breakpoints=(theta0,))

    def _small_angle(self):
        return self.tracer.call("transforms.small_angle_spectrum", self.cp.small_angle_spectrum,
                                self.models["toy2-uniform"], self.k_ells + 0.5)

    def _resum(self, theta):
        return self.tracer.call("transforms.correlation_from_spectrum",
                                self.cp.correlation_from_spectrum, self.band, theta)

    def _roundtrip(self):
        def resummed(theta):
            out = np.empty_like(theta)
            out[np.argsort(theta)] = self._resum(theta).values
            return out

        return self.tracer.call("transforms.legendre_coefficients", self.cp.legendre_coefficients,
                                resummed, ell_max=self.ELL_MAX, breakpoints=())

    def jobs(self):
        out = [(m, lambda m=m: self._spectrum(self.models[m], self.ELL_MAX)) for m in self.MODELS]
        out += [
            ("cap", self._cap),
            ("c2-ell6000", lambda: self._spectrum(self.models["c2"], 6000, n_nodes=8192)),
            ("smallangle", self._small_angle),
            ("resum", lambda: self._resum(self.resum_theta)),
            ("roundtrip", self._roundtrip),
        ]
        return out

    def prepare(self):
        refs = {m: ck.legendre_reference(fn, bps, self.check_ells)
                for m, (fn, bps, _) in ck.REFERENCE_MODELS.items()}
        fn, bps, _ = ck.REFERENCE_MODELS["c2"]
        refs["c2-ell6000"] = ck.legendre_reference(fn, bps, self.check_ells_6000)
        refs["cap"] = ck.cap_closed_form(self.theta0, self.ELL_MAX)
        refs["resum"] = ck.resum_reference(self.band.values,
                                           self.resum_theta[self.check_theta_idx])
        self.refs = refs

    def checks(self):
        refs = self.refs

        def model(m):
            def check(out):
                spec, report = out[m]
                ck.check_verdict(m, report.detected, ck.REFERENCE_MODELS[m][2])
                ck.require(np.array_equal(spec.grid, np.arange(self.ELL_MAX + 1)), f"{m}: ell grid")
                return {f"spectrum_err.{m}": ck.check_close(
                    m, spec.values[self.check_ells], refs[m], ck.SPECTRUM_TOL)}
            return [m], check

        def cap(out):
            spec, report = out["cap"]
            err = ck.check_close("cap", spec.values, refs["cap"], ck.CAP_TOL)
            dev = ck.check_spacing("cap", report.quasi_period, math.pi / self.theta0,
                                   ck.CAP_SPACING_TOL)
            return {"cap_err": err, "cap_spacing_dev": dev}

        def ell6000(out):
            spec, report = out["c2-ell6000"]
            ck.require(np.array_equal(spec.grid, np.arange(6001)), "c2-ell6000: ell grid")
            err = ck.check_close("c2-ell6000", spec.values[self.check_ells_6000],
                                 refs["c2-ell6000"], ck.SPECTRUM_TOL)
            spacing = ck.tail_spacing(report.locations)
            return {"spectrum_err.c2-ell6000": err, "tail_spacing_dev": ck.check_spacing(
                "c2 tail", spacing, math.pi / ck.C2_THETA_STAR, ck.TAIL_SPACING_TOL)}

        def small_angle(out):
            flat = out["smallangle"]
            spec, _ = out["toy2-uniform"]
            ck.require(np.array_equal(flat.grid, self.k_ells + 0.5), "small-angle: k grid")
            return {"small_angle_err": ck.check_close(
                "small-angle vs C_ell", flat.values, spec.values[self.k_ells], ck.SMALL_ANGLE_TOL)}

        def resum(out):
            tab = out["resum"]
            ck.require(np.array_equal(tab.theta, self.resum_theta), "resum: theta grid")
            return {"resum_err": ck.check_close(
                "resum", tab.values[self.check_theta_idx], refs["resum"], ck.RESUM_TOL)}

        def roundtrip(out):
            return {"roundtrip_err": ck.check_close(
                "round trip", out["roundtrip"].values, self.band.values, ck.ROUNDTRIP_TOL)}

        return [model(m) for m in self.MODELS] + [
            (["cap"], cap),
            (["c2-ell6000"], ell6000),
            (["smallangle", "toy2-uniform"], small_angle),
            (["resum"], resum),
            (["roundtrip"], roundtrip),
        ]


class Disks:
    """Disk-field modules: exact toy1 integrals and Monte Carlo ensembles."""

    name = "disks"
    RADIUS = math.radians(1.0)
    N_EFF = 80.0 * 4.0 * math.pi
    # Criterion 6 is defined on this ensemble seed; the README says why it
    # does not follow --seed.
    CRITERION6_SEED = 2025
    # Criterion 6 is compared on every 6th bin of its window, from the
    # first, which fixes the estimator's overall factor: 8 of the 46 bins.
    CRITERION6_STRIDE = 6
    # Angles per case checked against checks.toy1_reference.
    N_REFERENCE = 3

    def __init__(self, seed, tracer):
        cp = _corrpeaks()
        self.cp, self.tracer = cp, tracer
        rng = np.random.default_rng([seed, 2])
        crit = dict(n_disks=80, radius=self.RADIUS, points_per_disk=32, patch_size=1.0,
                    n_realizations=50, seed=self.CRITERION6_SEED, n_bins=64)
        self.configs = {
            "ens-a": cp.DiskEnsembleConfig(hard_core=False, **crit),
            "ens-b": cp.DiskEnsembleConfig(hard_core=True, **crit),
            "ens-vr": cp.DiskEnsembleConfig(
                n_disks=80, radius=(math.radians(1.0), math.radians(2.0)), points_per_disk=32,
                n_realizations=8, seed=seed, n_bins=64),
            # Too sparse to fill every bin in every realization.
            "ens-sparse": cp.DiskEnsembleConfig(
                n_disks=3, points_per_disk=2, n_realizations=20, n_bins=64),
        }
        edges = self.configs["ens-a"].bin_edges
        centres = 0.5 * (edges[:-1] + edges[1:])
        in_window = (centres >= math.radians(0.1)) & (centres <= math.radians(3.0))
        self.window = np.flatnonzero(in_window)[::self.CRITERION6_STRIDE]
        self.window_theta = centres[self.window]
        self.cd_theta = np.radians(np.sort(rng.uniform(0.1, 4.0, 6)))
        self.ref_idx = {
            "b": np.sort(rng.choice(self.window.size, self.N_REFERENCE, replace=False)),
            "cd": np.sort(rng.choice(self.cd_theta.size, self.N_REFERENCE, replace=False)),
        }
        self.refs = None
        self.digests = {}

    def _ensemble(self, name):
        return self.tracer.call("toy_disks_mc.run_ensemble", self.cp.run_ensemble,
                                self.configs[name], threads=1)

    def _toy1(self, case, theta):
        return self.tracer.call("toy_disks_analytic.correlation_toy1", self.cp.correlation_toy1,
                                theta, *self.cp.preset_case(case), self.N_EFF)

    def jobs(self):
        return [
            ("ens-a", lambda: self._ensemble("ens-a")),
            ("toy1-a", lambda: self._toy1("a", self.window_theta)),
            ("ens-b", lambda: self._ensemble("ens-b")),
            ("toy1-b", lambda: self._toy1("b", self.window_theta)),
            ("toy1-c", lambda: self._toy1("c", self.cd_theta)),
            ("toy1-d", lambda: self._toy1("d", self.cd_theta)),
            ("ens-vr", lambda: self._ensemble("ens-vr")),
            ("ens-sparse", lambda: self._ensemble("ens-sparse")),
        ]

    def reference_theta(self, case):
        return (self.window_theta[self.ref_idx["b"]] if case == "b"
                else self.cd_theta[self.ref_idx["cd"]])

    def prepare(self):
        self.refs = {case: np.array([ck.toy1_reference(case, t, self.N_EFF, self.RADIUS)
                                     for t in self.reference_theta(case)])
                     for case in "bcd"}

    def checks(self):
        def ensemble(name):
            def check(out):
                stats = out[name]
                ck.check_ensemble_means(stats.mean, stats.n_pairs)
                digest = _digest(stats.mean, stats.rms, stats.n_pairs, stats.per_realization)
                ck.check_identical(name, self.digests.setdefault(name, digest), digest)
                return {f"pairs.{name}": int(stats.n_pairs.sum())}
            return [name], check

        def criterion6(case):
            def check(out):
                stats = out[f"ens-{case}"]
                return {f"inband.{case}": ck.check_inband(
                    f"criterion 6 case {case}", out[f"toy1-{case}"].values,
                    stats.mean[self.window], stats.rms[self.window])}
            return [f"ens-{case}", f"toy1-{case}"], check

        def case_a(out):
            return {"case_a_err": ck.check_case_a(out["toy1-a"].values, self.window_theta,
                                                  self.N_EFF, self.RADIUS)}

        def toy1(case):
            idx = self.ref_idx["b" if case == "b" else "cd"]

            def check(out):
                return {f"toy1_err.{case}": ck.check_toy1(
                    f"case {case}", out[f"toy1-{case}"].values[idx], self.refs[case])}
            return [f"toy1-{case}"], check

        def d_below_c(out):
            ck.check_below("case d below case c", out["toy1-d"].values, out["toy1-c"].values)

        return [ensemble(n) for n in self.configs] + [
            (["toy1-a"], case_a),
            toy1("b"), toy1("c"), toy1("d"),
            criterion6("a"),
            criterion6("b"),
            (["toy1-c", "toy1-d"], d_below_c),
        ]


class Cli:
    """One ``corrpeaks`` process per job: start-up, import and file I/O every time."""

    name = "cli"
    MC_ARGS = ("mc", "--n-disks", "80", "--points-per-disk", "16", "--realizations", "10",
               "--patch-size", "1.0", "--n-bins", "32")

    def __init__(self, seed, tracer, out_dir):
        self.tracer = tracer
        self.seed = seed
        self.dir = Path(out_dir) / "cli"
        rng = np.random.default_rng([seed, 3])
        self.toy1_theta_max = round(float(rng.uniform(3.0, 4.0)), 6)
        self.env = child_env()
        self.refs = None
        self.first_mc = None

    def path(self, name):
        return self.dir / name

    def _command(self, args, expected=0):
        cmd = [sys.executable, "-m", "corrpeaks.cli", "--out-dir", str(self.dir), *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=120)
        ck.check_exit(" ".join(args[:3]), proc.returncode, expected, proc.stderr)
        return proc

    def _mc_args(self, threads, output):
        return ["--seed", str(self.seed), "--threads", str(threads), *self.MC_ARGS,
                "--output", output]

    def jobs(self):
        """The pass's commands; each pass starts in an empty output directory."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        spectrum = str(self.path("spectrum_c2_legendre.csv"))
        return [
            ("transform", lambda: self._command(["transform", "--model", "c2"])),
            ("resum", lambda: self._command(["transform", "--mode", "resum", "--input", spectrum])),
            ("analyze", lambda: self._command(["analyze", "--input", spectrum])),
            ("toy2", lambda: self._command(["toy2", "--variant", "uniform"])),
            ("toy1", lambda: self._command(["toy1", "--case", "a", "--n-theta", "8",
                                            "--theta-max", f"{self.toy1_theta_max}deg"])),
            ("mc-t1", lambda: self._command(self._mc_args(1, "mc_t1.csv"))),
            ("mc-t2", lambda: self._command(self._mc_args(2, "mc_t2.csv"))),
            # A zero-length grid is a usage error, exit code 1.
            ("toy2-n0", lambda: self._command(["toy2", "--variant", "uniform", "--n-theta", "0"],
                                              expected=1)),
        ]

    def prepare(self):
        """In-process results for the same requests, from the setup pass's inputs."""
        cp = _corrpeaks()
        _, spec_csv = ck.read_csv(self.path("spectrum_c2_legendre.csv"))
        spec = cp.PowerSpectrum(spec_csv[:, 0], spec_csv[:, 1])
        toy2 = cp.Toy2Uniform(math.radians(1.0), math.radians(2.0))
        upper = min(max(toy2.breakpoints()) * 1.25, math.pi)
        toy2_theta = np.linspace(upper / 512, upper, 512)
        toy1_theta = np.linspace(math.radians(0.05), math.radians(self.toy1_theta_max), 8)
        mc = cp.DiskEnsembleConfig(n_disks=80, points_per_disk=16, n_realizations=10,
                                   patch_size=1.0, n_bins=32, seed=self.seed)
        self.refs = {
            "c2": cp.legendre_coefficients(cp.default_model("c2"), ell_max=2000).values,
            "resum": cp.correlation_from_spectrum(spec, np.linspace(0.0, math.pi, 721)),
            "analyze": cp.analyze_spectrum(spec),
            "toy2_theta": toy2_theta,
            "toy2_values": toy2(toy2_theta),
            "toy2_spectrum": cp.legendre_coefficients(toy2, ell_max=2000).values,
            "toy1_theta": toy1_theta,
            "toy1": cp.correlation_toy1(toy1_theta, *cp.preset_case("a"), 1000.0).values,
            "mc": cp.run_ensemble(mc),
        }

    def checks(self):
        refs = self.refs
        col = ck.check_csv_column

        def transform(out):
            _, data = ck.read_csv(self.path("spectrum_c2_legendre.csv"))
            col("transform ell", data[:, 0], np.arange(2001))
            col("transform C_ell", data[:, 1], refs["c2"])

        def resum(out):
            _, data = ck.read_csv(self.path("correlation_spectrum_c2_legendre.csv"))
            col("resum theta", np.radians(data[:, 0]), refs["resum"].theta)
            col("resum C", data[:, 1], refs["resum"].values)

        def analyze(out):
            report = refs["analyze"]
            summary = ck.read_key_values(self.path("spectrum_c2_legendre_summary.txt"))
            ck.require(summary.get("detected") == str(report.detected).lower()
                       and report.detected, f"analyze: detected = {summary.get('detected')}")
            ck.require(summary.get("n_peaks") == str(report.n_peaks), "analyze: peak count")
            _, peaks = ck.read_csv(self.path("spectrum_c2_legendre_peaks.csv"))
            col("analyze peaks", peaks[:, 0], report.locations)

        def toy2(out):
            _, corr = ck.read_csv(self.path("toy2_uniform.csv"))
            col("toy2 theta", np.radians(corr[:, 0]), refs["toy2_theta"])
            col("toy2 C", corr[:, 1], refs["toy2_values"])
            _, spec = ck.read_csv(self.path("toy2_uniform_spectrum.csv"))
            col("toy2 C_ell", spec[:, 1], refs["toy2_spectrum"])
            peaks = ck.read_key_values(self.path("toy2_uniform_peaks.csv"))
            ck.check_verdict("toy2 uniform", peaks.get("detected") == "true", True)

        def toy1(out):
            _, data = ck.read_csv(self.path("toy1_case_a.csv"))
            col("toy1 C", data[:, 1], refs["toy1"])
            return {"case_a_err": ck.check_case_a(data[:, 1], refs["toy1_theta"], 1000.0,
                                                  math.radians(1.0))}

        def mc(out):
            one = self.path("mc_t1.csv").read_bytes()
            ck.check_identical("mc --threads 1 vs 2", one, self.path("mc_t2.csv").read_bytes())
            self.first_mc = self.first_mc or one
            ck.check_identical("mc across passes", self.first_mc, one)
            _, data = ck.read_csv(self.path("mc_t1.csv"))
            stats = refs["mc"]
            col("mc mean", data[:, 1], stats.mean)
            col("mc rms", data[:, 2], stats.rms)
            ck.require(np.array_equal(data[:, 3], stats.n_pairs), "mc: pair counts differ")
            return {"mc_bytes": len(one)}

        return [
            (["transform"], transform),
            (["transform", "resum"], resum),
            (["transform", "analyze"], analyze),
            (["toy2"], toy2),
            (["toy1"], toy1),
            (["mc-t1", "mc-t2"], mc),
        ]


def make(name, seed, tracer, out_dir):
    if name == "cli":
        return Cli(seed, tracer, out_dir)
    return {"spectra": Spectra, "disks": Disks}[name](seed, tracer)
