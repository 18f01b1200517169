"""Per-module metrics of the traced run.

Times come from spans recorded around the benchmark's calls into each
module and around the package functions patched in ``patch_targets``;
import and start-up times come from fresh interpreters.  Sums are per
pass; a ``_s`` metric of a single call is that call's duration, or the
median over the calls named.
"""

import statistics
import subprocess
import sys
import time

from tracing import duration, named, self_times
from workloads import child_env

REPEATS = 3

_PROBE = (
    "import time, corrpeaks\n"
    "from corrpeaks.transforms import gauss_nodes\n"
    "t = time.perf_counter(); gauss_nodes(4096)\n"
    "print(time.perf_counter() - t)\n"
)
IMPORTS = {
    "import.corrpeaks_s": "corrpeaks",
    "import.scipy_signal_s": "scipy.signal",
    "import.scipy_interpolate_s": "scipy.interpolate",
}


def patch_targets():
    """Package names wrapped where the package's own callers look them up."""
    from corrpeaks import peak_analysis, toy_disks_analytic, toy_disks_mc

    return [
        (peak_analysis, "find_peaks"),
        (toy_disks_analytic, "same_disk_integral"),
        (toy_disks_analytic, "other_disk_integral"),
        (toy_disks_mc, "sample_centers"),
        (toy_disks_mc, "sample_disk_points"),
    ]


def _import_times(stderr):
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return out


def probes():
    """Import, cold Gauss-node build and CLI start-up, each in fresh interpreters."""
    env = child_env()
    samples = {k: [] for k in IMPORTS}
    cold, startup = [], []
    for _ in range(REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", _PROBE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times = _import_times(proc.stderr)
        for metric, module in IMPORTS.items():
            samples[metric].append(times[module])
        cold.append(float(proc.stdout.split()[-1]))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "corrpeaks.cli", "--version"], env=env,
                       capture_output=True, timeout=60, check=True)
        startup.append(time.perf_counter() - t0)
    out = {k: (statistics.median(v), "s") for k, v in samples.items()}
    out["transforms.gauss_nodes_cold_s"] = (statistics.median(cold), "s")
    out["cli.startup_s"] = (statistics.median(startup), "s")
    return out


def _median(spans):
    return statistics.median(duration(s) for s in spans)


def _total(spans):
    return sum(duration(s) for s in spans)


def _spectra(spans, figures, workload):
    legendre = [s for j in workload.LEGENDRE_JOBS
                for s in named(spans, "transforms.legendre_coefficients", "job:" + j)]
    legendre_ids = {s["id"] for s in legendre}
    nodes = [s["attrs"]["nodes"] for s in spans
             if s["name"] in ("corr_models.eval", "cap.eval") and s["parent"] in legendre_ids]
    nodes_median = statistics.median(nodes)
    analyses = named(spans, "peak_analysis.analyze_spectrum")
    return {
        "transforms.legendre_s": (_median(legendre), "s"),
        "transforms.legendre_6000_s": (
            _total(named(spans, "transforms.legendre_coefficients", "job:c2-ell6000")), "s"),
        "transforms.smallangle_s": (_total(named(spans, "transforms.small_angle_spectrum")), "s"),
        "transforms.resum_s": (
            _total(named(spans, "transforms.correlation_from_spectrum", "job:resum")), "s"),
        "transforms.nodes": (nodes_median, "count"),
        "transforms.mults": (nodes_median * (workload.ELL_MAX + 1), "count"),
        "transforms.spectrum_err": (
            max(v for k, v in figures.items() if k.startswith("spectrum_err.")), "rel"),
        "transforms.cap_err": (figures["cap_err"], "rel"),
        "transforms.roundtrip_err": (figures["roundtrip_err"], "rel"),
        "corr_models.eval_s": (_total(named(spans, "corr_models.eval")), "s"),
        "peak_analysis.analyze_s": (_median(analyses), "s"),
        "peak_analysis.find_peaks_calls": (
            len(named(spans, "peak_analysis.find_peaks")) / len(analyses), "count"),
    }


def _disks(spans, figures):
    ensemble = _total(named(spans, "toy_disks_mc.run_ensemble"))
    centers = _total(named(spans, "toy_disks_mc.sample_centers"))
    points = _total(named(spans, "toy_disks_mc.sample_disk_points"))
    toy1 = "toy_disks_analytic.correlation_toy1"
    return {
        "toy_disks_analytic.toy1_a_s": (_total(named(spans, toy1, "job:toy1-a")), "s"),
        "toy_disks_analytic.toy1_b_s": (_total(named(spans, toy1, "job:toy1-b")), "s"),
        "toy_disks_analytic.same_disk_s": (
            self_times(spans, "toy_disks_analytic.same_disk_integral"), "s"),
        "toy_disks_analytic.other_disk_s": (
            self_times(spans, "toy_disks_analytic.other_disk_integral"), "s"),
        "toy_disks_analytic.case_a_err": (figures["case_a_err"], "rel"),
        "toy_disks_analytic.toy1_err": (
            max(v for k, v in figures.items() if k.startswith("toy1_err.")), "rel"),
        "toy_disks_mc.ensemble_s": (ensemble, "s"),
        "toy_disks_mc.sample_centers_s": (centers, "s"),
        "toy_disks_mc.sample_points_s": (points, "s"),
        "toy_disks_mc.estimate_s": (ensemble - centers - points, "s"),
        "toy_disks_mc.pairs": (sum(v for k, v in figures.items() if k.startswith("pairs.")), "count"),
        "toy_disks_mc.inband_frac": (min(figures["inband.a"], figures["inband.b"]), "fraction"),
    }


def _cli(spans, workload):
    import corrpeaks as cp
    from corrpeaks import csvio

    out = {f"cli.{job}_s": (_total(named(spans, "job:" + job)), "s")
           for job in ("transform", "resum", "analyze", "toy2", "toy1")}
    out["cli.mc_s"] = (_total(named(spans, "job:mc-t1")), "s")
    spec = cp.PowerSpectrum(range(2001), workload.refs["c2"])
    path = workload.dir / "csvio_probe.csv"
    writes, reads = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        csvio.write_spectrum(path, spec)
        t1 = time.perf_counter()
        csvio.read_spectrum(path)
        writes.append(t1 - t0)
        reads.append(time.perf_counter() - t1)
    out["csvio.write_s"] = (statistics.median(writes), "s")
    out["csvio.read_s"] = (statistics.median(reads), "s")
    out["csvio.bytes"] = (path.stat().st_size, "bytes")
    return out


def from_spans(name, spans, figures, workload):
    if name == "spectra":
        return _spectra(spans, figures, workload)
    if name == "disks":
        return _disks(spans, figures)
    return _cli(spans, workload)
