"""What the traced benchmark run needs from the package.

``perfbench/run.py --trace 1`` times the import of ``corrpeaks`` and of
the scipy modules it reads by name, and wraps package functions where the
package's own callers look them up.  These tests run the benchmark's own
probes and target list, so they follow the benchmark when it changes.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracing import Tracer, named  # noqa: E402


def test_import_probes_find_every_module_they_time(monkeypatch):
    # a module that `import corrpeaks` no longer imports is missing from
    # the import-time table, and the probe fails on it
    monkeypatch.setattr(layers, "REPEATS", 1)
    out = layers.probes()
    for metric in layers.IMPORTS:
        seconds, unit = out[metric]
        assert unit == "s" and seconds > 0, metric


def test_patch_targets_are_module_functions():
    # the tracer replaces each target with a wrapper, so each must be a
    # callable attribute of its module, looked up there by its callers
    for module, name in layers.patch_targets():
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


@pytest.mark.parametrize("threads", [1, 2])
def test_ensemble_draws_through_the_patched_samplers(threads):
    # the traced disks run times sample_centers and sample_disk_points by
    # their spans; an ensemble that reached the samplers some other way
    # would leave those per-layer metrics empty
    from corrpeaks import DiskEnsembleConfig, run_ensemble

    cfg = DiskEnsembleConfig(n_disks=6, points_per_disk=4, n_realizations=5, patch_size=0.5)
    tracer = Tracer(enabled=True)
    with tracer.patched(layers.patch_targets()):
        run_ensemble(cfg, threads=threads)
    for name in ("toy_disks_mc.sample_centers", "toy_disks_mc.sample_disk_points"):
        assert len(named(tracer.spans, name)) == cfg.n_realizations, name


def test_analysis_runs_the_patched_peak_finder_once():
    # the traced spectra run reads peak_analysis.find_peaks_calls as
    # find_peaks spans per analyze_spectrum call; an analysis that reached
    # the finder some other way would read 0, one that ran it twice 2
    from corrpeaks import PowerSpectrum, analyze_spectrum

    k = np.linspace(1.0, 60.0, 600)
    tracer = Tracer(enabled=True)
    with tracer.patched(layers.patch_targets()):
        report = analyze_spectrum(PowerSpectrum(k, np.sin(k) ** 2 / k**2 + 1e-6))
    assert report.n_peaks > 0
    assert len(named(tracer.spans, "peak_analysis.find_peaks")) == 1
