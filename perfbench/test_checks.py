"""Self-tests of the benchmark's checks: each must reject a wrong output.

    python3 -m pytest perfbench/test_checks.py

The references are also tested against each other where two
independent routes to the same number exist.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks as ck  # noqa: E402


# ---------------------------------------------------------------------------
# references agree with each other

def test_composite_gauss_reference_matches_cap_closed_form():
    theta0 = math.radians(3.0)
    ells = np.array([0, 1, 7, 333, 2000])
    cap = lambda t: (t <= theta0).astype(float)  # noqa: E731
    quad = ck.legendre_reference(cap, (theta0,), ells)
    closed = ck.cap_closed_form(theta0, 2000)[ells]
    assert ck.peak_relative_error(quad, closed) < 1e-12


def test_composite_gauss_reference_matches_cap_closed_form_at_ell_6000():
    theta0 = math.radians(1.03)
    ells = np.array([0, 2001, 4321, 6000])
    cap = lambda t: (t <= theta0).astype(float)  # noqa: E731
    quad = ck.legendre_reference(cap, (theta0,), ells)
    closed = ck.cap_closed_form(theta0, 6000)[ells]
    assert ck.peak_relative_error(quad, closed) < 1e-12


def test_case_b_reference_is_flat_beyond_the_hard_core():
    # Past 4R no disk within 2R of the second point can overlap the hard core.
    r, n = math.radians(1.0), 1005.0
    far = ck.toy1_reference("b", 4.5 * r, n, r)
    assert abs(far / (n**2 * r**4 / 16.0) - 1) < 1e-7


def test_exp_disk_overlap_against_its_integrals():
    r = math.radians(1.0)
    # at zero offset: Integral f^2 = 2 pi Integral r exp(-2r/R) dr
    at_zero = 2 * math.pi * r**2 / 4 * (1 - 3 * math.exp(-2))
    assert abs(ck.exp_disk_overlap(0.0, r) / at_zero - 1) < 1e-10
    # over all offsets: (Integral f)^2
    total = integrate.quad(lambda s: 2 * math.pi * s * ck.exp_disk_overlap(s, r), 0.0, 2 * r,
                           points=[r], epsrel=1e-9)[0]
    assert abs(total / (2 * math.pi * r**2 * (1 - 2 / math.e)) ** 2 - 1) < 1e-6


def test_resum_reference_on_two_multipoles():
    theta = np.array([0.0, 0.4, 2.0])
    got = ck.resum_reference(np.array([2.0, 0.5]), theta)
    want = (2.0 + 3 * 0.5 * np.cos(theta)) / (4 * math.pi)
    assert np.allclose(got, want, rtol=1e-14)


def test_case_a_closed_form_is_flat_beyond_the_diameter():
    r = math.radians(1.0)
    far = ck.case_a_closed_form(np.array([2.5 * r, 3.5 * r]), 1000.0, r)
    assert np.allclose(far, 1000.0**2 * r**4 / 16.0, rtol=1e-15)


def test_toy2_uniform_reference_is_continuous_at_its_join():
    fn, breaks, _ = ck.REFERENCE_MODELS["toy2-uniform"]
    b = breaks[0]
    # continuous at the join, as the closed form is
    assert abs(fn(np.array([b * (1 - 1e-12)]))[0] - fn(np.array([b * (1 + 1e-12)]))[0]) < 1e-12


# ---------------------------------------------------------------------------
# each check rejects a wrong output

def test_perturbed_spectrum_fails():
    ref = np.array([3.0, 1.0, -0.5, 0.25])
    assert ck.check_close("ok", ref * (1 + 1e-12), ref, ck.SPECTRUM_TOL) < 1e-11
    bad = ref.copy()
    bad[2] *= 1 + 1e-6
    with pytest.raises(ck.CheckFailed):
        ck.check_close("perturbed", bad, ref, ck.SPECTRUM_TOL)


def test_nonfinite_or_misshaped_spectrum_fails():
    ref = np.array([1.0, 2.0])
    with pytest.raises(ck.CheckFailed):
        ck.check_close("nan", np.array([1.0, np.nan]), ref, 1.0)
    with pytest.raises(ck.CheckFailed):
        ck.check_close("shape", np.array([1.0]), ref, 1.0)


def test_flipped_verdict_fails():
    ck.check_verdict("c2", True, True)
    with pytest.raises(ck.CheckFailed):
        ck.check_verdict("c1", True, False)


def test_wrong_peak_spacing_fails():
    locations = 60.0 * np.arange(1, 40)
    assert ck.check_spacing("ok", ck.tail_spacing(locations), 60.0, 0.15) == 0.0
    with pytest.raises(ck.CheckFailed):
        ck.check_spacing("wide", ck.tail_spacing(1.2 * locations), 60.0, 0.15)
    with pytest.raises(ck.CheckFailed):
        ck.tail_spacing(np.array([10.0]))


def test_scaled_toy1_curve_fails():
    r = math.radians(1.0)
    theta = np.linspace(0.1, 3.0, 12) * r
    exact = ck.case_a_closed_form(theta, 1005.0, r)
    assert ck.check_case_a(exact, theta, 1005.0, r) < 1e-14
    with pytest.raises(ck.CheckFailed):
        ck.check_case_a(1.001 * exact, theta, 1005.0, r)


@pytest.mark.parametrize("case", ["b", "c", "d"])
def test_scaled_toy1_b_c_d_curves_fail(case):
    r, n = math.radians(1.0), 80.0 * 4 * math.pi
    theta = np.radians([0.7, 2.3])
    ref = np.array([ck.toy1_reference(case, t, n, r) for t in theta])
    assert ck.check_toy1(case, ref * (1 + 1e-6), ref) < 2e-6
    for factor in (0.5, 1.001):
        with pytest.raises(ck.CheckFailed):
            ck.check_toy1(case, factor * ref, ref)
    with pytest.raises(ck.CheckFailed):
        ck.check_toy1(case, ref[::-1], ref)


def test_case_d_above_case_c_fails():
    c = np.array([3.0, 2.0, 1.0])
    ck.check_below("ok", 0.9 * c, c)
    with pytest.raises(ck.CheckFailed):
        ck.check_below("above", np.array([2.0, 2.5, 0.5]), c)


def test_analytic_curve_outside_the_band_fails():
    analytic = np.linspace(2.0, 1.0, 20)
    mean, rms = analytic - 1.0, np.full(20, 0.05)
    assert ck.check_inband("ok", analytic, mean, rms) == 1.0
    shifted = analytic.copy()
    shifted[5:] += 0.2
    with pytest.raises(ck.CheckFailed):
        ck.check_inband("shifted", shifted, mean, rms)


def test_nan_ensemble_means_fail_the_operation():
    ck.check_ensemble_means(np.array([0.1, np.nan]), np.array([5, 0]))
    with pytest.raises(ck.OperationFailed):
        ck.check_ensemble_means(np.array([0.1, np.nan]), np.array([5, 3]))


def test_wrong_exit_code_fails_the_operation():
    ck.check_exit("ok", 0, 0)
    with pytest.raises(ck.OperationFailed):
        ck.check_exit("toy2 --n-theta 0", 2, 1, "corrpeaks: float division by zero\n")


def test_changed_bytes_fail():
    ck.check_identical("same", b"a,b\n1,2\n", b"a,b\n1,2\n")
    with pytest.raises(ck.CheckFailed):
        ck.check_identical("threads", b"a,b\n1,2\n", b"a,b\n1,3\n")


def test_csv_column_beyond_rounding_fails(tmp_path):
    ref = np.array([1.0 / 3.0, -2.0e-7, np.nan])
    path = tmp_path / "t.csv"
    rows = "\n".join(f"{i},{'' if np.isnan(v) else '%.12g' % v}" for i, v in enumerate(ref))
    path.write_text("# seed = 1\nell_or_k,value\n" + rows + "\n", encoding="utf-8")
    header, data = ck.read_csv(path)
    assert header == ["ell_or_k", "value"]
    ck.check_csv_column("round trip", data[:, 1], ref)
    with pytest.raises(ck.CheckFailed):
        ck.check_csv_column("perturbed", data[:, 1] * (1 + 1e-9), ref)
    with pytest.raises(ck.CheckFailed):
        ck.check_csv_column("nan moved", np.array([np.nan, -2.0e-7, 1.0]), ref)


# ---------------------------------------------------------------------------
# the workload's own wiring counts a failure once, in the right place

def test_disks_pass_counts_nan_means_as_failed():
    workloads = pytest.importorskip("workloads")
    from tracing import Tracer

    disks = workloads.Disks(0, Tracer(False))
    bins = disks.configs["ens-a"].n_bins
    good = SimpleNamespace(mean=np.zeros(bins), rms=np.ones(bins),
                           n_pairs=np.ones(bins, dtype=int), per_realization=np.zeros((2, bins)))
    sparse = SimpleNamespace(mean=np.full(bins, np.nan), rms=np.full(bins, np.nan),
                             n_pairs=np.ones(bins, dtype=int), per_realization=np.zeros((2, bins)))
    result = workloads.Pass()
    result.outputs = {"ens-a": good, "ens-b": good, "ens-vr": good, "ens-sparse": sparse}
    workloads.check_pass(disks, result)
    assert list(result.failed) == ["ens-sparse"]
    assert result.errors == []
