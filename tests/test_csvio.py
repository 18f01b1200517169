"""CSV round trips, manifest headers, and parse diagnostics."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from corrpeaks import (
    PowerSpectrum,
    TabulatedCorrelation,
    analyze_spectrum,
    run_ensemble,
)
from corrpeaks.csvio import (
    CsvFormatError,
    read_config,
    read_correlation,
    read_spectrum,
    write_correlation,
    write_ensemble_stats,
    write_peak_report,
    write_spectrum,
    write_summary,
)
from corrpeaks.toy_disks_mc import DiskEnsembleConfig


def test_correlation_round_trip(tmp_path):
    theta = np.linspace(0.001, 3.0, 40)
    tab = TabulatedCorrelation(theta, np.cos(theta) * 17.25)
    path = tmp_path / "corr.csv"
    write_correlation(path, tab, {"seed": 3, "note": "round trip"})
    back = read_correlation(path)
    npt.assert_allclose(back.theta, tab.theta, rtol=1e-11)
    npt.assert_allclose(back.values, tab.values, rtol=1e-11)

    text = path.read_text()
    assert text.startswith("#")
    assert "# note = round trip\n" in text
    assert "theta_deg,value" in text


def test_nan_values_survive_as_blanks(tmp_path):
    theta = np.array([0.1, 0.2, 0.3])
    vals = np.array([1.0, np.nan, 3.0])
    path = tmp_path / "gaps.csv"
    write_correlation(path, TabulatedCorrelation(theta, vals))
    assert ",\n" in path.read_text() or path.read_text().splitlines()[-2].endswith(",")
    back = read_correlation(path)
    assert np.isnan(back.values[1])
    npt.assert_allclose(back.values[[0, 2]], [1.0, 3.0])


def test_spectrum_round_trip(tmp_path):
    spec = PowerSpectrum(np.arange(10.0), np.linspace(-1.0, 2.0, 10))
    path = tmp_path / "spec.csv"
    write_spectrum(path, spec, {"command": "transform"})
    back = read_spectrum(path)
    npt.assert_allclose(back.grid, spec.grid, atol=1e-14)
    npt.assert_allclose(back.values, spec.values, rtol=1e-11)


def test_ensemble_stats_round_trip(tmp_path):
    cfg = DiskEnsembleConfig(
        n_disks=20,
        radius=math.radians(1.0),
        points_per_disk=8,
        patch_size=0.5,
        n_realizations=4,
        seed=1,
        n_bins=12,
    )
    stats = run_ensemble(cfg)
    path = tmp_path / "stats.csv"
    write_ensemble_stats(path, stats, {"seed": 1})
    lines = path.read_text().splitlines()
    header = lines.index("theta_deg,mean,rms,n_pairs")
    assert all(line.startswith("#") for line in lines[:header])
    rows = lines[header + 1 :]
    theta, mean, rms, n_pairs = np.genfromtxt(rows, delimiter=",").T  # "" reads as NaN
    npt.assert_allclose(np.radians(theta), stats.theta, rtol=1e-11)
    npt.assert_allclose(
        np.nan_to_num(mean, nan=-9.0), np.nan_to_num(stats.mean, nan=-9.0), rtol=1e-11, atol=1e-13
    )
    npt.assert_allclose(
        np.nan_to_num(rms, nan=-9.0), np.nan_to_num(stats.rms, nan=-9.0), rtol=1e-11, atol=1e-13
    )
    npt.assert_array_equal(n_pairs, stats.n_pairs)
    assert all(row.rsplit(",", 1)[1].isdigit() for row in rows)  # integer pair counts


def test_peak_report_header_carries_the_verdict(tmp_path):
    k = np.linspace(0.5, 60.0, 4000)
    report = analyze_spectrum(PowerSpectrum(k, np.sin(5 * k) ** 2 + 1e-9))
    path = tmp_path / "peaks.csv"
    write_peak_report(path, report)
    text = path.read_text()
    assert "# detected = true\n" in text
    assert f"# n_peaks = {report.n_peaks}\n" in text
    assert "location,height" in text


def test_summary_is_sorted_key_value(tmp_path):
    path = tmp_path / "summary.txt"
    write_summary(path, {"b": 2, "a": "x"})
    assert path.read_text() == "a = x\nb = 2\n"


def test_config_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "n_disks = 80\n"
        "radius_deg = 1.0\n"
        "\n"
        "n_disks = 120\n"  # last one wins
        "hard_core = true\n"
    )
    cfg = read_config(path)
    assert cfg["n_disks"] == "120"
    assert cfg["hard_core"] == "true"
    assert len(cfg) == 3


def test_config_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_disks = 80\njust some words\n")
    with pytest.raises(CsvFormatError, match=r"bad\.cfg:2"):
        read_config(path)
    path.write_text(" = 4\n")
    with pytest.raises(CsvFormatError, match="empty key"):
        read_config(path)


def test_malformed_csv_reports_position(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("theta_deg,value\n0.1,1.0\n0.2,banana\n")
    with pytest.raises(CsvFormatError, match=r"broken\.csv:3"):
        read_correlation(path)

    path.write_text("theta_deg,value\n0.1,1.0,9.9\n")
    with pytest.raises(CsvFormatError, match=r":2"):
        read_correlation(path)


def test_wrong_header_is_rejected(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("angle,value\n0.1,1.0\n")
    with pytest.raises(CsvFormatError, match="header"):
        read_correlation(path)
    with pytest.raises(CsvFormatError):
        read_spectrum(path)


def test_semantically_invalid_table_is_a_format_error(tmp_path):
    path = tmp_path / "bad_grid.csv"
    path.write_text("theta_deg,value\n0.2,1.0\n0.1,2.0\n")  # decreasing grid
    with pytest.raises(CsvFormatError, match="increasing"):
        read_correlation(path)
