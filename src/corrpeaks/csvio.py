"""CSV and key-value config I/O for every artifact the package emits.

All files are UTF-8 text with '\\n' line endings, a mandatory header row,
and optional '# key = value' manifest lines above it.  Numbers use
%.12g, NaN is written as an empty field, and angles cross this boundary
in degrees; nothing here depends on locale or time, so identical inputs
give byte-identical files.
"""

import math

import numpy as np

from .transforms import PowerSpectrum, TabulatedCorrelation

__all__ = [
    "CsvFormatError",
    "write_correlation",
    "read_correlation",
    "write_spectrum",
    "read_spectrum",
    "write_ensemble_stats",
    "peak_summary",
    "write_peak_report",
    "write_summary",
    "read_config",
]


class CsvFormatError(ValueError):
    """Malformed input file; the message carries the file and line number."""


def _fmt(x):
    x = float(x)
    if math.isnan(x):
        return ""
    return "%.12g" % x


def _manifest_lines(manifest):
    out = []
    for key in sorted(manifest or {}):
        value = manifest[key]
        if isinstance(value, float):
            value = "%.12g" % value
        out.append(f"# {key} = {value}")
    return out


def _write_table(path, header, rows, manifest):
    lines = _manifest_lines(manifest)
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_lines(path):
    """Yield (line_number, logical line), skipping comments and blanks."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _parse_float(token, path, lineno):
    token = token.strip()
    if token == "":
        return float("nan")
    try:
        return float(token)
    except ValueError:
        raise CsvFormatError(
            f"{path}:{lineno}: not a number: {token!r}"
        ) from None


def _read_columns(path, expected):
    """The data rows, as float lists, of a CSV whose header is ``expected``.

    Raises CsvFormatError with a line number on any structural problem.
    """
    rows = []
    header = None
    for lineno, line in _parse_lines(path):
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            header = fields
            if header != expected:
                raise CsvFormatError(
                    f"{path}:{lineno}: unexpected header {header!r}; expected {expected}"
                )
            continue
        if len(fields) != len(header):
            raise CsvFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        rows.append([_parse_float(f, path, lineno) for f in fields])
    if header is None:
        raise CsvFormatError(f"{path}: empty file (no header row)")
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return rows


def write_correlation(path, tab, manifest=None):
    """Write a TabulatedCorrelation as theta_deg,value."""
    rows = ((_fmt(math.degrees(t)), _fmt(v)) for t, v in zip(tab.theta, tab.values))
    _write_table(path, ["theta_deg", "value"], rows, manifest)


def read_correlation(path):
    data = np.array(_read_columns(path, ["theta_deg", "value"]))
    try:
        return TabulatedCorrelation(np.radians(data[:, 0]), data[:, 1])
    except ValueError as exc:
        raise CsvFormatError(f"{path}: {exc}") from None


def write_spectrum(path, spec, manifest=None):
    """Write a PowerSpectrum as ell_or_k,value."""
    rows = ((_fmt(g), _fmt(v)) for g, v in zip(spec.grid, spec.values))
    _write_table(path, ["ell_or_k", "value"], rows, manifest)


def read_spectrum(path):
    data = np.array(_read_columns(path, ["ell_or_k", "value"]))
    try:
        return PowerSpectrum(data[:, 0], data[:, 1])
    except ValueError as exc:
        raise CsvFormatError(f"{path}: {exc}") from None


def write_ensemble_stats(path, stats, manifest=None):
    """Write RealizationStats as theta_deg,mean,rms,n_pairs."""
    rows = (
        (_fmt(math.degrees(t)), _fmt(m), _fmt(r), str(int(n)))
        for t, m, r, n in zip(stats.theta, stats.mean, stats.rms, stats.n_pairs)
    )
    _write_table(path, ["theta_deg", "mean", "rms", "n_pairs"], rows, manifest)


def peak_summary(report):
    """A PeakReport's summary quantities as key -> text; NaN reads "nan"."""
    measured = ("quasi_period", "quasi_period_std", "envelope_exponent", "envelope_stderr", "score")
    return {
        "n_peaks": report.n_peaks,
        **{key: _fmt(getattr(report, key)) or "nan" for key in measured},
        "detected": str(bool(report.detected)).lower(),
    }


def write_peak_report(path, report, manifest=None):
    """Write a PeakReport: summary quantities as manifest keys, peaks as rows."""
    rows = ((_fmt(loc), _fmt(h)) for loc, h in zip(report.locations, report.heights))
    _write_table(path, ["location", "height"], rows, {**(manifest or {}), **peak_summary(report)})


def write_summary(path, entries):
    """Write a flat key = value summary file (machine-readable verdicts)."""
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_config(path):
    """Parse a flat key = value config file with '#' comments.

    Values stay strings; the consumer knows the types.  Duplicate keys
    keep the last occurrence, matching how override files are layered.
    """
    out = {}
    for lineno, line in _parse_lines(path):
        if "=" not in line:
            raise CsvFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise CsvFormatError(f"{path}:{lineno}: empty key")
        out[key] = value.strip()
    return out
