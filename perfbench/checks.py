"""Correctness checks for the benchmark, computed apart from corrpeaks.

Every reference here is built from scipy and numpy alone: the reference
correlation models are written out from their closed forms, Legendre
polynomials come from ``scipy.special.eval_legendre`` and quadrature from
composite Gauss rules of low order.  Nothing in this module imports
corrpeaks, so a fault in the program cannot hide in its own reference.

Two kinds of failure are kept apart:

* ``CheckFailed``: the program returned a result and the result is
  wrong.  Any one of these makes the run incorrect.
* ``OperationFailed``: the operation returned no usable result (it
  raised, exited with the wrong code, or left NaN where data exists).
  These are counted as failed operations.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import eval_legendre, roots_legendre

# Tolerances, as fractions of the peak magnitude of the quantity compared.
SPECTRUM_TOL = 1e-8
CAP_TOL = 1e-8
ROUNDTRIP_TOL = 1e-8
RESUM_TOL = 1e-9
SMALL_ANGLE_TOL = 5e-4
CAP_SPACING_TOL = 0.03
TAIL_SPACING_TOL = 0.15
CASE_A_RTOL = 2e-4
# toy1 is calibrated to about 1e-5 of the exact curve in every case.
TOY1_RTOL = 2e-4
INBAND_FLOOR = 0.90
# CSV numbers are written with %.12g: a round trip keeps 12 digits.
CSV_RTOL = 1e-11

# Composite reference rule: Gauss order per sub-panel, and radians of
# cos(ell theta) phase allowed per sub-panel at the highest ell.
REF_ORDER = 64
REF_PHASE = 40.0


class CheckFailed(AssertionError):
    """A returned result is wrong."""


class OperationFailed(RuntimeError):
    """An operation produced no usable result."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reference correlation models (closed forms, angles in radians)

def _double_exp(a1, a2, s1, s2):
    return lambda t: a1 * np.exp(-t / s1) + a2 * np.exp(-t / s2)


def _broken_exp(a1, a2, s1, s2, t_star):
    return lambda t: np.where(t <= t_star, a1 * np.exp(-t / s1), a2 * np.exp(-t / s2))


def _toy2_uniform(r_min, r_max):
    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inner = t <= 2 * r_min
        out[inner] = (r_max - r_min) - 0.5 * math.log(r_max / r_min) * t[inner]
        mid = (t > 2 * r_min) & (t < 2 * r_max)
        tm = t[mid]
        out[mid] = r_max - 0.5 * (1 + math.log(2)) * tm + 0.5 * tm * np.log(tm / r_max)
        return out
    return fn


def _toy2_distance(a0, length, r_min, r_max):
    t1, t2 = 2 * length / r_max, 2 * length / r_min

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inner = t <= t1
        out[inner] = (r_max - r_min) / length - (r_max**2 - r_min**2) / (4 * length**2) * t[inner]
        mid = (t > t1) & (t < t2)
        out[mid] = -r_min / length + 1 / t[mid] + r_min**2 / (4 * length**2) * t[mid]
        return a0**2 * out
    return fn, (t1, t2)


_rad = math.radians
_td_fn, _td_breaks = _toy2_distance(0.02, 1.0, 3.0, 50.0)

# name -> (C(theta), breakpoints, oscillation expected)
REFERENCE_MODELS = {
    "c1": (_double_exp(9744.0, 3000.0, _rad(0.45), _rad(13.0)), (), False),
    "c2": (_broken_exp(12000.0, 3600.0, _rad(0.79), _rad(11.45), _rad(1.03)),
           (_rad(1.03),), True),
    "toy2-uniform": (_toy2_uniform(_rad(1.0), _rad(2.0)), (_rad(2.0), _rad(4.0)), True),
    "toy2-distance": (_td_fn, _td_breaks, True),
}
C2_THETA_STAR = _rad(1.03)


def composite_gauss(breakpoints, ell_max, lo=0.0, hi=math.pi):
    """Nodes and weights of a composite Gauss rule on [lo, hi].

    Panels end at the breakpoints; each panel is cut into sub-panels
    short enough that cos(ell_max theta) turns through at most
    REF_PHASE radians on each.
    """
    x, w = roots_legendre(REF_ORDER)
    cuts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    nodes, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        m = max(1, math.ceil((b - a) * max(ell_max, 1) / REF_PHASE))
        edges = np.linspace(a, b, m + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        nodes.append((mid[:, None] + half[:, None] * x[None, :]).ravel())
        weights.append((half[:, None] * w[None, :]).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def legendre_reference(fn, breakpoints, ells):
    """C_ell = 2 pi Integral C(theta) P_ell(cos theta) sin theta dtheta at the given ells."""
    ells = np.asarray(ells, dtype=int)
    theta, w = composite_gauss(breakpoints, int(ells.max()))
    base = 2.0 * math.pi * w * np.sin(theta) * fn(theta)
    x = np.cos(theta)
    return np.array([base @ eval_legendre(int(ell), x) for ell in ells])


def cap_closed_form(theta0, ell_max):
    """Spectrum of the cap C = 1 for theta <= theta0, zero beyond.

    C_0 = 2 pi (1 - x0) and C_ell = 2 pi (P_{ell-1}(x0) - P_{ell+1}(x0)) / (2 ell + 1).
    """
    x0 = math.cos(theta0)
    ell = np.arange(ell_max + 1)
    out = np.empty(ell_max + 1)
    out[0] = 2.0 * math.pi * (1.0 - x0)
    e = ell[1:]
    out[1:] = 2.0 * math.pi * (eval_legendre(e - 1, x0) - eval_legendre(e + 1, x0)) / (2 * e + 1)
    return out


def resum_reference(coeffs, theta):
    """C(theta) = Sum (2 ell + 1) C_ell P_ell(cos theta) / (4 pi) at a few angles."""
    ell = np.arange(coeffs.size)
    scale = (2 * ell + 1) * coeffs / (4.0 * math.pi)
    return np.array([scale @ eval_legendre(ell, math.cos(t)) for t in theta])


def lens_area(theta, radius):
    """Overlap area of two disks of the given radius at centre separation theta."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    m = theta < 2 * radius
    t = theta[m]
    out[m] = 2 * radius**2 * np.arccos(t / (2 * radius)) - 0.5 * t * np.sqrt(4 * radius**2 - t * t)
    return out


def case_a_closed_form(theta, n_disks, radius):
    """Top-hat disks with Poisson centres: lens term plus the flat pair baseline."""
    return n_disks * lens_area(theta, radius) / (4 * math.pi) + n_disks**2 * radius**4 / 16.0


def _gauss_panel(a, b, order=REF_ORDER):
    """Gauss nodes and weights on [a, b]; a and b may be arrays of panel ends."""
    x, w = roots_legendre(order)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    return 0.5 * (a + b)[..., None] + half[..., None] * x, half[..., None] * w


def exp_disk_overlap(s, radius):
    """Integral of f(|x|) f(|x + s e|) over the plane, f = exp(-r/R) on r <= R.

    The lens-area analogue for the exponential profile: for each x at
    radius r, the directions that keep x + s e inside the disk form one
    arc, so a Gauss rule over r (cut at the profile's kinks) times one
    over that arc covers the overlap exactly.
    """
    if s >= 2 * radius:
        return 0.0
    r_disk = radius
    cuts = sorted({0.0, r_disk, *(c for c in (s, abs(r_disk - s)) if 0 < c < r_disk)})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        r, wr = _gauss_panel(a, b)
        lo = np.arccos(np.clip((r_disk**2 - r * r - s * s) / (2 * r * max(s, 1e-300)), -1.0, 1.0))
        psi, wp = _gauss_panel(lo, np.full_like(lo, math.pi))
        d = np.sqrt(np.maximum(r[:, None] ** 2 + s * s + 2 * r[:, None] * s * np.cos(psi), 0.0))
        arc = 2.0 * np.sum(wp * np.exp(-d / r_disk), axis=1)
        total += float(np.sum(wr * r * np.exp(-r / r_disk) * arc))
    return total


def toy1_reference(case, theta, n_disks, radius):
    """Flat-sky correlation of the preset disk fields b, c and d at one angle.

    With A(s) the overlap integral of two disk profiles at centre offset s
    and 1 + omega the pair density of centres,

        C(theta) = (n/4pi) A(theta)
                   + (n/4pi)^2 Integral d2c (1 + omega(|c|)) A(|c - theta e|).

    The presets, written out: b is top-hat disks whose centres keep 2R
    apart (1 + omega = 0 below 2R, 1 beyond); c is top-hat disks with
    1 + omega = 2 exp(-|c|/R); d is the profile exp(-r/R) with the centres
    of c.  The plane integral runs in polar coordinates (s, phi) about
    theta e, with s < 2R where A is non-zero; for b the phi range is the
    arc outside the hard core, for c and d a ``quad`` over phi.
    """
    r2 = 2.0 * radius
    if case == "d":
        overlap = lambda s: exp_disk_overlap(s, radius)  # noqa: E731
    elif case in ("b", "c"):
        overlap = lambda s: float(lens_area(np.array([s]), radius)[0])  # noqa: E731
    else:
        raise ValueError(f"no reference for case {case!r}")

    def centre_weight(s):
        if case == "b":
            cos_lo = (r2 * r2 - theta * theta - s * s) / (2 * theta * s)
            return 2.0 * math.acos(min(max(cos_lo, -1.0), 1.0))

        def density(phi):
            c = math.sqrt(max(theta * theta + s * s + 2 * theta * s * math.cos(phi), 0.0))
            return 2.0 * math.exp(-c / radius)

        return 2.0 * integrate.quad(density, 0.0, math.pi, epsabs=0.0, epsrel=1e-9, limit=200)[0]

    kinks = [p for p in (theta, abs(r2 - theta)) if 0 < p < r2]
    other = integrate.quad(lambda s: s * overlap(s) * centre_weight(s), 0.0, r2,
                           points=kinks or None, epsabs=0.0, epsrel=1e-8, limit=200)[0]
    rate = n_disks / (4 * math.pi)
    return rate * overlap(theta) + rate**2 * other


# ---------------------------------------------------------------------------
# checks: each returns its figure of merit and raises when out of tolerance

def peak_relative_error(values, reference):
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    require(values.shape == reference.shape,
            f"shape {values.shape} differs from reference {reference.shape}")
    scale = np.max(np.abs(reference))
    require(scale > 0, "reference is identically zero")
    err = float(np.max(np.abs(values - reference)) / scale)
    require(math.isfinite(err), "result holds non-finite values")
    return err


def check_close(what, values, reference, tol):
    err = peak_relative_error(values, reference)
    require(err <= tol, f"{what}: error {err:.3g} of peak exceeds {tol:g}")
    return err


def check_verdict(what, detected, expected):
    require(bool(detected) == bool(expected),
            f"{what}: oscillation detected={bool(detected)}, expected {bool(expected)}")


def check_spacing(what, spacing, target, tol):
    dev = abs(spacing / target - 1.0)
    require(math.isfinite(dev) and dev <= tol,
            f"{what}: peak spacing {spacing:.4g} vs pi/theta = {target:.4g} "
            f"({dev:.1%}, limit {tol:.0%})")
    return dev


def tail_spacing(locations):
    """Mean spacing of the peaks beyond three times the first peak."""
    locations = np.asarray(locations, dtype=float)
    require(locations.size >= 2, f"only {locations.size} peaks")
    tail = locations[locations >= 3 * locations[0]]
    require(tail.size >= 2, f"only {tail.size} tail peaks")
    return float(np.mean(np.diff(tail)))


def check_case_a(values, theta, n_disks, radius):
    ref = case_a_closed_form(theta, n_disks, radius)
    rel = float(np.max(np.abs(np.asarray(values) - ref) / np.abs(ref)))
    require(rel <= CASE_A_RTOL, f"case a: {rel:.3g} from the lens-area closed form (rtol {CASE_A_RTOL:g})")
    return rel


def check_toy1(what, values, reference):
    values, reference = np.asarray(values, dtype=float), np.asarray(reference, dtype=float)
    require(values.shape == reference.shape, f"{what}: {values.size} values, expected {reference.size}")
    rel = float(np.max(np.abs(values - reference) / np.abs(reference)))
    require(math.isfinite(rel) and rel <= TOY1_RTOL,
            f"{what}: {rel:.3g} from the reference integral (rtol {TOY1_RTOL:g})")
    return rel


def check_below(what, lower, upper):
    lower, upper = np.asarray(lower), np.asarray(upper)
    require(lower.shape == upper.shape and np.all(np.isfinite(lower)) and np.all(np.isfinite(upper)),
            f"{what}: curves not comparable")
    require(bool(np.all(lower < upper)),
            f"{what}: above at {int(np.sum(lower >= upper))} of {lower.size} angles")


def inband_fraction(analytic, mc_mean, mc_rms):
    """Criterion 6: share of bins where the analytic curve lies inside the
    r.m.s. band of the ensemble, after fixing the estimator's overall
    factor at the first bin."""
    analytic = np.asarray(analytic, dtype=float)
    one_plus = 1.0 + np.asarray(mc_mean, dtype=float)
    alpha = analytic[0] / one_plus[0]
    inside = np.abs(analytic - alpha * one_plus) <= alpha * np.asarray(mc_rms, dtype=float)
    return float(np.mean(inside))


def check_inband(what, analytic, mc_mean, mc_rms):
    frac = inband_fraction(analytic, mc_mean, mc_rms)
    require(frac >= INBAND_FLOOR, f"{what}: {frac:.1%} of bins in band (floor {INBAND_FLOOR:.0%})")
    return frac


def check_ensemble_means(mean, n_pairs):
    """Every bin that caught pairs must carry a finite ensemble mean."""
    mean, n_pairs = np.asarray(mean, dtype=float), np.asarray(n_pairs)
    bad = int(np.sum((n_pairs > 0) & ~np.isfinite(mean)))
    if bad:
        raise OperationFailed(
            f"{bad} of {int(np.sum(n_pairs > 0))} bins with pairs have a NaN ensemble mean")


def check_exit(what, code, expected, stderr=""):
    if code != expected:
        tail = stderr.strip().splitlines()[-1:] if stderr else []
        raise OperationFailed(f"{what}: exit {code}, expected {expected} {tail}")


def check_identical(what, first, later):
    require(first == later, f"{what}: output differs between runs")


# ---------------------------------------------------------------------------
# command-line outputs

def read_csv(path):
    """Header and float columns of a corrpeaks CSV; '#' lines skipped, '' is NaN."""
    header, rows = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if header is None:
                header = fields
                continue
            require(len(fields) == len(header), f"{path}: ragged row {line!r}")
            rows.append([float(f) if f else math.nan for f in fields])
    require(header is not None and rows, f"{path}: no data")
    return header, np.array(rows)


def read_key_values(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                line = line[1:].strip()
            if "=" in line:
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    return out


def check_csv_column(what, column, reference):
    """CSV numbers equal the in-process values to the %.12g rounding."""
    column = np.asarray(column, dtype=float)
    reference = np.asarray(reference, dtype=float)
    require(column.shape == reference.shape, f"{what}: {column.size} rows, expected {reference.size}")
    nan_c, nan_r = np.isnan(column), np.isnan(reference)
    require(bool(np.array_equal(nan_c, nan_r)), f"{what}: missing values differ")
    ok = ~nan_r
    diff = np.abs(column[ok] - reference[ok])
    bad = diff > CSV_RTOL * np.abs(reference[ok]) + 1e-300
    require(not np.any(bad), f"{what}: {int(np.sum(bad))} values differ beyond %.12g rounding")
