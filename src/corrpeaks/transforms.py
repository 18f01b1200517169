"""Transforms between angular correlation functions and their spectra.

The full-sky pair is the Legendre transform

    C_ell = 2 pi Integral_0^pi C(theta) P_ell(cos theta) sin theta dtheta
    C(theta) = (1/4pi) Sum_ell (2 ell + 1) C_ell P_ell(cos theta)

and the small-angle (flat) limit replaces P_ell(cos theta) by J_0(k theta)
with k = ell + 1/2.  Everything is evaluated on fixed-order Gauss-Legendre
nodes; integrands with kinks are handled by splitting the quadrature into
panels at the model breakpoints, never by adaptive subdivision, so repeated
runs are bit-identical.  The full-range order is the band share of the
band limit plus a margin that grows like the cube root of the order
(:func:`_band_order`, :func:`_margin`); a shorter panel gets its share of
that band plus its own margin.  Orders are rounded up a ladder of eight
per octave, k 2^e with 8 < k <= 16, so few rules are built and cached.

The node set is mirror-symmetric about pi/2: every cut b is also made at
pi - b and node N-1-i is pi - theta_i.  As P_ell(-x) = (-1)^ell P_ell(x),
the Legendre transform runs its recurrence on the half with theta <= pi/2
only, contracting even multipoles with the weighted samples at theta plus
those at pi - theta and odd ones with the difference (the equatorial
symmetry of full-sky transform codes; Reinecke & Seljebotn, A&A 554,
A112, 2013).  A mirror pair whose two weighted samples are exactly zero
is dropped before the multipole loop, as is a single node before the
wavenumber loop of the small-angle transform.  The recurrence writes its
rows into one buffer of ``BLOCK_BYTES``, and each block of multipoles is
contracted with one matrix product instead of one dot per multipole.  The
resummation folds its angles the same way: an angle and its mirror image
pi - theta share one row, read through the even-ell and odd-ell sums.
"""

import math
import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import j0, j1

__all__ = [
    "TabulatedCorrelation",
    "PowerSpectrum",
    "Profile1D",
    "ExtrapolationError",
    "gauss_nodes",
    "panel_nodes",
    "legendre_coefficients",
    "correlation_from_spectrum",
    "small_angle_spectrum",
    "ft_1d",
    "spherical_box_ft",
    "box_profile",
    "triangle_profile",
    "quadratic_spline_profile",
]

MIN_PANEL_NODES = 64
MAX_ORDER = 32768  # the largest order _margin was checked at

# Newton's method for the Gauss nodes stops once no step moves a node
# x = cos(theta) by more than a few ulp.  From Tricomi's start that takes
# at most 4 steps (orders 1-300 and every ladder order up to MAX_ORDER).
NEWTON_TOL = 4.0 * np.finfo(float).eps
NEWTON_MAX_STEPS = 10

# A table is evaluated this far beyond its first and last angle, at its
# end values, so quadrature nodes that miss its ends by rounding still count.
NODE_MATCH_ATOL = 1e-12

# Resummation angles whose mirror images min(theta, pi - theta) agree to
# this tolerance share one row of the recurrence.  np.linspace(0, pi, n)
# is mirror-symmetric to 1 ulp of pi.
FOLD_ATOL = 4.0 * np.spacing(math.pi)

# Size of the buffer the Legendre recurrence writes its rows into; a block
# of rows is contracted with one matrix product.
BLOCK_BYTES = 1 << 19


class ExtrapolationError(ValueError):
    """Raised when a tabulated function is needed where its table holds no
    value: outside its grid, or anywhere once a sample is missing."""


def _require_positive(**kwargs):
    """Raise ValueError naming the first keyword whose value is not finite and positive."""
    for name, value in kwargs.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_angles(theta):
    """``theta`` as a float array; ValueError unless every angle is finite and nonnegative."""
    theta = np.asarray(theta, dtype=float)
    # Written so that NaN fails too, before any quadrature runs.
    if not np.all((theta >= 0) & (theta < math.inf)):
        raise ValueError("theta must be finite and nonnegative")
    return theta


def _as_float_array(x, name, allow_nan=False):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    finite = np.isfinite(arr) | (np.isnan(arr) if allow_nan else False)
    if not np.all(finite):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class TabulatedCorrelation:
    """An angular correlation function sampled on a theta grid.

    Parameters
    ----------
    theta : array
        Sample angles in radians, strictly increasing, inside [0, pi].
    values : array
        C(theta) at the sample angles.  NaN marks a missing estimate
        (an empty estimator bin); transforms refuse tables with gaps.
    """

    theta: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        theta = _as_float_array(self.theta, "theta")
        values = _as_float_array(self.values, "values", allow_nan=True)
        if theta.shape != values.shape:
            raise ValueError("theta and values must have equal length")
        if theta.size < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(theta) <= 0):
            raise ValueError("theta must be strictly increasing")
        if theta[0] < 0 or theta[-1] > math.pi + 1e-12:
            raise ValueError("theta must lie in [0, pi]")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "values", values)

    def __call__(self, theta):
        """Cubic-spline evaluation; raises ExtrapolationError off the grid."""
        theta = np.asarray(theta, dtype=float)
        if np.any(theta < self.theta[0] - NODE_MATCH_ATOL) or np.any(
            theta > self.theta[-1] + NODE_MATCH_ATOL
        ):
            raise ExtrapolationError(
                "requested angle outside tabulated range "
                f"[{self.theta[0]:.6g}, {self.theta[-1]:.6g}] rad"
            )
        return self._spline(np.clip(theta, self.theta[0], self.theta[-1]))

    @cached_property
    def _spline(self):
        return CubicSpline(self.theta, self.values)


@dataclass(frozen=True)
class PowerSpectrum:
    """Transform-side coefficients on a multipole or wavenumber grid.

    ``grid`` is either integer multipoles ell = 0..ell_max (Legendre side)
    or a positive wavenumber grid (small-angle side).  Values may dip
    slightly negative; transforms of valid correlation functions do so at
    the quadrature-noise level and genuinely oscillating ones near their
    zero crossings, so negativity is not rejected here.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = _as_float_array(self.grid, "grid")
        values = _as_float_array(self.values, "values")
        if grid.shape != values.shape:
            raise ValueError("grid and values must have equal length")
        if grid.size < 2:
            raise ValueError("need at least two coefficients")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0:
            raise ValueError("grid must be nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def is_multipole(self):
        """True when the grid is the contiguous integers 0..ell_max."""
        expect = np.arange(self.grid.size, dtype=float)
        return bool(np.array_equal(self.grid, expect))


@dataclass(frozen=True)
class Profile1D:
    """Even one-dimensional profile f(x) of compact support [0, x_max].

    ``fn`` must accept a vector of nonnegative x and is taken to vanish
    beyond ``x_max``.  ``breakpoints`` lists interior kink locations so
    quadrature panels can end there.
    """

    fn: callable
    x_max: float
    breakpoints: tuple = ()

    def __post_init__(self):
        _require_positive(x_max=self.x_max)
        bad = [b for b in self.breakpoints if not 0 < b < self.x_max]
        if bad:
            raise ValueError(f"breakpoints must lie inside (0, x_max): {bad}")


def gauss_nodes(n):
    """Gauss-Legendre nodes and weights on [-1, 1], cached by order."""
    try:
        return _NODE_CACHE[n]
    except KeyError:
        x, w = _newton_gauss_rule(n)
        _NODE_CACHE[n] = (x, w)
        return x, w


_NODE_CACHE = {}


def _newton_gauss_rule(n):
    """Ascending Gauss-Legendre nodes and weights of order n >= 1.

    Newton's method in theta, x = cos(theta), on the roots with theta <= pi/2
    (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652); the rest follow
    by symmetry.  Each step needs P_{n-1} and P_n, so its cost is one
    recurrence over the nodes not yet converged.  The derivative is taken
    in its sin(theta) form,

        dP_n/dtheta = n (cos(theta) P_n - P_{n-1}) / sin(theta),

    and the weights are 2 / (dP_n/dtheta)^2, which has none of the
    1 - x^2 cancellation of the x form near the ends.
    """
    n = int(n)
    if n < 1:
        raise ValueError("Gauss-Legendre order must be at least 1")
    half = (n + 1) // 2
    phi = math.pi * (4.0 * np.arange(1, half + 1) - 1.0) / (4.0 * n + 2.0)
    # Tricomi's expansion of the nodes: error O(n^-5) away from the ends.
    scale = 1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4)
    theta = np.arccos(scale * np.cos(phi))
    slope = np.empty_like(theta)
    todo = np.arange(half)
    for _ in range(NEWTON_MAX_STEPS):
        t = theta[todo]
        x, sin_t = np.cos(t), np.sin(t)
        _, scale, rows = deque(_legendre_rows(x, n), maxlen=1)[0]
        p_prev, p = scale[-2:, None] * rows[-2:]
        d = n * (x * p - p_prev) / sin_t
        step = p / d
        theta[todo] = t - step
        slope[todo] = d
        # Near the ends x cannot resolve theta finer than ulp / sin(theta),
        # so convergence is judged by the move of x.
        todo = todo[np.abs(step) * sin_t > NEWTON_TOL]
        if todo.size == 0:
            break
    else:
        raise RuntimeError(
            f"Gauss-Legendre order {n}: Newton's method did not converge "
            f"in {NEWTON_MAX_STEPS} steps"
        )
    x = np.cos(theta)
    w = 2.0 / slope**2
    odd = n % 2
    if odd:
        x[-1] = 0.0
    return np.concatenate((-x, x[::-1][odd:])), np.concatenate((w, w[::-1][odd:]))


def _margin(order):
    """Nodes an order-``order`` panel keeps beyond its band share.

    A Legendre round trip has frequency up to 2 band, and the room a Gauss
    rule needs for it grows like the cube root of the order.  At the
    largest ell of each order from 256 to 16384 the round trip reaches
    1e-8 at a room of about 4 order^(1/3) (38 nodes at 1024, 81 at 8192);
    ceil(4.5 order^(1/3)) keeps it below 1e-9, also at MAX_ORDER.
    """
    return math.ceil(4.5 * order ** (1.0 / 3.0))


def _ladder(n):
    """Smallest k 2^e >= n with 8 < k <= 16: eight orders per octave, so
    that panels of similar length share one cached rule."""
    shift = max(0, (n - 1).bit_length() - 4)
    return -(-n >> shift) << shift


def _order_for(share):
    """The smallest ladder order m >= MIN_PANEL_NODES whose band share
    m - _margin(m) holds ``share``."""
    m = _ladder(max(MIN_PANEL_NODES, share))
    while m - _margin(m) < share:
        m = _ladder(m + 1)
    return m


def _band_order(band, length):
    """Full-range order for band = ell_max + 1/2 or max k over ``length``:
    the band share ceil(band * length / 2) plus :func:`_margin`, rounded up
    the ladder of :func:`_ladder`."""
    order = _order_for(math.ceil(band * length / 2))
    if order > MAX_ORDER:
        raise ValueError(f"band {band:.6g} needs quadrature order > MAX_ORDER = {MAX_ORDER}")
    return order


def panel_nodes(breakpoints, n_nodes, lo=0.0, hi=math.pi):
    """Quadrature nodes and weights on [lo, hi], split at breakpoints and
    mirror-symmetric about the midpoint.

    The panels end at every breakpoint b and at its mirror image
    lo + hi - b.  ``n_nodes`` is the Gauss-Legendre order of a full-range
    panel, whose band share is n_nodes - _margin(n_nodes).  A panel of
    length h gets its share of that band, ceil(band h / (hi - lo)), plus
    its own margin, rounded up the ladder of :func:`_ladder` (so few
    orders are built and cached) and kept within [MIN_PANEL_NODES,
    n_nodes].  A short panel thus keeps the room its order needs, which a
    plain length share would shrink with h.  Only the lower half is built:
    node N-1-i is exactly lo + hi - theta_i with the weight of node i, and
    a middle panel of odd order has its centre node at the midpoint, once.
    """
    n_nodes = int(n_nodes)
    if n_nodes < 1:
        raise ValueError("n_nodes must be at least 1")
    band = n_nodes - _margin(n_nodes)

    def order(length):
        return min(n_nodes, _order_for(math.ceil(band * length / (hi - lo))))

    span = lo + hi
    mid = 0.5 * span
    inside = (float(b) for b in breakpoints if lo < b < hi)
    cuts = sorted({lo, *(b if b <= mid else span - b for b in inside)})
    thetas = []
    weights = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        x, w = gauss_nodes(order(b - a))
        half = 0.5 * (b - a)
        thetas.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    odd = 0
    if cuts[-1] < mid:
        # The middle panel keeps the full order its whole length asks for.
        n = order((span - cuts[-1]) - cuts[-1])
        x, w = gauss_nodes(n)
        half = mid - cuts[-1]
        odd = n % 2
        thetas.append(mid + half * x[: (n + 1) // 2])
        weights.append(half * w[: (n + 1) // 2])
    theta, w = np.concatenate(thetas), np.concatenate(weights)
    return (np.concatenate((theta, span - theta[::-1][odd:])),
            np.concatenate((w, w[::-1][odd:])))


def _model_breakpoints(corr):
    bp = getattr(corr, "breakpoints", None)
    return () if bp is None else tuple(bp())


def _sample_correlation(corr, theta):
    """Evaluate a model, callable, or tabulated correlation on quadrature nodes."""
    if isinstance(corr, TabulatedCorrelation) and np.any(np.isnan(corr.values)):
        raise ExtrapolationError(
            "correlation table has missing values; fill or drop them "
            "before transforming"
        )
    return np.asarray(corr(theta), dtype=float)


def _weighted_samples(corr, breakpoints, n_nodes):
    """Mirror-symmetric nodes on [0, pi], samples C and weighted samples
    2 pi w sin(theta) C, the correlation evaluated once on all nodes."""
    if breakpoints is None:
        breakpoints = _model_breakpoints(corr)
    theta, w = panel_nodes(breakpoints, n_nodes)
    f = _sample_correlation(corr, theta)
    if f.shape != theta.shape:
        raise ValueError("correlation evaluation returned a wrong shape")
    return theta, f, 2.0 * math.pi * w * np.sin(theta) * f


def _legendre_rows(x, ell_max):
    """Yield (ell, scale, rows) with P_ell+i(x) = scale[i] * rows[i], the
    blocks in order and together P_0(x) .. P_ell_max(x).

    The rows follow the upward three-term recurrence in normalised form,

        Q_ell = alpha_ell x Q_ell-1 - Q_ell-2,   P_ell = h_ell Q_ell,

    with h_0 = h_1 = 1, h_ell = h_ell-2 (ell - 1) / ell and alpha_ell =
    (2 ell - 1) h_ell-1 / (ell h_ell), so that a step is two array
    operations: the rows alpha x of a whole block are written first, each
    then multiplied in place by the row before it, less the row before
    that.  h_ell falls like ell^(-1/2), so Q_ell neither overflows nor
    underflows.  With h and alpha as rounded, h Q still obeys the plain
    recurrence with coefficients exact to rounding in each step, so the
    rows are as accurate as the plain form's.  Negating x negates alpha x
    exactly, and rounding is symmetric, so the rows at -x are (-1)^ell
    times those at x, bit for bit.

    The rows are written into one buffer of about ``BLOCK_BYTES`` (at
    least four rows), reused for every block, so a block stays valid only
    until the next is asked for; its two rows in front carry the last two
    of the block before.  The last block holds at least two rows.
    """
    n_rows = ell_max + 1
    ell = np.arange(2.0, n_rows)
    h = np.ones(n_rows)
    for parity in (0, 1):
        h[2 + parity :: 2] = np.cumprod((ell[parity::2] - 1.0) / ell[parity::2])
    alpha = np.ones(n_rows)
    alpha[2:] = (2.0 * ell - 1.0) / ell * h[1:-1] / h[2:]

    per_block = max(2, BLOCK_BYTES // (8 * max(x.size, 1)) - 2)
    buf = np.empty((min(per_block, n_rows) + 2, x.size))
    row, multiply, subtract = list(buf), np.multiply, np.subtract
    start = 0
    while start < n_rows:
        stop = min(start + per_block, n_rows)
        if stop == n_rows - 1:
            stop -= 1  # the Gauss builder reads the last two rows
        size = stop - start
        block = buf[2 : 2 + size]
        multiply(alpha[start:stop, None], x, out=block)
        if start == 0:
            block[0] = 1.0  # Q_0; Q_1 = alpha_1 x = x
        for i in range(2 + max(0, 2 - start), 2 + size):
            multiply(row[i], row[i - 1], row[i])
            subtract(row[i], row[i - 2], row[i])
        yield start, h[start:stop], block
        buf[:2] = buf[size : size + 2]
        start = stop


def legendre_coefficients(corr, ell_max=2000, breakpoints=None, n_nodes=None):
    """Legendre coefficients of an angular correlation function.

    Parameters
    ----------
    corr : callable, model, or TabulatedCorrelation
        The correlation C(theta), theta in radians on [0, pi].  Models
        supply their own kink locations through ``breakpoints()``.
    ell_max : int
        Highest multipole returned, at least 1.
    breakpoints : sequence, optional
        Extra quadrature cut points in (0, pi); overrides the model's own.
    n_nodes : int, optional
        Gauss-Legendre order of a full-range panel; shorter panels get
        their length share of its band plus a margin (see
        :func:`panel_nodes`).  Derived from ``ell_max`` when omitted.

    Returns
    -------
    PowerSpectrum on the integer grid 0..ell_max.

    Notes
    -----
    The nodes are mirror-symmetric about pi/2 (see :func:`panel_nodes`) and
    the correlation is evaluated once on all of them.  Node N-1-i sits at
    pi - theta_i, where P_ell(cos theta) takes the factor (-1)^ell, so the
    weighted samples b are folded pairwise: even multipoles are contracted
    with b(theta) + b(pi - theta), odd ones with b(theta) - b(pi - theta),
    and P_ell(cos theta) is generated only for theta <= pi/2.  A centre
    node at pi/2 is its own mirror image and counts once; a pair is dropped
    only when both its samples are exactly zero.  The upward three-term
    recurrence fills a buffer of ``BLOCK_BYTES`` a block of multipoles at a
    time and each block is contracted with one matrix product per parity,
    so memory stays O(nodes) rather than O(nodes * ell_max).
    """
    ell_max = int(ell_max)
    if ell_max < 1:
        raise ValueError("ell_max must be at least 1: a spectrum needs two coefficients")
    if n_nodes is None:
        n_nodes = _band_order(ell_max + 0.5, math.pi)
    theta, _, base = _weighted_samples(corr, breakpoints, n_nodes)
    half = (theta.size + 1) // 2
    lower, upper = base[:half], base[::-1][:half].copy()
    if theta.size % 2:
        upper[-1] = 0.0  # the centre node is its own mirror image
    keep = (lower != 0.0) | (upper != 0.0)
    parity = ((lower + upper)[keep], (lower - upper)[keep])
    out = np.empty(ell_max + 1)
    for ell, scale, rows in _legendre_rows(np.cos(theta[:half][keep]), ell_max):
        stop = ell + rows.shape[0]
        out[ell:stop:2] = rows[::2] @ parity[ell % 2]
        out[ell + 1 : stop : 2] = rows[1::2] @ parity[1 - ell % 2]
        out[ell:stop] *= scale
    return PowerSpectrum(np.arange(ell_max + 1, dtype=float), out)


def correlation_from_spectrum(spectrum, theta):
    """Resum a multipole spectrum into C(theta) on the given angles.

    The spectrum must sit on the contiguous integer grid 0..ell_max; a
    wavenumber-side spectrum has no exact resummation and is rejected.

    As P_ell(cos(pi - theta)) = (-1)^ell P_ell(cos theta), each angle is
    folded to min(theta, pi - theta), folded angles within ``FOLD_ATOL``
    of each other are merged, and the recurrence runs once on the merged
    set with the even-ell and odd-ell sums E and O kept apart.  An angle
    then reads E + O for theta <= pi/2 and E - O beyond, so a grid
    mirror-symmetric about pi/2 costs half the rows; a centre angle at
    pi/2 is its own mirror image and counts once.  An asymmetric grid
    takes the same path at the cost of one row per angle.
    """
    if not isinstance(spectrum, PowerSpectrum):
        raise TypeError("expected a PowerSpectrum")
    if not spectrum.is_multipole:
        raise ValueError("resummation needs coefficients on ell = 0..ell_max")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(theta < 0) or np.any(theta > math.pi + 1e-12):
        raise ValueError("theta must lie in [0, pi]")
    order = np.argsort(theta)
    if np.any(np.diff(theta[order]) <= 0):
        raise ValueError("theta grid must not contain duplicates")

    folded = np.minimum(theta, math.pi - theta)
    by_fold = np.argsort(folded)
    first = np.r_[True, np.diff(folded[by_fold]) > FOLD_ATOL]
    node = np.empty(theta.size, dtype=int)  # the merged angle each angle reads
    node[by_fold] = np.cumsum(first) - 1

    coeff = spectrum.values * (2.0 * spectrum.grid + 1.0) / (4.0 * math.pi)
    sums = np.zeros((2, np.count_nonzero(first)))
    for ell, scale, rows in _legendre_rows(np.cos(folded[by_fold][first]), coeff.size - 1):
        c = coeff[ell : ell + rows.shape[0]] * scale
        sums[ell % 2] += c[::2] @ rows[::2]
        sums[1 - ell % 2] += c[1::2] @ rows[1::2]
    even, odd = sums[:, node]
    acc = np.where(theta <= 0.5 * math.pi, even + odd, even - odd)
    return TabulatedCorrelation(theta[order], acc[order])


# Fraction of the correlation's peak magnitude allowed beyond the
# small-angle regime before the flat-sky transform is flagged.
SMALL_ANGLE_LIMIT = math.radians(10.0)
SMALL_ANGLE_TAIL_FRAC = 1e-3


def _kernel_sums(kernel, k_grid, x, weighted):
    """Sum_j kernel(k_i x_j) weighted_j on the k grid, chunked over k: a
    full (n_k, n_x) kernel table would dwarf every other allocation here."""
    out = np.empty_like(k_grid)
    step = 256
    for i in range(0, k_grid.size, step):
        out[i : i + step] = kernel(k_grid[i : i + step, None] * x) @ weighted
    return out


def small_angle_spectrum(corr, k_grid):
    """Flat-sky spectrum P(k) = 2 pi Integral C(theta) J_0(k theta) sin theta dtheta.

    Valid when C(theta) has support at small angles; k corresponds to
    ell + 1/2 on the full sky.  A warning is issued when a noticeable
    fraction of C lives beyond 10 degrees, where the approximation and
    the Legendre transform part ways.  The quadrature order follows
    from max(k_grid).
    """
    k_grid = _as_float_array(k_grid, "k_grid")
    if k_grid.size < 2:
        raise ValueError("k_grid must not be empty or a single wavenumber: a spectrum needs two")
    if np.any(np.diff(k_grid) <= 0) or k_grid[0] < 0:
        raise ValueError("k_grid must be nonnegative and strictly increasing")
    theta, f, base = _weighted_samples(corr, None, _band_order(k_grid[-1], math.pi))

    tail = theta > SMALL_ANGLE_LIMIT
    peak = np.max(np.abs(f), initial=0.0)
    if peak > 0 and np.max(np.abs(f[tail]), initial=0.0) > SMALL_ANGLE_TAIL_FRAC * peak:
        warnings.warn(
            "correlation has weight beyond 10 deg; small-angle spectrum "
            "is unreliable there",
            stacklevel=2,
        )
    keep = base != 0.0
    return PowerSpectrum(k_grid, _kernel_sums(j0, k_grid, theta[keep], base[keep]))


def ft_1d(profile, k_grid):
    """Fourier transform of an even compact profile: 2 Integral_0^xmax f cos(kx) dx.

    Quadrature panels end at the profile's interior breakpoints and at the
    support edge, so piecewise-polynomial profiles are integrated exactly
    up to the oscillation of cos(kx) itself, with the quadrature order
    derived from max |k| and the support length.
    """
    if not isinstance(profile, Profile1D):
        raise TypeError("expected a Profile1D")
    k_grid = _as_float_array(k_grid, "k_grid")
    n_nodes = _band_order(np.max(np.abs(k_grid), initial=0.0), profile.x_max)
    x, w = panel_nodes(profile.breakpoints, n_nodes, lo=0.0, hi=profile.x_max)
    return 2.0 * _kernel_sums(np.cos, k_grid, x, w * profile.fn(x))


def spherical_box_ft(k, radius, dim):
    """Normalised Fourier transform of a uniform ball in dim = 1, 2, or 3.

    Returns ft(k) with ft(0) = 1:

        dim 1:  sin(t)/t
        dim 2:  2 J_1(t)/t
        dim 3:  3 (sin t - t cos t)/t^3,   t = k * radius

    The dim = 3 form switches to its Taylor series below t = 1e-3, where
    the closed form loses digits to cancellation.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    _require_positive(radius=radius)
    scalar = np.ndim(k) == 0
    t = np.atleast_1d(np.asarray(k, dtype=float)) * radius
    if np.any(t < 0):
        raise ValueError("k must be nonnegative")
    if dim == 1:
        out = np.sinc(t / math.pi)
    elif dim == 2:
        out = np.ones_like(t)
        nz = t > 0
        out[nz] = 2.0 * j1(t[nz]) / t[nz]
    else:
        out = np.empty_like(t)
        small = t < 1e-3
        ts = t[small]
        out[small] = 1.0 - ts**2 / 10.0 + ts**4 / 280.0
        tb = t[~small]
        out[~small] = 3.0 * (np.sin(tb) - tb * np.cos(tb)) / tb**3
    return out[0] if scalar else out


def box_profile(x_max):
    """Top-hat profile: f = 1 on [0, x_max], zero outside (edge jump)."""
    return Profile1D(np.ones_like, float(x_max))


def triangle_profile(x_max):
    """Linear ramp f = 1 - x/x_max; continuous, kinked at the edge."""
    xm = float(x_max)
    return Profile1D(lambda x: 1.0 - x / xm, xm)


def quadratic_spline_profile(x_max):
    """Quadratic B-spline bump scaled so its support ends at x_max.

    Twice continuously differentiable everywhere except for jumps in the
    second derivative at the two knots; the transform therefore decays one
    power faster than the triangle's.
    """
    xm = float(x_max)
    s = 2.0 * xm / 3.0  # knot spacing: support is 1.5 s

    def bump(x):
        t = x / s
        out = np.zeros_like(t)
        core = t <= 0.5
        out[core] = 0.75 - t[core] ** 2
        wing = (t > 0.5) & (t <= 1.5)
        out[wing] = 0.5 * (1.5 - t[wing]) ** 2
        return out / 0.75  # peak normalised to 1

    return Profile1D(bump, xm, (xm / 3.0,))
