"""Command-line interface: transforms, toy fields, MC ensembles, peak reports.

Every subcommand is a pure function of its flags, config file, and seed;
output CSVs embed a '#'-prefixed manifest of the resolved settings and
are byte-identical across reruns and thread counts.  Settings resolve in
one order: library defaults, then the config file (toy2 and mc only),
then the flags actually given.

Exit codes: 0 success, 1 usage error (bad flags or parameters),
2 computation or input-data error.
"""

import argparse
import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .corr_models import _DEFAULTS, Toy2Distance, Toy2Uniform, default_model
from .csvio import (
    CsvFormatError,
    peak_summary,
    read_config,
    read_correlation,
    read_spectrum,
    write_correlation,
    write_ensemble_stats,
    write_peak_report,
    write_spectrum,
    write_summary,
)
from .peak_analysis import MIN_SPECTRUM_POINTS, InsufficientPeaksError, analyze_spectrum
from .toy_disks_analytic import DEFAULT_N_DISKS, correlation_toy1, preset_case
from .toy_disks_mc import DiskEnsembleConfig, PackingError, run_ensemble
from .transforms import (
    ExtrapolationError,
    TabulatedCorrelation,
    _max_band,
    _require_positive,
    correlation_from_spectrum,
    legendre_coefficients,
    small_angle_spectrum,
)

MODEL_CHOICES = tuple(_DEFAULTS)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_angle(text):
    """Angle flag value in radians; plain numbers are degrees.

    Accepts '5', '5deg', '0.1rad' (case-insensitive, spaces tolerated).
    """
    s = str(text).strip().lower()
    unit = "deg"
    for suffix in ("deg", "rad"):
        if s.endswith(suffix):
            unit = suffix
            s = s[: -len(suffix)].strip()
            break
    try:
        value = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an angle: {text!r}") from None
    return value if unit == "rad" else math.radians(value)


def _int_in(minimum, maximum=math.inf):
    """argparse type for a count flag: an integer in [``minimum``, ``maximum``]."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


positive_int = _int_in(1)


def _boolean(text):
    value = text.strip().lower()
    if value not in ("true", "false", "yes", "no", "on", "off", "1", "0"):
        raise ValueError("expected true/false, yes/no, on/off or 1/0")
    return value in ("true", "yes", "on", "1")


def _dest(flag):
    """The attribute argparse stores ``flag``'s value under."""
    return flag[2:].replace("-", "_")


# Every toy2 and mc setting: settings type -> field -> (flag, config key,
# parser).  A flag's text and a config value go through the same parser, so
# a plain number in a "_deg" key is an angle in degrees, as on its flag.
# mc's radius_min and radius_max give the radius as a range; --seed is a
# common flag, --hard-core a bare switch.
_SETTINGS = {
    Toy2Uniform: {"r_min": ("--r-min", "R_min_deg", parse_angle),
                  "r_max": ("--r-max", "R_max_deg", parse_angle)},
    Toy2Distance: {"a0": ("--a0", "A0", float), "length": ("--length", "L", float),
                   "r_min": ("--distance-min", "r_min", float),
                   "r_max": ("--distance-max", "r_max", float)},
    DiskEnsembleConfig: {
        "n_disks": ("--n-disks", "n_disks", positive_int),
        "radius": ("--radius", "radius_deg", parse_angle),
        "radius_min": ("--radius-min", "radius_min_deg", parse_angle),
        "radius_max": ("--radius-max", "radius_max_deg", parse_angle),
        "points_per_disk": ("--points-per-disk", "points_per_disk", positive_int),
        "patch_size": ("--patch-size", "patch_size", float),
        "hard_core": ("--hard-core", "hard_core", _boolean),
        "n_realizations": ("--realizations", "n_realizations", positive_int),
        "seed": ("--seed", "seed", int),
        "n_bins": ("--n-bins", "n_bins", positive_int),
        "theta_max": ("--theta-max", "theta_max_deg", parse_angle),
    },
}


# The flags each transform mode reads: flag -> (parser, default).  An
# ell_max above the band MAX_ORDER allows over [0, pi] is refused by flag.
_TRANSFORM_MODES = {
    "legendre": {"--ell-max": (_int_in(1, math.floor(_max_band(math.pi) - 0.5)), 2000)},
    "smallangle": {"--k-min": (float, 2.0), "--k-max": (float, 2000.0),
                   "--n-k": (_int_in(2), 1000)},
    "resum": {"--theta-min": (parse_angle, 0.0), "--theta-max": (parse_angle, math.pi),
              "--n-theta": (_int_in(2), 721)},
}


def _common_flags():
    """A parent parser holding the flags every position accepts, defaults suppressed.

    Call it once for the root parser, which sets the defaults, and once for
    all subparsers: parents share their action objects, so a root default
    set on a shared parent would also fill the subcommand's namespace and
    hide a --out-dir given before the subcommand.
    """
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    common.add_argument("--config", type=Path, help="key = value config file (toy2 and mc)")
    common.add_argument("--out-dir", type=Path, help="directory for outputs")
    common.add_argument("--threads", type=positive_int, help="worker threads where supported")
    common.add_argument(
        "--gnuplot", action="store_true", help="also write a gnuplot script stub"
    )
    return common


def build_parser():
    version = argparse.ArgumentParser(add_help=False)
    version.add_argument("--version", action="version", version=f"corrpeaks {__version__}")
    parser = _Parser(prog="corrpeaks", description=__doc__.splitlines()[0],
                     parents=[version, _common_flags()])
    # --seed and --config default to None: a seed flag not given never hides
    # a config seed.
    parser.set_defaults(seed=None, config=None, out_dir=Path("."), threads=1, gnuplot=False)
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "transform",
        parents=[common],
        help="spectrum of a model or tabulated correlation",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", choices=MODEL_CHOICES, help="built-in model")
    src.add_argument("--input", type=Path, help="correlation or spectrum CSV")
    p.add_argument(
        "--mode",
        choices=tuple(_TRANSFORM_MODES),
        default="legendre",
        help="legendre: C_ell; smallangle: flat-sky P(k); resum: spectrum -> C(theta)",
    )
    # Defaults per mode are set after parsing, so a flag given is a flag seen.
    for mode, flags in _TRANSFORM_MODES.items():
        for flag, (parse, _) in flags.items():
            p.add_argument(flag, type=parse, help=f"read by --mode {mode}")
    p.add_argument("--output", help="output file name override")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser(
        "toy1", parents=[common], help="analytic disk-field correlation"
    )
    p.add_argument("--case", required=True, choices=("a", "b", "c", "d"))
    p.add_argument("--n-disks", type=float, default=DEFAULT_N_DISKS)
    p.add_argument("--radius", type=parse_angle, default=math.radians(1.0))
    p.add_argument("--theta-min", type=parse_angle, default=math.radians(0.05))
    p.add_argument("--theta-max", type=parse_angle, default=math.radians(4.0))
    p.add_argument("--n-theta", type=_int_in(2), default=64)
    p.add_argument("--output", help="output file name override")
    p.set_defaults(func=cmd_toy1)

    p = sub.add_parser(
        "toy2",
        parents=[common],
        help="variable-radius disk models: correlation, spectrum, peak verdict",
    )
    p.add_argument("--variant", required=True, choices=("uniform", "distance"))
    # Model parameters default to the reference model, then the config file.
    _add_setting_flags(p, Toy2Uniform)
    _add_setting_flags(p, Toy2Distance)
    # toy2 always writes a peak report, which needs MIN_SPECTRUM_POINTS
    # multipoles, and its spectrum is a Legendre transform.
    p.add_argument("--ell-max", default=2000, type=_int_in(
        MIN_SPECTRUM_POINTS - 1, math.floor(_max_band(math.pi) - 0.5)))
    p.add_argument("--n-theta", type=_int_in(2), default=512, help="correlation output grid")
    p.set_defaults(func=cmd_toy2)

    p = sub.add_parser("mc", parents=[common], help="Monte Carlo disk ensembles")
    _add_setting_flags(p, DiskEnsembleConfig)
    p.add_argument("--output", help="output file name override")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("analyze", parents=[common], help="peak report for a spectrum CSV")
    p.add_argument("--input", type=Path, required=True)
    p.set_defaults(func=cmd_analyze)

    return parser


def _add_setting_flags(parser, settings):
    """Add the flag of each row of ``settings``, --seed aside (a common flag)."""
    for flag, _, parse in _SETTINGS[settings].values():
        if parse is _boolean:
            parser.add_argument(flag, action="store_true", default=None)
        elif flag != "--seed":
            parser.add_argument(flag, type=parse)


def _load_config(args):
    if args.config is None:
        return {}
    return read_config(args.config)


def _base_manifest(args, command, **extra):
    manifest = {
        "tool": "corrpeaks",
        "version": __version__,
        "command": command,
        "seed": 0 if args.seed is None else args.seed,
    }
    manifest.update(extra)
    return manifest


def _emit(args, name, write, *payload, plot=None):
    """Write one artifact as ``write(path, *payload)`` under --out-dir and announce it.

    With --gnuplot, ``plot = (columns, style, title)`` also writes a
    gnuplot stub named after the file.
    """
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / name
    write(path, *payload)
    print(f"wrote {path}")
    if not args.gnuplot or plot is None:
        return
    columns, style, title = plot
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key off",
        f"plot '{name}' using {columns} with {style}",
        "pause -1",
    ]
    stub = args.out_dir / (Path(name).stem + ".gp")
    stub.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _print_verdict(report):
    """The one-line verdict on stdout, and why it came out so on stderr."""
    print(
        f"oscillation detected: {str(report.detected).lower()} "
        f"(peaks={report.n_peaks}, quasi_period={report.quasi_period:.6g}, "
        f"score={report.score:.3g})"
    )
    # Diagnostics go to stderr so stdout and every output file stay as they are.
    print(
        f"verdict: regularity={report.regularity:.3g} "
        f"failed_threshold={report.failed_threshold or 'none'}",
        file=sys.stderr,
    )


def _reject_foreign_flags(args, option, flags):
    """Reject a flag given for a value of --``option`` other than the chosen
    one; ``flags`` maps each value to the flags it reads."""
    chosen = getattr(args, option)
    for value, own in flags.items():
        for flag in own:
            if value != chosen and getattr(args, _dest(flag)) is not None:
                raise ValueError(f"{flag} applies to --{option} {value}")


def _transform_settings(args):
    """Default the settings --mode reads; a flag of another mode is an error."""
    _reject_foreign_flags(args, "mode", _TRANSFORM_MODES)
    for flag, (_, default) in _TRANSFORM_MODES[args.mode].items():
        if getattr(args, _dest(flag)) is None:
            setattr(args, _dest(flag), default)


# What each grid's ends must be, by command and flag stem.
_GRID_DOMAINS = {
    ("transform", "theta"): (lambda v: 0.0 <= v <= math.pi, "within [0, 180deg]"),
    ("transform", "k"): (lambda v: 0.0 <= v <= _max_band(math.pi),
                         f"within [0, {_max_band(math.pi)!r}]"),
    ("toy1", "theta"): (lambda v: 0.0 < v <= math.pi, "within (0, 180deg]"),
}


def _check_ranges(args):
    """Every --X-min/--X-max pair that has both ends must not run backwards;
    a grid's ends must also lie in its domain and differ."""
    values = vars(args)
    for field in values:
        if not field.endswith("_min"):
            continue
        stem = field[: -len("_min")]
        lo, hi = values[field], values.get(stem + "_max")
        if lo is None or hi is None:
            continue
        flag = "--" + stem.replace("_", "-")
        if not lo <= hi:
            raise ValueError(f"{flag}-min must not exceed {flag}-max")
        if (args.command, stem) not in _GRID_DOMAINS:
            continue
        inside, domain = _GRID_DOMAINS[args.command, stem]
        for end, value in (("min", lo), ("max", hi)):
            if not inside(value):
                raise ValueError(f"{flag}-{end} must be {domain}")
        if lo == hi:
            raise ValueError(f"{flag}-min must be below {flag}-max")


def cmd_transform(args):
    if args.mode == "resum":
        if args.input is None:
            raise ValueError("resum mode needs --input SPECTRUM_CSV")
        spec = read_spectrum(args.input)
        if not spec.is_multipole:
            raise CsvFormatError(
                f"{args.input}: resummation needs coefficients on ell = 0..ell_max"
            )
        theta = np.linspace(args.theta_min, args.theta_max, args.n_theta)
        tab = correlation_from_spectrum(spec, theta)
        name = args.output or f"correlation_{args.input.stem}.csv"
        manifest = _base_manifest(
            args, "transform", mode="resum", input=args.input.name,
            theta_min_deg=math.degrees(args.theta_min),
            theta_max_deg=math.degrees(args.theta_max), n_theta=args.n_theta,
        )
        _emit(args, name, write_correlation, tab, manifest,
              plot=("1:2", "lines", "resummed correlation"))
        return 0

    if args.input is not None:
        source, label = read_correlation(args.input), args.input.stem
    else:
        source, label = default_model(args.model), args.model

    if args.mode == "legendre":
        spec = legendre_coefficients(source, ell_max=args.ell_max)
        manifest = _base_manifest(
            args, "transform", mode="legendre", source=label, ell_max=args.ell_max,
        )
    else:
        k_grid = np.linspace(args.k_min, args.k_max, args.n_k)
        spec = small_angle_spectrum(source, k_grid)
        manifest = _base_manifest(
            args, "transform", mode="smallangle", source=label,
            k_min=args.k_min, k_max=args.k_max, n_k=args.n_k,
        )
    name = args.output or f"spectrum_{label}_{args.mode}.csv"
    _emit(args, name, write_spectrum, spec, manifest,
          plot=("1:2", "lines", f"spectrum of {label}"))
    try:
        _print_verdict(analyze_spectrum(spec))
    except InsufficientPeaksError:
        pass  # a spectrum too short to analyse is still a spectrum
    return 0


def cmd_toy1(args):
    profile, centers = preset_case(args.case, args.radius)
    theta = np.linspace(args.theta_min, args.theta_max, args.n_theta)
    tab = correlation_toy1(theta, profile, centers, args.n_disks)
    name = args.output or f"toy1_case_{args.case}.csv"
    manifest = _base_manifest(
        args, "toy1", case=args.case, n_disks=args.n_disks,
        radius_deg=math.degrees(args.radius),
        theta_min_deg=math.degrees(args.theta_min),
        theta_max_deg=math.degrees(args.theta_max), n_theta=args.n_theta,
    )
    _emit(args, name, write_correlation, tab, manifest,
          plot=("1:2", "lines", f"disk-field correlation, case {args.case}"))
    return 0


def _layers(args, config, settings, command):
    """The fields of ``settings`` that ``config`` sets, then those the flags
    given set: two layers (column, values), ``values`` by field and
    ``column`` the place in each row of the name a value was given under
    (the config key, then the flag).

    A key outside the rows of ``settings`` raises ValueError naming the key
    and ``command``, the command that reads the file, and a value that does
    not parse one naming its key.
    """
    rows = _SETTINGS[settings]
    fields = {key: field for field, (_, key, _) in rows.items()}
    from_config = {}
    for key, text in config.items():
        if key not in fields:
            raise ValueError(f"{command} reads no config key {key!r}; "
                             f"its keys are {', '.join(fields)}")
        try:
            from_config[fields[key]] = rows[fields[key]][2](text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config {key} = {text!r}: {exc}") from None
    from_flags = {field: getattr(args, _dest(flag)) for field, (flag, _, _) in rows.items()}
    return ((1, from_config),
            (0, {field: value for field, value in from_flags.items() if value is not None}))


def _toy2_model(args):
    """Layer the toy2 model from its reference model, then config file, then flags."""
    config = _load_config(args)
    kind = f"toy2_{args.variant}"
    model = config.pop("model", kind)
    if model.strip().lower() != kind:
        raise ValueError(
            f"config model {model!r} does not match "
            f"--variant {args.variant} (expected {kind})"
        )
    _reject_foreign_flags(args, "variant", {
        variant: [flag for flag, _, _ in _SETTINGS[settings].values()]
        for variant, settings in (("uniform", Toy2Uniform), ("distance", Toy2Distance))})
    reference = default_model(f"toy2-{args.variant}")
    rows = _SETTINGS[type(reference)]
    layers = _layers(args, config, type(reference), f"toy2 --variant {args.variant}")
    # Every toy2 field must be finite and positive; a value is checked
    # under the config key or flag that set it.
    given = {field: (value, column) for column, values in layers
             for field, value in values.items()}
    for field, (value, column) in given.items():
        _require_positive(**{rows[field][column]: value})
    return dataclasses.replace(reference, **{field: value for field, (value, _) in given.items()})


def cmd_toy2(args):
    model = _toy2_model(args)
    upper = min(max(model.breakpoints()) * 1.25, math.pi)
    theta = np.linspace(upper / args.n_theta, upper, args.n_theta)
    tab = TabulatedCorrelation(theta, model(theta))
    spec = legendre_coefficients(model, ell_max=args.ell_max)
    report = analyze_spectrum(spec)

    params = {}
    for field, (_, key, _) in _SETTINGS[type(model)].items():
        value = getattr(model, field)
        params[key] = math.degrees(value) if key.endswith("_deg") else value
    stem = f"toy2_{args.variant}"
    manifest = _base_manifest(args, "toy2", model=stem, **params)
    _emit(args, f"{stem}.csv", write_correlation, tab, manifest)
    _emit(args, f"{stem}_spectrum.csv", write_spectrum, spec,
          {**manifest, "ell_max": args.ell_max},
          plot=("1:2", "lines", f"toy2 {args.variant} spectrum"))
    _emit(args, f"{stem}_peaks.csv", write_peak_report, report, manifest)
    _print_verdict(report)
    return 0


def _radius_range(values, column):
    """Fold one layer's radius range into its radius; ``column`` is the
    layer's from :func:`_layers`."""
    radius, lo, hi = (_SETTINGS[DiskEnsembleConfig][field][column]
                      for field in ("radius", "radius_min", "radius_max"))
    ends = (values.pop("radius_min", None), values.pop("radius_max", None))
    if ends == (None, None):
        return values
    if None in ends:
        raise ValueError(f"{lo} and {hi} must be given together")
    if "radius" in values:
        raise ValueError(f"{radius} conflicts with {lo}/{hi}; give one")
    return {**values, "radius": ends}


def _mc_config(args):
    """Layer DiskEnsembleConfig from defaults, then config file, then flags."""
    values = {}
    for column, layer in _layers(args, _load_config(args), DiskEnsembleConfig, "mc"):
        values.update(_radius_range(layer, column))
    return DiskEnsembleConfig(**values)


def cmd_mc(args):
    config = _mc_config(args)
    stats = run_ensemble(config, threads=args.threads)
    lo, hi = config.radius_range
    manifest = _base_manifest(
        args, "mc",
        n_disks=config.n_disks,
        points_per_disk=config.points_per_disk,
        realizations=config.n_realizations,
        patch_size=config.patch_size,
        hard_core=str(config.hard_core).lower(),
        radius_deg=(math.degrees(lo) if lo == hi
                    else "%.12g..%.12g" % (math.degrees(lo), math.degrees(hi))),
        n_bins=config.n_bins,
        theta_max_deg=math.degrees(config.bin_edges[-1]),
    )
    manifest["seed"] = config.seed
    _emit(args, args.output or "mc_stats.csv", write_ensemble_stats, stats, manifest,
          plot=("1:2:3", "yerrorbars", "MC ensemble correlation"))
    return 0


def cmd_analyze(args):
    spec = read_spectrum(args.input)
    report = analyze_spectrum(spec)
    manifest = _base_manifest(args, "analyze", input=args.input.name)
    stem = args.input.stem
    _emit(args, f"{stem}_peaks.csv", write_peak_report, report, manifest)
    _emit(args, f"{stem}_summary.txt", write_summary, peak_summary(report))
    _print_verdict(report)
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # One line that names neither a source file nor a line of it, so stderr
    # does not change with the checkout or with an edit to the code.
    print(f"corrpeaks: warning: {message}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    try:
        if args.config is not None and args.func not in (cmd_toy2, cmd_mc):
            raise ValueError(f"{args.command} reads no config file; drop --config")
        if args.command == "transform":
            _transform_settings(args)
        _check_ranges(args)
        with warnings.catch_warnings():
            # Only the format changes; which warnings show is left to the
            # caller's filters (Python's own show a UserWarning once).
            warnings.showwarning = _show_warning
            return args.func(args)
    except (CsvFormatError, ExtrapolationError, InsufficientPeaksError,
            RuntimeError, OSError, ArithmeticError) as exc:
        # Bad input data, or a well-formed request whose computation could
        # not be carried out (PackingError and friends).
        print(f"corrpeaks: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"corrpeaks: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
