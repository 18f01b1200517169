"""End-to-end command-line checks: exit codes, files, determinism."""

import argparse
import dataclasses
import math
import re
import shlex
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from corrpeaks import (
    DiskEnsembleConfig,
    PowerSpectrum,
    Toy2Distance,
    Toy2Uniform,
    cli,
    default_model,
)
from corrpeaks.csvio import read_config, read_correlation, read_spectrum, write_spectrum


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "corrpeaks" in capsys.readouterr().out


def test_parse_angle_units():
    assert cli.parse_angle("2") == pytest.approx(math.radians(2.0))
    assert cli.parse_angle("2deg") == pytest.approx(math.radians(2.0))
    assert cli.parse_angle("0.5 rad") == pytest.approx(0.5)
    with pytest.raises(Exception):
        cli.parse_angle("two degrees")


def test_transform_model_writes_spectrum(tmp_path, capsys):
    code = run("--out-dir", tmp_path, "transform", "--model", "c2",
               "--ell-max", "700", "--output", "c2.csv")
    assert code == 0
    spec = read_spectrum(tmp_path / "c2.csv")
    assert spec.grid.size == 701
    assert spec.values[0] > 0
    out = capsys.readouterr().out
    assert "wrote" in out

    text = (tmp_path / "c2.csv").read_text()
    assert "# command = transform" in text
    assert "# mode = legendre" in text
    assert "# source = c2" in text


def test_round_trip_chain_through_files(tmp_path):
    # spectrum file -> resummed correlation file -> spectrum file again;
    # band-limited input must come back through both conversions
    rng = np.random.default_rng(8)
    values = rng.uniform(0.5, 1.5, 33) * rng.choice([-1.0, 1.0], 33)
    write_spectrum(tmp_path / "in.csv", PowerSpectrum(np.arange(33.0), values))

    assert run("--out-dir", tmp_path, "transform", "--input", tmp_path / "in.csv",
               "--mode", "resum", "--n-theta", "7201", "--output", "mid.csv") == 0
    assert run("--out-dir", tmp_path, "transform", "--input", tmp_path / "mid.csv",
               "--mode", "legendre", "--ell-max", "32", "--output", "out.csv") == 0

    back = read_spectrum(tmp_path / "out.csv")
    err = np.max(np.abs(back.values - values) / np.abs(values))
    assert err < 1e-8, f"chain error {err:.3e}"


def test_toy1_writes_case_curve(tmp_path):
    code = run("--out-dir", tmp_path, "toy1", "--case", "a", "--n-theta", "12")
    assert code == 0
    tab = read_correlation(tmp_path / "toy1_case_a.csv")
    assert tab.values.size == 12
    assert np.all(tab.values > 0)
    # far tail of case a: the uncorrelated baseline N_c^2 R^4 / 16
    base = 1000.0**2 * math.radians(1.0) ** 4 / 16.0
    assert tab.values[-1] == pytest.approx(base, rel=1e-3)


def test_toy2_both_variants_detect_oscillations(tmp_path, capsys):
    for variant in ("uniform", "distance"):
        code = run("--out-dir", tmp_path / variant, "toy2", "--variant", variant)
        assert code == 0
        out = capsys.readouterr().out
        assert "oscillation detected: true" in out
        spec = read_spectrum(tmp_path / variant / f"toy2_{variant}_spectrum.csv")
        assert spec.values.size > 100


def test_analyze_reports_verdict(tmp_path, capsys):
    k = np.linspace(0.5, 80.0, 5000)
    write_spectrum(tmp_path / "osc.csv", PowerSpectrum(k, np.sin(3 * k) ** 2 + 1e-9))
    code = run("--out-dir", tmp_path, "analyze", "--input", tmp_path / "osc.csv")
    assert code == 0
    out = capsys.readouterr().out
    assert "oscillation detected: true" in out
    assert (tmp_path / "osc_peaks.csv").exists()
    summary = read_config(tmp_path / "osc_summary.txt")
    assert summary["detected"] == "true"
    assert float(summary["quasi_period"]) == pytest.approx(np.pi / 3, rel=0.02)


def test_verdict_reasons_go_to_stderr_only(tmp_path, capsys):
    k = np.linspace(0.5, 80.0, 5000)
    write_spectrum(tmp_path / "osc.csv", PowerSpectrum(k, np.sin(3 * k) ** 2 + 1e-9))
    write_spectrum(tmp_path / "flat.csv", PowerSpectrum(k, np.exp(-k)))
    for stem, failed in (("osc", "none"), ("flat", "min_peaks")):
        assert run("--out-dir", tmp_path, "analyze", "--input", tmp_path / f"{stem}.csv") == 0
        out, err = capsys.readouterr()
        assert f"failed_threshold={failed}" in err and "regularity=" in err
        assert "regularity" not in out
        for name in (f"{stem}_peaks.csv", f"{stem}_summary.txt"):
            assert "regularity" not in (tmp_path / name).read_text()

    assert run("--out-dir", tmp_path, "toy2", "--variant", "uniform", "--ell-max", "600") == 0
    err = capsys.readouterr().err
    assert "regularity=" in err and "failed_threshold=" in err
    assert run("--out-dir", tmp_path, "transform", "--model", "c2", "--ell-max", "300") == 0
    err = capsys.readouterr().err
    assert "regularity=" in err and "failed_threshold=" in err


def test_mc_is_byte_deterministic(tmp_path):
    argv = ("mc", "--n-disks", "30", "--points-per-disk", "8",
            "--realizations", "6", "--patch-size", "0.5", "--n-bins", "16")
    assert run("--out-dir", tmp_path / "a", "--seed", "7", *argv) == 0
    assert run("--out-dir", tmp_path / "b", "--seed", "7", "--threads", "4", *argv) == 0
    a = (tmp_path / "a" / "mc_stats.csv").read_bytes()
    b = (tmp_path / "b" / "mc_stats.csv").read_bytes()
    assert a == b


def test_mc_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n_disks = 25\npoints_per_disk = 8\nn_realizations = 5\n"
        "patch_size = 0.5\nn_bins = 16\nradius_deg = 1.0\n"
    )
    assert run("--out-dir", tmp_path / "x", "--config", cfg, "mc") == 0
    text = (tmp_path / "x" / "mc_stats.csv").read_text()
    assert "# n_disks = 25" in text

    # explicit flag beats the config value
    assert run("--out-dir", tmp_path / "y", "--config", cfg, "mc", "--n-disks", "35") == 0
    assert "# n_disks = 35" in (tmp_path / "y" / "mc_stats.csv").read_text()

    # a flag range beats the config's single radius
    assert run("--out-dir", tmp_path / "z", "--config", cfg, "mc",
               "--radius-min", "0.5", "--radius-max", "1.5") == 0
    assert "# radius_deg = 0.5..1.5" in (tmp_path / "z" / "mc_stats.csv").read_text()


def test_seed_flag_beats_config_seed(tmp_path):
    argv = ("mc", "--n-disks", "30", "--points-per-disk", "8",
            "--realizations", "4", "--patch-size", "0.5", "--n-bins", "16")
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 3\n")
    assert run("--out-dir", tmp_path / "flag", "--seed", "7", *argv) == 0
    assert run("--out-dir", tmp_path / "root", "--config", cfg, "--seed", "7", *argv) == 0
    assert run("--out-dir", tmp_path / "sub", "--config", cfg, *argv, "--seed", "7") == 0
    assert run("--out-dir", tmp_path / "cfg", "--config", cfg, *argv) == 0
    flag = (tmp_path / "flag" / "mc_stats.csv").read_bytes()
    assert b"# seed = 7\n" in flag
    for name in ("root", "sub"):
        assert (tmp_path / name / "mc_stats.csv").read_bytes() == flag
    # without the flag the config seed holds
    assert b"# seed = 3\n" in (tmp_path / "cfg" / "mc_stats.csv").read_bytes()


def test_bad_config_values_exit_1_naming_the_key(tmp_path, capsys):
    for text, key in (("hard_core = ture\n", "hard_core"), ("n_disks = 2.5\n", "n_disks"),
                      ("radius_deg = wide\n", "radius_deg")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("points_per_disk = 8\nn_realizations = 2\n" + text)
        assert run("--out-dir", tmp_path / "out", "--config", cfg, "mc") == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "mc_stats.csv").exists()
    cfg.write_text("model = toy2_uniform\nR_min_deg = one\n")
    assert run("--out-dir", tmp_path / "out", "--config", cfg, "toy2", "--variant", "uniform") == 1
    assert "R_min_deg" in capsys.readouterr().err
    # every spelling of a boolean, in any case
    for value, expect in (("TRUE", "true"), ("yes", "true"), ("On", "true"), ("1", "true"),
                          ("false", "false"), ("No", "false"), ("OFF", "false"), ("0", "false")):
        cfg.write_text(f"n_disks = 10\npoints_per_disk = 4\nn_realizations = 1\n"
                       f"n_bins = 8\nhard_core = {value}\n")
        assert run("--out-dir", tmp_path / "ok", "--config", cfg, "mc") == 0
        assert f"# hard_core = {expect}\n" in (tmp_path / "ok" / "mc_stats.csv").read_text()


def test_config_is_rejected_where_no_setting_reads_it(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_disks = 10\n")
    write_spectrum(tmp_path / "spec.csv", PowerSpectrum(np.arange(40.0), 1.0 + np.arange(40.0) % 3))
    out = tmp_path / "out"
    for argv in (("transform", "--model", "c1", "--ell-max", "50"),
                 ("toy1", "--case", "a", "--n-theta", "4"),
                 ("analyze", "--input", tmp_path / "spec.csv")):
        assert run("--out-dir", out, "--config", cfg, *argv) == 1
        assert run("--out-dir", out, *argv, "--config", cfg) == 1
    assert not out.exists()


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("corrpeaks ")]
    commands = set()
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        commands.add(args.command)
    assert commands == {"transform", "toy1", "toy2", "mc", "analyze"}


def test_toy2_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "u.cfg"
    cfg.write_text("model = toy2_uniform\nR_min_deg = 1.0\nR_max_deg = 2.0\n")
    argv = ("toy2", "--variant", "uniform", "--ell-max", "300")
    assert run("--out-dir", tmp_path / "x", "--config", cfg, *argv) == 0
    text = (tmp_path / "x" / "toy2_uniform.csv").read_text()
    assert "# R_min_deg = 1\n" in text and "# R_max_deg = 2\n" in text

    # explicit flags beat the config values
    assert run("--out-dir", tmp_path / "y", "--config", cfg, *argv,
               "--r-min", "0.2deg", "--r-max", "0.3deg") == 0
    text = (tmp_path / "y" / "toy2_uniform.csv").read_text()
    assert "# R_min_deg = 0.2\n" in text and "# R_max_deg = 0.3\n" in text

    # a config value beats the reference model, a flag beats both
    cfg = tmp_path / "d.cfg"
    cfg.write_text("model = toy2_distance\nL = 2\nr_max = 30\n")
    assert run("--out-dir", tmp_path / "z", "--config", cfg, "toy2", "--variant", "distance",
               "--ell-max", "300", "--distance-max", "40") == 0
    text = (tmp_path / "z" / "toy2_distance.csv").read_text()
    for line in ("A0 = 0.02", "L = 2", "r_min = 3", "r_max = 40"):
        assert f"# {line}\n" in text


def test_toy2_manifest_reads_back_as_config(tmp_path):
    # the model keys a toy2 run writes into its manifest, given back as a
    # config file, reproduce the run byte for byte
    for variant, flags in (("uniform", ("--r-min", "0.7deg", "--r-max", "1.8deg")),
                           ("distance", ("--a0", "0.03", "--length", "2",
                                         "--distance-min", "4", "--distance-max", "40"))):
        argv = ("toy2", "--variant", variant, "--ell-max", "300")
        stem = f"toy2_{variant}"
        assert run("--out-dir", tmp_path / "flags", *argv, *flags) == 0
        text = (tmp_path / "flags" / f"{stem}.csv").read_text()
        manifest = dict(line[2:].split(" = ", 1) for line in text.splitlines()
                        if line.startswith("# "))
        cfg = tmp_path / f"{variant}.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in manifest.items()
                               if key not in ("tool", "version", "command", "seed")))
        assert run("--out-dir", tmp_path / "config", "--config", cfg, *argv) == 0
        for name in (f"{stem}.csv", f"{stem}_spectrum.csv", f"{stem}_peaks.csv"):
            assert ((tmp_path / "config" / name).read_bytes()
                    == (tmp_path / "flags" / name).read_bytes()), name


def test_config_keys_ending_in_deg_hold_degrees(tmp_path):
    # a _deg key reads as the same angle flag in degrees; every other key
    # reads as its flag's plain value
    cases = {
        "uniform": ("R_min_deg = 0.5\nR_max_deg = 1.5\n",
                    ("toy2", "--variant", "uniform", "--ell-max", "300"),
                    ("--r-min", f"{math.radians(0.5)!r}rad", "--r-max", "1.5deg")),
        "distance": ("L = 2\nr_min = 4\n",
                     ("toy2", "--variant", "distance", "--ell-max", "300"),
                     ("--length", "2", "--distance-min", "4")),
        "mc": ("radius_deg = 0.8\ntheta_max_deg = 3\npatch_size = 0.5\n",
               ("mc", "--n-disks", "10", "--points-per-disk", "4", "--realizations", "2",
                "--n-bins", "8"),
               ("--radius", "0.8deg", "--theta-max", f"{math.radians(3.0)!r}rad",
                "--patch-size", "0.5")),
    }
    for name, (text, argv, flags) in cases.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        assert run("--out-dir", tmp_path / name / "config", "--config", cfg, *argv) == 0
        assert run("--out-dir", tmp_path / name / "flags", *argv, *flags) == 0
        written = sorted(p.name for p in (tmp_path / name / "flags").iterdir())
        for file in written:
            assert ((tmp_path / name / "config" / file).read_bytes()
                    == (tmp_path / name / "flags" / file).read_bytes()), file
    text = (tmp_path / "uniform" / "config" / "toy2_uniform.csv").read_text()
    assert "# R_min_deg = 0.5\n" in text and "# R_max_deg = 1.5\n" in text
    assert "# radius_deg = 0.8\n" in (tmp_path / "mc" / "config" / "mc_stats.csv").read_text()


def test_config_keys_are_pinned():
    # the config file format: a key renamed here breaks every saved config
    expect = {
        Toy2Uniform: ["R_min_deg", "R_max_deg"],
        Toy2Distance: ["A0", "L", "r_min", "r_max"],
        DiskEnsembleConfig: ["n_disks", "radius_deg", "radius_min_deg", "radius_max_deg",
                             "points_per_disk", "patch_size", "hard_core", "n_realizations",
                             "seed", "n_bins", "theta_max_deg"],
    }
    assert {settings: [key for key, _ in table.values()]
            for settings, table in cli._CONFIG.items()} == expect


def test_config_table_matches_settings_and_flags():
    # every table field is a field of its settings type, mc's radius range
    # aside, and every toy2 and mc flag that sets a field has a table entry
    for settings, table in cli._CONFIG.items():
        fields = {field.name for field in dataclasses.fields(settings)}
        if settings is DiskEnsembleConfig:
            fields |= {"radius_min", "radius_max"}
        assert set(table) <= fields, settings
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    no_field = {"help", "config", "out_dir", "threads", "gnuplot", "output"}
    mc_flags = {action.dest for action in commands["mc"]._actions} - no_field
    assert mc_flags == set(cli._CONFIG[DiskEnsembleConfig])
    toy2_flags = ({action.dest for action in commands["toy2"]._actions} - no_field
                  - {"seed", "variant", "ell_max", "n_theta"})
    assert toy2_flags == {flag for flags in cli._TOY2_FLAGS.values() for flag in flags}
    for variant, flags in cli._TOY2_FLAGS.items():
        settings = type(default_model(f"toy2-{variant}"))
        assert set(flags.values()) == set(cli._CONFIG[settings]), variant


def test_unknown_config_keys_exit_1_naming_them(tmp_path, capsys):
    # a misspelt key, or a key of another command or variant, would
    # otherwise run the defaults; one file cannot serve both toy2 and mc
    mc = ("mc", "--n-disks", "10", "--points-per-disk", "4", "--realizations", "1",
          "--n-bins", "8")
    uniform = ("toy2", "--variant", "uniform", "--ell-max", "300")
    distance = ("toy2", "--variant", "distance", "--ell-max", "300")
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    for argv, text, key in (
            (mc, "n_disk = 5\nrealizations = 3\n", "n_disk"),
            (mc, "R_max_deg = 2\n", "R_max_deg"),
            (uniform, "R_min = 0.5\n", "R_min"),
            (uniform, "model = toy2_uniform\nA0 = 0.5\n", "A0"),
            (distance, "R_min_deg = 0.5\n", "R_min_deg"),
            (distance, "seed = 3\n", "seed")):
        cfg.write_text(text)
        capsys.readouterr()
        assert run("--out-dir", out, "--config", cfg, *argv) == 1, text
        assert f"reads no config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, name", [
    (("toy1", "--case", "a", "--radius", "inf"), None, "radius"),
    (("toy1", "--case", "b", "--radius", "inf"), None, "radius"),
    (("mc", "--n-disks", "10", "--patch-size", "inf"), None, "patch_size"),
    (("mc", "--n-disks", "10"), "patch_size = inf\n", "patch_size"),
    (("mc", "--n-disks", "10", "--radius", "inf"), None, "radius"),
    (("mc", "--n-disks", "10", "--radius", "nan"), None, "radius"),
    (("mc", "--n-disks", "10", "--radius-min", "0.5deg", "--radius-max", "inf"), None,
     "radius"),
    (("mc", "--n-disks", "10"), "radius_min_deg = 0.5\nradius_max_deg = inf\n", "radius"),
    (("toy2", "--variant", "uniform", "--r-max", "inf"), None, "--r-max"),
    (("toy2", "--variant", "uniform"), "R_max_deg = inf\n", "R_max_deg"),
    (("toy2", "--variant", "distance", "--distance-max", "inf"), None, "--distance-max"),
    (("toy2", "--variant", "distance", "--length", "nan"), None, "--length"),
    (("toy2", "--variant", "distance"), "r_max = inf\n", "r_max"),
    (("toy2", "--variant", "distance"), "L = nan\n", "L"),
], ids=["toy1-a", "toy1-b", "mc-flag", "mc-config", "mc-radius-inf", "mc-radius-nan",
        "mc-radius-max-flag", "mc-radius-max-config", "uniform-flag", "uniform-config",
        "distance-inf", "distance-nan", "distance-config-inf", "distance-config-nan"])
def test_non_finite_parameters_exit_1_naming_them(tmp_path, capsys, argv, config, name):
    # an infinite size would write empty values (toy1), fail inside the
    # sampler (mc), or run or fail without naming a parameter (toy2); toy2
    # names the flag or config key that gave the value
    out = tmp_path / "D"
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = ("--config", tmp_path / "run.cfg", *argv)
    assert run("--out-dir", out, *argv) == 1
    assert f"{name} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_gnuplot_stub(tmp_path):
    # one stub per plotted file, naming it, with a single plot style
    write_spectrum(tmp_path / "in.csv", PowerSpectrum(np.arange(33.0), 1.0 + np.arange(33.0) % 3))
    runs = {
        "c1.csv": ("transform", "--model", "c1", "--ell-max", "50", "--output", "c1.csv"),
        "back.csv": ("transform", "--input", tmp_path / "in.csv", "--mode", "resum",
                     "--n-theta", "91", "--output", "back.csv"),
        "toy1_case_a.csv": ("toy1", "--case", "a", "--n-theta", "4"),
        "toy2_uniform_spectrum.csv": ("toy2", "--variant", "uniform", "--ell-max", "300"),
        "mc_stats.csv": ("mc", "--n-disks", "10", "--points-per-disk", "4",
                         "--realizations", "2", "--n-bins", "8"),
    }
    for csv_name, argv in runs.items():
        out = tmp_path / Path(csv_name).stem
        assert run("--out-dir", out, "--gnuplot", *argv) == 0
        stubs = list(out.glob("*.gp"))
        assert len(stubs) == 1
        text = stubs[0].read_text()
        assert f"'{csv_name}'" in text
        assert text.count(" with ") == 1, text


def test_one_verdict_line_for_every_command(tmp_path, capsys):
    verdict = re.compile(r"oscillation detected: (true|false) "
                         r"\(peaks=\d+, quasi_period=\S+, score=\S+\)")

    def line():
        lines = [s for s in capsys.readouterr().out.splitlines() if verdict.fullmatch(s)]
        assert len(lines) == 1
        return lines[0]

    # the same spectrum read back from its file gets the same verdict
    assert run("--out-dir", tmp_path, "transform", "--model", "c2", "--ell-max", "300") == 0
    transform = line()
    assert run("--out-dir", tmp_path, "analyze", "--input",
               tmp_path / "spectrum_c2_legendre.csv") == 0
    assert line() == transform
    assert run("--out-dir", tmp_path, "toy2", "--variant", "uniform", "--ell-max", "600") == 0
    toy2 = line()
    assert toy2.startswith("oscillation detected: true")
    assert run("--out-dir", tmp_path, "analyze", "--input",
               tmp_path / "toy2_uniform_spectrum.csv") == 0
    assert line() == toy2


def test_out_dir_after_the_subcommand_wins(tmp_path):
    assert run("--out-dir", tmp_path / "a", "transform", "--model", "c1", "--ell-max", "20",
               "--out-dir", tmp_path / "b") == 0
    assert not (tmp_path / "a").exists()
    assert [p.name for p in (tmp_path / "b").iterdir()] == ["spectrum_c1_legendre.csv"]


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run("transform", "--model", "nope") == 1
    assert run("no-such-command") == 1
    assert run("--out-dir", tmp_path, "transform", "--mode", "resum",
               "--model", "c1") == 1  # resum needs a spectrum file
    assert run("--out-dir", tmp_path, "toy2", "--variant", "uniform",
               "--r-min", "2deg", "--r-max", "1deg") == 1
    assert run("--out-dir", tmp_path, "toy1", "--case", "z") == 1
    # count flags must be positive
    assert run("--out-dir", tmp_path, "toy2", "--variant", "uniform", "--n-theta", "0") == 1
    assert run("--out-dir", tmp_path, "transform", "--model", "c2",
               "--mode", "smallangle", "--n-k", "0") == 1
    # a spectrum needs two coefficients
    assert run("--out-dir", tmp_path, "transform", "--model", "c2", "--ell-max", "0") == 1
    assert run("--out-dir", tmp_path, "toy2", "--variant", "uniform", "--ell-max", "0") == 1
    assert run("--out-dir", tmp_path, "transform", "--model", "c2",
               "--mode", "smallangle", "--n-k", "1") == 1
    # a radius range needs both ends, from flags or from a config file
    assert run("--out-dir", tmp_path, "mc", "--n-disks", "10", "--radius-min", "0.5") == 1
    (tmp_path / "half.cfg").write_text("n_disks = 10\nradius_min_deg = 0.5\n")
    assert run("--out-dir", tmp_path, "--config", tmp_path / "half.cfg", "mc") == 1
    # ... and cannot come with a single radius from the same layer
    assert run("--out-dir", tmp_path, "mc", "--n-disks", "10", "--radius", "1",
               "--radius-min", "0.5", "--radius-max", "2") == 1
    (tmp_path / "both.cfg").write_text(
        "n_disks = 10\nradius_deg = 1\nradius_min_deg = 0.5\nradius_max_deg = 2\n"
    )
    assert run("--out-dir", tmp_path, "--config", tmp_path / "both.cfg", "mc") == 1
    write_spectrum(tmp_path / "short.csv", PowerSpectrum(np.arange(16.0), 1.0 + np.arange(16.0) % 3))
    # a reversed resum range would be written sorted under a manifest that
    # names it reversed; it fails before the output directory is made
    capsys.readouterr()
    assert run("--out-dir", tmp_path / "reversed", "transform", "--mode", "resum",
               "--input", tmp_path / "short.csv", "--theta-min", "90deg",
               "--theta-max", "10deg") == 1
    err = capsys.readouterr().err
    assert "--theta-min" in err and "--theta-max" in err
    assert not (tmp_path / "reversed").exists()
    # NaN passes a "<= 0" test: the disk count must be checked as finite
    assert run("--out-dir", tmp_path, "toy1", "--case", "a", "--n-disks", "nan") == 1
    assert not (tmp_path / "toy1_case_a.csv").exists()
    # a toy2 config must hold the model kind that --variant names
    capsys.readouterr()
    for variant, text in (
            ("uniform", "model = toy2_distance\nA0 = 0.02\nL = 1\nr_min = 3\nr_max = 50\n"),
            ("distance", "model = broken_exp\nA21 = 12000\nA22 = 3600\ntheta21_deg = 0.79\n"
                         "theta22_deg = 11.45\ntheta_star_deg = 1.03\n"),
            ("uniform", "model = double_exp\nA11 = 9744\nA12 = 3000\ntheta11_deg = 0.45\n"
                        "theta12_deg = 13\n")):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(text)
        assert run("--out-dir", tmp_path / "toy2", "--config", cfg,
                   "toy2", "--variant", variant) == 1
        assert "does not match --variant" in capsys.readouterr().err
    # a flag of the other variant is not silently dropped
    assert run("--out-dir", tmp_path / "toy2", "toy2", "--variant", "uniform", "--a0", "0.5") == 1
    assert run("--out-dir", tmp_path / "toy2", "toy2", "--variant", "distance",
               "--r-min", "0.5deg") == 1
    assert not list((tmp_path / "toy2").glob("*"))


def test_reversed_ranges_exit_1_naming_both_flags(tmp_path, capsys):
    # resum's reversed range is checked in test_usage_errors_exit_1
    out = tmp_path / "D"
    for argv in (("toy1", "--case", "a", "--theta-min", "4deg", "--theta-max", "1deg"),
                 ("transform", "--model", "c2", "--mode", "smallangle",
                  "--k-min", "100", "--k-max", "10"),
                 ("toy2", "--variant", "distance", "--distance-min", "50",
                  "--distance-max", "3"),
                 ("mc", "--n-disks", "10", "--radius-min", "2", "--radius-max", "1")):
        capsys.readouterr()
        assert run("--out-dir", out, *argv) == 1, argv
        flags = [a for a in argv if str(a).endswith(("-min", "-max"))]
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
        assert not out.exists()
    # an empty radius range is one radius, as before
    assert run("--out-dir", out, "mc", "--n-disks", "10", "--points-per-disk", "4",
               "--realizations", "1", "--n-bins", "8", "--radius-min", "1",
               "--radius-max", "1") == 0
    assert "# radius_deg = 1\n" in (out / "mc_stats.csv").read_text()


@pytest.mark.parametrize("argv, flag", [
    (("transform", "--mode", "resum", "--input", "SPECTRUM", "--theta-min", "10deg",
      "--theta-max", "10deg"), "--theta-min"),
    (("transform", "--mode", "resum", "--input", "SPECTRUM", "--theta-max", "200deg"),
     "--theta-max"),
    (("toy1", "--case", "a", "--theta-min", "0"), "--theta-min"),
    (("transform", "--model", "c2", "--mode", "smallangle", "--k-min", "-5"), "--k-min"),
    (("transform", "--mode", "resum", "--input", "SPECTRUM", "--n-theta", "1"), "--n-theta"),
    (("toy1", "--case", "a", "--n-theta", "1"), "--n-theta"),
    (("toy2", "--variant", "uniform", "--n-theta", "1"), "--n-theta"),
])
def test_invalid_grids_exit_1_naming_the_flag(tmp_path, capsys, argv, flag):
    # ends in order can still make an invalid grid: equal ends, an end
    # outside the grid's domain, or a grid of one point
    spectrum = tmp_path / "spec.csv"
    write_spectrum(spectrum, PowerSpectrum(np.arange(40.0), 1.0 + np.arange(40.0) % 3))
    out = tmp_path / "D"
    argv = [spectrum if a == "SPECTRUM" else a for a in argv]
    assert run("--out-dir", out, *argv) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_transform_rejects_flags_its_mode_does_not_read(tmp_path, capsys):
    spectrum = tmp_path / "spec.csv"
    write_spectrum(spectrum, PowerSpectrum(np.arange(40.0), 1.0 + np.arange(40.0) % 3))
    out = tmp_path / "out"
    for argv, flag, mode in (
            (("--model", "c2", "--mode", "smallangle", "--ell-max", "7"), "--ell-max", "legendre"),
            (("--model", "c2", "--k-max", "500"), "--k-max", "smallangle"),
            (("--model", "c2", "--n-theta", "10"), "--n-theta", "resum"),
            (("--input", spectrum, "--mode", "resum", "--n-k", "10"), "--n-k", "smallangle")):
        capsys.readouterr()
        assert run("--out-dir", out, "transform", *argv) == 1
        assert f"{flag} applies to --mode {mode}" in capsys.readouterr().err
    assert not out.exists()
    # a mode's own flags, given at their defaults, write what the defaults write
    for sub, flags in (("a", ()), ("b", ("--k-min", "2", "--k-max", "2000", "--n-k", "1000"))):
        assert run("--out-dir", tmp_path / sub, "transform", "--model", "toy2-uniform",
                   "--mode", "smallangle", *flags) == 0
    name = "spectrum_toy2-uniform_smallangle.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_data_errors_exit_2(tmp_path, capsys):
    assert run("--out-dir", tmp_path, "analyze", "--input",
               tmp_path / "missing.csv") == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert run("--out-dir", tmp_path, "transform", "--input", bad,
               "--mode", "legendre") == 2
    # a correlation CSV has two columns
    bad.write_text("theta_deg,value,sigma\n0,1,0.1\n180,0,0.1\n")
    assert run("--out-dir", tmp_path, "transform", "--input", bad,
               "--mode", "legendre") == 2
    # so is a correlation table with a missing value, and nothing is written
    bad.write_text("theta_deg,value\n0,1\n90,\n180,0\n")
    for mode in ("legendre", "smallangle"):
        capsys.readouterr()
        assert run("--out-dir", tmp_path / "gaps", "transform", "--input", bad,
                   "--mode", mode) == 2
        assert "correlation table has missing values" in capsys.readouterr().err
    assert not (tmp_path / "gaps").exists()
    # infeasible hard-core packing is a runtime failure, not usage
    assert run("--out-dir", tmp_path, "mc", "--n-disks", "4000",
               "--hard-core", "--patch-size", "1.0", "--realizations", "1") == 2
    # a spectrum too short to analyse is bad data, and nothing is written
    write_spectrum(tmp_path / "short.csv", PowerSpectrum(np.arange(10.0), 1.0 + np.arange(10.0) % 3))
    assert run("--out-dir", tmp_path / "out", "analyze", "--input", tmp_path / "short.csv") == 2
    assert not list((tmp_path / "out").glob("*"))


def test_truncated_correlation_input_exits_2(tmp_path):
    theta = np.linspace(0.0, 0.5, 32)
    rows = "\n".join(f"{math.degrees(t)},{math.exp(-t)}" for t in theta)
    (tmp_path / "partial.csv").write_text("theta_deg,value\n" + rows + "\n")
    # table does not reach pi: Legendre transform must refuse
    assert run("--out-dir", tmp_path, "transform", "--input",
               tmp_path / "partial.csv", "--mode", "legendre") == 2
