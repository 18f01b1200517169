#!/usr/bin/env python3
"""Benchmark for corrpeaks: three workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload {spectra,disks,cli} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
pass time, median job latency, peak memory); with ``--trace 1`` they are
the per-module ones from a separate traced run.  A full run record goes
to ``perfbench/out/records/``.  See perfbench/README.md.

The work runs in fresh child processes of this one, which imports
neither numpy nor corrpeaks itself.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("spectra", "disks", "cli")
# Fresh processes whose set-up (import plus first pass) is timed; the
# median is reported.  The 17 s cli set-up is not repeated: repeating it
# would leave no time for its timed pass within the series' time budget
# (see README, "Run length").
SETUP_REPEATS = {"spectra": 3, "disks": 3, "cli": 1}
# Everything, children included, must end within this many seconds.
DEADLINE_S = 175.0
# The tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0, help="timed passes run at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("run", "setup", "main", "trace"), default="run",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def host_facts():
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if hasattr(os, "sched_getaffinity"):
        facts["cpus_usable"] = len(os.sched_getaffinity(0))
    for package in ("numpy", "scipy"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = None
    return facts


def tail_percentile(samples):
    """Highest latency percentile with TAIL_SAMPLES samples beyond it."""
    n = len(samples)
    if n < 4 * TAIL_SAMPLES:
        return {"samples": n, "percentile": None, "value_s": None}
    ordered = sorted(samples)
    return {"samples": n, "percentile": round(100.0 * (n - TAIL_SAMPLES) / n, 2),
            "value_s": ordered[n - TAIL_SAMPLES - 1]}


# ---------------------------------------------------------------------------
# child roles: the work itself

def _child_setup():
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from tracing import Tracer

    return wl, Tracer


def role_setup(args):
    wl, Tracer = _child_setup()
    tracer = Tracer(False)
    workload = wl.make(args.workload, args.seed, tracer, OUT)
    wl.run_jobs(workload, tracer)
    return {"setup_s": time.perf_counter() - T0}


def _setup_pass(wl, workload, tracer):
    """The first pass, which pays every lazy set-up; checked after it is timed."""
    first = wl.run_jobs(workload, tracer)
    setup_s = time.perf_counter() - T0
    workload.prepare()
    wl.check_pass(workload, first)
    return setup_s, first


def _summarise(passes):
    figures = {}  # the outputs repeat exactly from pass to pass, and so do these
    for p in passes:
        figures.update(p.figures)
    return {
        "attempted": sum(len(p.latency) for p in passes),
        "failed": sum(len(p.failed) for p in passes),
        "failures": sorted({f"{k}: {v}" for p in passes for k, v in p.failed.items()}),
        "errors": sorted({e for p in passes for e in p.errors}),
        "figures": figures,
    }


def role_main(args):
    wl, Tracer = _child_setup()
    tracer = Tracer(False)
    workload = wl.make(args.workload, args.seed, tracer, OUT)
    setup_s, first = _setup_pass(wl, workload, tracer)
    timed = []
    t_start = time.perf_counter()
    while not timed or time.perf_counter() - t_start < args.seconds:
        timed.append(wl.run_pass(workload, tracer))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out = _summarise([first] + timed)
    out.update(
        setup_s=setup_s,
        pass_s=[p.seconds for p in timed],
        jobs={name: [p.latency[name] for p in timed] for name in timed[0].latency},
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
    )
    return out


def role_trace(args):
    wl, Tracer = _child_setup()
    import layers

    summaries = {}
    spans = {}
    metrics = layers.probes()
    counted = None
    for name in WORKLOADS:
        tracer = Tracer(False)
        workload = wl.make(name, args.seed, tracer, OUT)
        _, first = _setup_pass(wl, workload, tracer)
        # Only the requested workload pays for an untraced pass to compare with.
        plain = [wl.run_pass(workload, tracer)] if name == args.workload else []
        tracer.enabled = True
        with tracer.patched(layers.patch_targets()):
            traced = wl.run_pass(workload, tracer)
        tracer.enabled = False
        summary = _summarise([first] + plain + [traced])
        summaries[name] = summary
        spans[name] = tracer.spans
        metrics.update(layers.from_spans(name, tracer.spans, summary["figures"], workload))
        if plain:
            counted = summary
            metrics["trace.overhead_s"] = (traced.seconds - plain[0].seconds, "s")
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    errors = sorted(e for s in summaries.values() for e in s["errors"])
    return dict(counted, errors=errors, per_layer=metrics, trace_file=str(trace_path.relative_to(ROOT)),
                workload_figures={k: v["figures"] for k, v in summaries.items()})


# ---------------------------------------------------------------------------
# parent: start the children, assemble the metrics

def run_child(args, role, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--role", role]
    left = deadline - time.perf_counter()
    if left <= 0:
        raise RuntimeError("out of time before the " + role + " child")
    # A session of its own, so that a timeout or a termination of this
    # process also stops the child's own children (the cli workload's
    # corrpeaks processes).
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=left)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def role_run(args):
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "corrpeaks" / "__init__.py").is_file():
        print(f"perfbench: no corrpeaks sources under {SRC}", file=sys.stderr)
        return 2
    deadline = T0 + DEADLINE_S
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_facts()}
    try:
        if args.trace:
            res = run_child(args, "trace", deadline)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.pop("per_layer").items()}
        else:
            setups = [run_child(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS[args.workload] - 1)]
            res = run_child(args, "main", deadline)
            setups.append(res["setup_s"])
            latencies = [t for ts in res["jobs"].values() for t in ts]
            values = {
                "setup_s": statistics.median(setups),
                "pass_s": statistics.median(res["pass_s"]),
                "job_p50_s": statistics.median(latencies),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            record.update(setup_samples=setups, job_tail=tail_percentile(latencies))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    correct = not res["errors"]
    record.update(res, correct=correct, metrics=metrics)
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    with open(OUT / "records" / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for err in res["errors"]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.role == "run":
        return role_run(args)
    role = {"setup": role_setup, "main": role_main, "trace": role_trace}[args.role]
    print(json.dumps(role(args), default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
