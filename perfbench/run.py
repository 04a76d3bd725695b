"""Seeded end-to-end benchmark of anet, one workload per process.

    python3 perfbench/run.py --workload cut-tree --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; anet is imported from its ``src``. The run
measures whole rounds of jobs until ``--seconds`` have passed (at least one
round), checks every job against its oracle, and prints one JSON object as
the last line of stdout. With ``--trace 0`` it carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run, which also
replays the traced jobs untraced to get the tracing overhead and to check
that tracing leaves every output byte-identical. Metric names and units come
from BENCHMARK.json at the root of the checkout. See WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A shared virtual CPU runs up to twice as slow for about a second after it
# has been idle. Spinning this long first keeps that out of the measurements;
# it runs no anet code, so no job input is warmed.
SPIN_SECONDS = 1.0


def import_anet():
    """Import anet from the checkout's src, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "anet" / "__init__.py").is_file():
        sys.exit("perfbench: no anet sources under %s" % src)
    sys.path.insert(0, str(src))
    import anet

    if Path(anet.__file__).resolve().parent != (src / "anet").resolve():
        sys.exit("perfbench: imported anet from %s, not from %s" % (anet.__file__, src))
    return anet


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cut-tree", "reduction-cli", "quotient", "deep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(name, seed):
    """Everything a run does before its first job: import, generate inputs."""
    import_anet()
    import workloads

    wl = workloads.make(name)
    first = wl.round(0, workloads.round_rng(name, seed, 0))
    return workloads, wl, first


def metric_units(kind):
    """{name: unit} of the end_to_end or per_layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def with_units(values, kind):
    """Attach each metric's unit; the names must be exactly BENCHMARK.json's."""
    units = metric_units(kind)
    if set(values) != set(units):
        sys.exit("perfbench: metrics %s do not match BENCHMARK.json's %s" % (sorted(values), sorted(units)))
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def interpreter_work():
    """Fixed pure-Python work like anet's: Fraction arithmetic and dict inserts."""
    x = Fraction(0)
    seen = {}
    for i in range(1, 8000):
        x = (x * 3 + Fraction(1, i)) / 2
        if x.denominator.bit_length() > 200:
            x = Fraction(x.numerator % 1000, 997)
            seen.clear()  # keeps the loop's memory small and constant
        seen[(i % 97, x)] = i


def bigint_work():
    """Fixed big-integer work in C: int-to-str of 3,817-digit numbers."""
    x = 3**8000
    for k in range(100):
        str(x + k)


# A shared CPU's speed drifts by up to a factor of two, for seconds to
# minutes at a time, so end-to-end times are given at a reference speed: the
# one at which each calibration takes the time given here, about what it takes
# on a 2-core x86-64 VM with Python 3.11 when nothing slows it down.
# speed name -> (calibration work, its time at the reference speed in seconds)
CALIBRATIONS = {"interpreter": (interpreter_work, 0.072), "bigint": (bigint_work, 0.026)}


def timed(work):
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def spin(seconds):
    """Busy-loop in plain Python for the given wall time."""
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end:
        n = (n * 7 + 3) % 1000003
    return n


def setup_probe(args):
    """Wall time from spawning a fresh interpreter to the point of its first job."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    t0 = time.monotonic_ns()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), timeout=60)
    if done.returncode != 0:
        sys.exit("perfbench: setup probe failed: %s" % done.stderr.strip())
    return (int(done.stdout.split()[-1]) - t0) / 1e9


class Runner:
    """Executes rounds of jobs and keeps each job's time and outcome."""

    def __init__(self, workloads, wl, name, seed, first, workdir):
        self.workloads = workloads
        self.wl = wl
        self.name = name
        self.seed = seed
        self.rounds = [first]
        self.workdir = workdir

    def round(self, k):
        while len(self.rounds) <= k:
            rng = self.workloads.round_rng(self.name, self.seed, len(self.rounds))
            self.rounds.append(self.wl.round(len(self.rounds), rng))
        return self.rounds[k]

    def run_job(self, job, tracer=None, job_id=None):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = self.wl.run(job, self.workdir)
            else:
                with tracer.job(job_id):
                    outcome = self.wl.run(job, self.workdir)
        except Exception as exc:  # the code under test raised: a failed job
            outcome = self.workloads.Outcome(0, 1, "", "%s: %s" % (type(exc).__name__, exc))
        dt = time.perf_counter() - t0
        return dt, outcome

    def run_for(self, seconds, tracer=None, between=None):
        """Whole rounds until the time is up; returns [(round, index, seconds, outcome)].

        ``between`` runs ahead of every job, outside the job's time but inside
        the run's.
        """
        results = []
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            for i, job in enumerate(self.round(k)):
                if between is not None:
                    between()
                dt, outcome = self.run_job(job, tracer, "%d.%d" % (k, i))
                results.append((k, i, dt, outcome))
            k += 1
        return results


def summarize(results):
    attempted = len(results)
    wrong = sum(1 for *_, o in results if o.error is None and not o.ok)
    failed = sum(1 for *_, o in results if not o.ok)
    return attempted, failed, wrong


def round_means(results, times):
    """Mean job time of each round, so a round of two job kinds counts as one value."""
    rounds = {}
    for (k, *_), dt in zip(results, times):
        rounds.setdefault(k, []).append(dt)
    return [statistics.fmean(ts) for ts in rounds.values()]


def end_to_end(runner, args):
    """Jobs for the given time, with times given at the reference speed.

    Before every job and after the last, the run times the interpreter
    calibration, a setup probe and the workload's own calibration (the same
    measurement where the workload's speed is "interpreter"). A probe's wall
    time is multiplied by the interpreter calibration's reference time over
    its time just before the probe; a job's by its workload calibration's
    reference time over the mean of its times just before and just after the
    job. The job seconds printed on stderr are the unscaled wall times.
    """
    setup_work, setup_ref = CALIBRATIONS["interpreter"]
    job_work, job_ref = CALIBRATIONS[runner.wl.speed]
    gaps = []  # (setup calibration, setup probe, job calibration)

    def between():
        c = timed(setup_work)
        gaps.append((c, setup_probe(args), c if job_work is setup_work else timed(job_work)))

    results = runner.run_for(args.seconds, between=between)
    between()
    attempted, failed, wrong = summarize(results)
    times = [job_ref * dt * 2 / (gaps[j][2] + gaps[j + 1][2]) for j, (_, _, dt, _) in enumerate(results)]
    probes = [setup_ref * p / c for c, p, _ in gaps]
    metrics = {
        "setup_s": statistics.median(probes),
        "job_s.p50": statistics.median(round_means(results, times)),
        "words_per_s": sum(o.verdicts_ok for *_, o in results) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    print(
        "%s calibration took %.4f s (median of %d), reference %.3f s"
        % (runner.wl.speed, statistics.median(c for _, _, c in gaps), len(gaps), job_ref),
        file=sys.stderr,
    )
    return results, attempted, failed, wrong == 0, with_units(metrics, "end_to_end")


def traced(runner, args):
    """Traced jobs for half the time, then the same jobs untraced."""
    import tracer as tracing

    tr = tracing.Tracer()
    with tr:
        results = runner.run_for(args.seconds / 2.0, tr)
    replay = [
        (k, i) + runner.run_job(runner.round(k)[i])
        for k, i, _, _ in results
    ]
    traced_s = sum(dt for _, _, dt, _ in results)
    plain_s = sum(dt for _, _, dt, _ in replay)
    neutral = all(a[3].digest == b[3].digest for a, b in zip(results, replay))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed)))
    attempted, failed, wrong = summarize(results + replay)
    metrics = tr.layer_metrics(len(results), traced_s / plain_s)
    return results + replay, attempted, failed, wrong == 0 and neutral, with_units(metrics, "per_layer")


def main(argv=None):
    args = parse_args(argv)
    workloads, wl, first = setup(args.workload, args.seed)
    if args.setup_probe:
        print(time.monotonic_ns())
        return 0
    spin(SPIN_SECONDS)
    workdir = tempfile.mkdtemp(prefix="work-", dir=str(HERE))
    try:
        runner = Runner(workloads, wl, args.workload, args.seed, first, workdir)
        if args.trace:
            results, attempted, failed, correct, metrics = traced(runner, args)
        else:
            results, attempted, failed, correct, metrics = end_to_end(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = sorted({o.error.split(":")[0] for *_, o in results if o.error})
    print(
        "%s seed %d: %d jobs, %d failed%s; job seconds %s"
        % (
            args.workload, args.seed, attempted, failed,
            " (%s)" % ", ".join(errors) if errors else "",
            " ".join("%d.%d=%.2f" % (k, i, dt) for k, i, dt, _ in results),
        ),
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
