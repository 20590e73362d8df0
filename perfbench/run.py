"""psicert benchmark: one closed-loop client issuing CLI jobs in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload diag-families --seed 1 --seconds 30 --trace 0

Set-up imports psicert from the checkout's `src`, generates the workload's
inputs from the seed, writes them as JSON under `.perfbench_work/` and runs
one warm-up job per command.  It is repeated SETUP_REPS times and the
median reported.  The timed loop then issues the pass of jobs (in a seeded
order) through `psicert.cli.run(argv)`, one job at a time, in whole passes
until `--seconds` have elapsed and at least MIN_SAMPLES jobs ran.  Outputs
are checked afterwards by `check.py`.

The machines this runs on are shared, and their speed drifts by a third
within minutes.  So the benchmark also times `calibrate()`, a fixed piece of
exact-arithmetic Python that does not touch psicert, every CAL_INTERVAL_S
during the loop and in short bursts around set-up and cold starts.  Every
reported time is scaled by CAL_REF_S / (median calibration time within
CAL_WINDOW_S of it): it reads as time on a machine where `calibrate()`
takes CAL_REF_S.  Raw figures are printed above the result line.  The
process pins itself (and so its cold-start children) to one CPU, so that
calibration and jobs run where the other is measured.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
runs traced passes, then one untraced pass, and reports per-layer metrics
(`tracer.py`).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 3
COLD_REPS = 7
MIN_SAMPLES = 100
CAL_INTERVAL_S = 0.1
CAL_WINDOW_S = 2.0
CAL_BURST = 4
CAL_REF_S = 0.007


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed mix of dict, int and Fraction work."""
    start = perf_counter()
    table: dict = {}
    acc = 0
    for i in range(8000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        acc += i * i
    frac = Fraction(0)
    for i in range(1, 700):
        frac += Fraction(1, i)
    return perf_counter() - start


class Speed:
    """Time-stamped calibration samples and the scale factors they give."""

    def __init__(self):
        self.stamps: list = []
        self.times: list = []
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            self.times.append(calibrate())
            self.stamps.append(start)
            self.spent += perf_counter() - start

    def due(self) -> bool:
        return not self.stamps or perf_counter() - self.stamps[-1] >= CAL_INTERVAL_S

    def scale(self, t0: float, t1: float) -> float:
        """CAL_REF_S over the median calibration time within CAL_WINDOW_S of [t0, t1]."""
        lo = bisect_left(self.stamps, t0 - CAL_WINDOW_S)
        hi = bisect_right(self.stamps, t1 + CAL_WINDOW_S)
        return CAL_REF_S / statistics.median(self.times[lo:hi] or self.times)

    def overall(self) -> float:
        return CAL_REF_S / statistics.median(self.times)


def run_job(cli, argv) -> tuple:
    """(exit code or None on an escaped exception, stdout, start, seconds in cli.run)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.run(argv)
        except (Exception, SystemExit):
            rc = None
        elapsed = perf_counter() - start
    return rc, out.getvalue(), start, elapsed


def set_up(cli, workload: str, seed: int, work: Path) -> tuple:
    """Generate and write the inputs, then warm up: one job per command."""
    files, jobs, cheapest = gen.WORKLOADS[workload](seed)
    work.mkdir(parents=True)
    for name, doc in files.items():
        (work / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    os.chdir(work)
    first: dict = {}
    for job in [cheapest] + jobs:
        first.setdefault(job["argv"][0], job)
    for job in first.values():
        run_job(cli, job["argv"])
    return jobs, cheapest


def cold_start(root: Path, job: dict, speed: Speed) -> tuple:
    """Scaled and raw median seconds of fresh `python -m psicert` processes
    running `job`, and a reason if one of them answered wrongly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    spans, problem = [], None
    for _ in range(COLD_REPS):
        speed.sample(CAL_BURST)
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "psicert", *job["argv"]], env=env, capture_output=True, text=True, timeout=60
        )
        spans.append((start, perf_counter()))
        problem = problem or check.check(job, proc.returncode, proc.stdout)
    speed.sample(CAL_BURST)
    scaled = statistics.median((t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans)
    return scaled, statistics.median(t1 - t0 for t0, t1 in spans), problem


def timed_loop(cli, jobs, order_rng, seconds: float, speed: Speed, min_samples: int = MIN_SAMPLES, tracer=None):
    """Whole passes until `seconds` elapsed and `min_samples` jobs ran.

    Calibrates every CAL_INTERVAL_S between jobs.  Returns (records, passes,
    wall seconds without calibration); a record is (job index, rc, stdout,
    start, seconds).
    """
    records, passes, outputs = [], 0, {}
    start, spent = perf_counter(), speed.spent
    while True:
        order = list(range(len(jobs)))
        order_rng.shuffle(order)
        for idx in order:
            span = tracer.begin_job((passes, idx)) if tracer else None
            rc, out, t0, elapsed = run_job(cli, jobs[idx]["argv"])
            if span:
                tracer.end_job(span)
            # keep one copy of each distinct output, so memory does not grow with passes
            out = outputs.setdefault((idx, out), out)
            records.append((idx, rc, out, t0, elapsed))
            if speed.due():
                speed.sample()
        passes += 1
        wall = perf_counter() - start - (speed.spent - spent)
        if wall >= seconds and len(records) >= min_samples:
            return records, passes, wall


def verify(jobs: list, records: list) -> tuple:
    """(failed, wrong, search shortfalls, first reasons): each distinct output is checked once."""
    verdicts: dict = {}
    failed = wrong = 0
    shortfalls, reasons = [], []
    for idx, rc, out, _, _ in records:
        job = jobs[idx]
        if rc != job["rc"]:
            failed += 1
            reasons.append(f"{' '.join(job['argv'])}: exit code {rc}, expected {job['rc']}")
            continue
        key = (idx, out)
        if key not in verdicts:
            verdicts[key] = check.check(job, rc, out)
        if verdicts[key] is not None:
            wrong += 1
            reasons.append(f"{' '.join(job['argv'])}: {verdicts[key]}")
        elif job["kind"] == "search":
            shortfalls.append(check.shortfall(job, out))
    return failed, wrong, shortfalls, reasons


def quantile(values: list, q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "psicert" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/psicert", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = Speed()
    t0 = perf_counter()
    import psicert.cli as cli

    import_span = (t0, perf_counter())
    work_root = root / ".perfbench_work"
    base = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for rep in range(SETUP_REPS):
            speed.sample(CAL_BURST)
            os.chdir(root)
            t0 = perf_counter()
            jobs, cheapest = set_up(cli, args.workload, args.seed, base / f"rep{rep}")
            setups.append((t0, perf_counter()))
        speed.sample(CAL_BURST)
        import_s = import_span[1] - import_span[0]
        setup_raw = import_s + statistics.median(t1 - t0 for t0, t1 in setups)
        setup_s = import_s * speed.scale(*import_span) + statistics.median(
            (t1 - t0) * speed.scale(t0, t1) for t0, t1 in setups
        )
        problems = check.self_test()
        order_rng = random.Random(args.seed)
        if args.trace:
            return traced(cli, args, root, jobs, order_rng, speed, setup_raw, problems)

        cold_s, cold_raw, cold_problem = cold_start(root, cheapest, speed)
        if cold_problem:
            problems.append(f"cold start: {cold_problem}")
        records, passes, wall = timed_loop(cli, jobs, order_rng, args.seconds, speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, wrong, shortfalls, reasons = verify(jobs, records)
    finally:
        os.chdir(root)
        shutil.rmtree(base, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    raw = [r[4] for r in records]
    scaled = [r[4] * speed.scale(r[3], r[3] + r[4]) for r in records]
    attempted = len(records)
    shortfall = float(sum(shortfalls, Fraction(0)) / len(shortfalls)) if shortfalls else 0.0
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": attempted / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p90_ms": quantile(scaled, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "search_quality": 1.0 - shortfall,
    }
    # printed but not gated: cold starts vary too much between runs, and the
    # fractions read 0 on correct code
    report = dict(metrics, cold_start_ms=cold_s * 1e3, failed_frac=failed / attempted, wrong_frac=wrong / attempted)
    units = dict(metric_units("end_to_end"), cold_start_ms="ms", failed_frac="ratio", wrong_frac="ratio",
                 ratio_shortfall="ratio")
    if shortfalls:
        report["ratio_shortfall"] = shortfall
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs in {passes} passes "
          f"of {len(jobs)}, {wall:.2f} s; latency samples {attempted}")
    print(f"  calibration median {statistics.median(speed.times) * 1e3:.3f} ms over {len(speed.times)} samples; "
          f"raw: set-up {setup_raw:.4f} s, p50 {statistics.median(raw) * 1e3:.4f} ms, "
          f"p90 {quantile(raw, 90) * 1e3:.4f} ms, cold start {cold_raw * 1e3:.2f} ms, {attempted / wall:.4f} jobs/s")
    for name, value in report.items():
        print(f"  {name:<16} {value:.6g} {units[name]}")
    for line in (problems + reasons)[:10]:
        print(f"  problem: {line}")
    result = {
        "correct": not problems and failed == 0 and wrong == 0,
        "attempted": attempted,
        "failed": failed + wrong,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced(cli, args, root: Path, jobs: list, order_rng, speed: Speed, setup_raw: float, problems: list) -> int:
    """Traced passes for the per-layer breakdown, then one untraced pass to
    compare with (after the traced ones, so that both run warm)."""
    tracer = Tracer()
    tracer.install()
    try:
        records, passes, wall = timed_loop(cli, jobs, order_rng, args.seconds, speed, tracer=tracer)
    finally:
        tracer.uninstall()
    plain, _, plain_wall = timed_loop(cli, jobs, order_rng, 0.0, speed, min_samples=0)
    failed, wrong, _, reasons = verify(jobs, plain + records)
    layers = tracer.summarize(passes, speed.overall())
    # both walls scaled by the machine speed around them, like job times
    traced_pass = wall / passes * speed.scale(records[0][3], records[-1][3] + records[-1][4])
    plain_pass = plain_wall * speed.scale(plain[0][3], plain[-1][3] + plain[-1][4])
    layers["trace.overhead_frac"] = traced_pass / plain_pass - 1.0
    if layers["trace.job_sum_error_max"] > 1e-6:
        problems.append("layer self times do not add up to job wall time")
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.csv.gz")
    units = metric_units("per_layer")
    print(f"workload {args.workload} seed {args.seed} traced: {len(records)} jobs in {passes} passes, "
          f"raw set-up {setup_raw:.3f} s, calibration median {statistics.median(speed.times) * 1e3:.3f} ms; "
          f"per-pass figures, times scaled by {speed.overall():.4f}")
    for name in sorted(layers):
        print(f"  {name:<36} {layers[name]:.6g} {units[name]}")
    for line in (problems + reasons)[:10]:
        print(f"  problem: {line}")
    result = {
        "correct": not problems and failed == 0 and wrong == 0,
        "attempted": len(plain) + len(records),
        "failed": failed + wrong,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in layers.items()},
    }
    print(json.dumps(result))
    return 0


def metric_units(section: str) -> dict:
    """Name -> unit for one metric list of BENCHMARK.json."""
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


if __name__ == "__main__":
    sys.exit(main())
