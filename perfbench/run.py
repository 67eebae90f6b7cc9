"""hierlogit benchmark: CLI batch jobs end to end, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload many_markets --seed 1 --seconds 30 --trace 0

``--trace 0`` runs each job of the workload as a user does, as a child
``python -m hierlogit.cli`` process with ``PYTHONPATH=src``, for as many
whole rounds as take about ``--seconds`` seconds, each job after a run of
the fixed reference task ``reference.py``, and reports end-to-end metrics.
``--trace 1`` runs the same jobs in this process through
``hierlogit.cli.main``, alternating untraced and traced passes, and reports
per-layer metrics.
Every job's output is checked. The last line of standard output is the
result; the line before it is a detail record (environment, input sizes,
per-job times, failures), also written to ``perfbench/results/``.
See ``perfbench/NOTES.md`` for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.py")
WORKLOADS = ("many_markets", "large_market", "sim_trees")
END_TO_END = (("setup_s", "s"), ("wall_rel", "ratio"), ("peak_rss_mb", "MB"))
# `--help` start-ups per run whose median gives setup_s
SETUP_REPEATS = 5
# setup_s is given in seconds of a host on which the reference task takes
# this long: the raw start-up time drifts with the host's speed by more than
# setup_s's bound between two sets of runs of the same code
REFERENCE_NOMINAL_S = 0.5
# a job still running this long after the benchmark started is killed and
# counted as failed, so that one run always ends within three minutes
RUN_LIMIT_S = 150.0
STARTED = time.perf_counter()
# Nominal seconds of one round of a workload's jobs (each after the reference
# task) and of one untraced-plus-traced pass, on the machine described in
# NOTES.md. A run makes round(seconds / nominal) of them, at least one. The
# count is fixed, not "until the clock runs out", so that every run of a seed
# attempts the same jobs and `attempted` and `failed` repeat exactly.
ROUND_S = {"many_markets": 13.0, "large_market": 19.0, "sim_trees": 11.0}
PASS_S = {"many_markets": 22.0, "large_market": 16.0, "sim_trees": 13.0}


def repeats(nominal: float, seconds: float) -> int:
    return max(1, round(seconds / nominal))


def _cap_blas_threads() -> int:
    # must run before numpy is imported; children inherit the setting
    nproc = len(os.sched_getaffinity(0))
    wanted = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(wanted), nproc) if wanted.isdigit() and int(wanted) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return nproc


NPROC = _cap_blas_threads()

import numpy as np  # noqa: E402

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracing  # noqa: E402
from inputs import make_inputs  # noqa: E402


@dataclass
class Job:
    """One CLI command of a workload; ``check`` maps its output to an error or None."""

    label: str
    argv: list
    output: str
    check: object
    runs: int = 0
    times: list = field(default_factory=list)  # wall s of every child run
    ok_times: list = field(default_factory=list)  # wall s of runs that passed
    failures: list = field(default_factory=list)
    checked_digest: str = ""


def build_jobs(workload: str, inputs, workdir: str) -> list:
    params = inputs.params

    def out(name):
        return os.path.join(workdir, name)

    def job(label, command, source, output, check, *extra):
        argv = [command, "--input" if command != "estimate" else "--config", source]
        argv += ([] if command == "estimate" else ["--params", params]) + list(extra)
        return Job(label, argv + ["--output", output], output, check)

    jobs = []
    if workload == "many_markets":
        m = inputs.markets["many"]
        jobs += [
            job("shares_s", "shares", m.path, out("shares.csv"),
                lambda p: checks.shares_sum_to_one(p, m)),
            job("invert_s", "invert", out("shares.csv"), out("invert.csv"),
                lambda p: checks.recovers_utilities(p, m, checks.CLOSED_TOL)),
            job("newton_s", "invert", out("shares.csv"), out("newton.csv"),
                lambda p: checks.recovers_utilities(p, m, checks.NEWTON_TOL), "--method", "newton"),
        ]
    elif workload == "large_market":
        small, big = inputs.markets["n1000"], inputs.markets["n100k"]
        truth = inputs.estimate_truth
        jobs += [
            job("shares_s.n1000", "shares", small.path, out("shares1k.csv"),
                lambda p: checks.shares_sum_to_one(p, small)),
            job("newton_s.n1000", "invert", out("shares1k.csv"), out("newton1k.csv"),
                lambda p: checks.recovers_utilities(p, small, checks.NEWTON_TOL), "--method", "newton"),
            job("jacobian_s.n1000", "jacobian", small.path, out("jacobian1k.csv"),
                lambda p: checks.jacobian_identities(p, small)),
            job("shares_s.n100k", "shares", big.path, out("shares100k.csv"),
                lambda p: checks.shares_sum_to_one(p, big)),
            job("invert_s.n100k", "invert", out("shares100k.csv"), out("invert100k.csv"),
                lambda p: checks.recovers_utilities(p, big, checks.CLOSED_TOL)),
            job("estimate_s", "estimate", inputs.estimate_config, out("fit.json"),
                lambda p: checks.estimate_recovers_truth(p, truth)),
        ]
    elif workload == "sim_trees":
        for name, draws in (("deep", 100_000), ("shallow", 1_000_000)):
            m = inputs.markets[name]
            jobs.append(job(f"simulate_s.{name}", "simulate", m.path, out(f"sim_{name}.csv"),
                            lambda p, m=m, d=draws: checks.counts_sum_to_draws(p, m, d),
                            "--draws", str(draws), "--seed", str(inputs.sim_seeds[name])))
    return jobs


def _digest(path: str) -> str:
    h = hashlib.blake2b()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def verify(job: Job) -> str | None:
    """Check the job's output; a byte-identical repeat of a checked output passes."""
    if not os.path.exists(job.output):
        return "no output written"
    digest = _digest(job.output)
    if digest == job.checked_digest:
        return None
    error = job.check(job.output)
    if error is None:
        job.checked_digest = digest
    return error


def spawn(argv: list, workdir: str, program=("-m", "hierlogit.cli")) -> tuple:
    """Run ``python -m hierlogit.cli argv``; returns (wall s, exit code, maxrss MB, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *program, *argv], cwd=ROOT,
                                env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(1.0, STARTED + RUN_LIMIT_S - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().strip().splitlines()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, message[-1] if message else ""


def measure_end_to_end(jobs: list, workdir: str, rounds: int) -> tuple:
    spawn(["--help"], workdir)  # warm-up: compiles the package's bytecode once
    setup = []

    def measure_setup():
        wall, code, _, message = spawn(["--help"], workdir)
        if code != 0:
            raise RuntimeError(f"`hierlogit.cli --help` exited {code}: {message}")
        setup.append(wall)

    # Jobs run in workload order, for the given number of whole rounds. The
    # reference task runs before every job: the host's speed drifts by tens of
    # percent over minutes, and the ratio to it cancels that drift. The
    # start-up samples are spread over the first jobs, so that one slow spell
    # of the host does not hit them all.
    peak_rss = 0.0
    incorrect = []
    reference = []
    for number in range(rounds * len(jobs)):
        job = jobs[number % len(jobs)]
        if len(setup) < SETUP_REPEATS:
            measure_setup()
        if os.path.exists(job.output):
            os.remove(job.output)
        wall, code, _, message = spawn([], workdir, program=(REFERENCE,))
        if code != 0:
            raise RuntimeError(f"reference task exited {code}: {message}")
        reference.append(wall)
        job.runs += 1
        wall, code, rss, message = spawn(job.argv, workdir)
        peak_rss = max(peak_rss, rss)
        job.times.append(wall)
        if code != 0:
            job.failures.append(f"exit {code}: {message}")
            continue
        error = verify(job)
        if error is None:
            job.ok_times.append(wall)
        else:
            job.failures.append(f"wrong output: {error}")
            incorrect.append(f"{job.label}: {error}")
    while len(setup) < SETUP_REPEATS:
        measure_setup()

    # failed jobs count too: the user waits for them all the same
    wall_s = sum(statistics.median(job.times) for job in jobs)
    # the reference's mean, not its median: its samples fall in two modes
    # as the host switches speed, and a median flips between them
    host_speed = REFERENCE_NOMINAL_S / statistics.fmean(reference)
    metrics = {
        "setup_s": statistics.median(setup) * host_speed,
        "wall_rel": wall_s / statistics.fmean(reference),
        "peak_rss_mb": peak_rss,
    }
    detail = {"rounds": rounds, "wall_s": wall_s, "setup_raw_s": statistics.median(setup),
              "setup_samples_s": setup, "reference_samples_s": reference}
    return metrics, detail, incorrect


def _inprocess_pass(jobs: list, tracer) -> tuple:
    """Run every job once in process; returns (wall s of the jobs, failed newton jobs,
    bytes written, incorrect outputs). Output checks are not timed."""
    wall = 0.0
    failed_newton = 0
    bytes_out = 0
    incorrect = []
    for number, job in enumerate(jobs):
        if os.path.exists(job.output):
            os.remove(job.output)
        job.runs += 1
        start = time.perf_counter()
        if tracer is None:
            code, message = tracing.run_cli(job.argv)
        else:
            tracer.job = number
            with tracer.span(f"cli.{job.argv[0]}"):
                code, message = tracing.run_cli(job.argv)
        wall += time.perf_counter() - start
        if code != 0:
            lines = message.strip().splitlines()
            job.failures.append(f"exit {code}: {lines[-1] if lines else ''}")
            failed_newton += "newton" in job.argv
            continue
        bytes_out += os.path.getsize(job.output)
        error = verify(job)
        if error is not None:
            job.failures.append(f"wrong output: {error}")
            incorrect.append(f"{job.label}: {error}")
    return wall, failed_newton, bytes_out, incorrect


def measure_layers(jobs: list, passes: int, spans_path: str) -> tuple:
    sys.path.insert(0, SRC)
    untraced, traced, per_pass = [], [], []
    spans = []
    # an untimed first pass checks every output in full and lets the
    # process's memory and imports settle, so that the untraced pass that
    # follows is not the only one to pay for them
    _, _, _, incorrect = _inprocess_pass(jobs, None)
    for _ in range(passes):
        wall, _, _, bad = _inprocess_pass(jobs, None)
        untraced.append(wall)
        incorrect += bad
        tracer = tracing.Tracer()
        with tracer.patched():
            wall, failed_newton, bytes_out, bad = _inprocess_pass(jobs, tracer)
        traced.append(wall)
        incorrect += bad
        per_pass.append(tracing.layer_metrics(tracer.spans, bytes_out, failed_newton))
        spans.append(tracer.spans)
    # counts repeat exactly from pass to pass; median_low keeps them whole
    metrics = {key: (statistics.median_low if isinstance(value, int) else statistics.median)(
        p[key] for p in per_pass) for key, value in per_pass[0].items()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["job", "name", "parent", "start", "end", "count"], "passes": spans}, fh)
    detail = {"passes": len(traced), "untraced_s": untraced, "traced_s": traced,
              "missing_wrappers": tracer.missing, "spans": os.path.relpath(spans_path, ROOT)}
    return metrics, detail, incorrect


def _openblas() -> list:
    """Version string and thread count of every OpenBLAS loaded in this process."""
    import ctypes

    found = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                    entry.update(config=config().decode(), threads=threads())
        found.append(entry)
    return found


def environment() -> dict:
    from importlib.metadata import version
    import platform

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS, so it is reported too)

    return {
        "nproc": NPROC, "cpu": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"), "click": version("click"),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"], "openblas": _openblas(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: the running job is killed and waited for, scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "hierlogit", "cli.py")):
        print(f"error: no hierlogit package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    try:
        inputs = make_inputs(args.workload, args.seed, workdir)
        jobs = build_jobs(args.workload, inputs, workdir)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, detail, incorrect = measure_layers(
                jobs, repeats(PASS_S[args.workload], args.seconds), os.path.join(results, f"{tag}-spans.json"))
            units = dict(tracing.METRICS)
        else:
            metrics, detail, incorrect = measure_end_to_end(
                jobs, workdir, repeats(ROUND_S[args.workload], args.seconds))
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(job.runs for job in jobs)
    failed = sum(len(job.failures) for job in jobs)
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        run_s=time.perf_counter() - STARTED, environment=environment(), inputs=inputs.sizes(),
        attempted=attempted, failed=failed, fail_frac=failed / attempted,
        jobs={job.label: {"command": job.argv[0], "runs": job.runs, "failed": len(job.failures),
                          "median_s": statistics.median(job.ok_times) if job.ok_times else None,
                          "all_runs_median_s": statistics.median(job.times) if job.times else None,
                          "samples_s": job.times,
                          "failures": sorted(set(job.failures))}
              for job in jobs},
        incorrect=incorrect,
    )
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(detail))
    result = {
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
