"""Benchmark of the abr command-line tool, one workload per run.

    python3 bench/run.py --workload lifted-d3 --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout; it uses the sources under ``src/`` and
needs nothing installed.  With ``--trace 0`` it makes the workload's inputs
from the seed (several times, timing each), then runs the workload's abr
commands in a closed loop, one process at a time with ABR_THREADS unset,
starting no pass that would end after ``--seconds``, and reports
end-to-end medians over the passes.  With ``--trace 1`` it runs one pass as
subprocesses, one in-process through ``abr.cli.main`` and one in-process
with timing wrappers around each module's public functions, and reports
per-layer self times and counts.  All seconds are scaled to a reference
machine speed (see ``Speed``).

Every output is checked by the benchmark's own integer code outside the
timed region.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's context (machine, per-step medians, sha256 of every artifact).
Work files go to ``bench/work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
from workloads import WORKLOADS, Result, check_exit

LAUNCH = "import sys; from abr.cli import main; sys.exit(main())"
# The same launch, also reporting how long main() itself ran, on the last
# line of stderr; the rest of the process's wall time is its start-up.
TIMED_LAUNCH = """import sys, time
from abr.cli import main
start = time.perf_counter()
try:
    code = main()
finally:
    sys.stderr.write("\\n#main_s=" + repr(time.perf_counter() - start) + "\\n")
sys.exit(code)
"""
MARK = b"\n#main_s="
BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 165.0
# What a malformed artifact makes the checks raise (JSON errors are ValueErrors).
VERIFY_ERRORS = (ValueError, KeyError, IndexError, TypeError, AttributeError)


class SetupFailed(Exception):
    pass


class Speed:
    """Scales measured seconds to a reference machine speed.

    The speed of a shared machine drifts by tens of percent within a minute,
    for process start-up and computation alike.  So the benchmark times a
    fixed reference task, a fresh interpreter that runs
    ``exact.reference_task``, between regions of at least REGION_S measured
    seconds.  Each time in a region is multiplied by REFERENCE_S over the
    mean reference time just before and just after the region.  REFERENCE_S
    is a fixed unit: about the reference task's time between abr commands
    on the 2-core machine the benchmark was tuned on, so scaled seconds read
    close to wall seconds there.
    """

    REFERENCE_S = 0.060
    REGION_S = 1.0

    def __init__(self):
        self.factors = []
        self.pending = []
        self.reference()  # the first start-up of a run is cold
        self.last = self.reference()

    @staticmethod
    def reference():
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import exact; exact.reference_task()"],
                       cwd=BENCH_DIR, stdin=subprocess.DEVNULL, check=True)
        return time.perf_counter() - start

    def add(self, store, key, seconds):
        """Queue ``seconds`` just measured; ``store[key]`` gets them scaled
        once the region closes."""
        self.pending.append((store, key, seconds))
        if sum(s for _, _, s in self.pending) >= self.REGION_S:
            self.close()

    def close(self):
        """End the current region and write its scaled times."""
        if not self.pending:
            return
        after = self.reference()
        factor = self.REFERENCE_S * 2 / (self.last + after)
        self.last = after
        self.factors.append(factor)
        for store, key, seconds in self.pending:
            store[key] = seconds * factor
        self.pending = []


def sha256(data):
    return hashlib.sha256(data or b"").hexdigest()


def _read(artifact):
    return artifact.read_bytes() if artifact is not None and artifact.exists() else None


class Subprocess:
    """abr as a user runs it: a fresh interpreter per command."""

    def __init__(self, root, deadline, timed=False):
        self.env = {k: v for k, v in os.environ.items() if k != "ABR_THREADS"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.deadline = deadline
        self.launch = TIMED_LAUNCH if timed else LAUNCH

    def __call__(self, argv, artifact=None):
        if artifact is not None:
            artifact.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", self.launch, *argv], env=self.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        # A timeout on communicate() would poll with sleeps of up to 50 ms,
        # which would add to every measured time; a timer kills instead.
        guard = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        guard.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            guard.cancel()
        seconds = time.perf_counter() - start
        main_seconds = None
        head, mark, tail = stderr.rpartition(MARK)
        if mark:
            stderr, main_seconds = head, float(tail)
        return Result(seconds, proc.returncode, stdout, stderr, _read(artifact), main_seconds)


class InProcess:
    """abr.cli.main(argv) in this interpreter, with stdout and stderr captured.

    ``main`` is looked up on every call, so installed wrappers take effect."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, argv, artifact=None):
        if artifact is not None:
            artifact.unlink(missing_ok=True)
        out = io.BytesIO()
        text = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
        err = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(text), redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
        text.flush()
        return Result(seconds, code, out.getvalue(), err.getvalue().encode(), _read(artifact))


def one_pass(workload, run, tracer=None):
    """Make the inputs, then run every step once.

    Returns ({step name: Result}, list of every Result including set-up
    commands, {step name: [(lo, hi)] span ranges when traced})."""
    log = []

    def call(argv, artifact=None):
        result = run(argv, artifact)
        log.append(result)
        return result

    setup_failures = workload.setup(call)
    if setup_failures:
        raise SetupFailed("; ".join(setup_failures))
    results, spans = {}, defaultdict(list)
    for step in workload.steps():
        lo = len(tracer) if tracer is not None else 0
        results[step.name] = call(step.argv, step.artifact)
        if tracer is not None:
            spans[step.name].append((lo, len(tracer)))
    return results, log, spans


def digest(results):
    return {name: [sha256(r.stdout), sha256(r.artifact)] for name, r in results.items()}


class Tally:
    """Commands attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed_steps = set()
        self.messages = []

    def fail(self, key, message):
        self.failed_steps.add(key)
        self.messages.append(message)

    def exits(self, workload, results, tag):
        for step in workload.steps():
            for message in check_exit(step.name, step.exit, results[step.name]):
                self.fail((tag, step.name), message)

    def same_as(self, reference, results, tag):
        want, got = digest(reference), digest(results)
        for name in got:
            if got[name] != want[name]:
                self.fail((tag, name), f"{name}: output differs from the first pass ({tag})")

    def verify(self, workload, results):
        try:
            messages = workload.verify(results)
        except VERIFY_ERRORS as exc:
            messages = [f"verify: {type(exc).__name__}: {exc}"]
        for message in messages:
            self.fail(("verify", message.split(":", 1)[0]), message)

    @property
    def failed(self):
        return min(len(self.failed_steps), self.attempted)


def work_files(workload):
    return {p.name: sha256(p.read_bytes()) for p in sorted(workload.work.iterdir())
            if p.is_file()}


def timed_run(workload, root, seconds, deadline, tally, context):
    run = Subprocess(root, deadline)
    speed = Speed()
    setups, inputs = [], None

    def counted(argv, artifact=None):
        tally.attempted += 1
        return run(argv, artifact)

    for k in range(workload.setup_repeats):
        start = time.perf_counter()
        failures = workload.setup(counted)
        setups.append(None)
        speed.add(setups, k, time.perf_counter() - start)
        speed.close()
        if failures:
            raise SetupFailed("; ".join(failures))
        files = work_files(workload)
        if inputs is not None and files != inputs:
            tally.fail(("setup", "repeat"), "setup: repeated set-up gave different bytes")
        inputs = files

    steps = workload.steps()
    samples, first = [], None
    end = time.perf_counter() + seconds
    last = 0.0
    while not samples or (time.perf_counter() + last < end
                          and time.monotonic() + 2 * last < deadline):
        started = time.perf_counter()
        results, sample = {}, {}
        for step in steps:
            results[step.name] = run(step.argv, step.artifact)
            speed.add(sample, step.name, results[step.name].seconds)
        speed.close()
        last = time.perf_counter() - started
        tally.attempted += len(steps)
        tally.exits(workload, results, len(samples))
        if first is None:
            first = results
        else:
            tally.same_as(first, results, len(samples))
        samples.append(sample)
    tally.verify(workload, first)

    metric_of = {step.name: step.metric for step in steps}

    def median_of(metric=None):
        return statistics.median(
            sum(t for name, t in sample.items() if metric in (None, metric_of[name]))
            for sample in samples)

    context.update(
        iterations=len(samples),
        setup_samples_s=setups,
        step_median_s={s.name: statistics.median(x[s.name] for x in samples) for s in steps},
        wall_samples_s=[sum(x.values()) for x in samples],
        speed_factors=speed.factors,
        artifacts=work_files(workload),
        stdout_sha256={name: sha256(r.stdout) for name, r in first.items()},
    )
    return {
        "wall_s": median_of(),
        "setup_s": statistics.median(setups),
        "check_s": median_of("check_s"),
        "search_s": median_of("search_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def traced_run(workload, root, deadline, tally, context):
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("ABR_THREADS", None)
    import abr.cli

    inproc = InProcess(abr.cli)
    speed = Speed()
    passes, factor = {}, {}  # factor: one second of each pass, scaled
    for tag, run in (("subprocess", Subprocess(root, deadline, timed=True)),
                     ("in-process", inproc)):
        passes[tag] = one_pass(workload, run)
        speed.add(factor, tag, 1.0)
        speed.close()
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        passes["traced"] = one_pass(workload, inproc, tracer)
    speed.add(factor, "traced", 1.0)
    speed.close()
    tracer.write(workload.path("spans.bin"))

    reference = passes["subprocess"][0]
    for tag, (results, log, _) in passes.items():
        tally.attempted += len(log)
        tally.exits(workload, results, tag)
        if tag != "subprocess":
            tally.same_as(reference, results, tag)
    tally.verify(workload, reference)

    # Seconds are scaled to the reference speed measured around each pass.
    wall = {tag: factor[tag] * sum(r.seconds for r in log)
            for tag, (_, log, _) in passes.items()}
    color_spans = [span for step in workload.steps() if step.metric == "color_s"
                   for span in passes["traced"][2][step.name]]
    metrics = tracing.layer_metrics(tracer, color_spans, workload.decided_tuples())
    metrics = {name: value * factor["traced"] if name.endswith("_s") else value
               for name, value in metrics.items()}
    metrics["cli.startup_s"] = factor["subprocess"] * sum(
        r.seconds - (r.main_seconds or 0.0) for r in passes["subprocess"][1])
    metrics["trace.overhead_s"] = wall["traced"] - wall["in-process"]
    context.update(pass_wall_s=wall, speed_factors=speed.factors, spans=len(tracer),
                   artifacts=work_files(workload))
    return metrics


def src_lines(root):
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "abr").glob("*.py")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "abr" / "cli.py").is_file():
        print(f"error: no abr sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = root / "bench" / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    tally = Tally()
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "src_abr_lines": src_lines(root),
    }
    try:
        if args.trace:
            metrics = traced_run(workload, root, deadline, tally, context)
        else:
            metrics = timed_run(workload, root, args.seconds, deadline, tally, context)
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    context["failures"] = tally.messages
    (work / "report.json").write_text(json.dumps(context, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": not tally.messages,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
