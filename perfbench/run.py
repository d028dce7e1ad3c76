"""ncmetric benchmark: seeded CLI workloads with per-op oracle checks.

    python3 perfbench/run.py --workload density --seed 1 --seconds 55 --trace 0

A single-process, closed-loop benchmark with one client: it calls
ncmetric.cli.main(argv) in-process, one CLI command per op, on inputs
generated from the workload seed, and repeats whole rounds of ops
while the next round is expected to end within --seconds of wall time.
Op times are process CPU times, which leave out the time the virtual
machine's host takes the CPU away, scaled to a reference machine speed
(see Calibrator). Every op's output is checked against tests/oracles.py
after the timed loop. --trace 1 instead runs the first round three times:
once untraced, then twice with every public layer function wrapped
from outside (see layertrace.py), and reports per-layer counts and
self times.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import os

# Pin BLAS to one thread before numpy loads; leave the props pool at its
# default of one worker.
BLAS_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in BLAS_THREAD_ENV:
    os.environ[_name] = "1"
os.environ.pop("NCMETRIC_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("density", "metric")

# Rounds generated per run: more than a 55-s run measures, so that each
# measured round has its own seeded inputs. A longer run cycles through again.
POOL_ROUNDS = {"density": 16, "metric": 4}
# The machine's speed is sampled with a fixed piece of numpy and Python
# work that does not touch ncmetric: a few times after set-up, then after
# every CAL_EVERY_S of op CPU time.
CAL_EVERY_S = 1.0
CAL_SETUP_SAMPLES = 3
# Mean CPU time of one Calibrator.sample() on the 2-vCPU x86-64 virtual
# machine the benchmark was built on (Python 3.11, numpy 2, one BLAS
# thread). Times are reported at that speed: see Calibrator.scale.
CAL_REF_S = 0.047


@dataclass
class Result:
    rc: object
    stdout: str
    out_text: object
    stderr: str
    cpu: float


class Terminated(BaseException):
    """SIGTERM; not caught by the per-op handlers, so cleanup runs."""


def _terminate(signum, frame):
    raise Terminated(signum)


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _check_checkout():
    if not (ROOT / "src" / "ncmetric" / "cli.py").is_file():
        _die(f"no ncmetric source under {ROOT / 'src'}; run from a checkout of the repository")
    if not (ROOT / "tests" / "oracles.py").is_file():
        _die(f"no reference oracles at {ROOT / 'tests' / 'oracles.py'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def setup(workload, seed, work):
    """Import the package, generate the seeded inputs, run the warm-up op.

    Returns (CPU seconds, cli module, rounds of ops).
    """
    c0 = process_time()
    from ncmetric import cli

    import workloads

    rounds = workloads.generate(workload, seed, POOL_ROUNDS[workload], work)
    warm = execute(cli, _warmup_op(workload, rounds[0]))
    seconds = process_time() - c0
    if warm.rc != 0:
        _die(f"warm-up op failed with exit code {warm.rc}: {warm.stderr.strip()}")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        _die(f"imported ncmetric from {cli.__file__}, not from {ROOT / 'src'}")
    return seconds, cli, rounds


def _warmup_op(workload, first_round):
    """A cheap op of the first round: the smallest semicircle grid, or the
    first delta op."""
    if workload == "density":
        return first_round[2]
    return next(op for op in first_round if op.kind == "delta")


def execute(cli, op) -> Result:
    """One op: ncmetric.cli.main(argv) with stdout and stderr captured."""
    if op.out:
        Path(op.out).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    c0 = process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    cpu = process_time() - c0
    out_text = None
    if op.out and os.path.exists(op.out):
        out_text = Path(op.out).read_text()
    return Result(rc, out.getvalue(), out_text, err.getvalue(), cpu)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    missed: int = 0
    flagged: int = 0
    capped: int = 0
    errors: list = field(default_factory=list)


def evaluate(ops, results, oracles) -> Tally:
    """Failures and oracle checks over every op of a run.

    A failed op raised, returned an exit code other than 0 or printed
    a non-finite number; it is not checked further.
    """
    import workloads

    tally = Tally()
    for i, (op, res) in enumerate(zip(ops, results)):
        tally.attempted += 1
        try:
            finite = workloads.output_is_finite(res.stdout, res.out_text)
        except ValueError:
            finite = False
        if res.rc != 0 or not finite:
            tally.failed += 1
            tally.errors.append(f"op {i} ({op.kind}) failed: exit {res.rc!r}, "
                                f"finite {finite}: {res.stderr.strip()[-300:]}")
            continue
        try:
            v = workloads.CHECKS[op.kind](op, res.stdout, res.out_text, oracles)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            tally.errors.append(f"op {i} ({op.kind}) output unreadable: {exc!r}")
            continue
        tally.checked += v.checked
        tally.missed += v.missed
        tally.flagged += v.flagged
        tally.capped += v.capped
        tally.errors += [f"op {i} ({op.kind}): {e}" for e in v.errors]
    return tally


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_ENV},
        "NCMETRIC_THREADS": os.environ.get("NCMETRIC_THREADS", "unset"),
        "clock": "time.process_time per op and set-up; time.perf_counter for spans and the run length",
        "memory": "resource.getrusage(RUSAGE_SELF).ru_maxrss",
    }


class Calibrator:
    """Samples the machine's speed with fixed work outside ncmetric.

    On a shared virtual machine the same op can take 1.5x more CPU time
    for minutes at a stretch. The calibration work, small complex
    matrices through the LAPACK calls and the Python overhead ncmetric
    spends most of its time in, slows down with it, so times scaled by
    CAL_REF_S / (its mean CPU time over the run) do not move with the
    machine, while a change to ncmetric moves them in full.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        shape = (4, 4)
        self.mats = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(40)]
        self.samples = []

    def sample(self):
        np = self.np
        c0 = process_time()
        for _ in range(20):
            for m in self.mats:
                np.linalg.inv(m)
                np.linalg.eigh(m + m.conj().T)
                np.linalg.norm(m, 2)
                m @ m
        self.samples.append(process_time() - c0)

    def scale(self):
        return CAL_REF_S / statistics.fmean(self.samples)


def timed_run(cli, rounds, seconds, cal):
    """Closed loop, one client: whole rounds, at least one, while the next
    round is expected to end within the wall-time budget. The machine's
    speed is sampled between ops."""
    ops, results = [], []
    t0 = perf_counter()
    r, last, since_cal = 0, 0.0, 0.0
    while r == 0 or perf_counter() - t0 + last <= seconds:
        start = perf_counter()
        for op in rounds[r % len(rounds)]:
            ops.append(op)
            results.append(execute(cli, op))
            since_cal += results[-1].cpu
            if since_cal >= CAL_EVERY_S:
                cal.sample()
                since_cal = 0.0
        last = perf_counter() - start
        r += 1
    return ops, results, perf_counter() - t0, r


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, setup_s, ops, results, wall, n_rounds, tally, cal):
    scale = cal.scale()
    raw = [res.cpu for res in results]
    times = [t * scale for t in raw]
    cpu = sum(times)
    # Rounds repeat a fixed set of op classes, so interpolating between
    # neighbours can mix two classes. The lower median is an op time, and
    # over whole rounds the inclusive p90 falls inside one class, or nearly so.
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    completed = tally.attempted - tally.failed
    miss_ratio = tally.missed / tally.checked if tally.checked else 0.0
    fail_ratio = tally.failed / tally.attempted
    metrics = {
        "setup_s": _metric(setup_s * scale, "s"),
        "op_s.p50": _metric(statistics.median_low(times), "s"),
        "op_s.p90": _metric(p90, "s"),
        "ops_per_s": _metric(completed / cpu, "1/s"),
        "ok_ratio": _metric(1.0 - fail_ratio, "ratio"),
        "acc.pass_ratio": _metric(1.0 - miss_ratio, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = sum(t > p90 for t in times)
    print(f"workload {workload}: {len(ops)} ops over {n_rounds} rounds in {sum(raw):.3f} CPU s "
          f"and {wall:.3f} wall s; {beyond} ops lie beyond op_s.p90")
    print(f"  times below are CPU times x {scale:.4f}: calibration mean "
          f"{statistics.fmean(cal.samples) * 1e3:.2f} ms over {len(cal.samples)} samples, "
          f"reference {CAL_REF_S * 1e3:.2f} ms; unscaled set-up {setup_s:.4f} s, "
          f"p50 {statistics.median_low(raw):.5f} s, ops/s {completed / sum(raw):.4f}")
    for name, m in metrics.items():
        print(f"  {name:16s} {m['value']!r} {m['unit']}")
    print(f"  {'fail_ratio':16s} {fail_ratio!r} ratio ({tally.failed} of {tally.attempted} ops)")
    print(f"  {'acc.miss_ratio':16s} {miss_ratio!r} ratio ({tally.missed} of {tally.checked} "
          f"values; {tally.flagged} of the misses are the known edge defect; "
          f"{tally.capped} checked rows at the iteration cap)")
    return metrics


def traced_run(workload, cli, rounds):
    """Plain pass, traced pass, traced repeat over the first round."""
    import layertrace

    ops = rounds[0]
    plain = [execute(cli, op) for op in ops]

    tracer = layertrace.Tracer()

    def traced_pass():
        results = []
        for i, op in enumerate(ops):
            tracer.op = i
            results.append(execute(cli, op))
        return results

    tracer.install()
    try:
        traced = traced_pass()
        first_counts = tracer.call_counts()
        metrics = {k: _metric(v, u) for k, (v, u) in tracer.metrics().items()}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload}.csv")
        tracer.reset()
        traced_pass()
        second_counts = tracer.call_counts()
    finally:
        tracer.uninstall()
    cpu_plain, cpu_traced = (sum(r.cpu for r in rs) for rs in (plain, traced))
    metrics["trace.overhead_ratio"] = _metric(cpu_traced / cpu_plain, "ratio")

    integrity = []
    for i, (p, t) in enumerate(zip(plain, traced)):
        if (p.rc, p.stdout, p.out_text) != (t.rc, t.stdout, t.out_text):
            integrity.append(f"op {i} ({ops[i].kind}) output differs when traced")
    if first_counts != second_counts:
        diff = sorted(k for k in first_counts if first_counts[k] != second_counts[k])
        integrity.append(f"counts differ between two traced passes: {diff}")
    leftover = layertrace.Tracer.leftover_wrappers()
    if leftover:
        integrity.append(f"wrappers left bound after the traced run: {leftover}")

    print(f"workload {workload} traced: {len(ops)} ops; plain {cpu_plain:.3f} CPU s, "
          f"traced {cpu_traced:.3f} CPU s; spans written to {out_dir / f'spans-{workload}.csv'}")
    print(f"  trace integrity: outputs identical {not any('differs' in e for e in integrity)}, "
          f"counts repeat {first_counts == second_counts}, wrappers removed {not leftover}")
    for name, m in sorted(metrics.items()):
        print(f"  {name:50s} {m['value']!r} {m['unit']}")
    return ops, plain, metrics, integrity


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_checkout()
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, _terminate)

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, cli, rounds = setup(args.workload, args.seed, work)
        import oracles

        print("env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            ops, results, metrics, integrity = traced_run(args.workload, cli, rounds)
            tally = evaluate(ops, results, oracles)
            tally.errors += integrity
        else:
            cal = Calibrator()
            for _ in range(CAL_SETUP_SAMPLES):
                cal.sample()
            ops, results, wall, n_rounds = timed_run(cli, rounds, args.seconds, cal)
            tally = evaluate(ops, results, oracles)
            metrics = end_to_end(args.workload, setup_s, ops, results, wall, n_rounds, tally, cal)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    correct = not tally.errors
    for e in tally.errors[:20]:
        print(f"  check: {e}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
