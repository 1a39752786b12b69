"""permbound benchmark: drives ``permbound.cli.main`` in-process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, each in its own interpreter
    python3 perfbench/run.py --smoke                 # tiny inputs, every metric name

Inputs are generated from ``--seed`` into a scratch directory under the
checkout.  Requests run in whole cycles of the workload's mix until
``--seconds`` would be exceeded (and at least the workload's minimum, so
that the tail percentile has ten requests beyond it).  Outputs are checked
after the timed region.  ``--trace 0`` reports the end-to-end metrics,
scaled to a reference host speed (see "host speed" below), ``--trace 1``
the per-layer ones (see tracing.py); the last line of stdout is one JSON
object.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
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
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench_work"
SPANS_DIR = CHECKOUT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_RUNS = 9
HARD_STOP_S = 140.0          # never start a cycle after this, whatever min_cycles says
CAL_SHARE = 0.05             # calibration time after each request, as a share of its latency
CAL_WINDOW_S = 5.0           # calibration samples within this many seconds set a request's speed
CAL_REF_MS = 0.8             # one calibration unit at the reference host speed (see NOTES.md)

END_TO_END = {
    "setup_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms",
    "throughput_rps": "1/s", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
DIGEST_WORKLOADS = ("bound-exact-small", "verify-suites")   # rational outputs are byte-stable

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _import_program():
    if not (SRC / "permbound" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no permbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import permbound.cli
    return permbound.cli


# ---- host speed ------------------------------------------------------------------
#
# A shared virtual machine drifts in speed for every process alike (up to
# 1.8x over minutes on the 2-vCPU VM described in NOTES.md).  A fixed
# pure-Python unit of work, run between requests and outside their timed
# region, measures that drift; the time metrics are scaled by CAL_REF_MS /
# (the unit's median time around each request).  The unit uses no permbound
# code, so a change to the program moves the scaled times as much as the raw
# ones.  Raw figures are printed too.

def calibration_unit() -> float:
    """Milliseconds for a fixed mix of Fraction and float arithmetic."""
    start = time.perf_counter_ns()
    s, x = Fraction(0), 0.0
    for i in range(1, 250):
        s += Fraction(i % 7 + 1, i % 11 + 1)
        x += i * 0.5 / (i + 1.0)
    return (time.perf_counter_ns() - start) / 1e6


def calibrate(samples: list, busy_ms: float):
    """Run calibration units for CAL_SHARE of ``busy_ms`` (at least one)."""
    spent = 0.0
    while True:
        unit = calibration_unit()
        samples.append((time.perf_counter(), unit))
        spent += unit
        if spent >= CAL_SHARE * busy_ms:
            return


def speed_factors(stamps: list[float], samples: list) -> list[float]:
    """Per stamp: median calibration time within CAL_WINDOW_S, over CAL_REF_MS."""
    times = [t for t, _ in samples]
    units = [u for _, u in samples]
    out = []
    for t in stamps:
        lo = bisect.bisect_left(times, t - CAL_WINDOW_S)
        hi = max(bisect.bisect_right(times, t + CAL_WINDOW_S), lo + 1)
        out.append(statistics.median(units[lo:hi]) / CAL_REF_MS)
    return out


# ---- one request ---------------------------------------------------------------

def call(main, argv):
    """Run one CLI request; returns (ns, exit code or None, stdout, stderr, exception text)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a traceback is a failed request, not a benchmark crash
            exc = f"{type(e).__name__}: {e}"[:300]
        ns = time.perf_counter_ns() - start
    return ns, code, out.getvalue(), err.getvalue(), exc


class Results:
    """Outcomes of every measured request, stored once per label plus a signature per repeat."""

    def __init__(self, requests):
        self.requests = requests
        self.first: dict[str, tuple] = {}
        self.signature: dict[str, str] = {}
        self.labels: list[str] = []
        self.latency_ns: list[int] = []
        self.stamps: list[float] = []
        self.cal: list[tuple[float, float]] = []   # (time, ms) of each calibration unit
        self.nondeterministic: set[str] = set()

    def add(self, req, outcome, measured=True):
        ns, code, out, err, exc = outcome
        sig = hashlib.sha256(f"{code}|{exc}|{out}".encode()).hexdigest()
        if req.label not in self.first:
            self.first[req.label] = (code, out, err, exc)
            self.signature[req.label] = sig
        elif self.signature[req.label] != sig:
            self.nondeterministic.add(req.label)
        if measured:
            self.labels.append(req.label)
            self.latency_ns.append(ns)
            self.stamps.append(time.perf_counter())


def run_cycles(requests, results, seconds, min_cycles, main_for, measured=True):
    """Closed loop over whole cycles; ``main_for(request id)`` gives the callable to run.

    Returns (cycles, ns spent inside requests).
    """
    start = time.perf_counter()
    cycles, last, busy = 0, 0.0, 0
    while True:
        elapsed = time.perf_counter() - start
        if cycles >= max(1, min_cycles) and elapsed + last > seconds:
            break
        if cycles >= 1 and elapsed + last > HARD_STOP_S:
            break
        c0 = time.perf_counter()
        for req in requests:
            outcome = call(main_for(len(results.labels)), req.argv)
            busy += outcome[0]
            results.add(req, outcome, measured)
            if measured:
                calibrate(results.cal, outcome[0] / 1e6)
        last = time.perf_counter() - c0
        cycles += 1
    return cycles, busy


# ---- checking ------------------------------------------------------------------

def classify(req, code, out, err, exc, program, refs) -> str | None:
    """None when the request succeeded with a correct output, else the reason it failed."""
    if exc:
        return exc
    if code != 0:
        return f"exit {code}: {(err.strip() or out.strip())[:200]}"
    try:
        if req.kind == workloads.FLOAT:
            if req.matrix_file not in refs:
                refs[req.matrix_file] = checks.reference_float_bound(req.matrix_file)
            return checks.check_float_report(out, refs[req.matrix_file])
        if req.kind == workloads.RATIONAL:
            m = program.parse_matrix_file(req.matrix_file).matrix
            return checks.check_rational_output(out, [m])
        if req.kind == workloads.FAMILY:
            name, params, count = req.family
            ms = [p.matrix for p, _ in program._family_instances(name, dict(params), count)]
            return checks.check_rational_output(out, ms)
        return checks.check_verify_output(out)
    except (KeyError, ValueError, TypeError, ArithmeticError) as e:
        return f"unreadable output ({type(e).__name__}: {e})"


def evaluate(results, program, workload_name, seed, smoke, record_digests=False):
    """Check each label once; returns (correct, failed count, per-label failure notes)."""
    refs: dict = {}
    correct = True
    notes = []
    failed_labels = {}
    digests = {}
    for req in results.requests:
        if req.label not in results.first:
            continue
        code, out, err, exc = results.first[req.label]
        reason = classify(req, code, out, err, exc, program, refs)
        if reason is None:
            digests[req.label] = hashlib.sha256(out.encode()).hexdigest()
            continue
        failed_labels[req.label] = reason
        if req.may_fail:
            notes.append(f"failed (known defect: {req.may_fail}) {req.label}: {reason}")
        else:
            correct = False
            notes.append(f"FAILED unexpectedly {req.label}: {reason}")
    for label in sorted(results.nondeterministic):
        correct = False
        notes.append(f"FAILED {label}: output differs between repeats of the same input")
    if workload_name in DIGEST_WORKLOADS and seed == DEFAULT_SEED and not smoke:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        if record_digests:
            stored[workload_name] = digests
            DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        for label, digest in stored.get(workload_name, {}).items():
            if label in digests and digests[label] != digest:
                correct = False
                notes.append(f"FAILED {label}: output bytes differ from the recorded seed-{DEFAULT_SEED} digest")
    failed = sum(1 for label in results.labels if label in failed_labels)
    return correct, failed, notes


# ---- metrics -------------------------------------------------------------------

def percentile(values, pct):
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    pos = pct / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(work: Path, seed: int) -> tuple[list[float], str | None]:
    """Fresh interpreters that import permbound.cli and bound a seeded 2x2 matrix.

    Returns the wall times and, if an output was wrong, the reason.  These are
    not scaled by host speed: interpreter start-up is mostly exec, imports and
    page faults, which did not follow the calibration unit.
    """
    rng = workloads._rng("setup", seed, "2x2")
    a, b, c, d = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4))
    path = work / "setup-2x2.csv"
    path.write_text(f"{a},{b}\n{c},{d}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import sys; from permbound.cli import main; sys.exit(main(sys.argv[1:]))"
    times, problem = [], None
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, "bound", str(path)], env=env, cwd=CHECKOUT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        try:
            report = json.loads(proc.stdout)
            # for a 2x2 matrix the process bound is exact: a (d + c b / a) = ad + bc
            ok = proc.returncode == 0 and Fraction(report["process_bound"]) == Fraction(report["exact_perm"]) == a * d + b * c
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok and problem is None:
            problem = f"FAILED set-up 2x2 bound: exit {proc.returncode}: {(proc.stdout + proc.stderr).strip()[:200]}"
    return times, problem


def end_to_end(w, results, setup, failed, peak_rss_mb):
    """The end-to-end metrics (request times scaled to the reference host speed) and one line per metric."""
    raw_ms = [ns / 1e6 for ns in results.latency_ns]
    factors = speed_factors(results.stamps, results.cal)
    ms = [x / f for x, f in zip(raw_ms, factors)]
    attempted = len(ms)
    ok = attempted - failed
    metrics = {
        "setup_s": statistics.median(setup),
        "req_p50_ms": percentile(ms, 50),
        "req_tail_ms": percentile(ms, w.tail_pct),
        "throughput_rps": ok / (sum(ms) / 1000),
        "ok_ratio": ok / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = sum(1 for x in ms if x > metrics["req_tail_ms"])
    samples = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters, not scaled",
        "req_p50_ms": f"{attempted} requests in whole cycles of {len(w.requests)}; raw {percentile(raw_ms, 50):.4g} ms",
        "req_tail_ms": f"p{w.tail_pct:g}, {beyond} of {attempted} requests beyond it; raw {percentile(raw_ms, w.tail_pct):.4g} ms",
        "throughput_rps": f"{ok} ok requests over their summed latency; raw {ok / (sum(raw_ms) / 1000):.4g} 1/s",
        "ok_ratio": f"{ok} of {attempted}",
        "peak_rss_mb": "ru_maxrss after the timed region",
    }
    lines = [f"host speed factor: median {statistics.median(factors):.3f} over requests "
             f"({len(results.cal)} calibration units)"]
    by_label: dict[str, list[float]] = {}
    for label, x in zip(results.labels, raw_ms):
        by_label.setdefault(label, []).append(x)
    lines += [f"  {label}: raw median {statistics.median(xs):.1f} ms over {len(xs)}" for label, xs in by_label.items()]
    lines += [f"{w.name} {name} = {value:.6g} {END_TO_END[name]} ({samples[name]})" for name, value in metrics.items()]
    return metrics, lines


def measure(workload_name, seed, seconds, trace, smoke=False, record_digests=False):
    """Run one workload; returns (result dict, human-readable lines)."""
    program = _import_program()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=WORK))
    try:
        w = workloads.BUILDERS[workload_name](seed, work, smoke)
        min_cycles = 1 if smoke else w.min_cycles
        results = Results(w.requests)
        untraced = lambda rid: program.main  # noqa: E731
        lines = [f"machine: {os.cpu_count()} cpus, Python {platform.python_version()}, numpy {np.__version__}"]
        if not trace:
            setup, setup_problem = measure_setup(work, seed)
        if w.warmup_cycles and not smoke:
            run_cycles(w.requests, results, 0, w.warmup_cycles, untraced, measured=False)
        if not trace:
            run_cycles(w.requests, results, seconds, min_cycles, untraced)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            cycles, untraced_ns = run_cycles(w.requests, results, seconds / 2, 1, untraced)
            half = len(results.cal)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, traced_ns = run_cycles(w.requests, results, 0, cycles,
                                          lambda rid: tracer.traced_main(program.main, rid))
            finally:
                tracer.uninstall()
            # compare the halves at equal host speed
            speed = statistics.median(u for _, u in results.cal[half:]) / statistics.median(u for _, u in results.cal[:half])
        correct, failed, notes = evaluate(results, program, workload_name, seed, smoke, record_digests)
        if not trace and setup_problem:
            correct = False
            notes.append(setup_problem)
        lines += notes
        if not trace:
            metrics, more = end_to_end(w, results, setup, failed, peak_rss_mb)
            units = END_TO_END
        else:
            metrics = tracer.metrics(cycles, traced_ns, untraced_ns * speed)
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
            tracer.write_spans(spans)
            units = tracing.PER_LAYER
            more = [f"spans: {len(tracer.spans)} written to {spans.relative_to(CHECKOUT)}"]
            more += [f"{workload_name} {name} = {value:.6g} {units[name]} ({cycles} traced cycles)"
                     for name, value in metrics.items()]
        result = {
            "correct": correct,
            "attempted": len(results.labels),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        return result, lines + more
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed, seconds, trace):
    """Every workload in its own interpreter (peak RSS is per process); one table."""
    combined = {}
    for name in workloads.BUILDERS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=300,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        combined[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one cycle, traced and untraced: prints every metric name")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store the seed-{DEFAULT_SEED} output digests of this workload")
    args = parser.parse_args(argv)
    if args.smoke:
        names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
        combined = {}
        for name in names:
            for trace in (0, 1):
                result, lines = measure(name, args.seed, 0.0, trace, smoke=True)
                print("\n".join(lines))
                combined[f"{name}/trace{trace}"] = result
        print(json.dumps(combined, sort_keys=True))
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace), sort_keys=True))
        return 0
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace,
                            record_digests=args.record_digests)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
