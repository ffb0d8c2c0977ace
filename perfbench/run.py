"""Run one homlie benchmark workload and print its metrics.

    python3 perfbench/run.py --workload report-small --seed 0 --seconds 30 --trace 0

Run from the root of a homlie checkout; homlie is imported from its
``src`` directory and nowhere else.  The benchmark is a single-process,
single-thread closed loop with one client: each operation starts when
the previous one has returned, with every homlie cache cleared and
garbage collected before it, outside the timed region, as if each call
ran in a fresh process.

A run makes a fixed number of passes over the workload's operation list,
sized so that they take about ``--seconds`` seconds.  Every answer is
reduced to a digest and compared with the stored reference digests
(``reference_digests.json``), or, for inputs that only the current seed
produces, with the first pass and with the benchmark's own exactness
checks.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of one traced pass, whose answers must match an untraced pass.
``--record-reference`` rewrites the reference digests from the default
seed after checking the answers for exactness.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import answers
import exact
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPS = 5
DEFAULT_SEED = 0


def import_homlie():
    """Import homlie from this checkout's ``src``; exit when it is not
    there, so a run never measures some other installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import homlie
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import homlie from {SRC}: {exc}")
    if not Path(homlie.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: homlie resolved to {homlie.__file__}, "
                 f"not to {SRC}")
    return homlie


def tail_rank(n: int) -> tuple[int, int]:
    """(percentile, 1-based rank) of the highest whole percentile with
    at least ten of ``n`` samples beyond it; the maximum below 11."""
    if n < 11:
        return 100, n
    p = 100 * (n - 10) // n
    return p, math.ceil(p * n / 100)


NO_REFERENCE = "no reference digest"


class Runner:
    def __init__(self, workload, seed: int, workdir: Path,
                 reference: dict[str, str]):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.speed = speed.Speedometer()
        self.caches = tracing.discover_caches()
        self.reference = reference
        self.ops = []
        self.first: dict[str, str] = {}

    def clear(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()
        gc.collect()

    def setup(self, reps: int) -> tuple[list[float], float]:
        """Set up ``reps`` times; returns the times and the host's
        slowness factor over them."""
        times = []
        for _ in range(reps):
            self.clear()
            t0 = perf_counter()
            self.ops = self.workload.setup(self.seed, self.workdir)
            times.append(perf_counter() - t0)
            self.speed.sample_for(times[-1], at_least=5)
        return times, self.speed.factor()

    def run_pass(self, exact: bool, tracer=None):
        """Time every operation once.

        Each answer is checked right after its call, outside the timed
        region, and then dropped, so that no operation runs with earlier
        answers on the heap.  Returns the seconds and the (digest,
        failure reasons) of each operation, and the host's slowness
        factor over the pass.
        """
        times, checks = [], []
        for idx, op in enumerate(self.ops):
            self.clear()
            if tracer:
                tracer.begin_op(idx)
            t0 = perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # an operation that raises is a failure
                result, error = None, exc
            times.append(perf_counter() - t0)
            if tracer:
                tracer.end_op()
            self.speed.sample_for(times[-1])
            checks.append(self.check(op, result, error, exact))
            del result
        return times, checks, self.speed.factor()

    def check(self, op, result, error, exact: bool) -> tuple[str, list[str]]:
        """(digest, failure reasons) of one operation's answer."""
        digest = ""
        if error is None:
            try:
                digest = answers.digest(op.answer(result))
            except (ValueError, TypeError, KeyError) as exc:
                error = exc
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            return digest, [f"raised {type(error).__name__}: {error}"]
        reasons = []
        want = self.reference.get(op.key)
        if want is None and op.seeded:
            want = self.first.setdefault(op.key, digest)
        if want is None:
            reasons.append(NO_REFERENCE)
        elif digest != want:
            reasons.append(f"digest {digest}, expected {want}")
        if exact and not self.exact_ok(op, result):
            reasons.append("exactness check")
        return digest, reasons

    def exact_ok(self, op, result) -> bool:
        """The independent checks: every solved basis tuple against its
        defining identity, and every dimension a report states for a
        seeded input against the benchmark's own count."""
        if op.solve:
            kind, k, degree, strict = op.solve
            rows = [[[g.matrix.row(r) for r in range(g.n)] for g in t]
                    for t in result.tuples]
            return ((result.kind.value, result.k, result.degree,
                     result.strict) == op.solve
                    and not exact.space_violations(op.spec, kind, k, degree,
                                                   strict, rows))
        if op.seeded:
            doc = answers.report_answer(*result)["report"]
            return all(entry["dim"] == exact.space_dim(
                op.spec, entry["kind"], entry["k"], entry["theta"], True)
                for entry in doc.get("dimensions", []))
        return True


def failures(ops, checks) -> list[str]:
    """Keys of the operations that failed, each reported on stderr."""
    bad = []
    for op, (_, reasons) in zip(ops, checks):
        if reasons:
            print(f"FAILED {op.key}: {'; '.join(reasons)}", file=sys.stderr)
            bad.append(op.key)
    return bad


def measure(runner: Runner, seconds: int) -> dict:
    """End-to-end metrics; every time is scaled to the reference host
    speed of :mod:`speed`, pass by pass."""
    setup_times, setup_slow = runner.setup(SETUP_REPS)
    passes = max(1, int(seconds // runner.workload.nominal_pass_s))
    raw, slowness, pass_times, samples, failed = [], [], [], [], 0
    for i in range(passes):
        times, checks, slow = runner.run_pass(exact=i == 0)
        raw.append(sum(times))
        slowness.append(slow)
        pass_times.append(sum(times) / slow)
        samples.extend(t / slow for t in times)
        failed += len(failures(runner.ops, checks))
    attempted = len(samples)
    pct, rank = tail_rank(attempted)
    metrics = {
        "pass_s": (statistics.median(pass_times), "s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_tail_s": (sorted(samples)[rank - 1], "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times) / setup_slow, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    print(f"workload {runner.workload.name}, seed {runner.seed}: "
          f"{passes} passes of {len(runner.ops)} operations; measured pass "
          f"times {', '.join(f'{t:.3f}' for t in raw)} s at host slowness "
          f"{', '.join(f'{s:.3f}' for s in slowness)} (set-up {setup_slow:.3f})")
    print(f"op_tail_s is p{pct} of {attempted} samples; "
          f"failed_ratio = {failed}/{attempted} = {failed / attempted:g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure_traced(runner: Runner) -> dict:
    runner.setup(1)
    plain_times, plain, _ = runner.run_pass(exact=True)
    tracer = tracing.Tracer(runner.caches)
    tracer.install()
    try:
        traced_times, traced, _ = runner.run_pass(exact=False, tracer=tracer)
    finally:
        tracer.uninstall()
    bad_plain = failures(runner.ops, plain)
    bad_traced = set(failures(runner.ops, traced))
    for op, (a, _), (b, _) in zip(runner.ops, plain, traced):
        if a != b:
            print(f"FAILED {op.key}: traced answer differs from untraced",
                  file=sys.stderr)
            bad_traced.add(op.key)
    failed = len(bad_plain) + len(bad_traced)
    overhead = sum(traced_times) - sum(plain_times)
    values = tracer.metrics(overhead)
    print(f"workload {runner.workload.name}, seed {runner.seed}: untraced pass "
          f"{sum(plain_times):.3f} s, traced pass {sum(traced_times):.3f} s, "
          f"{len(tracer.start)} spans")
    for idx, (distinct, total) in sorted(tracer.distinct_by_op.items()):
        if total > 1:
            print(f"  {runner.ops[idx].key}: {distinct} of {total} solved "
                  f"spaces distinct")
    return {"correct": not failed, "attempted": 2 * len(runner.ops),
            "failed": failed,
            "metrics": {name: (values[name], unit)
                        for name, unit in tracing.LAYER_METRICS}}


def record_reference(workloads, workdir: Path) -> None:
    """Write the default seed's digests, once every answer passes the
    exactness checks; run only when answers are meant to change."""
    digests = {}
    for workload in workloads.values():
        runner = Runner(workload, DEFAULT_SEED, workdir, {})
        runner.setup(1)
        _, checks, _ = runner.run_pass(exact=True)
        for op, (digest, reasons) in zip(runner.ops, checks):
            if set(reasons) - {NO_REFERENCE}:
                sys.exit(f"perfbench: not recording, {op.key} fails: "
                         f"{'; '.join(reasons)}")
            digests[op.key] = digest
    answers.REFERENCE_FILE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "python": platform.python_version(),
         "digests": dict(sorted(digests.items()))}, indent=1) + "\n")
    print(f"recorded {len(digests)} digests in {answers.REFERENCE_FILE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    import_homlie()
    from workloads import WORKLOADS

    if not args.record_reference and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.record_reference:
            record_reference(WORKLOADS, WORKDIR)
            return 0
        runner = Runner(WORKLOADS[args.workload], args.seed, WORKDIR,
                        answers.load_reference())
        if args.trace:
            result = measure_traced(runner)
        else:
            result = measure(runner, args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:50s} {value!r:>24} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
