"""p1dom benchmark: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload verify-desk --seed 777 --seconds 45 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the
workload's corpus is sized so that its ops take about ``--seconds`` seconds
at reference host speed (``hostref.py``), every op runs untraced, and the
end-to-end metrics are printed.  With ``--trace 1`` a fixed number of ops
runs twice, untraced and then through the wrappers of ``tracing.py``;
outputs of the two passes must match, and the per-layer metrics of the
traced pass are printed.  Lines starting with ``#`` describe the run; the
last line is the result.  The exit code is nonzero when any op failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
BLOCK_S = 0.5
TAIL_PERCENTILES = (99, 95, 90)
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import p1dom from this checkout; returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "p1dom" / "__init__.py").is_file():
        raise SystemExit(f"error: no p1dom sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import p1dom
    import workloads  # noqa: F401  (imports every p1dom layer it drives)
    elapsed = time.perf_counter() - t0
    if Path(p1dom.__file__).resolve().parent != (src / "p1dom").resolve():
        raise SystemExit(f"error: p1dom imported from {p1dom.__file__}")
    return elapsed


def setup(workload, seed, workdir, size):
    """Build the corpus and its input files: (corpus, wall s, scaled s)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    before = hostref.probe_ms()
    t0 = time.perf_counter()
    corpus = workload.setup(seed, workdir, size)
    elapsed = time.perf_counter() - t0
    scale = hostref.REFERENCE_MS / ((before + hostref.probe_ms()) / 2)
    return corpus, elapsed, elapsed * scale


def digest(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs ops and checks their outputs; a failed op is counted, not raised."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, inst, before=None, after=None):
        """One op; returns (seconds, output digest or None)."""
        self.attempted += 1
        if before:
            before(inst)
        t0 = time.perf_counter()
        try:
            result = self.workload.op(inst)
        except Exception as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - t0
            if after:
                after(inst)
            return elapsed, self.fail(inst, f"raised {exc!r}")
        elapsed = time.perf_counter() - t0
        if after:
            after(inst)
        try:
            summary = self.workload.summarize(inst, result)
            problem = self.workload.check(inst, summary)
        except Exception as exc:  # a malformed output is a failed op
            return elapsed, self.fail(inst, f"output rejected: {exc!r}")
        if (problem is None and self.expected is not None
                and inst.index < len(self.expected)):
            if summary != self.expected[inst.index]:
                problem = "output differs from the stored expected values"
        if problem is not None:
            return elapsed, self.fail(inst, problem)
        return elapsed, digest(summary)

    def fail(self, inst, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"instance {inst.index}: {message}")
        return None


def load_expected(workload, seed):
    """Stored outputs of the first instances at the default seed, or None."""
    path = HERE / "expected" / f"{workload.name}.json"
    if seed != workload.default_seed or not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def tail_percentile(values):
    """The tail: (percentile, value).

    The highest of p99, p95 and p90 (nearest rank) with at least ten values
    beyond it; with too few values for p90, the value with exactly ten
    beyond it.  A finer percentile would be set by the two or three
    heaviest instances the seed happens to draw.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return float(pct), ordered[rank - 1]
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def timed_loop(runner, corpus, passes):
    """Run every instance ``passes`` times; returns (wall, scaled, probes).

    The reference kernel runs between blocks of about ``BLOCK_S`` seconds
    of ops, and each op time of a block is scaled by ``REFERENCE_MS`` over
    the mean kernel time at the block's two ends.
    """
    runner.run(corpus[0])          # warm-up, not counted
    runner.attempted = runner.failed = 0
    runner.errors.clear()
    wall, scaled, block = [], [], []
    probes = [hostref.probe_ms()]

    def close_block():
        probes.append(hostref.probe_ms())
        scale = hostref.REFERENCE_MS / ((probes[-2] + probes[-1]) / 2)
        wall.extend(block)
        scaled.extend(t * scale for t in block)
        block.clear()

    for _ in range(passes):
        for inst in corpus:
            elapsed, _ = runner.run(inst)
            block.append(elapsed)
            if sum(block) >= BLOCK_S:
                close_block()
    if block:
        close_block()
    return wall, scaled, probes


def current_rss_mb():
    """Resident memory now, or None where /proc is not available."""
    try:
        with open("/proc/self/statm", encoding="utf-8") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def host_lines(wall_s, cpu_s):
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return [f"host: python {platform.python_version()}, nproc "
            f"{os.cpu_count()}, cpu {cpu_model}",
            f"time: wall {wall_s:.3f} s, process cpu {cpu_s:.3f} s"]


def latency_figures(times):
    """(ops per second, p50 ms, tail percentile, tail ms) of op times."""
    pct, tail = tail_percentile(times)
    return (len(times) / sum(times), 1e3 * statistics.median(times), pct,
            1e3 * tail)


def end_to_end(runner, corpus, workload, notes):
    wall, scaled, probes = timed_loop(runner, corpus, workload.passes)
    ops = runner.attempted
    throughput, p50, pct, tail = latency_figures(scaled)
    raw = latency_figures(wall)
    failed_frac = runner.failed / ops
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes += [
        f"loop: {ops} ops, {workload.passes} pass(es) over {len(corpus)} "
        f"instances, {sum(wall):.3f} s in ops ({sum(scaled):.3f} s at "
        "reference speed)",
        f"host kernel: {len(probes)} probes, median "
        f"{statistics.median(probes):.3f} ms (min {min(probes):.3f}, max "
        f"{max(probes):.3f}); reference {hostref.REFERENCE_MS} ms",
        f"wall-clock, unscaled: throughput {raw[0]:.4f} ops/s, p50 "
        f"{raw[1]:.4f} ms, tail {raw[3]:.4f} ms",
        f"latency_tail_ms is p{pct:g} of {len(scaled)} op times",
        f"ops_failed_frac {failed_frac:.6f} ({runner.failed} of {ops})",
    ]
    return {
        "throughput_ops_per_s": (throughput, "ops/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "ops_ok_frac": (1.0 - failed_frac, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(args, runner, corpus, workload, notes):
    import tracing

    ops = corpus[:workload.traced_ops]
    plain = [runner.run(inst) for inst in ops]
    tracer = tracing.Tracer()
    tracer.install()

    def before(inst):
        tracer.op = inst.index
        tracer.enabled = True

    def after(inst):
        tracer.enabled = False

    try:
        traced = [runner.run(inst, before, after) for inst in ops]
    finally:
        tracer.uninstall()
    for inst, (_, a), (_, b) in zip(ops, plain, traced):
        if a is not None and b is not None and a != b:
            runner.fail(inst, "traced output differs from untraced output")
    untraced_s = sum(t for t, _ in plain)
    traced_s = sum(t for t, _ in traced)
    notes += [
        f"traced {len(ops)} ops: untraced {untraced_s:.3f} s, traced "
        f"{traced_s:.3f} s, overhead {traced_s - untraced_s:.3f} s "
        f"({traced_s / untraced_s:.2f}x)",
        "wrappers installed: " + "; ".join(
            f"{k} in {','.join(v)}" for k, v in tracer.installed.items()),
        "wrappers absent: " + (", ".join(tracer.absent) or "none"),
        "layer self time (s): " + ", ".join(
            f"{k} {v:.4f}" for k, v in
            sorted(tracer.layer_self_times().items(), key=lambda kv: -kv[1])),
    ]
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "ops": len(ops), "untraced_s": untraced_s,
                   "traced_s": traced_s, "installed": tracer.installed,
                   "absent": tracer.absent,
                   "self_s": tracer.self_times(),
                   "layer_self_s": tracer.layer_self_times(),
                   "counts": tracer.counts, "maxima": tracer.maxima,
                   "spans": tracer.span_records()}, fh)
    notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    return {k: (v["value"], v["unit"])
            for k, v in tracing.per_layer_metrics(tracer).items()}


def main(argv=None):
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    args = parse_args(argv)
    import_s = import_library()
    import_scaled = import_s * hostref.REFERENCE_MS / hostref.probe_ms()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    if args.seed is None:
        args.seed = workload.default_seed
    size = (workload.traced_ops if args.trace
            else workload.corpus_size(args.seconds))
    workdir = str(OUT_DIR / f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        corpus, wall_s, scaled_s = setup(workload, args.seed, workdir, size)
        setup_wall, setup_scaled = [wall_s], [scaled_s]
        rss_setup = current_rss_mb()
        runner = Runner(workload, load_expected(workload, args.seed))
        notes = [f"perfbench {workload.name} seed {args.seed} seconds "
                 f"{args.seconds:g} trace {args.trace}",
                 "expected outputs: " + ("stored values for this seed"
                                         if runner.expected else "none")]
        if args.trace:
            metrics = per_layer(args, runner, corpus, workload, notes)
        else:
            metrics = end_to_end(runner, corpus, workload, notes)
            # the peak above covers one corpus and the ops; the repeats
            # below only time the set-up
            corpus = None
            for _ in range(SETUP_REPEATS - 1):
                _, wall_s, scaled_s = setup(workload, args.seed, workdir,
                                            size)
                setup_wall.append(wall_s)
                setup_scaled.append(scaled_s)
            metrics["setup_s"] = (
                import_scaled + statistics.median(setup_scaled), "s")
        notes.append(
            f"setup: import {import_s:.4f} s, corpus of {size} built in "
            + ", ".join(f"{t:.3f}" for t in setup_wall) + " s wall"
            + ("" if rss_setup is None
               else f"; resident memory after set-up {rss_setup:.1f} MB"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes += host_lines(time.perf_counter() - wall0,
                        time.process_time() - cpu0)
    notes += [f"error: {e}" for e in runner.errors]
    for line in notes:
        print("# " + line)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
