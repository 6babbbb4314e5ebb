"""luset benchmark: one seeded workload per process.

    python3 bench/run.py --workload analyse --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from anywhere inside a luset checkout; luset is imported from the
checkout's `src/`. The untraced run (`--trace 0`) measures the end-to-end
metrics. The traced run (`--trace 1`) runs the same rounds twice, first
without and then with spans, and reports per-layer metrics and the tracing
overhead. Human-readable lines come first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}. Scratch files
and span dumps go to `.bench_out/` in the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

# The metrics of the final JSON line, as listed in BENCHMARK.json.
END_TO_END = {"work_per_s": "work/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {"parser.parse_s": "s", "parser.kb_per_s": "kB/s", "lang.elaborate_s": "s",
             "lang.equations": "count", "infer.constraints": "count",
             "infer.sig_constraints": "count", "normalize.eqs_out": "count",
             "streams.ticks": "count", "harness.trials": "count", "cli.readme_s": "s",
             "trace.overhead_s": "s", "trace.spans": "count"}

# Spans broken down by program on the analyse workload.
PER_PROGRAM = ("infer.infer_program", "infer.check_program", "normalize.normalize_program")


# Times are scaled to a reference CPU speed: the machine's speed drifts by
# tens of percent between runs, and a fixed loop timed alongside the work
# tracks that drift. Scaled time = raw time * REF_CALIB_S / mean loop time.
REF_CALIB_S = 0.008
CALIB_EVERY_S = 0.25


def _calib_step(acc: int, i: int) -> int:
    return (acc + i) & 0xFFFF


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of arithmetic, calls and dict lookups.
    It allocates nothing, so garbage collection never runs inside it."""
    t0 = time.perf_counter()
    acc, table = 0, {0: 1, 1: 2, 2: 3, 3: 4}
    for i in range(40000):
        acc = _calib_step(acc + table[i & 3] * (i % 7), i)
    return time.perf_counter() - t0


class Speed:
    """Calibration samples taken during one phase of a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        self.samples.append(calibration_loop())
        self.last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= CALIB_EVERY_S:
            self.sample()

    @property
    def scale(self) -> float:
        """Factor from raw seconds to reference seconds."""
        return REF_CALIB_S / statistics.mean(self.samples)


class Runner:
    """Runs rounds of operations, timing each one and checking its result."""

    def __init__(self, workload):
        self.wl = workload
        self.ops: dict[int, object] = {}
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def phase(self, tracer, speed: Speed, seconds: float, min_rounds: int,
              rounds: int | None = None):
        """Run rounds until `seconds` have passed and `min_rounds` are done,
        or exactly `rounds` if given, sampling `speed` along the way.
        Returns (rounds, records) with one (op, raw duration_s, round) per op."""
        records, done = [], 0
        start = time.perf_counter()
        speed.sample()
        for batch in self.wl.rounds():
            for op in batch:
                op_id = len(self.ops)
                self.ops[op_id] = op
                t0 = time.perf_counter()
                try:
                    with tracer.span(f"op.{op.kind}", op=op_id):
                        result = op.run(tracer)
                    dt = time.perf_counter() - t0
                    err = op.check(result)
                except Exception as exc:  # a crash fails the op, not the benchmark
                    dt = time.perf_counter() - t0
                    err = f"raised {exc!r}"
                if err:
                    self.failures.append(f"{op.kind} {op.label}: {err}")
                records.append((op, dt, done))
                speed.maybe()
            done += 1
            if done == rounds or (rounds is None and done >= min_rounds
                                  and time.perf_counter() - start >= seconds):
                break
        speed.sample()
        return done, records


def setup(name: str, seed: int, out_dir: Path, speed: Speed):
    """Import luset and build the workload's inputs SETUP_REPEATS times.
    Returns the last workload, its luset namespace and the median raw time."""
    import tracing
    import workloads

    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        lu = workloads.load_luset(ROOT / "src")
        wl = workloads.WORKLOADS[name](ROOT, seed, lu, out_dir)
        digests.add(wl.prepare(tracing.NullTracer()))
        times.append(time.perf_counter() - t0)
    speed.sample()
    if len(digests) != 1:
        raise RuntimeError("the same seed gave different inputs in one run")
    return wl, lu, statistics.median(times)


def latency_ms(records) -> tuple[float, float, int]:
    """Raw p50 and p90 latency of a round in ms, and the number of rounds.

    A round is the workload's request: one program for proptest, the whole
    corpus for analyse, the six runs for simulate. The ops within an
    analyse or simulate round differ in kind and size, and single ops of
    different kinds slow down by different amounts when the machine is
    loaded by other work, so their percentiles would move with that load."""
    by_round = defaultdict(float)
    for op, dt, r in records:
        if op.latency:
            by_round[r] += dt * 1000
    xs = list(by_round.values())
    q = statistics.quantiles(xs, n=10, method="inclusive")
    return q[4], q[8], len(xs)


def end_to_end(wl, records, scale: float, setup_s: float) -> tuple[dict, list[str]]:
    """End-to-end metrics from one untraced phase, in reference seconds."""
    busy = sum(dt for _, dt, _ in records)
    work = sum(op.work for op, _, _ in records)
    p50, p90, samples = latency_ms(records)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"work_per_s": work / (busy * scale), "op_p50_ms": p50 * scale,
               "op_p90_ms": p90 * scale, "peak_rss_mb": rss, "setup_s": setup_s}
    unit = wl.unit
    lines = [
        f"  {wl.rate_name:<16} {metrics['work_per_s']:14.2f} {unit}/s   (work_per_s; "
        f"{work} {unit} in {busy:.2f} s busy; raw {work / busy:.2f} {unit}/s)",
        f"  op_p50_ms        {metrics['op_p50_ms']:14.2f} ms       (n={samples} rounds; "
        f"raw {p50:.2f})",
        f"  op_p90_ms        {metrics['op_p90_ms']:14.2f} ms       (n={samples} rounds; "
        f"raw {p90:.2f})",
        f"  peak_rss_mb      {rss:14.2f} MB",
        f"  setup_s          {setup_s:14.4f} s        (median of {SETUP_REPEATS})",
    ]
    return metrics, lines


def per_layer(wl, ops: dict, tracer, scale: float, run_s: float, overhead_s: float,
              readme_s: float) -> dict:
    """Every per-layer figure of the traced phase, whose operations are
    `ops` (by op id): {name: (value, unit)}. Span times are multiplied by
    `scale`; the other times are given in reference seconds already."""
    self_s = tracer.self_times()
    by_label: dict[tuple[str, str], float] = defaultdict(float)
    for s in tracer.spans:
        if s.op is not None and not s.name.startswith("op."):
            by_label[(s.name, ops[s.op].label)] += (s.end - s.start) * scale
    c = lambda name: tracer.counts.get(name, 0)  # noqa: E731
    t = lambda name: self_s.get(name, 0.0) * scale  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m = {
        "parser.parse_s": (t("parser.parse_program"), "s"),
        "parser.kb_per_s": (ratio(c("parser.bytes") / 1024, t("parser.parse_program")), "kB/s"),
        "parser.pretty_print_s": (t("parser.pretty_print"), "s"),
        "lang.elaborate_s": (t("lang.elaborate"), "s"),
        "lang.equations": (c("lang.equations"), "count"),
        "infer.infer_program_s": (t("infer.infer_program"), "s"),
        "infer.check_program_s": (t("infer.check_program"), "s"),
        "infer.constraints": (c("infer.constraints"), "count"),
        "infer.sig_constraints": (c("infer.sig_constraints"), "count"),
        "normalize.normalize_program_s": (t("normalize.normalize_program"), "s"),
        "normalize.eqs_out": (c("normalize.eqs_out"), "count"),
        "normalize.eqs_ratio": (ratio(c("normalize.eqs_out"), c("normalize.eqs_in")), "ratio"),
        "streams.read_trace_s": (t("streams.read_trace"), "s"),
        "streams.run_node_s": (t("streams.run_node"), "s"),
        "streams.ticks": (c("streams.ticks"), "count"),
        "harness.gen_program_s": (t("harness.gen_program"), "s"),
        "harness.semantics_s": (t("harness.check_semantics_preservation"), "s"),
        "harness.types_s": (t("harness.check_type_preservation"), "s"),
        "harness.ni_s": (t("harness.check_non_interference"), "s"),
        "harness.equational_s": (t("harness.check_equational_soundness"), "s"),
        "harness.simple_security_s": (t("harness.check_simple_security"), "s"),
        "harness.semantics_trials_per_s": (
            ratio(c("harness.trials.semantics-preservation"),
                  t("harness.check_semantics_preservation")), "trials/s"),
        "harness.ni_trials_per_s": (ratio(c("harness.trials.non-interference"),
                                          t("harness.check_non_interference")), "trials/s"),
        "harness.trials": (sum(v for k, v in tracer.counts.items()
                               if k.startswith("harness.trials.")), "count"),
        "cli.readme_s": (readme_s, "s"),
        "trace.run_s": (run_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for k, v in sorted(tracer.counts.items()):
        if k.startswith(("harness.trials.", "harness.verdicts.")):
            m[k] = (v, "count")
    if wl.name == "analyse":
        for (name, label), v in sorted(by_label.items()):
            if name in PER_PROGRAM:
                m[f"{name}_s.{label}"] = (v, "s")
    ticks: dict[str, int] = defaultdict(int)
    for op in ops.values():
        if op.kind == "run":
            ticks[op.label] += op.work
    for label, n in ticks.items():
        m[f"streams.ticks_per_s.{label}"] = (n / by_label[("streams.run_node", label)],
                                             "ticks/s")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    for need in (ROOT / "src" / "luset" / "__init__.py", ROOT / "samples", ROOT / "README.md"):
        if not need.exists():
            print(f"bench: {need} is missing; run inside a luset checkout", file=sys.stderr)
            return 2
    # Compile luset from source on every run, leaving no bytecode behind.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(OUT / "no-bytecode")
    out_dir = OUT / f"{name}-{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        import tracing
        import workloads

        setup_speed = Speed()
        wl, lu, setup_raw = setup(name, seed, out_dir, setup_speed)
        runner = Runner(wl)
        smoke_tracer = tracing.Tracer() if trace else tracing.NullTracer()
        t0 = time.perf_counter()
        smoke_n, smoke_failures = workloads.readme_smoke(ROOT, lu, smoke_tracer)
        readme_s = (time.perf_counter() - t0) * setup_speed.scale
        lines = [f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}",
                 f"  times in reference seconds: calibration loop "
                 f"{statistics.mean(setup_speed.samples) * 1000:.2f} ms at set-up, "
                 f"reference {REF_CALIB_S * 1000:.0f} ms"]
        if not trace:
            speed = Speed()
            rounds, records = runner.phase(tracing.NullTracer(), speed, seconds, wl.min_rounds)
            metrics, report = end_to_end(wl, records, speed.scale,
                                         setup_raw * setup_speed.scale)
            lines.append(f"  {rounds} rounds; calibration loop "
                         f"{statistics.mean(speed.samples) * 1000:.2f} ms "
                         f"(n={len(speed.samples)})")
            lines += report
            units = END_TO_END
        else:
            # The same rounds on the same inputs, untraced and then traced.
            totals, tracer = [], tracing.Tracer()
            rounds = None
            for tr in (tracing.NullTracer(), tracer):
                speed = Speed()
                first_op = runner.attempted
                t0 = time.perf_counter()
                with tr.span("setup"):
                    wl.prepare(tr)
                prep = time.perf_counter() - t0
                rounds, records = runner.phase(tr, speed, seconds / 2, 1, rounds)
                totals.append((prep + sum(dt for _, dt, _ in records)) * speed.scale)
            traced_ops = {i: op for i, op in runner.ops.items() if i >= first_op}
            tracer.spans.extend(smoke_tracer.spans)
            layer = per_layer(wl, traced_ops, tracer, speed.scale, totals[1],
                              totals[1] - totals[0], readme_s)
            tracer.write(OUT / f"trace-{name}-{seed}.json")
            lines.append(f"  {rounds} rounds: untraced {totals[0]:.3f} s, "
                         f"traced {totals[1]:.3f} s")
            lines += [f"  {k:<40} {v:16.6g} {u}" for k, (v, u) in layer.items()]
            metrics = {k: layer[k][0] for k in PER_LAYER}
            units = PER_LAYER
        attempted = runner.attempted + smoke_n
        failures = smoke_failures + runner.failures
        lines.append(f"  fail_ratio       {len(failures) / attempted:14.4f}          "
                     f"({len(failures)} of {attempted} ops)")
        lines += [f"  FAILED {f}" for f in failures[:20]]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after the other."""
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if proc.returncode == 0:
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["analyse", "simulate", "proptest", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
