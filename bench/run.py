"""kerrcubic benchmark: run one workload through the public API and check it.

    python3 bench/run.py --workload lossless-sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30          # every workload, each in a fresh process

A run builds the workload's inputs, runs one pass of its operations, and
repeats operations in order while they fit in `--seconds`, at least one
repeat in all. Every repeat must reproduce the operation's first output
bit-for-bit, and the first outputs must lie in their acceptance bands.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json:
  setup_s        median over this process and 2 x SETUP_PROBES fresh processes,
                 half before and half after the measurement, of importing
                 kerrcubic and building the inputs
  run_ref        one pass in units of the reference computation of
                 bench/reference.py: the sum over operations of the median of
                 each one's wall time divided by the reference time taken
                 beside it (the mean of the reference runs just before and
                 just after it)
  gates_per_ref  gate evaluations in one pass divided by run_ref
  peak_rss_mb    this process's maximum resident set size
The record also holds the raw wall times; `run_s` there is the sum of each
operation's median wall time. The host is shared and its speed drifts by
tens of percent over minutes, so the raw time is not steady across runs; the
time relative to the reference is.

`--trace 1` runs each operation of the pass once untraced and once traced
(alternating which goes first) and reports per-layer calls, self times and
work counts from the traced runs; trace.overhead_s is the traced pass minus
the untraced one. The last line of standard output is the JSON result.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here: imports plus inputs

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 2
PROCESS_TIMEOUT_S = 170
DEFERRED_ROWS = (
    "dissipator evaluation",
    "unitary sandwich",
    "integrated-vs-kept steps",
    "step-doubling overhead",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None, help="one workload; all when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset (OpenBLAS default)"),
        "sweep_workers": 1,
    }


def child(args_list) -> str:
    """Run this script in a fresh process; return its standard output."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())] + args_list,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S, check=True)
    return proc.stdout


def run_all(args) -> int:
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    results = {}
    for name in names:
        out = child(["--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)])
        sys.stdout.write(out)
        results[name] = json.loads(out.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


class Tally:
    """Outcomes of one run's operations, with their wall times.

    With a reference, each untraced wall time is also divided by the mean of
    the reference times taken just before and just after the operation.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.ref_last = reference.time() if reference is not None else None
        self.ratios: dict[str, list[float]] = {}
        self.first: dict[str, str] = {}
        self.records: dict[str, dict] = {}
        self.gates: dict[str, int] = {}
        self.times: dict[str, list[float]] = {}
        self.traced: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op, tracer=None) -> None:
        self.attempted += 1
        try:
            if tracer is None:
                t = time.perf_counter()
                gates, rec = op.run()
                wall = time.perf_counter() - t
            else:
                with tracer.installed(), tracer.span("harness") as sp:
                    gates, rec = op.run()
                wall = sp.duration
        except Exception:  # an operation's failure is counted, not fatal
            self.failures.append(f"{op.name}: {traceback.format_exc()}")
            return
        if tracer is None:
            self.times.setdefault(op.name, []).append(wall)
            if self.reference is not None:
                after = self.reference.time()
                self.ratios.setdefault(op.name, []).append(2 * wall / (self.ref_last + after))
                self.ref_last = after
        else:
            self.traced[op.name] = wall
        key = json.dumps(rec, sort_keys=True)
        if op.name not in self.first:
            self.first[op.name], self.records[op.name], self.gates[op.name] = key, rec, gates
        elif key != self.first[op.name]:
            self.failures.append(f"{op.name}: output differs from its first run")
            return
        if rec.get("ok") is False:
            self.failures.append(f"{op.name}: {rec}")

    def run_s(self) -> float:
        """One pass: the sum of each operation's median time."""
        return sum(statistics.median(t) for t in self.times.values())

    def run_ref(self) -> float:
        """One pass relative to the reference: the sum of each operation's median ratio."""
        return sum(statistics.median(r) for r in self.ratios.values())


def measure(ops, seconds, tracer=None, reference=None) -> Tally:
    tally = Tally(reference)
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(ops):
        if tracer is None:
            tally.run(op)
        else:
            for t in ((None, tracer) if i % 2 == 0 else (tracer, None)):
                tally.run(op, t)
    repeats = 0
    while True:
        op = ops[repeats % len(ops)]
        # start no operation that would end past the deadline, but repeat at least one
        expected = statistics.median(tally.times.get(op.name) or [0.0])
        if time.perf_counter() + expected > deadline and (tracer is not None or repeats > 0):
            return tally
        tally.run(op)
        repeats += 1


def baseline_rows(tracer) -> list[dict]:
    """The ROADMAP baseline-table rows that public-function spans can reach."""
    kids = tracer.children()
    groups = defaultdict(list)
    for i, sp in enumerate(tracer.spans):
        if sp.name == "dynamics.cubic_gate":
            inner = defaultdict(float)
            for sub in tracer.descendants(i, kids):
                inner[sub.name] += sub.duration
                inner["steps"] += sub.counts.get("steps", 0)
            groups[sp.info["lossy"], sp.info["n_fock"]].append((sp.duration, inner))
    parts = {
        False: {"effective_generators_ms": "dynamics.effective_generators",
                "substitution_ms": "algebra.substitute_gaussian_frame",
                "to_matrix_ms": "algebra.to_matrix",
                "ideal_target_ms": "states.ideal_cubic_gate",
                "eigh_ms": "kernel.eigh"},
        True: {"evolve_lindblad_ms": "dynamics.evolve_lindblad",
               "ideal_target_ms": "states.ideal_cubic_gate"},
    }
    rows = []
    for (lossy, n), gates in sorted(groups.items()):
        row = {"what": f"{'lossy' if lossy else 'lossless'} cubic_gate, N={n}",
               "gates": len(gates),
               "gate_ms": statistics.median(d for d, _ in gates) * 1e3}
        for key, name in parts[lossy].items():
            row[key] = statistics.median(inner[name] for _, inner in gates) * 1e3
        if lossy:
            row["kept_steps"] = [int(inner["steps"]) for _, inner in gates]
        rows.append(row)
    return rows


def trace_metrics(tracer, tally, setup_span) -> tuple[dict, dict, list]:
    from workloads import Check

    summary = tracer.summary()
    values = {f"{name}.{k}": v for name, row in summary.items() for k, v in row.items()}
    values["dynamics.lindblad_steps"] = values.get("dynamics.evolve_lindblad.steps", 0)
    traced_run_s = sum(tally.traced.values())
    untraced_run_s = sum(statistics.median(tally.times[k]) for k in tally.traced)
    values["trace.overhead_s"] = traced_run_s - untraced_run_s
    self_sum = sum(tracer.self_times())
    lindblad = [sp.info for sp in tracer.spans if sp.name == "dynamics.evolve_lindblad"]
    detail = {
        "traced_run_s": traced_run_s,
        "untraced_run_s": untraced_run_s,
        "harness_self_s": summary["harness"]["self_s"],
        "self_sum_s": self_sum,
        "setup_span_s": setup_span.duration,
        "lindblad": lindblad,
        "baseline_rows": baseline_rows(tracer),
        "deferred_rows": {r: "needs spans inside the integrator" for r in DEFERRED_ROWS},
    }
    gap = self_sum - (traced_run_s + setup_span.duration)
    checks = [Check("trace.self_time_closure", gap, "|x| <= 1e-6", abs(gap) <= 1e-6)]
    checks += [Check("lindblad.min_eigenvalue", info["min_eigenvalue"], ">= -1e-7",
                     info["min_eigenvalue"] >= -1e-7) for info in lindblad]
    return values, detail, checks


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "kerrcubic" / "__init__.py").is_file():
        print(f"kerrcubic sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import warnings

    import workloads
    from reference import Reference
    from tracing import Tracer

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    warnings.simplefilter("ignore")  # expected truncation and fallback warnings
    scratch = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"

    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            ops, check = build(args.seed, scratch)
            setup = [time.perf_counter() - T_START]
        else:
            with tracer.installed(), tracer.span("harness.setup") as setup_span:
                ops, check = build(args.seed, scratch)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0]}))
            return 0
        if tracer is None:
            probe = ["--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]

            def probes():
                return [json.loads(child(probe).strip().splitlines()[-1])["setup_s"]
                        for _ in range(SETUP_PROBES)]

            # probes before and after the measurement, so the median of set-up
            # times spans the run rather than one moment of a drifting host
            setup += probes()
            reference = Reference()
            tally = measure(ops, args.seconds, reference=reference)
            setup += probes()
        else:
            tally = measure(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    checks = workloads.run_checks(check, tally.records)
    if tracer is not None:
        values, detail, trace_checks = trace_metrics(tracer, tally, setup_span)
        checks += trace_checks
    failures = tally.failures + [f"{c.name} = {c.value!r} outside {c.band}"
                                 for c in checks if not c.ok]
    attempted = tally.attempted + len(checks)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "checks": [c.__dict__ for c in checks],
        "operations": {k: {"first": tally.records[k], "gates": tally.gates[k],
                           "times_s": tally.times.get(k), "ratios": tally.ratios.get(k),
                           "traced_s": tally.traced.get(k)}
                       for k in tally.records},
        "failures": failures,
        "failed_frac": len(failures) / attempted,
    }
    if tracer is None:
        run_ref = tally.run_ref()
        values = {
            "setup_s": statistics.median(setup),
            "run_ref": run_ref,
            "gates_per_ref": sum(tally.gates.values()) / run_ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_samples_s"] = setup
        record["run_s"] = tally.run_s()
        record["reference_s"] = reference.samples
        wanted = bench["end_to_end"]
    else:
        record["tracing"] = detail
        wanted = bench["per_layer"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    record["metrics"] = metrics
    print(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
