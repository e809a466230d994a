"""Fast self-test of the benchmark harness; not part of the repository's test suite.

    python3 bench/selftest.py        (or: python -m pytest -q bench/selftest.py)

Checks the metric names, that a perturbed output counts as a failure, how a
time is divided by the reference time, and that every span the interaction
table names is called on the workloads the table says it works in. Takes
about fifteen seconds.
"""

import copy
import json
import math
import os
import re
import shutil
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np

import kerrcubic
import run
import workloads
from reference import Reference
from tracing import Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SCRATCH = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
EIGH = np.linalg.eigh


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _table():
    return json.loads((HERE / "interactions.json").read_text())


def test_metric_names():
    bench = _bench()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}


def test_table_covers_every_per_layer_metric():
    bench, rows = _bench(), _table()["rows"]
    listed = [m for row in rows for m in row["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in bench["per_layer"])
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for row in rows:
        for metric, workload in row["moves"] + row["partly"]:
            assert metric in end_to_end and workload in workloads.WORKLOADS
        assert set(row["unchanged"]) <= set(workloads.WORKLOADS)


class _Op:
    def __init__(self, outputs):
        self.name = "fake"
        self._outputs = iter(outputs)

    def run(self):
        return 1, next(self._outputs)


def test_repeat_that_differs_fails():
    tally = run.Tally()
    op = _Op([{"x": 1.0}, {"x": 1.0}, {"x": math.nextafter(1.0, 2.0)}])
    for _ in range(3):
        tally.run(op)
    assert tally.attempted == 3 and len(tally.failures) == 1


def test_ratio_to_reference():
    reference = Reference()
    tally = run.Tally(reference)
    tally.run(_Op([{"x": 1.0}]))
    assert len(reference.samples) == 2 and min(reference.samples) > 0
    assert tally.ratios["fake"] == [2 * tally.times["fake"][0] / sum(reference.samples)]


def test_failed_operation_fails():
    tally = run.Tally()
    tally.run(_Op([{"ok": False}]))
    tally.run(_Op([]))  # raises StopIteration inside the operation
    assert len(tally.failures) == 2
    failed = workloads.run_checks(workloads.lossy_state(0, SCRATCH)[1], {})
    assert [c.ok for c in failed] == [False]  # missing records fail the checks


def _perturbations_fail(build, good, perturbations):
    _, check = build(0, SCRATCH)
    checks = workloads.run_checks(check, good)
    assert checks and all(c.ok for c in checks)
    for op, key, value in perturbations:
        records = copy.deepcopy(good)
        records[op][key] = value
        failed = [c for c in workloads.run_checks(check, records) if not c.ok]
        assert len(failed) == 1, (op, key, value, failed)


def test_perturbed_lossless_output_fails():
    labels = workloads.LABEL_PAIRS[0]
    good = {}
    for label in labels:
        for db in workloads.LOSSLESS_DBS:
            lam = kerrcubic.lambda_from_db(db)
            good[f"{label}@{db:g}dB"] = {"lam": lam, "error": 0.5 * lam**-4}
    worse = 3 * good[f"{labels[0]}@15dB"]["error"]
    _perturbations_fail(workloads.lossless_sweep, good, [(f"{labels[0]}@15dB", "error", worse)])


def test_perturbed_lossy_output_fails():
    good = {"fig4": {"fidelity": 0.9792913378250919, "wigner_min": -0.085},
            "gate": {"trace_drift": 9.7e-13, "error": 0.51}}
    _perturbations_fail(workloads.lossy_state, good, [
        ("fig4", "fidelity", 0.97), ("fig4", "wigner_min", 0.0),
        ("gate", "trace_drift", 2e-8), ("gate", "error", 1.5),
    ])


def test_perturbed_noise_trotter_output_fails():
    good = {ch: {"lam_exponent": 8.0, "quad_exponent": 2.0}
            for ch in ("dtheta", "ddelta_rel", "dbeta_x_rel")}
    good.update({"p-displacement": {"infidelity": 1e-12},
                 "trotter-n192": {"exponent": -2.0},
                 "trotter-n448": {"ratios": [1.0, 1.1, 1.4]}})
    _perturbations_fail(workloads.noise_trotter, good, [
        ("dtheta", "lam_exponent", 8.6), ("ddelta_rel", "quad_exponent", 2.2),
        ("p-displacement", "infidelity", 1e-3), ("trotter-n192", "exponent", -1.5),
        ("trotter-n448", "ratios", [3.5, 4.0, 5.0]),
    ])


def test_table_spans_are_called_where_claimed():
    need = defaultdict(set)
    for row in _table()["rows"]:
        for _, workload in row["moves"] + row["partly"]:
            need[workload].update(row["spans"])
    try:
        for workload, spans in sorted(need.items()):
            tracer = Tracer()
            with tracer.installed():
                with tracer.span("harness.setup"):
                    ops, _ = workloads.WORKLOADS[workload](0, SCRATCH)
                for op in ops:  # stop once every claimed span has been called
                    if spans <= set(tracer.summary()):
                        break
                    with tracer.span("harness"):
                        op.run()
            missing = spans - set(tracer.summary())
            assert not missing, (workload, missing)
            roots = sum(sp.duration for sp in tracer.spans if sp.parent is None)
            assert abs(sum(tracer.self_times()) - roots) < 1e-6
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    # uninstall restores every binding
    assert not hasattr(kerrcubic.experiments.cubic_gate, "__wrapped__")
    assert kerrcubic.experiments.cubic_gate is kerrcubic.dynamics.cubic_gate
    assert np.linalg.eigh is EIGH


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
