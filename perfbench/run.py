"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qcsim is imported from its ``src``.
One run measures one workload.  It writes the seeded inputs and computes
the oracle values, then hands the workload to WORKERS worker processes,
one after another (``run.py --worker STATE``).  Each worker times set-up
SETUP_REPEATS times (fresh ``import qcsim``, reading inputs, building
circuits) and then runs whole operations for its share of ``--seconds``.
Every set-up and operation is bracketed by a fixed calibration task, and
the end-to-end times are medians, over all workers, in reference seconds,
which cancel the host's speed drift (see calibrate.py); pooling several
processes cancels the speed each process gets on its own (see
run_workers).  Every operation's output is checked against the oracle.
The last line of standard output is the JSON result; a fuller record
(environment, diagnostics, raw timings, per-layer accounting) goes to
``.perfbench/results/`` in the checkout.

With ``--trace 1`` the workers get half the time, then this process
repeats set-up once with the span tracer installed and spends the other
half traced.  Per-layer values cover that one set-up plus one operation
(the mean over traced operations) in wall seconds; ``trace.overhead_s``
is the difference of the traced and untraced median operation times,
each in reference seconds.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the workloads are single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
import inputs
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKERS = 3
SETUP_REPEATS = 2  # per worker


def import_qcsim():
    """A fresh import of qcsim and its CLI (earlier imports are discarded)."""
    for name in [m for m in sys.modules if m == "qcsim" or m.startswith("qcsim.")]:
        del sys.modules[name]
    qcsim = importlib.import_module("qcsim")
    importlib.import_module("qcsim.cli")
    return qcsim


def run_ops(workload, seconds: float, tracer=None):
    """Whole operations until the next one would overrun ``seconds``."""
    timer, outputs = calibrate.Timer(), []
    begin = time.perf_counter()

    def operation():
        try:
            if tracer is None:
                return workload.run()
            with tracer.root("op"):
                return workload.run()
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            return None

    while True:
        outputs.append(timer.time(operation))
        if time.perf_counter() - begin + timer.step_seconds() > seconds:
            return timer, outputs


def layer_metrics(tracer, overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time accounting behind them."""
    summaries = tracer.summarize().values()
    setups = [s for s in summaries if s["name"] == "setup"]
    ops = [s for s in summaries if s["name"] == "op"]
    total: dict[str, dict[str, float]] = {"self": {}, "calls": {}, "counts": {}}
    for part in total:
        keys = {k for s in setups + ops for k in s[part]}
        for key in keys:
            total[part][key] = sum(s[part].get(key, 0) for s in setups) + statistics.fmean(
                s[part].get(key, 0) for s in ops
            )
    selfs, calls, counts = total["self"], total["calls"], total["counts"]

    def self_s(*names):
        return sum(selfs.get(n, 0.0) for n in names)

    def layer_s(prefix):
        return sum(v for k, v in selfs.items() if k.startswith(prefix + "."))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    sims = counts.get("simulations", 0)
    amps = counts.get("gate_amps", 0)
    pairs = counts.get("term_pairs", 0)
    simulate = self_s(*spans.SIMULATING)
    mult = self_s("pauli.multiply")
    values = {
        "backend.simulations": (sims, "count"),
        "backend.distinct_ratio": (ratio(counts.get("distinct_circuits", 0), sims), "ratio"),
        "backend.statevector.self_s": (self_s("backend.statevector"), "s"),
        "backend.gates": (counts.get("gates", 0), "count"),
        "backend.simulate.self_s": (simulate, "s"),
        "backend.ns_per_gate_amp": (ratio(simulate, amps, 1e9), "ns"),
        # computed, not measured: each gate reads and writes 2^n complex128 amplitudes
        "backend.bytes_moved": (amps * 16 * 2, "B-computed"),
        "backend.execute_and_reduce.calls": (calls.get("backend.execute_and_reduce", 0), "count"),
        "backend.execute_and_reduce.self_s": (self_s("backend.execute_and_reduce"), "s"),
        "backend.shots": (counts.get("shots", 0), "count"),
        "backend.measured_terms": (counts.get("measured_terms", 0), "count"),
        "backend.operator_expectation.calls": (
            calls.get("backend.operator_expectation", 0),
            "count",
        ),
        "backend.apply_pauli.calls": (calls.get("backend.apply_pauli", 0), "count"),
        "backend.apply_pauli.self_s": (self_s("backend.apply_pauli"), "s"),
        "pauli.multiply.calls": (calls.get("pauli.multiply", 0), "count"),
        "pauli.multiply.term_pairs": (pairs, "count"),
        "pauli.multiply.self_s": (mult, "s"),
        "pauli.multiply.ns_per_pair": (ratio(mult, pairs, 1e9), "ns"),
        "pauli.multiply.kept_ratio": (ratio(counts.get("kept_terms", 0), pairs), "ratio"),
        "pauli.sum.self_s": (self_s("pauli.sum"), "s"),
        "pauli.observe.self_s": (self_s("pauli.observe"), "s"),
        "pauli.expectation_from_counts.self_s": (self_s("pauli.expectation_from_counts"), "s"),
        "ir.evaluate.calls": (calls.get("ir.evaluate", 0), "count"),
        "ir.evaluate.self_s": (self_s("ir.evaluate"), "s"),
        "ansatz.uccsd_circuit.self_s": (self_s("ansatz.uccsd_circuit"), "s"),
        "fermion.jordan_wigner.self_s": (self_s("fermion.jordan_wigner"), "s"),
        "optim.evals": (calls.get("optim.objective", 0), "count"),
        "optim.iterations": (counts.get("iterations", 0), "count"),
        "optim.self_s": (layer_s("optim"), "s"),
        "kernel.parse_kernel.self_s": (self_s("kernel.parse_kernel"), "s"),
        "cli.self_s": (layer_s("cli"), "s"),
        "linalg.self_s": (layer_s("linalg"), "s"),
        "algorithms.vqe.self_s": (layer_s("algorithms.vqe"), "s"),
        "algorithms.qeom.self_s": (layer_s("algorithms.qeom"), "s"),
        "unattributed_s": (statistics.fmean(s["self"]["op"] for s in ops), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    op_self: dict[str, float] = {}
    for s in ops:
        for name, value in s["self"].items():
            parts = name.split(".")
            depth = 2 if parts[0] == "algorithms" else 1
            layer = "unattributed" if name == "op" else ".".join(parts[:depth])
            op_self[layer] = op_self.get(layer, 0.0) + value / len(ops)
    accounting = {
        "op_self_s_by_layer": op_self,
        "setup_self_s_by_span": {k: v for s in setups for k, v in s["self"].items()},
        "qeom_runs": tracer.subtrees("algorithms.qeom.execute"),
    }
    return metrics, accounting


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        git_sha = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "qcsim").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def worker(state_path: Path) -> None:
    """One worker process: set-up and untraced operations of a generated workload."""
    state = pickle.loads(state_path.read_bytes())
    workload = state["workload"]
    setup = calibrate.Timer()
    for _ in range(SETUP_REPEATS):
        setup.time(lambda: workload.setup(import_qcsim()))
    begin = time.perf_counter()
    plain, outputs = run_ops(workload, state["seconds"])
    result = {
        "ops_s": time.perf_counter() - begin,
        "outputs": outputs,
        "setup": setup.record(),
        "untraced": plain.record(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    state_path.with_suffix(".out").write_bytes(pickle.dumps(result))


def run_workers(workload, seconds: float, workdir: Path) -> list[dict]:
    """Set-up and untraced operations in WORKERS processes, one after another.

    On a shared host each process can run at a speed of its own: medians
    of the same operations in separate processes were seen to differ by
    up to ~15% while the operations inside one process agreed within a few
    percent, and calibration does not remove that.  Pooling the timings of several
    processes averages it out.  Each worker gets an equal share of the
    operation time the earlier ones left over.
    """
    results: list[dict] = []
    for i in range(WORKERS):
        share = (seconds - sum(r["ops_s"] for r in results)) / (WORKERS - i)
        state = workdir / f"worker{i}.pickle"
        state.write_bytes(pickle.dumps({"workload": workload, "seconds": share}))
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(state)],
            stdout=sys.stderr, check=True, timeout=max(share, 0) + 120,
        )
        results.append(pickle.loads(state.with_suffix(".out").read_bytes()))
    return results


def measure(args, workdir: Path) -> dict:
    qcsim = import_qcsim()
    if Path(qcsim.__file__).resolve().parent != (SRC / "qcsim").resolve():
        raise RuntimeError(f"imported qcsim from {qcsim.__file__}, not {SRC}")
    inputs.self_check(qcsim)
    workload = WORKLOADS[args.workload](ROOT, workdir, args.seed)
    workload.generate(qcsim)

    plain_budget = args.seconds / 2 if args.trace else args.seconds
    workers = run_workers(workload, plain_budget, workdir)
    outputs = [output for w in workers for output in w["outputs"]]
    traced = tracer = None
    if args.trace:
        tracer = spans.Tracer()
        with tracer.root("setup"):
            qcsim = import_qcsim()
            tracer.install()
            workload.setup(qcsim)
        traced, traced_outputs = run_ops(workload, args.seconds - plain_budget, tracer)
        outputs += traced_outputs

    failures = [
        ["raised"] if output is None else workload.check(output) for output in outputs
    ]
    failed = sum(1 for f in failures if f)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": len(outputs),
        "failed": failed,
        "fail_frac": failed / len(outputs),
        "failures": sorted({msg for f in failures for msg in f}),
        "digests": sorted({"raised" if o is None else workload.digest(o) for o in outputs}),
        "diagnostics": [workload.diagnostics(o) for o in outputs if o is not None],
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "workers": [{k: v for k, v in w.items() if k != "outputs"} for w in workers],
    }
    if traced is not None:
        record["traced"] = traced.record()
    solve_s = statistics.median(s for w in workers for s in w["untraced"]["reference_s"])
    if tracer is None:
        setup_s = statistics.median(s for w in workers for s in w["setup"]["reference_s"])
        record["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    else:
        overhead = statistics.median(traced.reference_seconds()) - solve_s
        record["metrics"], record["accounting"] = layer_metrics(tracer, overhead)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    return record


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:  # internal: one worker process of a run
        sys.path.insert(0, str(SRC))
        worker(Path(argv[1]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qcsim" / "__init__.py").is_file():
        print(f"perfbench: qcsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = record["environment"]
    print(
        f"perfbench {args.workload} seed={args.seed}: python {env['python']}, numpy "
        f"{env['numpy']}, {env['blas']}, {env['cpu']}, nproc={env['nproc']}, "
        f"git={env['git_sha']}, source={env['source_sha256'][:12]}",
        file=sys.stderr,
    )
    for message in record["failures"]:
        print(f"perfbench: oracle check failed: {message}", file=sys.stderr)
    for diagnostics in record["diagnostics"][:1]:
        for key, value in diagnostics.items():
            print(f"perfbench: {key} = {value:+.6g}", file=sys.stderr)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
