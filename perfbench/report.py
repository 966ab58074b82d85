"""Layer-accounting report from traced runs.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs every workload of ``BENCHMARK.json`` once with ``--trace 1`` (one
process each) and prints, per workload, each layer's share of operation
self time, the unattributed share and ``trace.overhead_s``, followed by
cross-checks against the baselines quoted in ROADMAP item 2.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
UCCSD_12Q_GATES = 16196  # nq=12, ne=4 UCCSD circuit
DIMER_QEOM_GATES = 19190  # one QEOM on the 4-qubit dimer
DIMER_QEOM_SIM_SHARE = 0.73


def traced_record(workload: str, seed: int, seconds: float) -> dict:
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=900,
    )
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()

    records = {name: traced_record(name, args.seed, args.seconds) for name in WORKLOADS}
    print(f"seed {args.seed}, {args.seconds:g} s per run; shares of traced operation time\n")
    print(
        "| workload | mean traced wall s/op | layer self-time shares | unattributed "
        "| trace.overhead_s |"
    )
    print("|---|---|---|---|---|")
    for name, record in records.items():
        solve = statistics.fmean(record["traced"]["wall_s"])
        layers = dict(record["accounting"]["op_self_s_by_layer"])
        unattributed = layers.pop("unattributed", 0.0)
        shares = ", ".join(
            f"{layer} {value / solve:.1%}"
            for layer, value in sorted(layers.items(), key=lambda kv: -kv[1])
            if value / solve >= 0.001
        )
        overhead = record["metrics"]["trace.overhead_s"]["value"]
        print(f"| {name} | {solve:.3f} | {shares} | {unattributed / solve:.2%} | {overhead:+.3f} |")

    print("\nBaseline cross-checks (ROADMAP item 2):")
    uccsd = records["uccsd-12q"]["metrics"]
    per_circuit = uccsd["backend.gates"]["value"] / uccsd["backend.simulations"]["value"]
    print(f"- uccsd-12q gates per circuit: {per_circuit:.0f} (baseline {UCCSD_12Q_GATES})")
    for run in records["spectrum-dimer-hf"]["accounting"]["qeom_runs"][:3]:
        share = run["simulate_self_s"] / run["duration_s"]
        print(
            f"- dimer QEOM: {run['gates']} gate applications (baseline {DIMER_QEOM_GATES}), "
            f"simulation {share:.0%} of QEOM time (baseline {DIMER_QEOM_SIM_SHARE:.0%}), "
            f"distinct circuits / simulations {run['distinct_ratio']:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
