"""Self-tests of the benchmark: determinism, oracle checks, refusal without sources.

    python3 -m pytest -q perfbench/tests

Each workload runs as its own process, as the benchmark is meant to run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
COUNTS = (
    "backend.simulations",
    "backend.gates",
    "backend.shots",
    "pauli.multiply.term_pairs",
    "optim.evals",
)


def bench(workload: str, seed: int, cwd: Path = ROOT, root: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return done


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    done = bench(workload, seed)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace1.json"
    return result, json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_counts_and_outputs(workload):
    first_result, first = traced(workload, 5)
    second_result, second = traced(workload, 5)
    for name in COUNTS:
        assert first_result["metrics"][name] == second_result["metrics"][name], name
    # exact-mode outputs (and sampled ones, whose sampler is seeded) are bitwise
    # equal across runs; a run's untraced and traced halves repeat the same inputs
    assert first["digests"] == second["digests"]
    if workload != "uccsd-12q":  # its operations cycle through 8 points
        assert len(first["digests"]) == 1


@pytest.mark.parametrize(
    "workload",
    [
        *WORKLOADS,
        # not benchmarked: every operation fails; this flips when QEOM is fixed
        pytest.param(
            "spectrum-dimer",
            marks=pytest.mark.xfail(
                reason="QEOM returns unphysical roots from the UCCSD-VQE dimer state "
                "(ROADMAP open item 1)",
                strict=True,
            ),
        ),
    ],
)
def test_another_seed_passes_every_oracle_check(workload):
    result, record = traced(workload, 6)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_dimer_self_check_and_h2_ground_state():
    import qcsim

    inputs.self_check(qcsim)
    h2 = oracle.parse_ham((ROOT / "data" / "h2.ham").read_text())
    assert oracle.spectrum(h2, 2)[0] == pytest.approx(-1.14496, abs=1e-5)


def test_refuses_to_run_without_qcsim_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("qeom-chain6", 1, cwd=tmp_path, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
