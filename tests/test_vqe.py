"""VQE's reported energy on the shipped H2 Hamiltonian.

A sampled run must report an unbiased estimate at the parameters it
returns, not the lowest noisy sample the optimizer saw: over seeded runs
the mean of ``opt-val`` minus the exact energy at ``opt-params`` lies
within four standard errors of zero, and ``opt-val-stderr`` states the
standard error of that fresh estimate (0.0 in exact mode).  Sampled
Nelder-Mead stops at the shot-noise floor within the bound the
``vqe-h2-sampled`` benchmark checks; exact runs keep their path.
"""
import hashlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qcsim
from qcsim import pauli
from qcsim.ir import Parameter, create_composite, create_instruction, evaluate

H2_PATH = Path(__file__).resolve().parents[1] / "data" / "h2.ham"


def _ansatz():
    circuit = create_composite("h2")
    circuit.add(create_instruction("Ry", [0], [Parameter.symbolic("t")]))
    circuit.add(create_instruction("X", [1]))
    circuit.add(create_instruction("CNOT", [0, 1]))
    return circuit


def _run(observable, accelerator):
    vqe = qcsim.get_algorithm(
        "vqe",
        {
            "ansatz": _ansatz(),
            "observable": observable,
            "accelerator": accelerator,
            "optimizer": qcsim.get_optimizer("nelder-mead"),
            "max-iterations": 20,
        },
    )
    buffer = qcsim.qalloc(2)
    vqe.execute(buffer)
    return buffer


def test_sampled_opt_val_is_unbiased_at_opt_params():
    observable = pauli.load_hamiltonian(str(H2_PATH))
    exact = qcsim.get_accelerator("statevector", {"shots": 0})
    errors = []
    for seed in range(30):
        accelerator = qcsim.get_accelerator("statevector", {"shots": 1000, "seed": seed})
        buffer = _run(observable, accelerator)
        state = evaluate(_ansatz(), buffer["opt-params"])
        errors.append(buffer["opt-val"] - qcsim.expectation(observable, state, exact))
    errors = np.array(errors)
    assert abs(errors.mean()) <= 4 * errors.std(ddof=1) / np.sqrt(len(errors))


def _default_run(accelerator):
    """VQE on H2 from t = 0 with default Nelder-Mead."""
    vqe = qcsim.get_algorithm(
        "vqe",
        {
            "ansatz": _ansatz(),
            "observable": pauli.load_hamiltonian(str(H2_PATH)),
            "accelerator": accelerator,
            "optimizer": qcsim.get_optimizer("nelder-mead"),
        },
    )
    buffer = qcsim.qalloc(2)
    vqe.execute(buffer)
    return buffer


def _sampled(seed, shots=4000):
    return qcsim.get_accelerator("statevector", {"shots": shots, "seed": seed})


@pytest.mark.parametrize(
    "seed, opt_val, evaluations",
    [(7, "-0x1.25ce9d8764e3bp+0", 20), (23, "-0x1.24ce4649906cdp+0", 20)],
)
def test_seeded_sampled_run_is_pinned(seed, opt_val, evaluations):
    """A seeded 4,000-shot run with default Nelder-Mead reports this
    ``opt-val`` bit for bit, after this number of evaluations, with each
    evaluation's strings drawn in ``encoded()`` order, and stops at the
    noise floor."""
    buffer = _default_run(_sampled(seed))
    assert buffer["opt-val"] == float.fromhex(opt_val)
    assert len(buffer["energy-history"]) == evaluations
    assert buffer["stop-reason"] == "noise-floor"
    assert buffer["converged"]


def _h2_bound(shots=4000):
    """ED ground energy of H2 and the ``vqe-h2-sampled`` bound: 4 sigma,
    sigma = sqrt(sum c^2 / shots) over the non-identity strings."""
    observable = pauli.load_hamiltonian(str(H2_PATH))
    ground = np.linalg.eigvalsh(pauli.to_matrix(observable, 2))[0]
    sigma = np.sqrt(sum(abs(t.coefficient) ** 2 for t in observable.terms() if t.ops) / shots)
    return ground, 4 * sigma


def test_sampled_runs_stop_at_the_noise_floor_within_the_benchmark_bound():
    """Over 1,000 seeds at 4,000 shots every opt-val lies within the 4 sigma
    that ``vqe-h2-sampled`` checks, at least 95% of the runs stop at the
    noise floor and none makes more than 150 evaluations."""
    ground, bound = _h2_bound()
    errors, evaluations, reasons = [], [], Counter()
    for seed in range(1000):
        buffer = _default_run(_sampled(seed))
        errors.append(buffer["opt-val"] - ground)
        evaluations.append(len(buffer["energy-history"]))
        reasons[buffer["stop-reason"]] += 1
    assert max(np.abs(errors)) <= bound
    assert reasons["noise-floor"] >= 950
    assert max(evaluations) <= 150


def test_noise_floor_waits_for_the_simplex_to_contract():
    """At seed 211 the initial simplex, t = 0 and 0.1 on H2's flat maximum,
    already spreads less than its noise; the run still moves off it and
    ends within the benchmark bound."""
    ground, bound = _h2_bound()
    buffer = _default_run(_sampled(211))
    assert len(buffer["energy-history"]) > 2
    assert buffer["stop-reason"] == "noise-floor"
    assert abs(buffer["opt-val"] - ground) <= bound


def test_exact_run_is_unchanged_by_the_noise_floor():
    """Exact mode reports stderr 0.0, so default Nelder-Mead takes the
    tolerance path: this opt-val, opt-params and energy-history, bit for
    bit."""
    buffer = _default_run(qcsim.get_accelerator("statevector", {"shots": 0}))
    history = np.array(buffer["energy-history"])
    assert buffer["opt-val"] == float.fromhex("-0x1.251c1dd395261p+0")
    assert buffer["opt-params"] == [float.fromhex("-0x1.7746666666668p+1")]
    assert hashlib.sha256(history.tobytes()).hexdigest() == (
        "3edc85b693f40fda282180e68906c5cbb47c1d891e04939aed90d0e306f472b1"
    )
    assert len(history) == 38
    assert buffer["stop-reason"] == "tolerance"


def test_exact_opt_val_is_the_energy_at_opt_params():
    observable = pauli.load_hamiltonian(str(H2_PATH))
    exact = qcsim.get_accelerator("statevector", {"shots": 0})
    buffer = _run(observable, exact)
    state = evaluate(_ansatz(), buffer["opt-params"])
    assert buffer["opt-val"] == qcsim.expectation(observable, state, exact)
    assert buffer["opt-val"] == min(buffer["energy-history"])


def _bounded(algorithm_options, optimizer_options=None):
    vqe = qcsim.get_algorithm(
        "vqe",
        {
            "ansatz": _ansatz(),
            "observable": pauli.load_hamiltonian(str(H2_PATH)),
            "accelerator": qcsim.get_accelerator("statevector", {"shots": 0}),
            "optimizer": qcsim.get_optimizer("nelder-mead", optimizer_options),
            **algorithm_options,
        },
    )
    buffer = qcsim.qalloc(2)
    vqe.execute(buffer)
    return buffer


def test_bounds_given_to_the_algorithm_reach_the_optimizer():
    """The unbounded minimum lies at t = -2.93 (E = -1.14496); bounds set on
    the algorithm must confine t as the optimizer's own options do."""
    lower = _bounded({"lower-bounds": [0.5]})
    assert lower["opt-params"][0] >= 0.5
    reference = _bounded({}, {"lower-bounds": [0.5]})
    assert (lower["opt-val"], lower["opt-params"]) == (
        reference["opt-val"],
        reference["opt-params"],
    )
    assert lower["opt-val"] == pytest.approx(0.540550, abs=1e-6)
    upper = _bounded({"upper-bounds": [-3.0]})
    assert upper["opt-params"][0] <= -3.0
    assert upper["opt-val"] > -1.1449


DIMER_PATHS = {
    "hubbard_dimer.ham": -0.5,
    "hubbard_dimer_mo.ham": 2 - 2 * np.sqrt(2),
}


@pytest.mark.parametrize("name, energy", DIMER_PATHS.items())
def test_uccsd_dimer_minimum_depends_on_the_orbital_basis(name, energy):
    """Singles-then-doubles UCCSD(2,4) from the reference determinant
    bottoms out at -0.5 in the site basis, a limit of that ordering, and
    reaches the sector ground state -0.828427 in the orbital basis."""
    observable = pauli.load_hamiltonian(str(H2_PATH.parent / name))
    vqe = qcsim.get_algorithm(
        "vqe",
        {
            "ansatz": qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4)),
            "observable": observable,
            "accelerator": qcsim.get_accelerator("statevector", {"shots": 0}),
            "optimizer": qcsim.get_optimizer(
                "nelder-mead", {"tolerance": 1e-14, "max-iterations": 2000}
            ),
        },
    )
    buffer = qcsim.qalloc(4)
    vqe.execute(buffer)
    assert buffer["opt-val"] == pytest.approx(energy, abs=1e-6)


def test_opt_val_stderr_goes_with_the_fresh_estimate():
    """Exact runs report 0.0.  A sampled run reports sqrt(sum c^2 (1 - m^2)
    / shots) over the draws of its fresh ``opt-val``; it lies near the same
    sum with the exact <P> at ``opt-params``."""
    observable = pauli.load_hamiltonian(str(H2_PATH))
    exact = qcsim.get_accelerator("statevector", {"shots": 0})
    assert _run(observable, exact)["opt-val-stderr"] == 0.0
    shots = 1000
    buffer = _run(observable, qcsim.get_accelerator("statevector", {"shots": shots, "seed": 4}))
    state = exact.prepare(evaluate(_ansatz(), buffer["opt-params"]), 2)
    expected = np.sqrt(
        sum(
            term.coefficient.real**2 * (1 - state.expect(pauli.PauliOperator(term.ops)).real ** 2)
            for term in observable.terms()
            if term.ops
        )
        / shots
    )
    assert buffer["opt-val-stderr"] == pytest.approx(expected, rel=0.2)
