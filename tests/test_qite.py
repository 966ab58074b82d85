"""Quantum imaginary time evolution on the shipped H2 Hamiltonian,
checked against exact diagonalization."""
from pathlib import Path

import numpy as np
import pytest

import qcsim
from qcsim import pauli

H2_PATH = Path(__file__).resolve().parents[1] / "data" / "h2.ham"


def test_exact_qite_descends_to_ground_state(exact_accelerator, hf_circuit_2q):
    observable = pauli.load_hamiltonian(str(H2_PATH))
    exact = np.linalg.eigvalsh(pauli.to_matrix(observable, 2))[0]
    qite = qcsim.get_algorithm(
        "qite",
        {
            "accelerator": exact_accelerator,
            "observable": observable,
            "ansatz": hf_circuit_2q,
            "step-size": 0.1,
            "steps": 20,
        },
    )
    buffer = qcsim.qalloc(2)
    qite.execute(buffer)
    history = np.array(buffer["energy-history"])
    assert len(history) == 21
    assert np.all(np.diff(history) <= 0.0)
    assert history[-1] == pytest.approx(exact, abs=1e-4)
    assert buffer["opt-val"] == history[-1]
