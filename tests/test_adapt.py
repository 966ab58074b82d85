"""ADAPT-VQE on the Hubbard dimer against sector exact diagonalization,
and on the 3-site chain against recorded runs.

A ``uccsd`` operator is grown as one ``ExcitationRotation`` (one Givens
rotation of amplitude pairs), a ``singlet-adapted-uccsd`` group of two
or more excitations as the ``exp_pauli`` rotations of its generator, and
the pool is screened on its generators' Pauli sums.
"""
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qcsim
from qcsim import backend, pauli
from qcsim.ansatz import reference_circuit
from qcsim.errors import AlgorithmError

DIMER_PATH = Path(__file__).resolve().parents[1] / "data" / "hubbard_dimer.ham"


def _adapt(observable):
    accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
    adapt = qcsim.get_algorithm(
        "adapt",
        {
            "optimizer": qcsim.get_optimizer("nelder-mead", {"tolerance": 1e-12}),
            "observable": observable,
            "n-electrons": 2,
            "pool": "uccsd",
            "accelerator": accelerator,
        },
    )
    buffer = qcsim.qalloc(4)
    adapt.execute(buffer)
    return buffer


def test_reaches_the_sector_ground_state_in_orbital_basis(hubbard_dimer_mo, sector_eigh):
    site = pauli.load_hamiltonian(str(DIMER_PATH))
    assert np.allclose(
        np.linalg.eigvalsh(pauli.to_matrix(hubbard_dimer_mo, 4)),
        np.linalg.eigvalsh(pauli.to_matrix(site, 4)),
    )
    ground = sector_eigh(site, 4, 2)[0][0]
    buffer = _adapt(hubbard_dimer_mo)
    assert buffer["opt-val"] == pytest.approx(ground, abs=1e-6)
    assert buffer["adapt-ops"] == ["(0,2)->(1,3)"]


def test_site_basis_stops_at_the_singles_product_state():
    """From |1010> in the site basis ADAPT picks the two singles, whose
    optimum (-0.5) leaves every pool gradient at zero, so it stops there:
    a known limit of the site-basis reference, not the ground state."""
    buffer = _adapt(pauli.load_hamiltonian(str(DIMER_PATH)))
    assert buffer["opt-val"] == pytest.approx(-0.5, abs=1e-6)
    assert buffer["adapt-ops"] == ["(0)->(1)", "(2)->(3)"]


@pytest.mark.parametrize(
    "pool, chosen, energy",
    [
        (
            "uccsd",
            ["(0)->(1)", "(3)->(4)", "(0)->(2)", "(3)->(5)", "(0,3)->(2,4)", "(0)->(2)",
             "(0)->(1)", "(3)->(5)"],
            -1.99999999999884,
        ),
        (
            "singlet-adapted-uccsd",
            ["singlet_(0)->(1)", "singlet_(0)->(2)", "singlet_(0,0)->(1,2)",
             "singlet_(0)->(2)", "singlet_(0)->(1)"],
            -1.9930963857322492,
        ),
    ],
    ids=["uccsd", "singlet-adapted-uccsd"],
)
def test_the_chain_run_matches_the_recorded_one(pool, chosen, energy, hubbard_chain):
    """Exact ADAPT on the 3-site chain (6 qubits, N = 2) chooses the operators
    and reaches the energy recorded when each pool element was a stored
    Pauli sum grown as its ``exp_pauli`` block."""
    adapt = qcsim.get_algorithm(
        "adapt",
        {
            "optimizer": qcsim.get_optimizer("nelder-mead", {"tolerance": 1e-12}),
            "observable": hubbard_chain(3),
            "n-electrons": 2,
            "pool": pool,
            "accelerator": qcsim.get_accelerator("statevector", {"shots": 0}),
        },
    )
    buffer = qcsim.qalloc(6)
    adapt.execute(buffer)
    assert buffer["adapt-ops"] == chosen
    assert abs(buffer["opt-val"] - energy) <= 1e-12


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_a_bad_grad_threshold_raises_before_any_simulation(value, hubbard_dimer_mo):
    accelerator = qcsim.get_accelerator("statevector", {"shots": 100, "seed": 5})
    options = {
        "optimizer": qcsim.get_optimizer("nelder-mead"),
        "observable": hubbard_dimer_mo,
        "n-electrons": 2,
        "pool": "uccsd",
        "accelerator": accelerator,
        "grad-threshold": value,
    }
    before = accelerator._rng.bit_generator.state
    with mock.patch.object(backend, "_zero_state") as simulated:
        with pytest.raises(AlgorithmError, match="grad-threshold must be finite"):
            qcsim.get_algorithm("adapt", options).execute(qcsim.qalloc(4))
    assert simulated.call_count == 0
    assert accelerator._rng.bit_generator.state == before


@pytest.mark.parametrize("shots", [0, 100])
def test_a_non_hermitian_observable_raises_before_any_simulation(shots, hubbard_dimer_mo):
    accelerator = qcsim.get_accelerator("statevector", {"shots": shots, "seed": 5})
    options = {
        "optimizer": qcsim.get_optimizer("nelder-mead"),
        "observable": hubbard_dimer_mo + pauli.PauliOperator({0: "X"}, 0.5j),
        "n-electrons": 2,
        "accelerator": accelerator,
    }
    before = accelerator._rng.bit_generator.state
    with mock.patch.object(backend, "_zero_state") as simulated:
        with pytest.raises(AlgorithmError, match="adapt needs a Hermitian observable"):
            qcsim.get_algorithm("adapt", options).execute(qcsim.qalloc(4))
    assert simulated.call_count == 0
    assert accelerator._rng.bit_generator.state == before


@pytest.mark.parametrize("shots", [0, 400])
@pytest.mark.parametrize(
    "stop", [{"grad-threshold": 1000.0}, {"max-iter": 0}], ids=["threshold", "max-iter"]
)
def test_a_run_that_appends_nothing_returns_the_reference_energy(shots, stop, hubbard_dimer_mo):
    """With no operator appended the energy is <H> on the reference, read
    from the first sweep's state with the draws a fresh state would make."""

    def accelerator():
        return qcsim.get_accelerator("statevector", {"shots": shots, "seed": 9})

    options = {
        "optimizer": qcsim.get_optimizer("nelder-mead"),
        "observable": hubbard_dimer_mo,
        "n-electrons": 2,
        "accelerator": accelerator(),
        **stop,
    }
    buffer = qcsim.qalloc(4)
    qcsim.get_algorithm("adapt", options).execute(buffer)
    reference = accelerator().prepare(reference_circuit(2, 4), 4)
    assert buffer.metadata.get_real("opt-val") == reference.expect(hubbard_dimer_mo).real
    assert buffer.metadata.get_string_list("adapt-ops") == []
    assert buffer.metadata.get_real_list("opt-params") == []
    assert len(buffer.metadata.get_real_list("adapt-gradient-norms")) == 1


@pytest.mark.parametrize("shots, reason", [(0, "tolerance"), (4000, "noise-floor")])
def test_each_sub_vqe_reports_its_stop_and_evaluations(hubbard_dimer_mo, shots, reason):
    """One stop reason and one evaluation count per appended operator;
    sampled sub-VQEs stop at the noise floor."""
    options = {"shots": shots, "seed": 3} if shots else {"shots": 0}
    adapt = qcsim.get_algorithm(
        "adapt",
        {
            "optimizer": qcsim.get_optimizer("nelder-mead"),
            "observable": hubbard_dimer_mo,
            "n-electrons": 2,
            "accelerator": qcsim.get_accelerator("statevector", options),
        },
    )
    buffer = qcsim.qalloc(4)
    adapt.execute(buffer)
    assert len(buffer["adapt-stop-reasons"]) == len(buffer["adapt-ops"]) >= 1
    assert set(buffer["adapt-stop-reasons"]) == {reason}
    assert len(buffer["adapt-evaluations"]) == len(buffer["adapt-ops"])
    assert all(2 <= count <= 500 for count in buffer["adapt-evaluations"])
