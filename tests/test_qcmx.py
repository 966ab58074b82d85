"""Moment-expansion estimators on the H2 Hartree-Fock state, and the
QCMX algorithm on the orbital-basis dimer against sector ED."""
import math
from pathlib import Path

import numpy as np
import pytest

import qcsim
from qcsim import to_matrix

from qcsim.algorithms.qcmx import (
    cmx_energy,
    connected_moments,
    knowles_energy,
    pds_energy,
)


@pytest.fixture()
def hf_moments(h2):
    """Raw moments <H^k>, k = 1..5, at |10> (index 2, qubit 0 first)."""
    matrix = np.real(to_matrix(h2, 2))
    hf = np.zeros(4)
    hf[2] = 1.0
    return [float(hf @ np.linalg.matrix_power(matrix, k) @ hf) for k in range(1, 6)]


def test_connected_moments_low_orders(hf_moments):
    m1, m2, m3 = hf_moments[:3]
    i1, i2, i3 = connected_moments(hf_moments)[:3]
    assert i1 == pytest.approx(m1, abs=1e-12)
    assert i2 == pytest.approx(m2 - m1**2, abs=1e-12)
    assert i3 == pytest.approx(m3 - 3 * m2 * m1 + 2 * m1**3, abs=1e-12)


def test_knowles_order_two_equals_cmx_order_two(hf_moments):
    connected = connected_moments(hf_moments)
    i1, i2, i3 = connected[:3]
    assert cmx_energy(connected, 2) == pytest.approx(i1 - i2**2 / i3, abs=1e-12)
    assert knowles_energy(connected, 2) == pytest.approx(cmx_energy(connected, 2), abs=1e-12)


def test_knowles_order_three_uses_i2_to_i5(hf_moments):
    # b = (I_2, I_3), A = [[I_3, I_4], [I_4, I_5]]
    connected = connected_moments(hf_moments)
    i1, i2, i3, i4, i5 = connected
    b = np.array([i2, i3])
    a = np.array([[i3, i4], [i4, i5]])
    expected = i1 - b @ np.linalg.lstsq(a, b, rcond=None)[0]
    assert knowles_energy(connected, 3) == pytest.approx(expected, abs=1e-10)


def test_pds_order_two_is_exact_in_the_two_state_sector(hf_moments, h2_eigensystem):
    # |10> couples only to |01>, so the order-2 Krylov space holds the ground state
    assert pds_energy(hf_moments, 2) == pytest.approx(h2_eigensystem[0][0], abs=1e-9)


def test_pds_order_two_reaches_the_mo_dimer_sector_ground_state(exact_accelerator, sector_eigh):
    """At the Hartree-Fock determinant of the orbital-basis dimer, the
    order-2 PDS energy lands within 1e-9 of the N=2, Sz=0 ground state."""
    path = Path(__file__).resolve().parents[1] / "data" / "hubbard_dimer_mo.ham"
    observable = qcsim.load_hamiltonian(str(path))
    ground = sector_eigh(observable, 4, 2)[0][0]
    assert ground == pytest.approx(2 - 2 * math.sqrt(2), abs=1e-12)
    qcmx = qcsim.get_algorithm(
        "qcmx",
        {
            "accelerator": exact_accelerator,
            "observable": observable,
            "ansatz": qcsim.hartree_fock_circuit(2, 4),
            "cmx-order": 2,
        },
    )
    buffer = qcsim.qalloc(4)
    qcmx.execute(buffer)
    assert abs(buffer["pds-energies"][0] - ground) <= 1e-9
