"""Shipped Hamiltonians: the Hubbard dimer files, in the site and in the
bonding/antibonding orbital basis, against their in-repo builds."""
from pathlib import Path

import numpy as np
import pytest

from qcsim import pauli

DATA = Path(__file__).resolve().parents[1] / "data"
DIMER_PATH = DATA / "hubbard_dimer.ham"
DIMER_MO_PATH = DATA / "hubbard_dimer_mo.ham"

DIMER_SECTOR_SPECTRUM = [2 - 2 * np.sqrt(2), 0.0, 4.0, 2 + 2 * np.sqrt(2)]


def test_dimer_file_equals_fermion_build(hubbard_dimer):
    shipped = pauli.load_hamiltonian(str(DIMER_PATH))
    assert shipped.n_terms() == hubbard_dimer.n_terms()
    assert shipped.isclose(hubbard_dimer, tolerance=1e-12)


def test_dimer_mo_file_equals_fermion_build(hubbard_dimer_mo):
    shipped = pauli.load_hamiltonian(str(DIMER_MO_PATH))
    assert shipped.n_terms() == hubbard_dimer_mo.n_terms() == 13
    assert shipped.isclose(hubbard_dimer_mo, tolerance=1e-12)


def test_dimer_sector_spectrum(sector_eigh):
    shipped = pauli.load_hamiltonian(str(DIMER_PATH))
    values, _, keep = sector_eigh(shipped, 4, 2)
    assert len(keep) == 4
    assert np.allclose(values, DIMER_SECTOR_SPECTRUM, atol=1e-12)
    assert np.allclose(values, [-0.8284, 0.0, 4.0, 4.8284], atol=1e-4)


def test_dimer_mo_sector_spectrum(sector_eigh):
    shipped = pauli.load_hamiltonian(str(DIMER_MO_PATH))
    values, _, keep = sector_eigh(shipped, 4, 2)
    assert len(keep) == 4
    assert np.allclose(values, DIMER_SECTOR_SPECTRUM, atol=1e-12)


@pytest.mark.parametrize("path", [DIMER_PATH, DIMER_MO_PATH], ids=lambda path: path.name)
def test_the_reference_determinant_energy(path):
    """|1010>: <H> = U = 4 in the site basis (both electrons on site 0),
    and 0 in the orbital basis (both in the bonding orbital)."""
    shipped = pauli.load_hamiltonian(str(path))
    state = np.zeros(16)
    state[0b1010] = 1.0
    expected = 4.0 if path == DIMER_PATH else 0.0
    assert state @ pauli.to_matrix(shipped, 4).real @ state == pytest.approx(expected, abs=1e-12)
