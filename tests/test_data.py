"""Shipped Hamiltonians: the Hubbard dimer file against its in-repo build."""
from pathlib import Path

import numpy as np

from qcsim import pauli

DIMER_PATH = Path(__file__).resolve().parents[1] / "data" / "hubbard_dimer.ham"

DIMER_SECTOR_SPECTRUM = [2 - 2 * np.sqrt(2), 0.0, 4.0, 2 + 2 * np.sqrt(2)]


def test_dimer_file_equals_fermion_build(hubbard_dimer):
    shipped = pauli.load_hamiltonian(str(DIMER_PATH))
    assert shipped.n_terms() == hubbard_dimer.n_terms()
    assert shipped.isclose(hubbard_dimer, tolerance=1e-12)


def test_dimer_sector_spectrum(sector_eigh):
    shipped = pauli.load_hamiltonian(str(DIMER_PATH))
    values, _, keep = sector_eigh(shipped, 4, 2)
    assert len(keep) == 4
    assert np.allclose(values, DIMER_SECTOR_SPECTRUM, atol=1e-12)
    assert np.allclose(values, [-0.8284, 0.0, 4.0, 4.8284], atol=1e-4)
