"""Seeded inputs: Hubbard chains as ``.ham`` text plus INI configs.

The chains are built from ``qcsim.fermion.FermionOperator`` and mapped
with ``jordan_wigner``; the written files are the only inputs qcsim
receives.  Spin-orbital layout follows qcsim: alpha modes are qubits
0..L-1, beta modes qubits L..2L-1.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

import oracle

# t = 1, U = 4 dimer, N = 2, Sz = 0 (ROADMAP open item 1)
DIMER_REFERENCE_SPECTRUM = (-0.8284271247461903, 0.0, 4.0, 4.82842712474619)


def hubbard_chain(qcsim, sites: int, hopping: float, onsite_u: float, energies):
    """JW image of an open Hubbard chain with on-site energies."""
    ladder = qcsim.FermionOperator.ladder
    model = qcsim.FermionOperator()
    for spin in range(2):
        for i in range(sites - 1):
            a, b = spin * sites + i, spin * sites + i + 1
            model = model + ladder([(a, True), (b, False)], -hopping)
            model = model + ladder([(b, True), (a, False)], -hopping)
        for i in range(sites):
            mode = spin * sites + i
            model = model + ladder([(mode, True), (mode, False)], float(energies[i]))
    for i in range(sites):
        up, down = i, sites + i
        model = model + ladder([(up, True), (up, False), (down, True), (down, False)], onsite_u)
    return qcsim.jordan_wigner(model, 2 * sites)


def ham_text(op) -> str:
    """One ``<coef> [<L><q>]*`` line per term, coefficients at full precision."""
    lines = []
    for term in op.terms():
        coef = term.coefficient
        if abs(coef.imag) > 1e-12:
            raise ValueError(f"non-Hermitian term {term}")
        lines.append(f"{coef.real!r} {term.pauli_string() if term.ops else ''}".strip())
    return "\n".join(lines) + "\n"


def self_check(qcsim) -> None:
    """The uniform t=1, U=4 dimer must give the known N=2, Sz=0 spectrum."""
    text = ham_text(hubbard_chain(qcsim, 2, 1.0, 4.0, [0.0, 0.0]))
    values = oracle.spectrum(oracle.parse_ham(text), 4, 2, 0)
    if not np.allclose(values, DIMER_REFERENCE_SPECTRUM, atol=1e-10):
        raise RuntimeError(f"dimer self-check failed: spectrum {values}")


def write_config(path: Path, sections: dict[str, dict[str, object]]) -> None:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_kernel(path: Path, name: str, params: list[str], body: list[str]) -> None:
    signature = "".join(f", double {p}" for p in params)
    lines = [f"__qpu__ void {name}(qbit q{signature}) {{"]
    lines += [f"  {stmt}" for stmt in body]
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_hubbard(qcsim, path: Path, sites: int, onsite_u: float, energies) -> str:
    text = ham_text(hubbard_chain(qcsim, sites, 1.0, onsite_u, energies))
    path.write_text(text, encoding="utf-8")
    return text
