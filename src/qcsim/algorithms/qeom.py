"""Excitation spectra from the quantum equation-of-motion method.

Over a prepared (approximate) ground state |psi>, the particle-conserving
single/double excitation operators O_u (an ``ExcitationOperator`` T for
every ``fermion.excitation_modes`` entry, spin flips included) and their
adjoints span the excitation/de-excitation manifold.  The commutator
matrix elements

    M_uv = <[O_u†, [H, O_v ]]>      Q_uv = -<[O_u†, [H, O_v†]]>
    V_uv = <[O_u†, O_v ]>           W_uv = -<[O_u†, O_v†]>

are read in one ``PreparedState.expect_commutators`` call with the
adjoints O_u† as lefts and, per v, the rights O_v and O_v† interleaved
(columns 0::2 and 1::2): its D, <[L, [H, R]]>, gives M and Q, and its P
gives V and W.  H is compiled once per run, for the pencil and the ground
energy, and nothing else is compiled.  Exact mode builds no Pauli sum:
it applies each O and O† on its amplitude pairs, H once to psi and once
to each stack of the vectors O psi and O† psi (at most 2^12 amplitudes,
or one row), and reads the stack's P block from it and its D block from
H applied to it minus each O (H psi), in one product each.  Sampled mode
measures each O as its JW image, forms [H, R] once per right and
measures every element in the order of the (u, v) loop, M and Q first.
They are assembled into the response pencil

    [[M, Q], [Q*, M*]] x = E [[V, W], [-W*, -V*]] x

whose positive roots are the excitation energies.  De-excitation blocks
are kept because dropping them biases the energies whenever O_u†|psi>
does not annihilate (the single-block double-commutator pencil is
measurably off even at the exact ground state).

B is eigendecomposed once, in ``linalg.indefinite_generalized_eig``,
which solves the pencil only on eigen-directions with |lambda| above B's
rounding floor, 2N eps max|lambda| for the metric of N excitations, and
returns those |lambda|.  No cut is tuned: the directions at the floor
(excitations that annihilate the state both ways) are counted in
``qeom-dropped-directions``, and every other direction is solved or
refused.  If the kept |lambda| span more than ``MAX_METRIC_CONDITION``
(``qeom-metric-condition``), the state leaves some excitations nearly
dependent and QEOM raises ``AlgorithmError`` instead of returning roots.
It raises too when the metric is dead as a whole: when even the largest
kept |lambda| lies more than ``MAX_METRIC_CONDITION`` below the basis
scale 1, however evenly the kept |lambda| spread.  The scale is the
squared sum of |coefficients| of an O's image, which bounds every |B_uv|
up to a factor 2 and is exactly 1 for every JW excitation (2^k strings,
each of weight 2^-k), so no image is built for it.
"""
from __future__ import annotations

import numpy as np

from ..backend import AcceleratorBuffer, CompiledPauli, PreparedState
from ..errors import AlgorithmError
from ..fermion import ExcitationOperator, excitation_modes
from ..linalg import indefinite_generalized_eig
from ..pauli import PauliOperator
from .base import STATE_KINDS, Algorithm

_POSITIVE_ROOT_CUTOFF = 1e-8
# Largest max/min ratio of the kept metric eigenvalues |lambda| that QEOM
# solves: a root moves by about this ratio times the elements' error.
MAX_METRIC_CONDITION = 1e6


def eom_pencil(
    observable: "PauliOperator | CompiledPauli",
    operators: "list[PauliOperator | ExcitationOperator]",
    state: PreparedState,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the (Hermitized) doubled response pencil (A, B) of the basis
    ``operators``: excitations, or any Pauli sums, such as their images."""
    daggers = [op.dagger() for op in operators]
    rights = [op for pair in zip(operators, daggers) for op in pair]
    overlaps, responses = state.expect_commutators(daggers, rights, observable)
    m, q = responses[:, 0::2], -responses[:, 1::2]
    v, w = overlaps[:, 0::2], -overlaps[:, 1::2]
    a = np.block([[m, q], [q.conj(), m.conj()]])
    b = np.block([[v, w], [-w.conj(), -v.conj()]])
    a = 0.5 * (a + a.conj().T)
    b = 0.5 * (b + b.conj().T)
    return a, b


class QEOM(Algorithm):
    algorithm_name = "qeom"
    option_kinds = {**STATE_KINDS, "ansatz": "composite", "n-electrons": "int"}
    required_keys = ("ansatz", "accelerator", "observable", "n-electrons")

    def _validate(self):
        if not self.options.get_composite("ansatz").is_concrete:
            raise AlgorithmError("qeom needs a concrete (prepared) ansatz")

    def _execute(self, buffer: AcceleratorBuffer) -> None:
        observable = self.options.get_observable("observable")
        accelerator = self.options.get_accelerator("accelerator")
        ansatz = self.options.get_composite("ansatz")
        n_electrons = self.options.get_int("n-electrons")
        if not observable.is_hermitian():
            raise AlgorithmError("qeom needs a Hermitian observable")

        n_qubits = max(observable.n_qubits(), ansatz.max_qubit() + 1, buffer.size)
        if n_qubits % 2:
            n_qubits += 1
        basis = [
            ExcitationOperator(occ, virt)
            for occ, virt in excitation_modes(n_electrons, n_qubits, spin_preserving=False)
        ]
        if not basis:
            raise AlgorithmError(
                f"no particle-conserving excitations for ne={n_electrons}, "
                f"nq={n_qubits}"
            )

        state = accelerator.prepare(ansatz, n_qubits)
        compiled = CompiledPauli(observable, n_qubits)
        a, b = eom_pencil(compiled, basis, state)
        values, kept = indefinite_generalized_eig(a, b)
        if not kept.size:
            raise AlgorithmError("all-singular overlap matrix; basis is dead")
        condition = float(kept.max() / kept.min())
        buffer.metadata.insert("qeom-metric-condition", condition)
        buffer.metadata.insert("qeom-dropped-directions", len(b) - kept.size)
        if condition > MAX_METRIC_CONDITION:
            raise AlgorithmError(
                f"ill-conditioned metric: kept |eigenvalues| span {condition:.3g} "
                f"(limit {MAX_METRIC_CONDITION:.0e}); the state leaves some "
                "excitations nearly dependent, so the roots would be noise"
            )
        if kept.max() * MAX_METRIC_CONDITION < 1.0:
            raise AlgorithmError(
                f"dead metric: the largest kept |eigenvalue| {kept.max():.3g} is "
                f"more than {MAX_METRIC_CONDITION:.0e} below the basis scale 1, "
                "so the roots would be noise"
            )
        energies = [float(e) for e in values if e > _POSITIVE_ROOT_CUTOFF]

        buffer.metadata.insert("ground-energy", state.expect(compiled).real)
        buffer.metadata.insert("excitation-energies", energies)
        buffer.metadata.insert("qeom-matrix-rank", kept.size)
