"""Statevector accelerator, qubit-register buffer, and expectation values.

Conventions (single source of truth for the whole framework):
qubit 0 is the leftmost character of every bitstring, the most
significant bit of a statevector amplitude index, and the leftmost
Kronecker factor of ``pauli.to_matrix``.

Prepare once, measure many: ``StatevectorAccelerator.prepare(circuit, n)``
checks a measurement-free, concrete circuit against an n-qubit register,
simulates it once through the public ``statevector`` in both modes, and
returns a ``PreparedState``, the only way an algorithm reads a state.
Exact mode (``shots == 0``) and sampled mode differ only inside it, and
none of its methods simulates again: ``evolve`` applies a block to the
cached vector, and ``moments`` repeats ``apply_pauli`` (exact) or takes
``expect`` of each power (sampled).  Sampled ``expect`` gives each
distinct non-identity string P, in ``op.masks()`` order, ``shots`` shots:
the ``pauli.observe`` circuit sees parity +1 with probability
(1 + <P>)/2, so k ~ Binomial(shots, (1 + <P>)/2) is drawn with <P> read
from the cached vector, and the string's estimate is (2k - shots)/shots.

Exact Pauli sums: ``apply_pauli`` is the one exact application of a
Pauli sum.  It makes one gather per distinct X mask: the strings sharing
an X mask fold into one diagonal, and the Z-only strings need no gather
(its docstring states the summation order).  Exact ``expect``,
``moments`` and ``expect_commutators`` go through it.  Only sampled
``expect`` and a rotation's one string walk strings one by one
(``_strings``).

Commutators without products: ``expect_commutators(lefts, rights)`` is
the matrix of <[L_i, R_j]>.  It checks every operator's width before
building a vector or drawing.  Exact mode builds no product operator: it
takes <[L, R]> = <L^dag psi|R psi> - <R^dag psi|L psi> and applies each
distinct operator once, up to sign.  An operator equal to one applied
before, or to minus it (``PauliOperator`` values are hashable), reads
that one's vector: a Hermitian L or anti-Hermitian R costs one
application, and so does every right that is, up to sign, a left, a
left's adjoint or another right's.  The lefts' vectors live through the
call; the rights are streamed in order, and each right's vectors are
dropped after their last use, so memory stays at the lefts' vectors
plus a few of 2^n.  Sampled mode takes ``expect(commutator(L_i, R_j))`` in
row-major order, drawing exactly as that nested loop would.

One pass per rotation: a simulation walks the circuit's leaves once,
checking them whole before touching an amplitude.  Each
``ir.PauliRotation`` leaf is applied as
psi <- cos(theta/2) psi - i sin(theta/2) P psi, with P the node's unit
string (through the per-string generator ``_strings``, as one string
costs less there than through ``apply_pauli``'s grouping) and theta its
one parameter, a field of the node.  Each ``ir.ExcitationRotation``
exp(theta (T - T†)) touches only the 2^(n-1) (single) or 2^(n-3)
(double) amplitudes whose determinants T or T† map to each other, and is
applied in place as one Givens rotation of those pairs, with the JW sign
of each pair read from the node's (sign, parity).  Neither rotation's
gate lowering is built.  Every other leaf is one gate, one
``_apply_gate``.  Every qubit mask becomes an amplitude-index mask
through one helper, ``_index_bits``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BackendError
from .ir import CompositeInstruction, ExcitationRotation, PauliRotation, gate_matrix
from .pauli import (
    PauliOperator,
    PauliTerm,
    commutator,
    expectation_from_counts,
    multiply,
)
from .registry import HeterogeneousMap, as_het_map

MAX_QUBITS = 20
_PROB_CUTOFF = 1e-16


@dataclass
class ExecutionResult:
    """Outcome distribution of one executed circuit on a buffer."""

    circuit_name: str
    counts: dict[str, int] = field(default_factory=dict)
    probabilities: dict[str, float] = field(default_factory=dict)
    measured_qubits: tuple[int, ...] = ()

    @property
    def outcomes(self) -> dict[str, float]:
        """Sampled counts when present, exact weights otherwise."""
        return self.counts if self.counts else self.probabilities


class AcceleratorBuffer:
    """Register handle collecting execution results and metadata."""

    def __init__(self, size: int):
        if size < 1:
            raise BackendError(f"buffer size must be >= 1, got {size}")
        self.size = size
        self.executions: list[ExecutionResult] = []
        self.metadata = HeterogeneousMap()

    @property
    def counts(self) -> dict[str, int]:
        return self.executions[-1].counts if self.executions else {}

    @property
    def probabilities(self) -> dict[str, float]:
        return self.executions[-1].probabilities if self.executions else {}

    def __getitem__(self, key: str):
        kind = self.metadata.kind_of(key)
        return self.metadata.get(key, kind)

    def __contains__(self, key: str) -> bool:
        return self.metadata.contains(key)

    def __repr__(self) -> str:
        return f"AcceleratorBuffer(size={self.size}, executions={len(self.executions)})"


def qalloc(n: int) -> AcceleratorBuffer:
    return AcceleratorBuffer(n)


@dataclass
class AcceleratorConfig:
    """shots == 0 selects exact-expectation mode."""

    shots: int = 0
    seed: int | None = None


class StatevectorAccelerator:
    """Noiseless dense statevector backend (shot sampling or exact mode)."""

    def __init__(self):
        self.config = AcceleratorConfig()
        self._rng = np.random.default_rng()

    def name(self) -> str:
        return "statevector"

    def initialize(
        self, options: "AcceleratorConfig | HeterogeneousMap | dict | None" = None
    ) -> "StatevectorAccelerator":
        if isinstance(options, AcceleratorConfig):
            config = options
        else:
            het = as_het_map(options)
            config = AcceleratorConfig(
                shots=het.get_or("shots", "int", 0),
                seed=het.get_or("seed", "int", None),
            )
        if config.shots < 0:
            raise BackendError(f"shots must be >= 0, got {config.shots}")
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        return self

    def execute(
        self,
        buffer: AcceleratorBuffer,
        circuits: "CompositeInstruction | Sequence[CompositeInstruction]",
    ) -> list[ExecutionResult]:
        if isinstance(circuits, CompositeInstruction):
            circuits = [circuits]
        results = []
        for circuit in circuits:
            results.append(self._execute_one(buffer, circuit))
        buffer.executions.extend(results)
        return results

    def _execute_one(
        self, buffer: AcceleratorBuffer, circuit: CompositeInstruction
    ) -> ExecutionResult:
        n = buffer.size
        state, measured = _simulate(circuit, n, measure=True)
        if not measured:
            measured = list(range(n))
        measured_sorted = tuple(sorted(measured))
        marginal = _marginal_probabilities(state, measured_sorted)
        result = ExecutionResult(circuit.name, measured_qubits=measured_sorted)
        if self.config.shots == 0:
            result.probabilities = _weights_to_bitstrings(marginal, measured_sorted, n)
        else:
            flat = marginal.reshape(-1)
            flat = flat / flat.sum()
            draws = self._rng.choice(flat.size, size=self.config.shots, p=flat)
            counts: dict[str, int] = {}
            width = len(measured_sorted)
            for idx, hits in zip(*np.unique(draws, return_counts=True)):
                bits = format(int(idx), f"0{width}b")
                counts[_embed_bits(bits, measured_sorted, n)] = int(hits)
            result.counts = counts
        return result

    def execute_and_reduce(
        self, circuit: CompositeInstruction, term: PauliTerm, n_qubits: int
    ) -> float:
        """Run one measured circuit and return the term's parity average."""
        scratch = AcceleratorBuffer(n_qubits)
        result = self._execute_one(scratch, circuit)
        return expectation_from_counts(
            PauliTerm(term.ops, 1.0), result.outcomes
        )

    def prepare(self, circuit: CompositeInstruction, n_qubits: int) -> "PreparedState":
        """The state circuit|0...0> on n_qubits, ready for many ``expect`` calls.

        Rejects a symbolic or measured circuit, one wider than the register and
        a register under 1 or over MAX_QUBITS qubits before simulating or drawing.
        """
        return PreparedState(self, statevector(circuit, n_qubits))


class PreparedState:
    """Amplitudes of one state, simulated once in either mode, and the
    accelerator that measures them: exactly, or by drawing each string's
    parity count from Binomial(shots, (1 + <P>)/2), as ``observe`` would."""

    def __init__(self, accelerator: StatevectorAccelerator, amplitudes: np.ndarray):
        self.accelerator = accelerator
        self._amplitudes = amplitudes

    @property
    def n_qubits(self) -> int:
        return self._amplitudes.size.bit_length() - 1

    def expect(self, op: PauliOperator) -> complex:
        """<psi|op|psi> for a general (possibly non-Hermitian) Pauli sum."""
        psi = self._amplitudes
        shots = self.accelerator.config.shots
        if shots == 0:
            return complex(np.vdot(psi, apply_pauli(op, psi)))
        total = complex(op.identity_coefficient)
        for masks, coefficient, source, odd, phase in _strings(op, self.n_qubits):
            if masks == (0, 0):
                continue
            mean = np.vdot(psi, np.where(odd, -phase, phase) * psi[source]).real
            hits = self.accelerator._rng.binomial(shots, np.clip((1 + mean) / 2, 0, 1))
            total += coefficient * (2 * hits - shots) / shots
        return total

    def expect_commutators(
        self, lefts: Sequence[PauliOperator], rights: Sequence[PauliOperator]
    ) -> np.ndarray:
        """The matrix of <psi|[L_i, R_j]|psi>, every operator's width checked first."""
        n = self.n_qubits
        for op in (*lefts, *rights):
            _check_width(op, n)
        out = np.empty((len(lefts), len(rights)), dtype=complex)
        if self.accelerator.config.shots:
            for i, a in enumerate(lefts):
                for j, b in enumerate(rights):
                    out[i, j] = self.expect(commutator(a, b))
            return out
        # <[L, R]> = <L^dag psi|R psi> - <R^dag psi|L psi>; every operator
        # equal, up to sign, to one already met reads that one's vector
        owners: list[PauliOperator] = []
        slots: dict[PauliOperator, int] = {}

        def slot(op: PauliOperator) -> tuple[int, float]:
            """(s, sign): op psi is sign times owners[s] psi."""
            if op in slots:
                return slots[op], 1.0
            negated = -op
            if negated in slots:
                return slots[negated], -1.0
            slots[op] = len(owners)
            owners.append(op)
            return slots[op], 1.0

        kets = [slot(a) for a in lefts]
        bras = [slot(a.dagger()) for a in lefts]
        ket_rows, bra_rows = [s for s, _ in kets], [s for s, _ in bras]
        ket_signs = np.array([sign for _, sign in kets])
        bra_signs = np.array([sign for _, sign in bras])
        psi = self._amplitudes
        # the lefts' vectors, slots 0..len(kept)-1, live through the call
        kept = np.empty((len(owners), psi.size), dtype=complex)
        for s, op in enumerate(owners):
            kept[s] = apply_pauli(op, psi)
        pairs = [(slot(b), slot(b.dagger())) for b in rights]
        last = {s: j for j, pair in enumerate(pairs) for s, _ in pair}
        held: dict[int, np.ndarray] = {}

        def overlaps(s: int) -> np.ndarray:
            """<kept row|owners[s] psi> for every kept row."""
            if s < len(kept):
                vector = kept[s]
            else:
                if s not in held:
                    held[s] = apply_pauli(owners[s], psi)
                vector = held[s]
            return (kept @ vector.conj()).conj()

        for j, ((r, r_sign), (d, d_sign)) in enumerate(pairs):
            with_r = overlaps(r)
            with_d = with_r if d == r else overlaps(d)
            out[:, j] = bra_signs * r_sign * with_r[bra_rows] - (
                ket_signs * d_sign * with_d[ket_rows].conj()
            )
            for s in (r, d):
                if last[s] == j:
                    held.pop(s, None)
        return out

    def evolve(self, block: CompositeInstruction) -> "PreparedState":
        """The state after ``block``, which ``prepare``'s checks must pass."""
        steps, _ = _plan(block, self.n_qubits)
        state = _run(self._amplitudes.reshape((2,) * self.n_qubits).copy(), steps)
        return PreparedState(self.accelerator, state.reshape(-1))

    def moments(self, op: PauliOperator, highest: int) -> list[float]:
        """Raw moments <op^k>, k = 1..highest, of a Hermitian Pauli sum."""
        if not op.is_hermitian():
            raise BackendError("moments need a Hermitian operator")
        if highest < 1:
            raise BackendError(f"moments need highest >= 1, got {highest}")
        moments = []
        if self.accelerator.config.shots == 0:
            # repeated sparse application of op to the cached vector
            current = self._amplitudes
            for _ in range(highest):
                current = apply_pauli(op, current)
                moments.append(float(np.real(np.vdot(self._amplitudes, current))))
            return moments
        power = PauliOperator.identity(1.0)
        for _ in range(highest):
            power = multiply(power, op)
            moments.append(self.expect(power).real)
        return moments


def _plan(
    circuit: CompositeInstruction, n: int, measure: bool = False
) -> tuple[list, list[int]]:
    """The gates and rotations to apply, and the Measure targets in
    first-seen order, of a circuit checked whole on an n-qubit register.

    One walk of the tree, before anything is simulated or drawn, checks the
    register size, free variables, width and Measure: rejected unless
    ``measure``, and then no gate may follow one on its qubit.
    """
    if n < 1:
        raise BackendError(f"register size must be >= 1, got {n}")
    if not circuit.is_concrete:
        raise BackendError(
            f"circuit '{circuit.name}' has free variables {circuit.variables}"
        )
    if n > MAX_QUBITS:
        raise BackendError(f"statevector capped at {MAX_QUBITS} qubits, got {n}")
    steps: list = []
    measured: list[int] = []
    for step in circuit.leaves():
        if step.max_qubit() >= n:
            raise BackendError(
                f"circuit '{circuit.name}' touches qubit {step.max_qubit()} "
                f"but the register has {n}"
            )
        if step.name == "Measure":
            if not measure:
                raise BackendError(f"circuit '{circuit.name}' already contains Measure")
            if step.qubits[0] not in measured:
                measured.append(step.qubits[0])
        elif measured and any(q in measured for q in step.qubits):
            raise BackendError(f"gate {step.name} on {step.qubits} after Measure")
        else:
            steps.append(step)
    return steps, measured


def _simulate(
    circuit: CompositeInstruction, n: int, measure: bool = False
) -> tuple[np.ndarray, list[int]]:
    """Evolve |0...0> on n qubits through a circuit ``_plan`` accepts.

    Returns the state tensor and the Measure targets in first-seen order.
    Private so that a simulation is counted once, by whichever public entry
    point ran it.
    """
    steps, measured = _plan(circuit, n, measure)
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    return _run(state, steps), measured


def _run(state: np.ndarray, steps: list) -> np.ndarray:
    """Apply planned steps to a state tensor of shape (2,)*n, which the
    caller gives up: an excitation updates it in place."""
    for step in steps:
        if isinstance(step, ExcitationRotation):
            state = _excite(state, step)
        elif isinstance(step, PauliRotation):
            state = _rotate(state, step)
        else:
            state = _apply_gate(state, step)
    return state


def _rotate(state: np.ndarray, rotation: PauliRotation) -> np.ndarray:
    """exp(-i theta P / 2)|psi> = cos(theta/2)|psi> - i sin(theta/2) P|psi>."""
    half = rotation.angle.value / 2.0
    flat = state.reshape(-1)
    ((_, _, source, odd, phase),) = _strings(rotation.pauli, state.ndim)
    factor = -1j * math.sin(half) * phase
    out = math.cos(half) * flat + np.where(odd, -factor, factor) * flat[source]
    return out.reshape(state.shape)


def _excite(state: np.ndarray, rotation: ExcitationRotation) -> np.ndarray:
    """exp(theta (T - T†))|psi>, in place, as a Givens rotation of each pair
    (a, b) of amplitudes whose occ modes are full and virt modes empty (a)
    and the reverse (b): T maps a's determinant to sigma times b's, so
    a' = c a - s sigma b and b' = c b + s sigma a, with c, s = cos, sin theta
    and sigma the JW sign; every other amplitude is left as it is."""
    theta = rotation.angle.value
    n = state.ndim
    flat = state.reshape(-1)
    sign, parity = rotation.jw_parity()
    occ = _index_bits(sum(1 << q for q in rotation.occ), n)
    virt = _index_bits(sum(1 << q for q in rotation.virt), n)
    # every index with the index modes empty: a 0 is inserted at each of
    # their bits, lowest first, by adding the bits at and above it once more
    rest = np.arange(1 << (n - len(rotation.occ) - len(rotation.virt)))
    fixed = occ | virt
    while fixed:
        low = fixed & -fixed
        rest += rest & -low
        fixed ^= low
    a_index = rest | occ
    b_index = rest | virt
    odd = np.bitwise_count(a_index & _index_bits(parity, n)) & 1
    # s sigma for each pair
    s = np.where(odd, -sign, sign) * math.sin(theta)
    c = math.cos(theta)
    a, b = flat[a_index], flat[b_index]
    flat[a_index] = c * a - s * b
    flat[b_index] = c * b + s * a
    return flat.reshape(state.shape)


def _apply_gate(state: np.ndarray, inst) -> np.ndarray:
    matrix = gate_matrix(inst)
    if len(inst.qubits) == 1:
        q = inst.qubits[0]
        out = np.tensordot(matrix, state, axes=([1], [q]))
        return np.moveaxis(out, 0, q)
    q1, q2 = inst.qubits
    tensor = matrix.reshape(2, 2, 2, 2)
    out = np.tensordot(tensor, state, axes=([2, 3], [q1, q2]))
    return np.moveaxis(out, [0, 1], [q1, q2])


def _marginal_probabilities(state: np.ndarray, measured: tuple[int, ...]) -> np.ndarray:
    probs = np.abs(state) ** 2
    unmeasured = tuple(q for q in range(state.ndim) if q not in measured)
    if unmeasured:
        probs = probs.sum(axis=unmeasured)
    return probs


def _embed_bits(bits: str, measured: tuple[int, ...], n: int) -> str:
    full = ["0"] * n
    for bit, q in zip(bits, measured):
        full[q] = bit
    return "".join(full)


def _weights_to_bitstrings(
    marginal: np.ndarray, measured: tuple[int, ...], n: int
) -> dict[str, float]:
    width = len(measured)
    flat = marginal.reshape(-1)
    out = {}
    for idx in np.flatnonzero(flat > _PROB_CUTOFF):
        bits = format(int(idx), f"0{width}b")
        out[_embed_bits(bits, measured, n)] = float(flat[idx])
    return out


def statevector(circuit: CompositeInstruction, n: int) -> np.ndarray:
    """Amplitudes of circuit|0...0>; index bit order puts qubit 0 first."""
    state, _ = _simulate(circuit, n)
    return state.reshape(-1)


def _check_width(op: PauliOperator, n: int) -> None:
    if op.n_qubits() > n:
        raise BackendError(
            f"operator touches qubit {op.n_qubits() - 1} but the prepared register has {n}"
        )


def _index_bits(qubits: int, n: int) -> int:
    """The amplitude-index mask of a qubit mask on n qubits (bit q set for
    qubit q): qubit q is index bit n-1-q."""
    out = 0
    while qubits:
        low = qubits & -qubits
        out |= 1 << (n - low.bit_length())
        qubits ^= low
    return out


def _strings(op: PauliOperator, n: int):
    """Each ((x, z), c) of ``op.masks()`` as ((x, z), c, source, odd, phase):
    the unit string adds phase (-1)^odd[j] psi[source[j]] to amplitude j, with
    source = j ^ X, odd = popcount(source & Z) & 1 and phase = i^|x&z| (X, Z:
    the index masks of x and z).  A too-wide op raises first."""
    _check_width(op, n)
    index = np.arange(1 << n)
    for (x, z), coefficient in op.masks():
        source = index ^ _index_bits(x, n)
        odd = np.bitwise_count(source & _index_bits(z, n)) & 1
        yield (x, z), coefficient, source, odd, 1j ** ((x & z).bit_count() & 3)


def apply_pauli(op: PauliOperator, state: np.ndarray) -> np.ndarray:
    """op|psi> for 2^n amplitudes, flat or of shape (2,)*n; keeps the shape.

    One gather per distinct X mask.  A string (x, z) with coefficient c
    adds c i^|x&z| (-1)^popcount((j ^ X) & Z) psi[j ^ X] to amplitude j (X,
    Z: the index masks of x and z), so the strings sharing X fold into one
    diagonal D_X[j] = sum c i^|x&z| (-1)^|X&Z| (-1)^popcount(j & Z), and
    op|psi> = sum_X D_X * psi[j ^ X]; the Z-only strings (X = 0) need no
    gather.  Summation order: the groups in the order their X first occurs
    in ``op.masks()``, each D_X summed from zero over its strings in
    ``masks()`` order, each D_X * psi[j ^ X] added to a zero vector.  The
    order depends only on op's value, so equal operators give the same
    vector and -op gives exactly its negation, which lets
    ``PreparedState.expect_commutators`` reuse a vector up to sign.  One
    group at a time: besides the result, the index, its parity table, one
    diagonal and one gathered vector of 2^n are live, never one vector per
    string.  A too-wide op raises first.
    """
    flat = state.reshape(-1)
    n = flat.size.bit_length() - 1
    _check_width(op, n)
    groups: dict[int, list[tuple[int, complex]]] = {}
    for (x, z), coefficient in op.masks():
        # i^|x&z| (-1)^|X&Z| = i^(3|x&z|): X, Z reorder the bits of x, z
        phase = 1j ** (3 * (x & z).bit_count() & 3)
        groups.setdefault(x, []).append((_index_bits(z, n), coefficient * phase))
    index = np.arange(flat.size)
    odd = np.bitwise_count(index) & 1 == 1
    out = np.zeros(flat.size, dtype=complex)
    for x, strings in groups.items():
        diagonal = np.zeros(flat.size, dtype=complex)
        for parity, weight in strings:
            # (-1)^popcount(j & Z) read from the parity of every index
            diagonal += np.where(odd[index & parity], -weight, weight)
        source = _index_bits(x, n)
        if source:
            # XOR the index in place and back: no second index is allocated
            index ^= source
            diagonal *= flat[index]
            index ^= source
        else:
            diagonal *= flat
        out += diagonal
    return out.reshape(state.shape)


def expectation(
    obs: PauliOperator,
    circuit: CompositeInstruction,
    accelerator: StatevectorAccelerator,
) -> float:
    """Real <psi|obs|psi> of a Hermitian observable (see operator_expectation)."""
    if not obs.is_hermitian():
        raise BackendError("expectation requires a Hermitian observable")
    return operator_expectation(obs, circuit, accelerator).real


def operator_expectation(
    op: PauliOperator,
    circuit: CompositeInstruction,
    accelerator: StatevectorAccelerator,
) -> complex:
    """<psi|op|psi> for a general (possibly non-Hermitian) Pauli sum.

    A one-off ``accelerator.prepare(circuit, n).expect(op)`` on the
    smallest register holding both; callers measuring several operators
    on one state prepare it once themselves.
    """
    n = max(circuit.max_qubit() + 1, op.n_qubits(), 1)
    return accelerator.prepare(circuit, n).expect(op)
