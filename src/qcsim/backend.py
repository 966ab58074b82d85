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
(1 + <P>)/2, so k ~ Binomial(shots, (1 + <P>)/2) is drawn with <P> the
``np.vdot`` of the cached vector and P psi, and the string's estimate is
(2k - shots)/shots.  One ``binomial`` call takes every string's draw, in
that order, exactly as one call per string would; ``estimate`` also
returns the standard error sqrt(sum |c|^2 (1 - m^2)/shots) of those
draws.

One compiled form per Pauli sum: ``CompiledPauli(op, n)`` checks the
register (1 to ``MAX_QUBITS`` qubits), the width and the Hermiticity, and
builds each of its two tables on first use: exact application reads
``op.encoded()`` once, sampled draws read ``op.masks()`` once.
``apply_pauli`` and a one-off ``expect`` compile a plain operator on each
call; callers that evaluate one operator on many states hold the compiled
form for as long as they need it (the VQE objective compiles once per
run, ``optim.evaluate_gradient`` once per call, exact ``moments`` once
per call), and no module-level cache exists.  Memory budget, on 2^n
amplitudes with l = n // 2 and h = n - l: the exact table holds
k (16 * 2^h + 8 * 2^l) bytes for an X mask of k strings, and exact
application builds one group's diagonal at a time; the first draw keeps
one gather index per non-zero X mask and one boolean parity row per
string, and each draw gathers psi once into one vector per non-zero X
mask.  No complex vector of 2^n is kept per string or per X mask.

Exact Pauli sums from factored sign tables: ``apply_pauli`` is the one
exact application of a Pauli sum, one matmul and one gather per distinct
X mask and no numpy call per string.  The strings sharing an X mask fold
into one diagonal D_X[j] = sum_s w_s (-1)^popcount(j & Z_s).  Splitting
j = j_hi 2^l + j_lo splits each sign into a sign of j_hi & Z_hi times one
of j_lo & Z_lo, so D_X is the product A_X @ B_X of a 2^h x k complex
table (the weights folded into the high-half signs) and a k x 2^l table
of +-1, reshaped to 2^n; op|psi> = sum_X D_X * psi[j ^ X], and the Z-only
strings need no gather (its docstring states the summation order).
Exact ``expect``, ``moments`` and ``expect_commutators`` go through it.

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
psi <- cos(theta/2) psi - i sin(theta/2) P psi, with theta its one
parameter and P its unit string, whose ``ops`` ``pauli.encode`` turns
into masks (x, z) and phase i^|x&z| (no compiled form is built: one
string costs less so than through ``apply_pauli``'s grouping).  Each
``ir.ExcitationRotation`` exp(theta (T - T†)) touches only the 2^(n-1)
(single) or 2^(n-3) (double) amplitudes whose determinants T or T† map
to each other, and is applied in place as one Givens rotation of those
pairs, with the JW sign of each pair read from the node's (sign,
parity).  Neither rotation's gate lowering is built.  Every other leaf is one gate, one
``_apply_gate``, applied in place (Suzuki et al., Qulacs, Quantum 5, 559
(2021)): the state tensor is reshaped into views of its 2 or 4 blocks,
one per value of the gate's qubits; X, CNOT and Swap swap blocks, and
every other gate combines the blocks with its matrix entries.  Every
qubit mask becomes an amplitude-index mask through one helper,
``_index_bits``.
"""
from __future__ import annotations

import functools
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
    encode,
    expectation_from_counts,
    multiply,
)
from .registry import HeterogeneousMap, as_het_map

MAX_QUBITS = 20
_PROB_CUTOFF = 1e-16
# constants of the exact tables: every half-register index m below 2^h,
# h = MAX_QUBITS - MAX_QUBITS // 2, and its sign (-1)^popcount(m)
_HALF_INDEX = np.arange(1 << (MAX_QUBITS - MAX_QUBITS // 2))
_PARITY_SIGNS = (-1.0) ** np.bitwise_count(_HALF_INDEX)
_HALF_INDEX.flags.writeable = _PARITY_SIGNS.flags.writeable = False


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

    def expect(self, op: "PauliOperator | CompiledPauli") -> complex:
        """<psi|op|psi> for a general (possibly non-Hermitian) Pauli sum,
        plain or compiled for this register."""
        op = _compiled(op, self.n_qubits)
        psi = self._amplitudes
        shots = self.accelerator.config.shots
        if shots == 0:
            return complex(np.vdot(psi, apply_pauli(op, psi)))
        return op.total(op.draw(psi, self.accelerator._rng, shots), shots)

    def estimate(self, op: "PauliOperator | CompiledPauli") -> tuple[complex, float]:
        """``expect``'s value and its standard error, from the same draws.

        The error is sqrt(sum |c|^2 (1 - m^2) / shots) over the non-identity
        strings, m each string's estimate (2k - shots)/shots; it is 0.0 in
        exact mode.  No draw is made beyond those of ``expect``.
        """
        op = _compiled(op, self.n_qubits)
        shots = self.accelerator.config.shots
        if shots == 0:
            return self.expect(op), 0.0
        hits = op.draw(self._amplitudes, self.accelerator._rng, shots)
        return op.total(hits, shots), op.standard_error(hits, shots)

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
            # repeated sparse application of op, compiled once, to the cached vector
            compiled = CompiledPauli(op, self.n_qubits)
            current = self._amplitudes
            for _ in range(highest):
                current = apply_pauli(compiled, current)
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
    _check_register(n)
    if not circuit.is_concrete:
        raise BackendError(
            f"circuit '{circuit.name}' has free variables {circuit.variables}"
        )
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
    """Apply planned steps to a contiguous state tensor of shape (2,)*n,
    which the caller gives up: excitations and gates update it in place."""
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
    source, parity, phase = _string(*encode(rotation.ops), state.ndim)
    index = np.arange(flat.size) ^ source
    odd = np.bitwise_count(index & parity) & 1
    factor = -1j * math.sin(half) * phase
    out = math.cos(half) * flat + np.where(odd, -factor, factor) * flat[index]
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


# gates that only permute amplitudes: the pairs of ``_blocks`` they swap
_SWAPS = {"X": ((0, 1),), "CNOT": ((2, 3),), "Swap": ((1, 2),)}


def _apply_gate(state: np.ndarray, inst) -> np.ndarray:
    """One gate applied in place to a contiguous (2,)*n state tensor.

    Block i of ``_blocks`` becomes sum_j M[i, j] * block j: X, CNOT and Swap
    swap blocks, and every other gate combines copies of its 2 or 4 blocks
    with its non-zero matrix entries.
    """
    blocks = _blocks(state, inst.qubits)
    if inst.name in _SWAPS:
        for i, j in _SWAPS[inst.name]:
            held = blocks[i].copy()
            blocks[i][...] = blocks[j]
            blocks[j][...] = held
        return state
    old = [block.copy() for block in blocks]
    for row, block in zip(gate_matrix(inst).tolist(), blocks):
        (first, source), *rest = [(entry, old[j]) for j, entry in enumerate(row) if entry]
        np.multiply(source, first, out=block)
        for entry, source in rest:
            block += entry * source
    return state


def _blocks(state: np.ndarray, qubits: Sequence[int]) -> list[np.ndarray]:
    """The views of a contiguous (2,)*n state tensor with ``qubits`` fixed,
    one per bit pattern in the order a gate matrix indexes them (the first
    qubit's bit most significant): the tensor is reshaped so that each
    gate qubit is one axis of length 2 between runs of free qubits."""
    if len(qubits) == 1:
        (q,) = qubits
        view = state.reshape(1 << q, 2, -1)
        return [view[:, 0], view[:, 1]]
    first, second = qubits
    low, high = sorted(qubits)
    view = state.reshape(1 << low, 2, 1 << (high - low - 1), 2, -1)
    if first < second:
        return [view[:, a, :, b] for a in (0, 1) for b in (0, 1)]
    return [view[:, b, :, a] for a in (0, 1) for b in (0, 1)]


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


def _check_register(n: int) -> None:
    if n < 1:
        raise BackendError(f"register size must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise BackendError(f"statevector capped at {MAX_QUBITS} qubits, got {n}")


def _qubits(state: np.ndarray) -> int:
    """n for a state of 2^n amplitudes, n >= 1."""
    n = state.size.bit_length() - 1
    if state.size < 2 or state.size != 1 << n:
        raise BackendError(f"a state holds 2^n amplitudes, n >= 1, but this one holds {state.size}")
    return n


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


def _string(x: int, z: int, n: int) -> tuple[int, int, complex]:
    """(X, Z, i^|x&z|): the index masks and phase of the unit string (x, z)
    on n qubits, which adds i^|x&z| (-1)^popcount((j ^ X) & Z) psi[j ^ X]
    to amplitude j."""
    return _index_bits(x, n), _index_bits(z, n), 1j ** ((x & z).bit_count() & 3)


class CompiledPauli:
    """A Pauli sum compiled for an n-qubit register, to evaluate on many states.

    The register (1 to ``MAX_QUBITS`` qubits), the width and the
    Hermiticity are checked here; each table is built on its first use and
    kept.  Exact application (``apply``) reads ``op.encoded()`` once into
    one pair of sign-factor tables per distinct X mask (see
    ``apply_pauli``); sampled draws (``draw``) read ``op.masks()`` once into
    each non-identity string's index masks, phase and coefficient, in
    ``masks()`` order.
    ``apply_pauli`` and a one-off ``PreparedState.expect`` compile a plain
    operator on the fly; a caller that evaluates one operator on many
    states (the VQE objective, one ``evaluate_gradient`` call, exact
    ``moments``) compiles it once and passes this form.  Nothing outlives
    the instance, which lives as long as its caller.

    Memory on 2^n amplitudes, l = n // 2 and h = n - l: exact application
    keeps k (16 * 2^h + 8 * 2^l) bytes for each X mask of k strings, and
    builds one group's diagonal at a time.  The first draw builds and keeps
    one gather index per distinct non-zero X mask and one boolean parity
    row per non-identity string, and each draw gathers one complex vector
    per such X mask.  No complex vector is kept per string.
    """

    def __init__(self, op: PauliOperator, n: int):
        _check_register(n)
        _check_width(op, n)
        self._op = op
        self._n = n
        self._hermitian = op.is_hermitian()
        self.identity = complex(op.identity_coefficient)
        # (X, A_X, B_X) per X mask, built by the first exact application
        self._factors: list[tuple[int, np.ndarray, np.ndarray]] | None = None

    def n_qubits(self) -> int:
        """The register width it was compiled for."""
        return self._n

    def is_hermitian(self) -> bool:
        return self._hermitian

    def _exact_tables(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(X, A_X, B_X) for each distinct X mask, in ascending x, with
        D_X = (A_X @ B_X).reshape(-1): A_X[j_hi, s] = w_s (-1)^|j_hi & Z_hi|
        and B_X[s, j_lo] = (-1)^|j_lo & Z_lo| over the group's strings s in
        ascending z, j = j_hi 2^l + j_lo."""
        n = self._n
        low = n // 2
        index = _HALF_INDEX[: 1 << (n - low)]
        # encoded() is ordered by (x, z): the groups come in ascending x
        groups: dict[int, tuple[list[int], list[int], list[complex]]] = {}
        for (x, z), coefficient in self._op.encoded():
            if x not in groups:
                groups[x] = ([], [], [])
            highs, lows, weights = groups[x]
            parity = _index_bits(z, n)
            highs.append(parity >> low)
            lows.append(parity)
            # i^|x&z| (-1)^|X&Z| = i^(3|x&z|): X, Z reorder the bits of x, z
            weights.append(coefficient * 1j ** (3 * (x & z).bit_count() & 3))
        factors = []
        for x, (highs, lows, weights) in groups.items():
            # rows[j, 0, s] = (-1)^|j & Z_hi| and, for j < 2^l, rows[j, 1, s] = (-1)^|j & Z_lo|
            rows = _PARITY_SIGNS[index[:, None, None] & np.array([highs, lows])]
            high = rows[:, 0] * np.array(weights)
            # a copy, so that the table does not keep rows alive
            factors.append((_index_bits(x, n), high, rows[: 1 << low, 1].T.copy()))
        return factors

    def apply(self, state: np.ndarray) -> np.ndarray:
        """op|psi> for 2^n amplitudes; see ``apply_pauli``."""
        flat = state.reshape(-1)
        if self._factors is None:
            self._factors = self._exact_tables()
        index = np.arange(flat.size)
        # the first group's term is the running sum: no zero vector is made
        out = None
        for source, high, low in self._factors:
            diagonal = (high @ low).reshape(-1)
            if source:
                # XOR the index in place and back: no second index is allocated
                index ^= source
                diagonal *= flat[index]
                index ^= source
            else:
                diagonal *= flat
            if out is None:
                out = diagonal
            else:
                out += diagonal
        if out is None:
            out = np.zeros(flat.size, dtype=complex)
        return out.reshape(state.shape)

    @functools.cached_property
    def _measured(self) -> list[tuple[int, int, complex, complex]]:
        """(X, Z, i^|x&z|, c) of each non-identity string, in ``masks()`` order."""
        return [
            (*_string(x, z, self._n), coefficient)
            for (x, z), coefficient in self._op.masks()
            if x or z
        ]

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """(sources, odd, slots): one row j ^ X per distinct non-zero X, one
        row popcount((j ^ X) & Z) odd per non-identity string, and each
        string's row of sources (-1 for X = 0)."""
        index = np.arange(1 << self._n)
        masks = list(dict.fromkeys(source for source, *_ in self._measured if source))
        slots = [masks.index(source) if source else -1 for source, *_ in self._measured]
        sources = index ^ np.array(masks, dtype=index.dtype)[:, None]
        odd = np.empty((len(self._measured), index.size), dtype=bool)
        for row, (_, parity, _, _), g in zip(odd, self._measured, slots):
            row[...] = np.bitwise_count((index if g < 0 else sources[g]) & parity) & 1
        return sources, odd, slots

    def draw(self, psi: np.ndarray, rng: np.random.Generator, shots: int) -> np.ndarray:
        """Each non-identity string's parity count, in ``masks()`` order.

        ``pauli.observe``'s circuit for P sees parity +1 with probability
        (1 + <P>)/2, so k ~ Binomial(shots, (1 + <P>)/2), with <P> the
        ``np.vdot`` of psi and P psi.  One ``binomial`` call draws every
        string, as one call per string in ``masks()`` order would.  psi is
        gathered once, for every non-zero X mask; the unit string P adds
        i^|x&z| (-1)^odd[j] psi[j ^ X] to amplitude j.
        """
        sources, odd, slots = self._tables
        gathered = psi[sources]
        means = np.array(
            [
                np.vdot(psi, np.where(row, -phase, phase) * (psi if g < 0 else gathered[g])).real
                for (_, _, phase, _), row, g in zip(self._measured, odd, slots)
            ]
        )
        return rng.binomial(shots, np.clip((1 + means) / 2, 0, 1))

    def total(self, hits: np.ndarray, shots: int) -> complex:
        """The identity coefficient plus c (2k - shots)/shots of each string,
        summed in ``masks()`` order in Python complex arithmetic (numpy's
        complex division rounds differently)."""
        total = self.identity
        for (_, _, _, coefficient), k in zip(self._measured, hits.tolist()):
            total += coefficient * (2 * k - shots) / shots
        return total

    def standard_error(self, hits: np.ndarray, shots: int) -> float:
        """sqrt(sum |c|^2 (1 - m^2) / shots), m = (2k - shots)/shots."""
        weights = np.array([abs(coefficient) ** 2 for *_, coefficient in self._measured])
        means = (2 * hits - shots) / shots
        return math.sqrt(float(weights @ (1 - means**2)) / shots)


def _compiled(op: "PauliOperator | CompiledPauli", n: int) -> CompiledPauli:
    """op compiled for n qubits; an already compiled op must be for n."""
    if not isinstance(op, CompiledPauli):
        return CompiledPauli(op, n)
    if op.n_qubits() != n:
        raise BackendError(
            f"operator compiled for {op.n_qubits()} qubits but the register has {n}"
        )
    return op


def compile_observable(obs: PauliOperator, circuit: CompositeInstruction) -> CompiledPauli:
    """obs compiled for the register ``operator_expectation`` measures it
    on after ``circuit`` or any binding of it."""
    return CompiledPauli(obs, _register(obs, circuit))


def _register(op: "PauliOperator | CompiledPauli", circuit: CompositeInstruction) -> int:
    """The smallest register holding both."""
    return max(circuit.max_qubit() + 1, op.n_qubits(), 1)


def apply_pauli(op: "PauliOperator | CompiledPauli", state: np.ndarray) -> np.ndarray:
    """op|psi> for 2^n amplitudes, flat or of shape (2,)*n; keeps the shape.

    op is plain, or compiled for n qubits (``CompiledPauli``).  A state of
    any other size than 2^n, n >= 1, raises before any work, and so does a
    too-wide op.  A string (x, z) with coefficient c adds
    c i^|x&z| (-1)^popcount((j ^ X) & Z) psi[j ^ X] to amplitude j (X, Z:
    the index masks of x and z), so the strings sharing X fold into one
    diagonal D_X[j] = sum_s w_s (-1)^popcount(j & Z_s), with
    w_s = c_s i^|x&z| (-1)^|X&Z| = c_s i^(3|x&z|), and
    op|psi> = sum_X D_X * psi[j ^ X]; the Z-only strings (X = 0) need no
    gather.  With l = n // 2, h = n - l and j = j_hi 2^l + j_lo, each sign
    factors as (-1)^|j_hi & Z_hi| (-1)^|j_lo & Z_lo|, so
    D_X = (A_X @ B_X).reshape(2^n) for A_X[j_hi, s] = w_s (-1)^|j_hi & Z_hi|
    (2^h x k, complex) and B_X[s, j_lo] = (-1)^|j_lo & Z_lo| (k x 2^l, real):
    one matmul and one gather per X mask.

    Summation order: the groups in ascending x, each D_X in the matmul's
    (BLAS) order over its strings in ascending z, each D_X * psi[j ^ X]
    added to the running sum.  The order depends only on op's value
    (``op.encoded()`` sorts the strings), so equal operators give the same
    vector and -op gives exactly its negation, which lets
    ``PreparedState.expect_commutators`` reuse a vector up to sign.

    Memory: the factor tables, k (16 * 2^h + 8 * 2^l) bytes for an X mask
    of k strings, are kept by the compiled form.  One group at a time:
    besides the result, the index, one diagonal and one gathered vector of
    2^n are live, never one vector per string.
    """
    return _compiled(op, _qubits(state)).apply(state)


def expectation(
    obs: "PauliOperator | CompiledPauli",
    circuit: CompositeInstruction,
    accelerator: StatevectorAccelerator,
) -> float:
    """Real <psi|obs|psi> of a Hermitian observable (see operator_expectation);
    a compiled observable's Hermiticity was checked when it was compiled."""
    if not obs.is_hermitian():
        raise BackendError("expectation requires a Hermitian observable")
    return operator_expectation(obs, circuit, accelerator).real


def operator_expectation(
    op: "PauliOperator | CompiledPauli",
    circuit: CompositeInstruction,
    accelerator: StatevectorAccelerator,
) -> complex:
    """<psi|op|psi> for a general (possibly non-Hermitian) Pauli sum.

    A one-off ``accelerator.prepare(circuit, n).expect(op)`` on the
    smallest register holding both (a compiled op's own register); callers
    measuring several operators on one state prepare it once themselves,
    and callers measuring one operator on many states compile it once
    (``compile_observable``).
    """
    return accelerator.prepare(circuit, _register(op, circuit)).expect(op)
