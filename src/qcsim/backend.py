"""Statevector accelerator, qubit-register buffer, and expectation values.

Conventions (single source of truth for the whole framework):
qubit 0 is the leftmost character of every bitstring, the most
significant bit of a statevector amplitude index, and the leftmost
Kronecker factor of ``pauli.to_matrix``.

Prepare once, measure many: ``StatevectorAccelerator.prepare(circuit, n)``
checks a measurement-free circuit against an n-qubit register, simulates
it once in both modes, and returns a ``PreparedState``, the only way an
algorithm reads a state.  Exact mode (``shots == 0``) and sampled mode
differ only inside it, and none of its methods simulates again:
``evolve`` applies a block to the cached vector.  Sampled ``expect``
draws each string's parity count as the ``pauli.observe`` circuit would
see it, with every <P> of one X mask read from the cached vector in one
product with the sign tables (``CompiledPauli.draw``).

Plan once, run with x: one planner, ``_plan``, checks a circuit whole
before any amplitude is touched, and one step loop, ``_run``, applies the
steps it returns; ``statevector``, ``prepare``, ``evolve`` and ``execute``
all go through both.  ``CompiledCircuit(circuit, n)`` keeps the plan of a
symbolic or concrete circuit, to run at many x without binding a tree:
``prepare(compiled, n, x)``; ``CompiledCircuit.shifted`` moves one of its
angles at a time for parameter-shift.  The VQE objective and final
estimate, each ``optim.evaluate_gradient`` call and each ADAPT iteration
plan once.

One compiled form per Pauli sum: ``CompiledPauli(op, n)`` reads an
operator's ``encoded()`` strings once per mode, in one builder, into the
sign tables of each X mask that exact application and sampled draws use;
its docstring states the memory budget.  ``apply_pauli`` and a one-off
``expect`` compile a plain operator on each call; callers that evaluate
one operator on many states (the VQE objective, one ``evaluate_gradient``
call, exact ``moments``) hold the compiled form, and no module-level
cache exists.  Exact application and a draw each take one matmul and one
gather per distinct X mask, no numpy call per string.

Commutators without products: exact ``expect_commutators`` reads
<[L, R]> = <L^dag psi|R psi> - <R^dag psi|L psi> and, given a Hermitian H,
<[L, [H, R]]> from each distinct operator A's one vector A psi and
[H, A] psi = H (A psi) - A (H psi), with H psi formed once, so no
commutator is built and nothing but the Pauli sums is compiled.  An
operator is a Pauli sum or a ``fermion.ExcitationOperator`` T or T†,
applied on its amplitude pairs (``_pairs``), never as its JW image.

One pass per leaf: ``_rotate`` applies a ``PauliRotation`` and
``_excite`` an ``ExcitationRotation`` without building its gate lowering,
and every other leaf is one gate applied in place on views of the state's
2 or 4 blocks (``_apply_gate``; Suzuki et al., Qulacs, Quantum 5, 559
(2021)).  After the X gates that start a plan from |0...0>, excitations
keep the electron number N, and ``_excite`` rotates only N-electron pairs
(Rubin et al., Quantum 5, 568 (2021)).  Every qubit mask becomes an
amplitude-index mask through ``_index_bits``.
"""
from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BackendError
from .fermion import ExcitationOperator
from .ir import (
    CompositeInstruction, ExcitationRotation, PauliRotation, _rotation_matrix, gate_matrix,
    _jw_parity,
)
from .pauli import PauliOperator, PauliTerm, commutator, encode, expectation_from_counts, multiply
from .registry import HeterogeneousMap, as_het_map

MAX_QUBITS = 20
_PROB_CUTOFF = 1e-16
# the most amplitudes of one stack of vectors that exact
# ``expect_commutators`` reads, and applies H to, at once (at least one row)
_STACK_AMPLITUDES = 1 << 12
# constants of the exact tables: every half-register index m below 2^h,
# h = MAX_QUBITS - MAX_QUBITS // 2, and its sign (-1)^popcount(m); and
# (-1)^k for every bit count k of an index
_HALF_INDEX = np.arange(1 << (MAX_QUBITS - MAX_QUBITS // 2))
_PARITY_SIGNS = (-1.0) ** np.bitwise_count(_HALF_INDEX)
_COUNT_SIGNS = (-1.0) ** np.arange(MAX_QUBITS + 1)
_HALF_INDEX.flags.writeable = _PARITY_SIGNS.flags.writeable = _COUNT_SIGNS.flags.writeable = False


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

    option_kinds = {"shots": "int", "seed": "int"}

    def __init__(self):
        self.config = AcceleratorConfig()
        self._rng = np.random.default_rng()

    def name(self) -> str:
        return "statevector"

    def initialize(
        self, options: "HeterogeneousMap | dict | None" = None
    ) -> "StatevectorAccelerator":
        options = as_het_map(options)
        options.read_declared(self.option_kinds, "statevector", BackendError)
        config = AcceleratorConfig(
            shots=options.get_or("shots", "int", 0), seed=options.get_or("seed", "int", None)
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
        results = [self._execute_one(buffer, circuit) for circuit in circuits]
        buffer.executions.extend(results)
        return results

    def _execute_one(
        self, buffer: AcceleratorBuffer, circuit: CompositeInstruction
    ) -> ExecutionResult:
        n = buffer.size
        steps, measured = _plan(circuit, n, measure=True, from_zero=True)
        state = _run(_zero_state(n), steps)
        measured = tuple(sorted(measured or range(n)))
        unmeasured = tuple(q for q in range(n) if q not in measured)
        flat = (np.abs(state) ** 2).sum(axis=unmeasured).reshape(-1)
        result = ExecutionResult(circuit.name, measured_qubits=measured)
        if self.config.shots == 0:
            result.probabilities = {
                _bitstring(int(idx), measured, n): float(flat[idx])
                for idx in np.flatnonzero(flat > _PROB_CUTOFF)
            }
        else:
            hits = self._rng.multinomial(self.config.shots, flat / flat.sum())
            result.counts = {
                _bitstring(int(idx), measured, n): int(hits[idx]) for idx in np.flatnonzero(hits)
            }
        return result

    def execute_and_reduce(
        self, circuit: CompositeInstruction, term: PauliTerm, n_qubits: int
    ) -> float:
        """Run one measured circuit and return the term's parity average."""
        scratch = AcceleratorBuffer(n_qubits)
        result = self._execute_one(scratch, circuit)
        return expectation_from_counts(PauliTerm(term.ops, 1.0), result.outcomes)

    def prepare(
        self,
        circuit: "CompositeInstruction | CompiledCircuit",
        n_qubits: int,
        values: Sequence[float] = (),
    ) -> "PreparedState":
        """The state circuit|0...0> on n_qubits, ready for many ``expect`` calls.

        A plain circuit is simulated through ``statevector``; a compiled one,
        planned for n_qubits, is run with x = ``values``.  Rejects a plain
        circuit with free variables or values, a measured circuit, one wider
        than the register, a register under 1 or over MAX_QUBITS qubits and
        an x of the wrong length before simulating or drawing.
        """
        if isinstance(circuit, CompiledCircuit):
            if circuit.n_qubits() != n_qubits:
                raise BackendError(
                    f"circuit compiled for {circuit.n_qubits()} qubits but the register has {n_qubits}"
                )
            return PreparedState(self, circuit.run(values))
        if len(values):
            raise BackendError(f"circuit '{circuit.name}' is not compiled: bind it to values first")
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
        self,
        lefts: "Sequence[PauliOperator | ExcitationOperator]",
        rights: "Sequence[PauliOperator | ExcitationOperator]",
        observable: "PauliOperator | CompiledPauli | None" = None,
    ) -> tuple[np.ndarray, "np.ndarray | None"]:
        """(P, D): the matrices of <psi|[L_i, R_j]|psi> and, for a Hermitian
        ``observable`` H, plain or compiled for this register, of
        <psi|[L_i, [H, R_j]]|psi>; D is None without H.  Each operator is a
        Pauli sum or a ``fermion.ExcitationOperator``.

        Every operator's width and H's Hermiticity are checked before any
        vector or draw.  Exact mode holds the kept left vectors (the
        distinct L_i psi and L_i^dag psi), the application of each distinct
        operator (an excitation's amplitude pairs) and one stack of at most
        max(2^n, 2^12) amplitudes of the vectors the rights read, with H
        applied to it.  Sampled mode measures an excitation as its JW
        image, forms [H, R_j] once per right and draws all of D, then all
        of P, each in the order of i, then j.
        """
        n = self.n_qubits
        for op in (*lefts, *rights):
            _check_width(op, n)
        if observable is not None:
            observable = _compiled(observable, n)
            if not observable.is_hermitian():
                raise BackendError("commutators with an observable need a Hermitian one")
        if self.accelerator.config.shots:
            lefts, rights = (
                [op.image() if isinstance(op, ExcitationOperator) else op for op in side]
                for side in (lefts, rights)
            )
            sides = [] if observable is None else [[commutator(observable._op, b) for b in rights]]
            *d, p = (
                np.array([[self.expect(commutator(a, b)) for b in side] for a in lefts], dtype=complex)
                .reshape(len(lefts), len(rights))
                for side in sides + [rights]
            )
            return p, (d[0] if d else None)
        # <[L, C]> = <L^dag psi|C psi> - <C^dag psi|L psi>, with C = R, or
        # C = [H, R] and C^dag = -[H, R^dag]; every operator equal, up to
        # sign, to one already met is read from that one's slot, whose
        # application (an excitation's pairs, shared by T and T†) is made once
        pairs = functools.cache(_pairs)
        appliers: list[Callable[[np.ndarray], np.ndarray]] = []
        slots: dict[tuple, tuple[int, float]] = {}

        def signed(ops: Sequence, adjoint: bool = False) -> tuple[list, np.ndarray]:
            """(s, sign) of each op, or its adjoint: that psi is sign * appliers[s](psi)."""
            found = []
            for op in ops:
                if isinstance(op, ExcitationOperator):
                    key, sign = (op.occ, op.virt, op.adjoint != adjoint), 1.0
                else:
                    key, sign = op.up_to_sign(adjoint)
                s, owner_sign = slots.setdefault(key, (len(appliers), sign))
                if s == len(appliers):
                    appliers.append(_applier(op.dagger() if adjoint else op, n, pairs))
                found.append((s, sign * owner_sign))
            return [s for s, _ in found], np.array([sign for _, sign in found])

        ket_rows, ket_signs = signed(lefts)
        bra_rows, bra_signs = signed(lefts, adjoint=True)
        psi = self._amplitudes
        # the lefts' vectors, slots 0..len(kept)-1, live through the call
        kept = np.empty((len(appliers), psi.size), dtype=complex)
        for row, apply in zip(kept, appliers):
            row[...] = apply(psi)
        right_rows, right_signs = signed(rights)
        adjoint_rows, adjoint_signs = signed(rights, adjoint=True)
        h_psi = None if observable is None else apply_pauli(observable, psi)
        # column s: conj(<kept row|A_s psi>) and, given H, that of H (A_s psi) -
        # A_s (H psi), for the slots the rights read, one stack of their A_s psi
        # (a kept slot's its row) at a time, each dropped before the next; a
        # run of kept slots is read in place, never written through, since
        # H's application makes a new stack
        read = sorted(set(right_rows + adjoint_rows))
        chunk = max(1, _STACK_AMPLITUDES >> n)
        tables = np.empty((1 if observable is None else 2, len(kept), len(appliers)), dtype=complex)
        for start in range(0, len(read), chunk):
            group = read[start : start + chunk]
            if group[-1] < len(kept) and group[-1] - group[0] == len(group) - 1:
                stack = kept[group[0] : group[-1] + 1]
            else:
                stack = np.array([kept[s] if s < len(kept) else appliers[s](psi) for s in group])
            tables[0][:, group] = kept @ stack.conj().T
            if h_psi is not None:
                stack = observable.apply(stack)
                for k, s in enumerate(group):
                    stack[k] -= appliers[s](h_psi)
                tables[1][:, group] = kept @ stack.conj().T
            del stack
        p, *d = (
            bra_signs[:, None] * right_signs * table[bra_rows][:, right_rows].conj()
            - flip * ket_signs[:, None] * adjoint_signs * table[ket_rows][:, adjoint_rows]
            for table, flip in zip(tables, (1.0, -1.0))
        )
        return p, (d[0] if d else None)

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
    circuit: CompositeInstruction,
    n: int,
    variables: Sequence[str] = (),
    measure: bool = False,
    from_zero: bool = False,
) -> tuple[list, list[int]]:
    """The steps of a circuit checked whole on an n-qubit register, and its
    Measure targets in first-seen order.

    One walk of the tree, before anything is simulated or drawn, checks the
    register size, the variables (each one of ``variables``, the order of
    x), the width and Measure: rejected unless ``measure``, and then no
    gate may follow one on its qubit.  A step is (kernel, data, source):
    ``_run`` applies kernel(state, data, angle), the angle being source, a
    constant (None for a fixed gate), or scale * x[i] for source (i, scale).
    A gate's data is (name, qubits, entries), the entries of a fixed gate
    other than X, CNOT and Swap its non-zero matrix entries, made here once.

    An excitation's data is (leaf, pairs), pairs None to build all as it runs
    (``_pairs``).  From |0...0> (``from_zero``), X gates make N >= 1
    electrons, which the excitations that follow keep until any other leaf
    (Measure aside).  Their pairs, the N-electron ones, are built for all of
    them in one pass (``_sector_pairs``) and held while they number at most
    2^n, else each step holds the indices to build its own on as it runs;
    they serve only N-electron states: an adjoint sweep's H psi if H keeps N.
    """
    _check_register(n)
    index = {var: i for i, var in enumerate(variables)}
    free = [var for var in circuit.variables if var not in index]
    if free:
        raise BackendError(f"circuit '{circuit.name}' has free variables {free}")
    steps: list = []
    measured: list[int] = []
    ones, sector, holds = 0, [], from_zero
    for leaf in circuit.leaves():
        if leaf.max_qubit() >= n:
            raise BackendError(
                f"circuit '{circuit.name}' touches qubit {leaf.max_qubit()} "
                f"but the register has {n}"
            )
        if leaf.name == "Measure":
            if not measure:
                raise BackendError(f"circuit '{circuit.name}' already contains Measure")
            if leaf.qubits[0] not in measured:
                measured.append(leaf.qubits[0])
            continue
        if measured and any(q in measured for q in leaf.qubits):
            raise BackendError(f"gate {leaf.name} on {leaf.qubits} after Measure")
        if holds and leaf.name == "X" and not sector:
            ones ^= 1 << leaf.qubits[0]
        elif holds and isinstance(leaf, ExcitationRotation) and len(leaf.occ) == len(leaf.virt):
            sector.append(len(steps))
        else:
            holds = False
        if isinstance(leaf, ExcitationRotation):
            kernel, data = _excite, (leaf, None)
        elif isinstance(leaf, PauliRotation):
            kernel, data = _rotate, leaf
        else:
            fixed = not leaf.parameters and leaf.name not in _SWAPS
            entries = _entries(gate_matrix(leaf)) if fixed else None
            kernel, data = _apply_gate, (leaf.name, leaf.qubits, entries)
        source = None
        if leaf.parameters:
            (angle,) = leaf.parameters
            source = (index[angle.var], angle.scale) if angle.is_symbolic else angle.value
        steps.append((kernel, data, source))
    if sector and ones:
        leaves = [steps[k][1][0] for k in sector]
        # for each rank r, the indices of the other n - 2r modes with N - r ones
        rests = {r: np.arange(1 << n - 2 * r) for r in {len(leaf.occ) for leaf in leaves}}
        rests = {r: x[np.bitwise_count(x) == ones.bit_count() - r] for r, x in rests.items()}
        count = sum(len(rests[len(leaf.occ)]) for leaf in leaves)
        held = _sector_pairs(leaves, n, rests) if count <= 1 << n else [rests] * len(leaves)
        for k, leaf, pairs in zip(sector, leaves, held):
            steps[k] = (_excite, (leaf, pairs), steps[k][2])
    return steps, measured


def _zero_state(n: int) -> np.ndarray:
    """|0...0> as a (2,)*n tensor."""
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    return state


def _run(state: np.ndarray, steps: list, values: Sequence[float] = ()) -> np.ndarray:
    """Apply planned steps, their angles bound to x = ``values`` as
    ``Parameter.evaluate`` binds them, to a contiguous state tensor of
    shape (2,)*n, which the caller gives up: the kernels update it in place."""
    for kernel, data, source in steps:
        angle = source[1] * values[source[0]] if isinstance(source, tuple) else source
        state = kernel(state, data, angle)
    return state


def _rotate(state: np.ndarray, rotation: PauliRotation, theta: float) -> np.ndarray:
    """exp(-i theta P / 2)|psi> = cos(theta/2)|psi> - i sin(theta/2) P|psi>."""
    half = theta / 2.0
    flat = state.reshape(-1)
    # P adds i^|x&z| (-1)^popcount((j ^ X) & Z) psi[j ^ X] to amplitude j
    x, z = encode(rotation.ops)
    source, parity = _index_bits(x, state.ndim), _index_bits(z, state.ndim)
    phase = 1j ** ((x & z).bit_count() & 3)
    index = np.arange(flat.size) ^ source
    odd = np.bitwise_count(index & parity) & 1
    factor = -1j * math.sin(half) * phase
    out = math.cos(half) * flat + np.where(odd, -factor, factor) * flat[index]
    return out.reshape(state.shape)


def _pairs(occ: tuple[int, ...], virt: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ab, sigma) of the excitation T = a†_virt... a_occ... on n qubits:
    ab[:m] holds the index a of each of the m amplitudes whose occ modes are
    full and virt modes empty, ab[m:] the index b of the same determinant
    with occ empty and virt full, and the float64 sigma the JW sign of each pair
    (``ir._jw_parity``): T|a> = sigma |b>.  Every reader of an excitation's
    pairs, these or ``_sector_pairs``', reads this form."""
    sign, parity = _jw_parity(occ, virt)
    occ_bits = _index_bits(sum(1 << q for q in occ), n)
    virt_bits = _index_bits(sum(1 << q for q in virt), n)
    # every index with the index modes empty: a 0 is inserted at each of
    # their bits, lowest first, by adding the bits at and above it once more
    rest = np.arange(1 << (n - len(occ) - len(virt)))
    fixed = occ_bits | virt_bits
    while fixed:
        low = fixed & -fixed
        rest += rest & -low
        fixed ^= low
    sigma = _COUNT_SIGNS[np.bitwise_count(rest & _index_bits(parity, n))] * sign
    return np.concatenate((rest | occ_bits, rest | virt_bits)), sigma


def _sector_pairs(leaves: Sequence[ExcitationRotation], n: int, rests: dict) -> list:
    """``_pairs`` of each leaf restricted to the determinants whose other
    modes are one of ``rests[r]``, r the leaf's rank (modes per side).

    One pass reads the tables of all leaves, taken in order of rank: one
    ``_jw_parity`` call on the mirrored modes n-1-q, which are index bit
    positions, each leaf's occ and virt padded to the top rank with mode -1
    (bit n).  Mirroring keeps the sign, since r modes with i inversions get
    C(r, 2) - i, and turns the parity into an index mask, since the XOR of
    2r below-masks changes by the index bits alone; a pad in occ and one in
    virt add no inversion and cancel in the XOR.  Then one 2-D pass per rank,
    over its leaves and rests, inserts the index bits and reads the signs.
    """
    order = sorted(range(len(leaves)), key=lambda k: len(leaves[k].occ))
    ranks = [len(leaves[k].occ) for k in order]
    top = ranks[-1]
    fills = [(-1,) * (top - r) for r in range(top + 1)]
    modes = (n - 1) - np.array(
        [leaves[k].occ + fills[r] + leaves[k].virt + fills[r] for k, r in zip(order, ranks)]
    ).T
    sign, parity = _jw_parity(modes[:top], modes[top:])
    # each leaf's sign and parity mask as a column (the sign is a scalar
    # when every leaf has one mode per side)
    sign, parity = np.full(parity.shape, sign)[:, None], parity[:, None]
    # column k: its index bits, a pad's cut to 0, negated, lowest first
    # (pads first); row k: its occ bits and its virt bits
    bits = (1 << modes) & ((1 << n) - 1)
    lows = -np.sort(bits, axis=0)[:, :, None]
    adds = bits.reshape(2, top, -1).sum(1).T[:, :, None]
    built: list = []
    for r, group in itertools.groupby(ranks):
        ks = slice(len(built), len(built) + len(list(group)))
        # as in ``_pairs``: a 0 inserted at each index bit, lowest first
        low, *higher = lows[2 * (top - r) :, ks]
        rest = rests[r] + (rests[r] & low)
        for low in higher:
            rest += rest & low
        sigma = _COUNT_SIGNS[np.bitwise_count(rest & parity[ks])] * sign[ks]
        built.extend(zip((rest[:, None] | adds[ks]).reshape(len(sigma), -1), sigma))
    held = [None] * len(leaves)
    for k, pairs in zip(order, built):
        held[k] = pairs
    return held


def _excite(state: np.ndarray, step: tuple, theta: float) -> np.ndarray:
    """exp(theta (T - T†))|psi>, in place, as a Givens rotation of each pair
    (a, b) of ``_pairs``: T maps a's determinant to sigma times b's, so
    a' = c a - s sigma b and b' = c b + s sigma a, with c, s = cos, sin
    theta; every other amplitude is left as it is.  One gather reads the
    pairs' amplitudes and one scatter writes them back.  ``step``: see
    ``_plan``."""
    flat = state.reshape(-1)
    rotation, pairs = step
    if pairs is None:
        pairs = _pairs(rotation.occ, rotation.virt, state.ndim)
    elif not isinstance(pairs, tuple):
        (pairs,) = _sector_pairs([rotation], state.ndim, pairs)
    ab, sigma = pairs
    s = sigma * math.sin(theta)
    old = flat[ab]
    new = math.cos(theta) * old
    m = sigma.size
    new[:m] -= s * old[m:]
    new[m:] += s * old[:m]
    flat[ab] = new
    return state


def _applier(
    op: "PauliOperator | ExcitationOperator", n: int, pairs: Callable
) -> Callable[[np.ndarray], np.ndarray]:
    """psi -> op|psi> on 2^n flat amplitudes.  A Pauli sum is applied by
    ``apply_pauli``, which compiles it on each application; an excitation T
    moves sigma psi[a] to b, and T† sigma psi[b] to a, over the pairs
    (ab, sigma) that ``pairs`` (``_pairs`` or a cache of it) gives, and
    every other amplitude becomes 0."""
    if not isinstance(op, ExcitationOperator):
        return functools.partial(apply_pauli, op)
    ab, sigma = pairs(op.occ, op.virt, n)
    source, target = ab[: sigma.size], ab[sigma.size :]
    if op.adjoint:
        source, target = target, source

    def apply(psi: np.ndarray) -> np.ndarray:
        out = np.zeros(psi.size, dtype=complex)
        out[target] = sigma * psi[source]
        return out

    return apply


# gates that only permute amplitudes: the pairs of ``_blocks`` they swap
_SWAPS = {"X": ((0, 1),), "CNOT": ((2, 3),), "Swap": ((1, 2),)}


def _apply_gate(state: np.ndarray, gate: tuple, angle: float | None) -> np.ndarray:
    """One planned gate (name, qubits, entries) applied in place to a
    contiguous (2,)*n state tensor.

    Block i of ``_blocks`` becomes sum_j M[i, j] * block j: X, CNOT and Swap
    swap blocks, and every other gate combines copies of its 2 or 4 blocks
    with its non-zero matrix entries: a fixed gate's planned ``entries``, or
    those of Rx, Ry or Rz at ``angle``.
    """
    name, qubits, entries = gate
    blocks = _blocks(state, qubits)
    if name in _SWAPS:
        for i, j in _SWAPS[name]:
            held = blocks[i].copy()
            blocks[i][...] = blocks[j]
            blocks[j][...] = held
        return state
    old = [block.copy() for block in blocks]
    for row, block in zip(entries or _entries(_rotation_matrix(name, angle)), blocks):
        (j, first), *rest = row
        np.multiply(old[j], first, out=block)
        for j, entry in rest:
            block += entry * old[j]
    return state


def _entries(matrix: np.ndarray) -> list[list[tuple[int, complex]]]:
    """The non-zero entries (j, M[i, j]) of each row i of a gate matrix."""
    return [[(j, entry) for j, entry in enumerate(row) if entry] for row in matrix.tolist()]


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


def _bitstring(index: int, measured: tuple[int, ...], n: int) -> str:
    """The n-qubit bitstring of an index of the measured qubits' marginal,
    with 0 on every other qubit."""
    full = ["0"] * n
    for bit, q in zip(format(index, f"0{len(measured)}b"), measured):
        full[q] = bit
    return "".join(full)


def statevector(circuit: CompositeInstruction, n: int) -> np.ndarray:
    """Amplitudes of circuit|0...0>; index bit order puts qubit 0 first."""
    steps, _ = _plan(circuit, n, from_zero=True)
    return _run(_zero_state(n), steps).reshape(-1)


class CompiledCircuit:
    """A symbolic or concrete circuit planned once for an n-qubit register.

    Each step keeps its kernel, its fixed data (a fixed gate's non-zero
    matrix entries) and its angle source, a constant or (variable index,
    scale).  ``run(x)`` takes each angle as scale * x[i], the float
    operation of ``Parameter.evaluate``, so its amplitudes are those of
    ``statevector(evaluate(circuit, x), n)`` bit for bit, and builds no
    ``Parameter``, tree or fixed gate's matrix.

    Memory: the excitation steps of an N-electron sector (``_plan``) hold
    24 bytes per amplitude pair (two int64 indices in its index row ab and
    one float64 sign), or, past 2^n pairs, share C(n - 2r, N - r) 8-byte
    indices per rank r.
    """

    def __init__(self, circuit: CompositeInstruction, n: int):
        self.name = circuit.name
        self.variables = tuple(circuit.variables)
        self._n = n
        self._steps, _ = _plan(circuit, n, self.variables, from_zero=True)

    def n_qubits(self) -> int:
        """The register width it was planned for."""
        return self._n

    def run(self, values: Sequence[float] = ()) -> np.ndarray:
        """The flat amplitudes of circuit(x)|0...0>, x = ``values``; an x of
        the wrong length raises before any amplitude is made."""
        values = [float(v) for v in values]
        if len(values) != len(self.variables):
            raise BackendError(
                f"circuit '{self.name}' has {len(self.variables)} variable(s) "
                f"{list(self.variables)}, got {len(values)} value(s)"
            )
        return _run(_zero_state(self._n), self._steps, values).reshape(-1)

    def shifted(self, x: Sequence[float], delta: float) -> Iterator[tuple]:
        """(i, scale, plan) for each angle scale * x[i] the plan reads, in
        step order: this plan, not planned again, with that angle moved by
        ``delta``.  A gate or ``PauliRotation`` step gets the constant
        scale * x[i] + delta.  An ``ExcitationRotation`` is the product of
        its commuting rotations R_{P_k}(s_k theta) (``rotations()``), so its
        step stays and one R_{P_k} step at the constant delta follows it for
        each k, at scale s_k (as everywhere, the step's source is its angle).
        R_{P_k} breaks N, so the excitation steps after it build all pairs.
        """
        dense = [(f, (d[0], None), a) if f is _excite else (f, d, a) for f, d, a in self._steps]
        for k, (kernel, data, source) in enumerate(self._steps):
            if not isinstance(source, tuple):
                continue
            i, scale = source
            if kernel is _excite:
                for ops, angle in data[0].rotations():
                    fixed = (_rotate, PauliRotation(ops, (angle,)), delta)
                    yield i, angle.scale, self._spliced(k, [self._steps[k], fixed], dense)
            else:
                yield i, scale, self._spliced(k, [(kernel, data, scale * float(x[i]) + delta)])

    def _spliced(self, k: int, steps: list, later: "list | None" = None) -> "CompiledCircuit":
        plan = copy.copy(self)
        plan._steps = self._steps[:k] + steps + (later or self._steps)[k + 1 :]
        return plan


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


class CompiledPauli:
    """A Pauli sum compiled for an n-qubit register, to evaluate on many states.

    The register (1 to ``MAX_QUBITS`` qubits), the width and the
    Hermiticity are checked here.  One builder, ``_factors``, reads
    ``op.encoded()`` once per mode into one pair of sign-factor tables per
    distinct X mask (see ``apply_pauli``): exact application (``apply``)
    weights each string by its coefficient, and sampled draws (``draw``)
    read the same signs unweighted, without the identity string.  Each
    mode's tables are built on its first use and kept; nothing outlives
    the instance.

    Memory on 2^n amplitudes, l = n // 2 and h = n - l: each mode keeps
    k (16 * 2^h + 8 * 2^l) bytes of tables for each X mask of k strings.
    Exact application builds one group's diagonal at a time, so besides
    the result the index, one diagonal of 2^n and one gathered term the
    size of the input (a vector, or a stack of k vectors) are live; a draw
    holds conj(psi), the index and one product vector of 2^n at a time.
    Nothing of 2^n is kept per string or per X mask.
    """

    def __init__(self, op: PauliOperator, n: int):
        _check_register(n)
        _check_width(op, n)
        self._op = op
        self._n = n
        self._hermitian = op.is_hermitian()
        self.identity = complex(op.identity_coefficient)
        # weighted -> ``_factors(weighted)``, built by its first use
        self._tables: dict[bool, tuple[list, list[complex]]] = {}

    def n_qubits(self) -> int:
        """The register width it was compiled for."""
        return self._n

    def is_hermitian(self) -> bool:
        return self._hermitian

    def _factors(self, weighted: bool) -> tuple[list, list[complex]]:
        """(X, A_X, B_X) for each distinct X mask, in ascending x, and the
        coefficients of the strings the tables hold, in ``encoded()`` order.

        A_X[j_hi, s] = w_s (-1)^|j_hi & Z_hi| and B_X[s, j_lo] =
        (-1)^|j_lo & Z_lo| over the group's strings s in ascending z,
        j = j_hi 2^l + j_lo.  Weighted, for ``apply``: w_s = c_s i^(3|x&z|),
        so D_X = (A_X @ B_X).reshape(-1).  Unweighted, for ``draw``:
        w_s = i^(3|x&z|), and the identity string is left out.
        """
        if weighted in self._tables:
            return self._tables[weighted]
        n = self._n
        low = n // 2
        index = _HALF_INDEX[: 1 << (n - low)]
        # encoded() is ordered by (x, z): the groups come in ascending x
        groups: dict[int, tuple[list[int], list[int], list[complex]]] = {}
        coefficients = []
        for (x, z), coefficient in self._op.encoded():
            if not (weighted or x or z):
                continue
            if x not in groups:
                groups[x] = ([], [], [])
            highs, lows, weights = groups[x]
            parity = _index_bits(z, n)
            highs.append(parity >> low)
            lows.append(parity)
            # i^|x&z| (-1)^|X&Z| = i^(3|x&z|): X, Z reorder the bits of x, z
            phase = 1j ** (3 * (x & z).bit_count() & 3)
            weights.append(coefficient * phase if weighted else phase)
            coefficients.append(coefficient)
        factors = []
        for x, (highs, lows, weights) in groups.items():
            # rows[j, 0, s] = (-1)^|j & Z_hi| and, for j < 2^l, rows[j, 1, s] = (-1)^|j & Z_lo|
            rows = _PARITY_SIGNS[index[:, None, None] & np.array([highs, lows])]
            high = rows[:, 0] * np.array(weights)
            # a copy, so that the table does not keep rows alive
            factors.append((_index_bits(x, n), high, rows[: 1 << low, 1].T.copy()))
        self._tables[weighted] = factors, coefficients
        return factors, coefficients

    def apply(self, state: np.ndarray) -> np.ndarray:
        """op|psi> for 2^n amplitudes, or for each row of a (k, 2^n) stack,
        bit for bit as one row at a time; see ``apply_pauli``."""
        rows = state.reshape(-1, 1 << self._n)
        factors, _ = self._factors(weighted=True)
        index = np.arange(rows.shape[1])
        # the first group's term is the running sum: no zero stack is made
        out = None
        for source, high, low in factors:
            diagonal = (high @ low).reshape(-1)
            if source:
                # XOR the index in place and back: no second index is allocated
                index ^= source
                term = rows.take(index, axis=1)
                index ^= source
                np.multiply(diagonal, term, out=term)
            else:
                term = diagonal * rows
            if out is None:
                out = term
            else:
                out += term
            # freed before the next group's: one term of the state's size at a time
            del diagonal, term
        if out is None:
            out = np.zeros(rows.shape, dtype=complex)
        return out.reshape(state.shape)

    def draw(self, psi: np.ndarray, rng: np.random.Generator, shots: int) -> np.ndarray:
        """Each non-identity string's parity count, in ``encoded()`` order.

        ``pauli.observe``'s circuit for P sees parity +1 with probability
        (1 + <P>)/2, so k ~ Binomial(shots, (1 + <P>)/2).  One ``binomial``
        call, if any string is left, draws every string, as one call per
        string would.  <P_s> = sum_j v[j] A_X[j_hi, s] B_X[s, j_lo] for the
        product v[j] = conj(psi[j]) psi[j ^ X] of its X mask.
        """
        factors, _ = self._factors(weighted=False)
        if not factors:
            return np.zeros(0, dtype=np.int64)
        bra = psi.conj()
        index = None
        means = []
        for source, high, low in factors:
            if source:
                if index is None:
                    index = np.arange(psi.size)
                # XOR the index in place and back, as ``apply`` does
                index ^= source
                product = psi[index]
                index ^= source
                product *= bra
            else:
                product = bra * psi
            means.append(((product.reshape(len(high), -1) @ low.T) * high).sum(0).real)
        # the method skips the ~1.4 us wrapper of np.clip, a tenth of a small draw
        return rng.binomial(shots, ((1 + np.concatenate(means)) / 2).clip(0, 1))

    def total(self, hits: np.ndarray, shots: int) -> complex:
        """The identity coefficient plus c (2k - shots)/shots of each string,
        summed in ``encoded()`` order in Python complex arithmetic (numpy's
        complex division rounds differently)."""
        _, coefficients = self._factors(weighted=False)
        total = self.identity
        for coefficient, k in zip(coefficients, hits.tolist()):
            total += coefficient * (2 * k - shots) / shots
        return total

    def standard_error(self, hits: np.ndarray, shots: int) -> float:
        """sqrt(sum |c|^2 (1 - m^2) / shots), m = (2k - shots)/shots."""
        _, coefficients = self._factors(weighted=False)
        weights = np.array([abs(coefficient) ** 2 for coefficient in coefficients])
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


def _register(op, circuit: "CompositeInstruction | CompiledCircuit") -> int:
    """A compiled circuit's register, or the smallest one holding both."""
    if isinstance(circuit, CompiledCircuit):
        return circuit.n_qubits()
    return max(circuit.max_qubit() + 1, op.n_qubits(), 1)


def apply_pauli(op: "PauliOperator | CompiledPauli", state: np.ndarray) -> np.ndarray:
    """op|psi> for 2^n amplitudes, flat or of shape (2,)*n; keeps the shape.

    op is plain, or compiled for n qubits (``CompiledPauli``).  A state of
    any other size than 2^n, n >= 1, raises before any work, and so does a
    too-wide op.  A string (x, z) with coefficient c adds
    c i^|x&z| (-1)^popcount((j ^ X) & Z) psi[j ^ X] to amplitude j (X, Z:
    the index masks of x and z), so the strings sharing X fold into one
    diagonal D_X[j] = sum_s c_s i^(3|x&z|) (-1)^popcount(j & Z_s), and
    op|psi> = sum_X D_X * psi[j ^ X]; the Z-only strings need no gather.
    With l = n // 2 and j = j_hi 2^l + j_lo each sign factors into one of
    j_hi & Z_hi and one of j_lo & Z_lo, so D_X is one matmul of a complex
    2^h x k and a real k x 2^l table (``CompiledPauli._factors``).

    Summation order: the groups in ascending x, each D_X in the matmul's
    (BLAS) order over its strings in ascending z, each D_X * psi[j ^ X]
    added to the running sum.  The order depends only on op's value
    (``op.encoded()`` sorts the strings), so equal operators give the same
    vector and -op gives exactly its negation, which lets
    ``PreparedState.expect_commutators`` reuse a vector up to sign.
    ``CompiledPauli`` states the memory budget.
    """
    return _compiled(op, _qubits(state)).apply(state)


def expectation(
    obs: "PauliOperator | CompiledPauli",
    circuit: "CompositeInstruction | CompiledCircuit",
    accelerator: StatevectorAccelerator,
    values: Sequence[float] = (),
) -> float:
    """Real <psi|obs|psi> of a Hermitian observable (see operator_expectation);
    a compiled observable's Hermiticity was checked when it was compiled."""
    if not obs.is_hermitian():
        raise BackendError("expectation requires a Hermitian observable")
    return operator_expectation(obs, circuit, accelerator, values).real


def operator_expectation(
    op: "PauliOperator | CompiledPauli",
    circuit: "CompositeInstruction | CompiledCircuit",
    accelerator: StatevectorAccelerator,
    values: Sequence[float] = (),
) -> complex:
    """<psi|op|psi> for a general (possibly non-Hermitian) Pauli sum.

    A one-off ``accelerator.prepare(circuit, n, values).expect(op)`` on a
    compiled circuit's register or the smallest one holding both; callers
    measuring one operator on many states compile both once
    (``compile_observable``, ``CompiledCircuit``).
    """
    return accelerator.prepare(circuit, _register(op, circuit), values).expect(op)
