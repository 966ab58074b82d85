"""Exact oracle, written without ``qcsim.backend`` or ``qcsim.pauli``.

It parses ``.ham`` text itself, applies Pauli strings to basis states by
bit arithmetic, diagonalizes inside a fixed particle-number (N) and Sz
sector, and simulates concrete qcsim circuits with its own gate kernels.
Bit order matches qcsim: qubit 0 is the most significant bit of an
amplitude index; alpha modes are qubits 0..L-1 and beta modes L..2L-1.
"""
from __future__ import annotations

import math

import numpy as np

# one (coefficient, [(qubit, letter), ...]) pair per line of a .ham file
Hamiltonian = list[tuple[complex, list[tuple[int, str]]]]


def parse_ham(text: str) -> Hamiltonian:
    """Terms of a ``.ham`` file: ``<coef> [<L><q>]*`` per line, ``#`` comments."""
    terms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("("):
            close = line.index(")")
            re_part, im_part = line[1:close].split(",")
            coef = complex(float(re_part), float(im_part))
            tokens = line[close + 1 :].split()
        else:
            head, *tokens = line.split()
            coef = complex(float(head))
        terms.append((coef, [(int(tok[1:]), tok[0]) for tok in tokens]))
    return terms


def _masks(ham: Hamiltonian, n: int) -> list[tuple[complex, int, int, int]]:
    """(coefficient, x_mask, z_mask, number of Y) per term on n qubits."""
    out = []
    for coef, ops in ham:
        x_mask = z_mask = n_y = 0
        for q, letter in ops:
            bit = 1 << (n - 1 - q)
            if letter in "XY":
                x_mask |= bit
            if letter in "YZ":
                z_mask |= bit
            n_y += letter == "Y"
        out.append((coef, x_mask, z_mask, n_y))
    return out


def _phase(b: int, z_mask: int, n_y: int) -> complex:
    return (1j**n_y) * (-1) ** (b & z_mask).bit_count()


def sector_states(n: int, n_particles: int | None, n_alpha: int | None) -> list[int]:
    """Basis indices with N particles and n_alpha alpha electrons (None: any)."""
    alpha_mask = sum(1 << (n - 1 - q) for q in range(n // 2))
    return [
        b
        for b in range(2**n)
        if (n_particles is None or b.bit_count() == n_particles)
        and (n_alpha is None or (b & alpha_mask).bit_count() == n_alpha)
    ]


def sector_matrix(
    ham: Hamiltonian, n: int, n_particles: int | None, n_alpha: int | None
) -> np.ndarray:
    """H restricted to a sector; raises if H couples the sector to the outside."""
    states = sector_states(n, n_particles, n_alpha)
    index = {b: i for i, b in enumerate(states)}
    masks = _masks(ham, n)
    matrix = np.zeros((len(states), len(states)), dtype=complex)
    for col, b in enumerate(states):
        column: dict[int, complex] = {}
        for coef, x_mask, z_mask, n_y in masks:
            image = b ^ x_mask
            column[image] = column.get(image, 0.0) + coef * _phase(b, z_mask, n_y)
        for image, amp in column.items():
            if image in index:
                matrix[index[image], col] += amp
            elif abs(amp) > 1e-12:
                raise ValueError("Hamiltonian does not conserve the sector")
    return matrix


def spectrum(
    ham: Hamiltonian, n: int, n_particles: int | None = None, sz_twice: int | None = None
) -> np.ndarray:
    """Ascending eigenvalues in the (N, 2Sz) sector; None leaves that number free."""
    n_alpha = None if sz_twice is None else (n_particles + sz_twice) // 2
    return np.linalg.eigvalsh(sector_matrix(ham, n, n_particles, n_alpha))


def basis_energy(ham: Hamiltonian, n: int, b: int) -> float:
    """<b|H|b> for one computational basis state."""
    return sum(
        (coef * _phase(b, z_mask, n_y)).real
        for coef, x_mask, z_mask, n_y in _masks(ham, n)
        if x_mask == 0
    )


def energy(ham: Hamiltonian, psi: np.ndarray) -> float:
    """<psi|H|psi> by an index permutation and sign vector per Pauli string."""
    n = int(round(math.log2(psi.size)))
    idx = np.arange(psi.size)
    total = 0.0 + 0.0j
    for coef, x_mask, z_mask, n_y in _masks(ham, n):
        src = idx ^ x_mask
        signs = np.where(np.bitwise_count(src & z_mask) & 1, -1.0, 1.0)
        total += coef * (1j**n_y) * np.vdot(psi, signs * psi[src])
    return total.real


def sector_weight(psi: np.ndarray, n_particles: int, n_alpha: int) -> float:
    n = int(round(math.log2(psi.size)))
    return float(np.sum(np.abs(psi[sector_states(n, n_particles, n_alpha)]) ** 2))


_S2 = 1.0 / math.sqrt(2.0)
_FIXED = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -1j), (1j, 0)),
    "H": ((_S2, _S2), (_S2, -_S2)),
}
# gates that only multiply the |1> amplitude
_DIAGONAL = {"Z": -1, "S": 1j, "Sdg": -1j, "T": complex(_S2, _S2)}


def _matrix(name: str, theta: float):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if name == "Rx":
        return ((c, -1j * s), (-1j * s, c))
    if name == "Ry":
        return ((c, -s), (s, c))
    raise ValueError(f"oracle has no kernel for gate {name}")


def simulate(instructions, n: int, binding: dict[str, float] | None = None) -> np.ndarray:
    """Amplitudes of circuit|0...0> (qubit 0 most significant).

    Symbolic angles ``scale * var`` are bound from ``binding`` here, so the
    oracle does not rely on ``qcsim.ir.evaluate``.
    """
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    view = _Views(psi, n)
    for inst in instructions:
        name, qubits = inst.name, inst.qubits
        if len(qubits) == 2:
            v = view(*qubits)
            if name == "CNOT":
                flipped = v[1][0].copy()
                v[1][0][...] = v[1][1]
                v[1][1][...] = flipped
            elif name == "CZ":
                v[1][1][...] *= -1
            elif name == "Swap":
                swapped = v[0][1].copy()
                v[0][1][...] = v[1][0]
                v[1][0][...] = swapped
            else:
                raise ValueError(f"oracle has no kernel for gate {name}")
            continue
        zero, one = view(qubits[0])
        theta = _angle(inst.parameters[0], binding) if inst.parameters else 0.0
        if name == "Rz":
            zero *= complex(math.cos(theta / 2), -math.sin(theta / 2))
            one *= complex(math.cos(theta / 2), math.sin(theta / 2))
        elif name in _DIAGONAL:
            one *= _DIAGONAL[name]
        else:
            m = _FIXED.get(name) or _matrix(name, theta)
            old = zero.copy()
            zero[...] = m[0][0] * old + m[0][1] * one
            one[...] = m[1][0] * old + m[1][1] * one
    return psi


def _angle(parameter, binding) -> float:
    if parameter.var is None:
        return parameter.value
    return parameter.scale * binding[parameter.var]


class _Views:
    """Cached writable views of a flat state with some qubits fixed.

    ``view(q)`` gives the (|0>, |1>) halves of qubit q; ``view(a, b)``
    gives a 2x2 nesting indexed [bit of a][bit of b].
    """

    def __init__(self, psi: np.ndarray, n: int):
        self.psi, self.n = psi, n
        self.cache: dict[tuple[int, ...], object] = {}

    def __call__(self, *qubits: int):
        found = self.cache.get(qubits)
        if found is None:
            found = self.cache[qubits] = self._make(qubits)
        return found

    def _make(self, qubits):
        order = sorted(qubits)
        shape, prev = [], -1
        for q in order:
            shape += [2 ** (q - prev - 1), 2]
            prev = q
        tensor = self.psi.reshape(shape + [2 ** (self.n - prev - 1)])
        axis = {q: 2 * i + 1 for i, q in enumerate(order)}

        def fix(bits):
            index = [slice(None)] * tensor.ndim
            for q, bit in zip(qubits, bits):
                index[axis[q]] = bit
            return tensor[tuple(index)]

        if len(qubits) == 1:
            return fix((0,)), fix((1,))
        return [[fix((i, j)) for j in (0, 1)] for i in (0, 1)]
