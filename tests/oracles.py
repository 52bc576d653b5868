"""Independent references for the tests, each written once in its plainest
form.  This module imports only ``math``, ``itertools`` and ``numpy``, never
``onewaysim`` (``test_oracles`` checks this), so no fault of the package can
reach a reference it is checked against.

A ket is a 1-D array, a mixed state a 2-D density matrix, and qubit 0 the
most significant bit of a basis index; in the register, qubits 0 and 1 are
photon B's and A's polarization, 2 and 3 photon A's and B's path.  Closed
forms take the white-noise weight p and the dephasing product
q = (1 - a)(1 - b) of the path dephasings a and b.
"""

import itertools
import math

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# one projector per outcome: Z reads 0/1, and PM reads +/- (the
# polarization analysis, and a beam splitter reading a path in B(0))
Z_PROJECTORS = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
PM_PROJECTORS = (
    np.full((2, 2), 0.5, dtype=complex),
    np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
)

# joint outcome keys: bit strings in register order, indexed like basis states
OUTCOME_KEYS = tuple(format(index, "04b") for index in range(16))
SETTING_WORDS = {"XXZZ": ("XXIZ", "XXZI", "IIZZ"), "ZZXX": ("IZXX", "ZIXX", "ZZII")}
DEPHASED_WORDS = ("IZXX", "ZIXX")  # the words that see the path dephasing

# detector pair -> (photon A port, photon B port) behind the beam splitters
DETECTOR_PORTS = {"D1-D2": (0, 0), "D1-D4": (0, 1), "D3-D2": (1, 0), "D3-D4": (1, 1)}


def rz(t):
    """R_z(t) = diag(e^{-i t/2}, e^{i t/2})."""
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def kron(*ops):
    """The Kronecker product of ``ops``, the first on the leading qubits."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def expectation(a, op):
    """<op> on the ket or density matrix ``a``."""
    return float((np.vdot(a, op @ a) if a.ndim == 1 else np.trace(op @ a)).real)


def _conjugated(a, u):
    """``u`` applied to a ket, or u a u^dagger to a density matrix."""
    return u @ a if a.ndim == 1 else u @ a @ u.conj().T


def sign(word, key):
    """A Pauli word's +-1 eigenvalue on an outcome key: -1 for each bit 1
    under a letter other than I."""
    return (-1.0) ** sum(bit == "1" for letter, bit in zip(word, key) if letter != "I")


# closed forms of the noise model
def dephasing_product(a, b):
    return (1.0 - a) * (1.0 - b)


def witness_term(word, p, q, theta):
    """<word> on the noisy source; only IZXX and ZIXX see the dephasing."""
    return (1.0 - p) * q * math.cos(theta) if word in DEPHASED_WORDS else 1.0 - p


def pauli_transfer(word, a, b, p):
    """The channel's factor on <word> (not IIII): 1 - p, times 1 - a (1 - b)
    when the word has X or Y on photon A's (B's) path qubit."""
    factor = 1.0 - p
    for letter, lam in zip(word[2:], (a, b)):
        if letter in "XY":
            factor *= 1.0 - lam
    return factor


def search_probability(mark, marked, feedforward, p):
    """The search table's entry for ``mark`` when ``marked`` is the mark."""
    if not feedforward:
        return 0.25
    return 1.0 - 0.75 * p if mark == marked else p / 4.0


def gate_fidelity(kind, p, q, alpha):
    """Each output's fidelity of the horseshoe or the box gate."""
    if kind == "horseshoe":
        return (1.0 - p) * (1.0 + q) / 2.0 + p / 4.0
    return (1.0 - p) * (1.0 - (1.0 - q) * math.sin(alpha) ** 2 / 2.0) + p / 4.0


def fringe(pair, p, q, theta):
    """One detector pair's coincidence probability at the phase theta; the
    coherent term is positive when both ports are equal."""
    sign = (-1.0) ** sum(DETECTOR_PORTS[pair])
    return (1.0 - p) / 8.0 + p / 16.0 + sign * (1.0 - p) * q * math.cos(theta) / 8.0


def visibility(p, q):
    """Every detector pair's fringe visibility."""
    return q * (1.0 - p) / (1.0 - p / 2.0)


# the source, the channel and projector readouts
def source(theta):
    """The source ket ((HH + VV) LL + e^{i theta} (HH - VV) RR) / 2."""
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = amps[0b1100] = 0.5
    amps[0b0011], amps[0b1111] = 0.5 * np.exp(1j * theta), -0.5 * np.exp(1j * theta)
    return amps


def noise_channel(rho, a, b, p):
    """The channel on a 16x16 register matrix or a stack of them, entry by
    entry: entries whose row and column differ in photon A's path bit (bit
    1 from the right) shrink by 1 - a, in photon B's (bit 0) by 1 - b; then
    the weight p of I/16 is mixed in."""
    index = np.arange(16)
    for lam, bit in ((a, 1), (b, 0)):
        differ = ((index[:, None] >> bit) & 1) != ((index[None, :] >> bit) & 1)
        rho = np.where(differ, (1.0 - lam) * rho, rho)
    return (1.0 - p) * rho + p * np.eye(16) / 16.0


def joint_table(a, setting):
    """A witness setting's 16 outcome probabilities, clipped at 0, one
    Kronecker-product projector each: the setting's letters read each
    qubit, X along +/- and Z in the computational basis."""
    families = [{"X": PM_PROJECTORS, "Z": Z_PROJECTORS}[letter] for letter in setting]
    return {
        key: max(expectation(a, kron(*(f[int(bit)] for f, bit in zip(families, key)))), 0.0)
        for key in OUTCOME_KEYS
    }


def fringe_probability(pair, a, b, p, theta):
    """The source through the channel, a Hadamard on each path qubit (the
    beam splitters), then the projector on H, H and the pair's ports."""
    ket = source(theta)
    rho = noise_channel(np.outer(ket, ket.conj()), a, b, p)
    rho = _conjugated(rho, kron(PAULI["I"], PAULI["I"], HADAMARD, HADAMARD))
    h, _ = Z_PROJECTORS
    return expectation(rho, kron(h, h, *(Z_PROJECTORS[port] for port in DETECTOR_PORTS[pair])))


def bell_probabilities(a):
    """One photon's interferometer (qubit 0 polarization, 1 path): CPhase,
    H on the path, then +/- on the polarization times the port's Z
    projector; labels polarization first."""
    probe = _conjugated(a, kron(PAULI["I"], HADAMARD) @ np.diag([1.0, 1.0, 1.0, -1.0]))
    return {
        pol + port: max(expectation(probe, np.kron(PM_PROJECTORS[i], Z_PROJECTORS[j])), 0.0)
        for i, pol in enumerate("+-")
        for j, port in enumerate("+-")
    }


# chains and statistics
def projected(a, qubit, alpha, bit):
    """One forced B(alpha) measurement through the bra (1, +-e^{-i alpha})
    /sqrt(2): (weight, renormalized residual or None when no qubit is
    left), or None below the forced-outcome floor 1e-12."""
    bra = np.array([1.0, (-1) ** bit * np.exp(-1j * alpha)]) / math.sqrt(2)
    n = len(a).bit_length() - 1
    if a.ndim == 1:
        branch = np.tensordot(bra, a.reshape((2,) * n), axes=(0, qubit)).reshape(-1)
        weight = float(np.linalg.norm(branch) ** 2)
    else:
        k = kron(np.eye(2**qubit), bra[None, :], np.eye(2 ** (n - 1 - qubit)))
        branch = k @ a @ k.conj().T
        weight = float(np.trace(branch).real)
    if weight < 1e-12:
        return None
    if n == 1:
        return weight, None
    if a.ndim == 1:
        return weight, branch / np.linalg.norm(branch)
    branch = branch / weight
    return weight, (branch + branch.conj().T) / 2.0


def sequential_branches(a, steps, measure=projected):
    """Every branch (bits, probability, residual) of a pattern, in
    lexicographic order and each run alone: the steps forced one after
    another by ``measure`` (a branch it finds impossible is left out)."""
    branches = []
    for bits in itertools.product((0, 1), repeat=len(steps)):
        live, current, probs = list(range(len(a).bit_length() - 1)), a, []
        for (qubit, alpha), bit in zip(steps, bits):
            measured = measure(current, live.index(qubit), alpha, bit)
            if measured is None:
                break
            prob, current = measured
            live.remove(qubit)
            probs.append(prob)
        else:
            branches.append((bits, float(math.prod(probs)), current))
    return branches


def cphase_chain(n, edges):
    """|+>^n, then each edge's CPhase one at a time: the edge's |11> block
    of the amplitude tensor negated."""
    t = np.full((2,) * n, 1.0 / math.sqrt(2**n), dtype=complex)
    for a, b in edges:
        block = [slice(None)] * n
        block[a] = block[b] = 1
        t[tuple(block)] *= -1.0
    return t.reshape(-1)


def delta_method_stderrs(buckets):
    """({word: stderr}, witness stderr) of {setting: {key: count}}: a term's
    variance is sum c (s - e)**2 / N**2 over its setting's outcomes, and the
    witness variance adds, per setting, that sum over the three words'
    summed signs, divided by 4."""
    term_err, witness_var = {}, 0.0
    for name, words in SETTING_WORDS.items():
        bucket = buckets[name]
        total = sum(bucket.values())
        estimates = {w: sum(c * sign(w, k) for k, c in bucket.items()) / total for w in words}
        for word in words:
            var = sum(c * (sign(word, k) - estimates[word]) ** 2 for k, c in bucket.items())
            term_err[word] = math.sqrt(var / total**2)
        summed = sum(estimates.values())
        var = sum(c * (sum(sign(w, k) for w in words) - summed) ** 2 for k, c in bucket.items())
        witness_var += var / total**2 / 4.0
    return term_err, math.sqrt(witness_var)


def infidelity(a, b):
    """1 - F for two density matrices, F = tr(a b) / sqrt(tr(a a) tr(b b)):
    |<a|b>|^2 for pure states, and 1 exactly when a = b."""
    overlap = np.vdot(a, b).real
    return 1.0 - overlap / math.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)


def csv_text(header, rows):
    """CSV text written cell by cell: a float cell as %.12g, any other as
    its str(), one line for the header and one per row."""
    cells = [["%.12g" % c if isinstance(c, float) else str(c) for c in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in [header] + cells)
