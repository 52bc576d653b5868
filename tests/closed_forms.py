"""The noise model's closed forms, one copy for the tests.

Every exact output of the simulator has a closed form in the white-noise
weight p and the dephasing product q = (1 - a)(1 - b) of the two path
dephasings a and b: the witness terms (source angle theta), the search
table (mark and feed-forward), the gate fidelities (gate kind and the
angle alpha) and the fringes (detector pair and phase theta).
"""

import math

# the sign of the coherent term of each detector pair's fringe
FRINGE_SIGN = {"D1-D2": 1.0, "D1-D4": -1.0, "D3-D2": -1.0, "D3-D4": 1.0}


def dephasing_product(a: float, b: float) -> float:
    return (1.0 - a) * (1.0 - b)


def witness_term(word: str, p: float, q: float, theta: float) -> float:
    """<word> on the noisy source; only IZXX and ZIXX see the dephasing."""
    return (1.0 - p) * q * math.cos(theta) if word in ("IZXX", "ZIXX") else 1.0 - p


def search_probability(mark: str, marked: str, feedforward: bool, p: float) -> float:
    """The search table's entry for ``mark`` when ``marked`` is the mark."""
    if not feedforward:
        return 0.25
    return 1.0 - 0.75 * p if mark == marked else p / 4.0


def gate_fidelity(kind: str, p: float, q: float, alpha: float) -> float:
    """Each output's fidelity of the horseshoe or the box gate."""
    if kind == "horseshoe":
        return (1.0 - p) * (1.0 + q) / 2.0 + p / 4.0
    return (1.0 - p) * (1.0 - (1.0 - q) * math.sin(alpha) ** 2 / 2.0) + p / 4.0


def fringe(pair: str, p: float, q: float, theta: float) -> float:
    """One detector pair's coincidence probability at the phase theta."""
    return (1.0 - p) / 8.0 + p / 16.0 + FRINGE_SIGN[pair] * (1.0 - p) * q * math.cos(theta) / 8.0
