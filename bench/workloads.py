"""Benchmark inputs: one list of (subcommand, config) pairs per workload.

A workload is replayed round-robin in a closed loop.  Generated configs
are drawn from the workload seed, and every discrete choice that changes
the cost of a call (subcommand, search mark and feedforward, gate kind,
detector pair and sample count) appears the same number of times in each
seed's list.  Only continuous values and the order vary with the seed, so
the per-subcommand medians measure the program rather than the draw.
"""

from __future__ import annotations

import math
import random
from pathlib import Path
from typing import List, Tuple

WORKLOADS = ("shipped_fit", "mixed_sweep", "pure_sweep")
COMMANDS = ("witness", "grover", "gate", "visibility")
DEFAULT_SEED = 0

SHIPPED_FIT = (
    ("witness", "witness_fitted.yaml"),
    ("grover", "grover.yaml"),
    ("gate", "gate_horseshoe.yaml"),
    ("gate", "gate_box.yaml"),
    ("visibility", "visibility.yaml"),
)

WITNESS_PER_ROUND = 8
GATE_ANGLE_DRAWS = 4
# (detector_pair, samples): fringes per call are 96, 64, 128, 24 and 48, so
# the median visibility call sits inside the middle level.  Sample counts
# are even so both fringe extremes are sampled.
VISIBILITY_CASES = (("all", 24), ("all", 16), ("all", 32), ("D1-D2", 24), ("D3-D4", 48))


def shipped_inputs(configs_dir: Path, seed: int) -> List[Tuple[str, Path]]:
    """The shipped fitted configs, rotated by the seed."""
    inputs = [(cmd, configs_dir / name) for cmd, name in SHIPPED_FIT]
    shift = seed % len(inputs)
    return inputs[shift:] + inputs[:shift]


def _noise(rng: random.Random, mixed: bool):
    if not mixed:
        return "ideal"
    return {
        "white_noise": round(rng.uniform(0.01, 0.1), 6),
        "path_dephasing_a": round(rng.uniform(0.0, 0.1), 6),
        "path_dephasing_b": round(rng.uniform(0.0, 0.1), 6),
    }


def _counting(rng: random.Random) -> dict:
    return {
        "seed": rng.randrange(2**31),
        "duration": round(rng.uniform(0.5, 2.0), 4),
        "rate": float(rng.randrange(6000, 24001, 500)),
    }


def generated_inputs(seed: int, mixed: bool) -> List[Tuple[str, dict]]:
    """One round of configs for all four subcommands.

    ``mixed`` gives explicit noise parameters, so every state stays a
    density matrix; otherwise the noise is ideal.
    """
    rng = random.Random(f"onewaysim-bench:{int(mixed)}:{seed}")

    def angle() -> float:
        return round(rng.uniform(0.0, 2.0 * math.pi), 6)

    inputs = []
    for _ in range(WITNESS_PER_ROUND):
        cfg = {"experiment": "witness", "noise": _noise(rng, mixed)}
        cfg.update(_counting(rng))
        cfg["source"] = {"theta": angle()}
        inputs.append(("witness", cfg))
    for marked in ("00", "01", "10", "11"):
        for feedforward in (True, False):
            cfg = {"experiment": "grover", "noise": _noise(rng, mixed)}
            cfg.update(_counting(rng))
            cfg["grover"] = {"marked": marked, "feedforward": feedforward}
            inputs.append(("grover", cfg))
    for kind in ("horseshoe", "box"):
        for _ in range(GATE_ANGLE_DRAWS):
            cfg = {"experiment": "gate", "noise": _noise(rng, mixed)}
            cfg["seed"] = rng.randrange(2**31)
            cfg["gate"] = {"kind": kind, "alpha": angle(), "beta": angle()}
            inputs.append(("gate", cfg))
    for pair, samples in VISIBILITY_CASES:
        cfg = {"experiment": "visibility", "noise": _noise(rng, mixed)}
        cfg["seed"] = rng.randrange(2**31)
        cfg["visibility"] = {"detector_pair": pair, "samples": samples}
        inputs.append(("visibility", cfg))
    rng.shuffle(inputs)
    return inputs


def workload_inputs(workload: str, seed: int, configs_dir: Path):
    """(subcommand, config) pairs; a config is a Path or a mapping."""
    if workload == "shipped_fit":
        return shipped_inputs(configs_dir, seed)
    if workload == "mixed_sweep":
        return generated_inputs(seed, mixed=True)
    if workload == "pure_sweep":
        return generated_inputs(seed, mixed=False)
    raise ValueError(f"unknown workload {workload!r}")
