"""Output digest: one SHA-256 per subcommand over everything ``cli.main``
prints and writes for a fixed set of inputs, so that "no output bit
moves" is one command.

    python tests/output_digest.py
    python tests/output_digest.py --compare HEAD~1

The inputs are the shipped configs, the extra configs of the CI step
that prints one JSON document per run, and every mixed_sweep and
pure_sweep input of ``bench/workloads.py`` at seeds 0-2.  Each runs
in-process twice, to stdout and with ``--out``.  A run's record hashes
its exit code, stdout, stderr (the temporary directory masked) and every
file it wrote.  Records are keyed by the subcommand and the canonical
config text (YAML, keys sorted), and each subcommand's digest is taken
over its records in key order, so the order in which a workload lists
its inputs moves no digest.  The line ``all`` is the digest over all
four.

The line ``library`` is a digest of library calls, which sees the bits
the printed text rounds away (``%.12g`` in CSV): a SHA-256 over the
``float.hex`` of every number that ``grover_run``, ``gate_fidelity_report``,
``visibility_scans``, ``witness_value``, ``branch_distribution``,
``run_pattern``, ``expectation`` and ``fidelity`` return for a fixed set
of calls, on the pure cluster and on the cluster under one seeded random
noise model per seed in ``SWEEP_SEEDS``.

The inputs always come from this checkout; ``--src`` runs them on
another ``src/`` directory.  ``--compare REV`` runs this script on a
``git worktree`` of REV, prints both sets of digests, names the
subcommands (and ``library``) whose digests differ and exits 1 if any
do.  Digests are only comparable under one numpy and one BLAS kernel.

Not collected by pytest (the file name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("witness", "grover", "gate", "visibility")
SWEEP_SEEDS = (0, 1, 2)

# the configs the CI step writes beside the shipped ones
CI_CONFIGS = (
    ("grover", "noise: {white_noise: 1.0e-10}\n"),
    ("grover", "noise: ideal\ngrover: {feedforward: false}\n"),
    ("grover", "noise: {white_noise: 0.05, path_dephasing_b: 0.03}\ngrover: {feedforward: false}\n"),
    (
        "gate",
        "noise: {white_noise: 0.05, path_dephasing_a: 0.02}\n"
        "gate: {kind: box, alpha: 0.7, beta: 1.9}\n",
    ),
    ("visibility", "noise: {white_noise: 0.05, path_dephasing_a: 0.02}\nvisibility: {samples: 2050}\n"),
    ("witness", "[" * 100000 + "\n"),
)


def inputs():
    """(subcommand, config text) for every input, in no particular order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    cases = []
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        cases.append((path.stem.split("_")[0], path.read_text(encoding="utf-8")))
    cases.extend(CI_CONFIGS)
    for workload in ("mixed_sweep", "pure_sweep"):
        for seed in SWEEP_SEEDS:
            for command, config in workloads.workload_inputs(workload, seed, ROOT / "configs"):
                cases.append((command, yaml.safe_dump(config, sort_keys=True)))
    return cases


def _hash(*parts: bytes) -> bytes:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.digest()


def _run(cli, argv, tmp: Path):
    """(exit code, stdout, stderr) of one in-process call, tmp masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [str(code).encode()] + [
        stream.getvalue().replace(str(tmp), "<tmp>").encode() for stream in (out, err)
    ]


def _numbers(value, states):
    """Each number of a library result as text, ``float.hex`` for a float,
    with its field names and keys: a state (an instance of ``states``, the
    ket class then the matrix class) by its array, containers item by item."""
    if isinstance(value, states):
        value = value.amplitudes if isinstance(value, states[0]) else value.matrix
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, complex):
        yield from (float.hex(value.real), float.hex(value.imag))
    elif isinstance(value, float):
        yield float.hex(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield repr(key)
            yield from _numbers(item, states)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item, states)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            yield name
            yield from _numbers(getattr(value, name), states)
    else:  # an int, a str, a bool or None
        yield repr(value)


def _library_calls(o):
    """(call, result) of every library call the ``library`` digest covers,
    ``o`` being the imported package."""
    c4 = o.c4_state()
    models = [
        o.NoiseModel(*np.random.default_rng(seed).uniform(0.0, 0.3, size=3).tolist())
        for seed in SWEEP_SEEDS
    ]
    states = [c4] + [o.apply_noise(c4, model) for model in models]
    angles = ((0.0, 0.0), (0.3, 1.1), (math.pi / 2, -3 * math.pi / 4), (2.0, 5.5))
    targets = (c4, o.source_state(0.7), o.build_cluster(o.BOX_GRAPH))
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=4)]
    for i, state in enumerate(states):
        for marked, feedforward in itertools.product(("00", "01", "10", "11"), (True, False)):
            yield f"grover_run {marked} {feedforward} {i}", o.grover_run(marked, feedforward, state)
        yield f"witness_value {i}", o.witness_value(state)
        for alpha, beta in angles:
            pattern = o.gate_pattern(alpha, beta)
            yield f"branch_distribution {alpha} {beta} {i}", o.branch_distribution(state, pattern)
            for bits in itertools.product((0, 1), repeat=2):
                yield f"run_pattern {alpha} {beta} {bits} {i}", o.run_pattern(state, pattern, bits)
        for marked in ("00", "11"):
            pattern = o.mbqc.grover_pattern(marked)
            yield f"branch_distribution {marked} {i}", o.branch_distribution(state, pattern)
        for word in words:
            yield f"expectation {word} {i}", o.expectation(state, o.PauliString(word))
        for j, target in enumerate(targets):
            yield f"fidelity {j} {i}", o.fidelity(state, target)
    for i, model in enumerate([o.NoiseModel()] + models):
        for kind, (alpha, beta) in itertools.product(("horseshoe", "box"), angles):
            report = o.gate_fidelity_report(kind, alpha, beta, model)
            yield f"gate_fidelity_report {kind} {alpha} {beta} {i}", report
        scans = o.visibility_scans(model, o.DETECTOR_PAIRS)
        yield f"visibility_scans {i}", scans


def library_digest(onewaysim) -> str:
    """The ``library`` digest (see the module docstring) of the package ``onewaysim``."""
    states = (onewaysim.StateVector, onewaysim.DensityMatrix)
    parts = []
    for call, result in _library_calls(onewaysim):
        parts += [call, *_numbers(result, states)]
    return _hash(*(part.encode() for part in parts)).hex()


def digests(src: Path) -> dict:
    """Subcommand -> hex digest, plus "all"; runs every input on ``src``."""
    sys.path.insert(0, str(src))
    import onewaysim
    from onewaysim import cli

    if Path(cli.__file__).resolve().parent != (src / "onewaysim").resolve():
        raise SystemExit(f"imported onewaysim from {cli.__file__}, not from {src}")
    records = {command: [] for command in COMMANDS}
    with tempfile.TemporaryDirectory(prefix="output-digest-") as name:
        tmp = Path(name)
        config, out = tmp / "config.yaml", tmp / "out"
        for command, text in inputs():
            config.write_text(text, encoding="utf-8")
            argv = [command, "--config", str(config)]
            key = _hash(command.encode(), text.encode())
            records[command].append(_hash(key, b"stdout", *_run(cli, argv, tmp)))
            out.mkdir()
            parts = _run(cli, [*argv, "--out", str(out / "run")], tmp)
            for path in sorted(out.iterdir()):
                parts += [path.name.encode(), path.read_bytes()]
            shutil.rmtree(out)
            records[command].append(_hash(key, b"--out", *parts))
    result = {command: _hash(*sorted(records[command])).hex() for command in COMMANDS}
    result["all"] = _hash(*(bytes.fromhex(result[c]) for c in COMMANDS)).hex()
    result["library"] = library_digest(onewaysim)
    result["calls"] = str(sum(map(len, records.values())))
    return result


def _print(result: dict, label: str = "") -> None:
    for name in (*COMMANDS, "all", "library"):
        print(f"{label}{name:<11} {result[name]}")


def _digests_at(rev: str) -> dict:
    """This script's digests on a detached ``git worktree`` of ``rev``."""
    with tempfile.TemporaryDirectory(prefix="output-digest-rev-") as name:
        tree = Path(name) / "tree"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            run = subprocess.run(
                [sys.executable, __file__, "--src", str(tree / "src")],
                capture_output=True, text=True, check=True,
            )
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)
    lines = [line.split() for line in run.stdout.splitlines() if not line.startswith("#")]
    return dict(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="src/ directory to run")
    parser.add_argument("--compare", metavar="REV", help="also digest REV and name what differs")
    args = parser.parse_args(argv)
    mine = digests(args.src.resolve())
    print(f"# {mine['calls']} calls of cli.main on {args.src}")
    if args.compare is None:
        _print(mine)
        return 0
    theirs = _digests_at(args.compare)
    _print(theirs, f"{args.compare}: ")
    _print(mine, "this tree: ")
    differ = [name for name in (*COMMANDS, "library") if theirs[name] != mine[name]]
    print("differ: " + (" ".join(differ) if differ else "none"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
