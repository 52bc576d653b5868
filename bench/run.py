"""onewaysim benchmark: in-process CLI latency per subcommand.

    python3 bench/run.py --workload shipped_fit --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``onewaysim`` from
``src/``.  One client drives ``onewaysim.cli.main([...])`` in a closed
loop (the next call starts when the previous one has returned and its
output has been checked), in whole rounds over the workload's inputs,
until ``--seconds`` have passed.  Every call writes its JSON and CSV
files into a scratch directory inside the checkout, and ``checks.py``
verifies them.

Every call and every set-up probe is preceded by the fixed calibration
workload of ``speed.py``, and its wall time is reported scaled to the
reference machine speed defined there, so that a host that slows down for
a while under its neighbours' load does not move the results.  The raw
wall-time medians are printed on the ``run`` line.

``--trace 0`` reports the end-to-end metrics: per-subcommand median call
time, p90 over all calls, verified calls per second, and ``setup_s``, the
median time a fresh interpreter needs from start until
``import onewaysim.cli`` returns, sampled in subprocesses spread through
the run.  ``--trace 1`` alternates untraced rounds with rounds under
``tracing.Tracer``, and reports per-invocation call counts and self times
of the layers and of their main functions, plus the tracing overhead (mean
traced call minus mean untraced call).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the environment and print each metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import yaml

# numpy loads with speed and onewaysim, after this; setup subprocesses inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".bench_tmp"

SETUP_PROBES = 12
PROBE_CODE = "import time\nimport onewaysim.cli\nprint(repr(time.monotonic()))"
TRACED_FUNCTIONS = (
    "photonics.fit_noise",
    "photonics.apply_noise",
    "photonics.joint_distribution",
    "photonics.visibility_fringe",
    "photonics.beam_splitter",
    "qcore.DensityMatrix",
    "qcore.expectation",
    "qcore.apply_gate",
    "qcore.measure",
    "qcore.measure_mixed",
    "qcore.fidelity",
    "mbqc.run_pattern",
    "mbqc.branch_distribution",
    "analysis.simulate_counts",
    "analysis.witness_from_counts",
    "cli.load_config",
    "cluster.to_box_frame",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


@dataclass
class Input:
    command: str
    config_path: Path
    config: dict
    reference: Optional[dict]


@dataclass
class Call:
    command: str
    seconds: float
    error: Optional[str]
    # wall seconds to reference seconds, from the calibration before the call
    scale: float = 1.0

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.scale


def import_cli():
    """Import ``onewaysim.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "onewaysim" / "cli.py").is_file():
        raise BenchError(f"no onewaysim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from onewaysim import cli

    if Path(cli.__file__).resolve().parent != (SRC / "onewaysim").resolve():
        raise BenchError(f"imported onewaysim from {cli.__file__}, not from {SRC}")
    return cli


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"missing reference outputs {REFERENCE}")
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def build_inputs(workload: str, seed: int, workdir: Path, reference: Optional[dict]) -> List[Input]:
    """Materialise the workload's configs as files; attach reference outputs."""
    if workload == "shipped_fit" and not CONFIGS.is_dir():
        raise BenchError(f"missing shipped configs {CONFIGS}")
    stored = None if reference is None else reference.get(workload)
    if workload != "shipped_fit" and seed != workloads.DEFAULT_SEED:
        stored = None
    inputs = []
    for index, (command, config) in enumerate(workloads.workload_inputs(workload, seed, CONFIGS)):
        if isinstance(config, Path):
            path = config
            with open(path, encoding="utf-8") as handle:
                mapping = yaml.safe_load(handle)
            expected = None if stored is None else stored[path.name]
        else:
            path = workdir / f"config_{index:03d}.yaml"
            with open(path, "w", encoding="utf-8") as handle:
                yaml.safe_dump(config, handle, sort_keys=True)
            mapping = config
            expected = None
            if stored is not None:
                entry = stored[index]
                if entry["command"] != command or entry["config"] != config:
                    raise BenchError(f"generated input {index} differs from the stored reference")
                expected = entry["output"]
        inputs.append(Input(command, path, mapping, expected))
    return inputs


class Client:
    """One closed-loop client calling ``cli.main`` in this process."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.sink = io.StringIO()

    def _prefix(self, index: int) -> str:
        return str(self.workdir / f"out_{index:03d}")

    def call(self, index: int, item: Input) -> Tuple[float, int]:
        """Run one invocation; return (seconds, exit code)."""
        prefix = self._prefix(index)
        for path in (f"{prefix}.json", f"{prefix}_{checks.CSV_NAMES[item.command]}.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        argv = [item.command, "--config", str(item.config_path), "--out", prefix]
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            start = time.perf_counter()
            code = self.cli.main(argv)
            seconds = time.perf_counter() - start
        return seconds, code

    def outputs(self, index: int, item: Input):
        return checks.read_outputs(self._prefix(index), item.command)

    def timed(self, index: int, item: Input, tracer: Optional[Tracer] = None) -> Call:
        """Calibrate, then call and verify, scaling the call (and its spans)."""
        factor = speed.scale()
        if tracer is not None:
            tracer.scale = factor
        call = self.invoke(index, item)
        call.scale = factor
        return call

    def invoke(self, index: int, item: Input) -> Call:
        """Call and verify; any failure is recorded, never raised."""
        try:
            seconds, code = self.call(index, item)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - a crash is a failed invocation
            return Call(item.command, math.nan, f"raised {exc!r}")
        if code != 0:
            return Call(item.command, seconds, f"exit code {code}: {self.sink.getvalue()[-500:]}")
        try:
            doc, rows = self.outputs(index, item)
            checks.check_invocation(item.command, item.config, doc, rows, item.reference)
        except (OSError, ValueError, checks.CheckError) as exc:
            return Call(item.command, seconds, f"output check failed: {exc}")
        return Call(item.command, seconds, None)


def probe_setup() -> float:
    """Seconds from starting a fresh interpreter until ``import onewaysim.cli`` returns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", PROBE_CODE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def run_rounds(client: Client, inputs: List[Input], seconds: float, probes: int = 0):
    """Whole rounds until ``seconds`` pass; setup probes spread evenly through them.

    Returns (calls, probe samples in reference seconds, probe samples in
    wall seconds).
    """
    calls: List[Call] = []
    samples: List[float] = []
    wall_samples: List[float] = []

    def probe():
        factor = speed.scale()
        wall_samples.append(probe_setup())
        samples.append(wall_samples[-1] * factor)

    start = time.perf_counter()
    due = [start + seconds * (k + 0.5) / probes for k in range(probes)]
    while True:
        for index, item in enumerate(inputs):
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                probe()
            calls.append(client.timed(index, item))
        if time.perf_counter() - start >= seconds:
            break
    for _ in due:
        probe()
    return calls, samples, wall_samples


def traced_rounds(client: Client, inputs: List[Input], seconds: float):
    """Alternate untraced and traced rounds, so both see the same machine load.

    Returns (untraced calls, traced calls, tracer).
    """
    base: List[Call] = []
    traced: List[Call] = []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        base.extend(client.timed(index, item) for index, item in enumerate(inputs))
        with tracer:
            traced.extend(client.timed(index, item, tracer) for index, item in enumerate(inputs))
        if time.perf_counter() - start >= seconds:
            break
    return base, traced, tracer


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(calls: List[Call], setup: List[float]) -> Dict[str, Tuple[float, str]]:
    """Times in reference seconds (``speed.py``)."""
    metrics: Dict[str, Tuple[float, str]] = {}
    # a failed call keeps its time: it counts as missing any latency limit
    for command in workloads.COMMANDS:
        times = [c.reference_seconds for c in calls if c.command == command and math.isfinite(c.seconds)]
        if not times:
            first = next(c.error for c in calls if c.command == command)
            raise BenchError(f"every {command} call raised, first: {first}")
        metrics[f"{command}_ms"] = (statistics.median(times) * 1e3, "ms")
    every = [c.reference_seconds for c in calls if math.isfinite(c.seconds)]
    metrics["latency_p90_ms"] = (statistics.quantiles(every, n=10)[-1] * 1e3, "ms")
    verified = sum(1 for c in calls if c.error is None)
    # the client's own work (output checks, calibration) is not the program's
    metrics["invocations_per_s"] = (verified / math.fsum(every), "1/s")
    metrics["setup_s"] = (statistics.median(setup), "s")
    return metrics


def per_layer_metrics(tracer: Tracer, invocations: int, overhead_ms: float) -> Dict[str, Tuple[float, str]]:
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer, seconds in tracer.layer_self_seconds().items():
        metrics[f"{layer}.self_ms"] = (seconds * 1e3 / invocations, "ms")
    for name in TRACED_FUNCTIONS:
        calls, self_s, incl_s = tracer.stats[name] if name in tracer.stats else (0, 0.0, 0.0)
        metrics[f"{name}.calls"] = (calls / invocations, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / invocations, "ms")
        metrics[f"{name}.incl_ms"] = (incl_s * 1e3 / invocations, "ms")
    # the fit's own kernel calls, which a closed-form fit removes
    for name in ("photonics.apply_noise", "qcore.expectation"):
        calls = tracer.edge_calls("photonics.fit_noise", name)
        metrics[f"{name}.calls_in_fit"] = (calls / invocations, "count")
    attempts = tracer.edge_calls("mbqc.branch_distribution", "mbqc.run_pattern")
    ratio = tracer.branches_returned / attempts if attempts else 0.0
    metrics["mbqc.branch_distribution.useful_ratio"] = (ratio, "ratio")
    root = tracer.stats[ROOT_SPAN][2] if ROOT_SPAN in tracer.stats else 0.0
    metrics["cli.main.incl_ms"] = (root * 1e3 / invocations, "ms")
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    return metrics


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _blas_threads() -> object:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line})
        for lib in libs:
            loaded = ctypes.CDLL(lib)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(loaded, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def environment(args) -> dict:
    import numpy

    lines = 0
    for path in sorted((SRC / "onewaysim").glob("*.py")):
        with open(path, encoding="utf-8") as handle:
            lines += sum(1 for _ in handle)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "git_commit": _git_commit(),
        "src_onewaysim_lines": lines,
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _mean_seconds(calls: List[Call]) -> float:
    return statistics.fmean(c.reference_seconds for c in calls if math.isfinite(c.seconds))


def _summary(calls: List[Call]) -> dict:
    counts = {c: sum(1 for call in calls if call.command == c) for c in workloads.COMMANDS}
    every = [c.reference_seconds for c in calls if math.isfinite(c.seconds)]
    p90 = statistics.quantiles(every, n=10)[-1] if len(every) >= 2 else math.nan
    wall = {
        f"{command}_wall_ms": statistics.median(times) * 1e3
        for command in workloads.COMMANDS
        if (times := [c.seconds for c in calls if c.command == command and math.isfinite(c.seconds)])
    }
    return {
        "invocations": len(calls),
        "per_command": counts,
        "above_p90": sum(1 for t in every if t > p90),
        "median_speed_scale": statistics.median(c.scale for c in calls),
        **wall,
    }


def run(args) -> dict:
    cli = import_cli()
    reference = load_reference()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run_", dir=SCRATCH))
    try:
        inputs = build_inputs(args.workload, args.seed, workdir, reference)
        client = Client(cli, workdir)
        for _ in range(3):
            speed.calibrate()
        warmup = [client.invoke(i, item) for i, item in enumerate(inputs)]
        if args.trace:
            base, traced, tracer = traced_rounds(client, inputs, args.seconds)
            overhead = (_mean_seconds(traced) - _mean_seconds(base)) * 1e3
            metrics = per_layer_metrics(tracer, len(traced), overhead)
            measured = base + traced
            info = {"untraced": _summary(base), "traced": _summary(traced)}
        else:
            measured, setup, setup_wall = run_rounds(client, inputs, args.seconds, SETUP_PROBES)
            metrics = end_to_end_metrics(measured, setup)
            info = _summary(measured)
            info["setup_samples"] = len(setup)
            info["setup_wall_s"] = statistics.median(setup_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    attempted = warmup + measured
    failures = [c for c in attempted if c.error is not None]
    info["failed_ratio"] = len(failures) / len(attempted)
    info["first_failures"] = [f"{c.command}: {c.error}" for c in failures[:5]]
    return {
        "environment": environment(args),
        "run": info,
        "result": {
            "correct": not failures,
            "attempted": len(attempted),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        report = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": report["environment"]}, sort_keys=True))
    print(json.dumps({"run": report["run"]}, sort_keys=True))
    result = report["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
