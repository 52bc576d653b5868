"""Mutation audit: how many small faults in ``src/onewaysim`` the tier-1
tests catch.

    python tests/mutation_audit.py --seed 7 --seed 11 --sample 80 --out MUTATION.json

Sites are found with ``ast`` in the six package modules, in three kinds:

* operator swaps: + and -, * and /, // -> /, % -> //, ** -> *, @ -> *,
  & and |, ^ -> |, << and >> (binary and augmented operators);
* comparison flips: < and <=, > and >=, == and !=, is and is not,
  in and not in;
* constant nudges: an int n -> n + 1 (so -1 -> -2), any other number
  x -> x * 1.001 (0.0 -> 1e-06).

Each ``--seed`` draws its share of ``--sample`` sites with
``random.Random(seed)``, skipping sites an earlier seed drew;
``--function module.name`` adds every site inside that function.  The
tree is copied to a temporary directory and every module there is
replaced by its ``ast.unparse`` text, which must pass the tests unmutated.
A mutant is that copy with one site changed.  Mutants run one at a time,
each as ``python -m pytest -x -q`` on the copy with one BLAS thread and no
bytecode cache; the checkout is never written.  A failing run kills the
mutant, a passing run lets it survive, and a run past ``TIMEOUT``
(600 s) counts as killed.  A mutant listed in ``EQUIVALENT``, or a
-1 -> -2 nudge in a reshape, changes no behaviour, so no test can kill
it: it is still run, but it counts in neither the killed nor the
survived total.  The score is killed / (killed + survived).

Not collected by pytest (the file name does not start with ``test_``),
and not run in CI: it takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("analysis", "cli", "cluster", "mbqc", "photonics", "qcore")
MEMORY_LIMIT = 3 * 2**30  # bytes per test run
TIMEOUT = 600.0  # seconds per test run
SKIPPED = ("__pycache__", ".git", ".hypothesis", ".pytest_cache", ".bench_tmp", "MUTATION*.json")

OPERATORS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.MatMult: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
COMPARISONS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}

COMPOUND = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.For, ast.While, ast.If,
            ast.With, ast.Try)

# (module, function, original, mutated) -> why the mutant behaves as the original
EQUIVALENT = {
    ("cli", "load_config", "_MAX_CONFIG_BYTES + 1", "_MAX_CONFIG_BYTES + 2"):
        "reading one more byte still finds every file over the cap, and no other",
    ("qcore", "StateVector.__init__", "abs(norm - 1.0) <= TOL", "abs(norm - 1.0) < TOL"):
        "norm - 1.0 is a multiple of 2**-53 near 1, and the double 1e-10 is not, "
        "so the two never meet",
    ("analysis", "grover_report", "record.counts.get(marked, 0)",
     "record.counts.get(marked, 1)"):
        "simulate_counts gives every outcome of the search table a key, so the "
        "default never applies",
    ("mbqc", "_byproduct_table", "(0, 1)", "(0, 2)"):
        "a branch bit is only tested for truth, and 2 is as true as 1",
    ("mbqc", "<module>", "pattern_fn(0.0, 0.0)", "pattern_fn(1e-06, 0.0)"):
        "a gate pattern's feedforward does not depend on its angles, so the "
        "byproduct table built from it is the same",
    ("mbqc", "<module>", "pattern_fn(0.0, 0.0)", "pattern_fn(0.0, 1e-06)"):
        "a gate pattern's feedforward does not depend on its angles, so the "
        "byproduct table built from it is the same",
    ("analysis", "simulate_counts", "abs(total_p - 1.0) > 1e-06", "abs(total_p - 1.0) >= 1e-06"):
        "total_p - 1.0 is a multiple of 2**-53 near 1, and the double 1e-6 is not, "
        "so the two never meet",
    ("qcore", "_branches", "np.abs(traces - 1.0) > TOL", "np.abs(traces - 1.0) >= TOL"):
        "traces - 1.0 is a multiple of 2**-53 near 1, and the double 1e-10 is not, "
        "so the two never meet",
    ("qcore", "DensityMatrix.__init__", "m.shape[0]", "m.shape[1]"):
        "at dim = m.shape[0] the matrix is already known to be square; the same "
        "nudge inside the squareness test itself is killed by the non-square case",
    ("photonics", "fit_noise", "0.0 <= keep_q <= keep", "0.0 < keep_q <= keep"):
        "at keep_q = 0 the interior candidate (keep, 0.0) equals the q = 0 edge "
        "candidate, which min already takes first",
}
RESHAPE = "numpy reads any negative length in a reshape as the one it infers"


def _equivalence(site):
    """Why a site's mutant is equivalent, or None."""
    key = (site["module"], site["function"], site["original"], site["mutated"])
    if key in EQUIVALENT:
        return EQUIVALENT[key]
    original, mutated = site["original"], site["mutated"]
    if ".reshape(" in original and mutated == original[::-1].replace("1-", "2-", 1)[::-1]:
        return RESHAPE  # the last -1 nudged to -2
    return None


def _number(value) -> bool:
    return isinstance(value, (int, float, complex)) and not isinstance(value, bool)


def _nudged(value):
    if isinstance(value, int):
        return value + 1
    return value * 1.001 if value else 1e-06


def _sites(tree: ast.Module):
    """(node, function, context, kind) for every mutable node, in a fixed
    order; context is the expression printed for the site."""
    found = []

    def visit(node, function, context):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = f"{function}.{node.name}" if function else node.name
        if isinstance(node, ast.expr) and not isinstance(
            getattr(node, "operand", node), ast.Constant  # a literal such as -1 included
        ):
            context = node
        elif isinstance(node, ast.stmt) and not isinstance(node, COMPOUND):
            context = node
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATORS:
            found.append((node, function, node, "operator"))
        elif isinstance(node, ast.Compare) and all(type(op) in COMPARISONS for op in node.ops):
            found.extend((node, function, node, f"comparison {i}") for i in range(len(node.ops)))
        elif isinstance(node, ast.Constant) and _number(node.value):
            found.append((node, function, context, "constant"))
        for child in ast.iter_child_nodes(node):
            visit(child, function, context)

    visit(tree, "", None)
    return found


def _mutate(node, kind) -> None:
    if kind == "operator":
        node.op = OPERATORS[type(node.op)]()
    elif kind == "constant":
        node.value = _nudged(node.value)
    else:
        index = int(kind.split()[1])
        node.ops[index] = COMPARISONS[type(node.ops[index])]()


def _site_list():
    """Every site as a dict, with the mutant's module text."""
    sites = []
    for module in MODULES:
        source = (ROOT / "src" / "onewaysim" / f"{module}.py").read_text(encoding="utf-8")
        count = len(_sites(ast.parse(source)))
        for index in range(count):
            tree = ast.parse(source)  # a fresh tree per mutant
            node, function, context, kind = _sites(tree)[index]
            original = ast.unparse(context) if context is not None else repr(node.value)
            _mutate(node, kind)
            mutated = ast.unparse(context) if context is not None else repr(node.value)
            sites.append({
                "module": module, "line": node.lineno, "function": function or "<module>",
                "kind": kind.split()[0], "original": original, "mutated": mutated,
                "text": ast.unparse(tree),
            })
    return sites


def _limit_memory() -> None:
    """Cap a test run's address space, so that a mutant that allocates
    without bound fails with MemoryError instead of exhausting the host."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run_tests(copy: Path):
    """(passed, seconds, first failing test or None) of one tier-1 run."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    start = time.perf_counter()
    try:
        run = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, "timeout"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)
    return run.returncode == 0, time.perf_counter() - start, failed and failed.group(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--sample", type=int, required=True, help="mutants drawn over all seeds")
    parser.add_argument("--function", action="append", default=[],
                        help="module.function whose every site is added")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    sites = _site_list()
    chosen = []
    for i, seed in enumerate(args.seed):
        share = args.sample // len(args.seed) + (i < args.sample % len(args.seed))
        rest = [k for k in range(len(sites)) if k not in chosen]
        chosen += random.Random(seed).sample(rest, share)
    for name in args.function:
        module, _, function = name.partition(".")
        picked = [k for k, s in enumerate(sites) if s["module"] == module
                  and s["function"] == function]
        if not picked:
            parser.error(f"--function {name}: no sites")
        chosen += [k for k in picked if k not in chosen]

    results = []
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*SKIPPED))
        package = copy / "src" / "onewaysim"
        baseline = {}
        for module in MODULES:
            path = package / f"{module}.py"
            baseline[module] = ast.unparse(ast.parse(path.read_text(encoding="utf-8")))
            path.write_text(baseline[module], encoding="utf-8")
        passed, seconds, failed = _run_tests(copy)
        print(f"unmutated copy: {'pass' if passed else 'FAIL ' + str(failed)} ({seconds:.0f} s)")
        if not passed:
            return 1
        for n, k in enumerate(chosen, 1):
            site = dict(sites[k])
            path = package / f"{site['module']}.py"
            path.write_text(site.pop("text"), encoding="utf-8")
            try:
                passed, seconds, failed = _run_tests(copy)
            finally:
                path.write_text(baseline[site["module"]], encoding="utf-8")
            reason = _equivalence(site) if passed else None
            verdict = "killed" if not passed else "equivalent" if reason else "survived"
            site.update(verdict=verdict, seconds=round(seconds, 1), killed_by=failed,
                        reason=reason)
            results.append(site)
            print(f"[{n}/{len(chosen)}] {verdict:10s} {site['module']}:{site['line']} "
                  f"{site['original']!r} -> {site['mutated']!r}", flush=True)

    killed = sum(r["verdict"] == "killed" for r in results)
    survived = sum(r["verdict"] == "survived" for r in results)
    report = {
        "seeds": args.seed, "sample": args.sample, "functions": args.function,
        "sites": len(sites), "mutants": len(results), "killed": killed,
        "survived": survived, "equivalent": len(results) - killed - survived,
        "score": round(killed / (killed + survived), 4) if killed + survived else None,
        "python": platform.python_version(), "machine": platform.machine(),
        "results": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"killed {killed}, survived {survived}, equivalent {report['equivalent']}, "
          f"score {report['score']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
