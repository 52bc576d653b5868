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
survived total.  An ``EQUIVALENT`` entry names its site's source line
and the site's occurrence among the function's sites with that line and
mutation (0 for the first), so sites of the same text in one function,
even on one line, keep their own verdicts; an entry that matches no site
is printed at the start.  The score is
killed / (killed + survived).

Not collected by pytest (the file name does not start with ``test_``),
and not run in CI: it takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import copy
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

# (module, function, source line, original, mutated, occurrence) -> why
# the mutant behaves as the original; the line and the occurrence tell
# apart sites of the same text
EQUIVALENT = {
    ("qcore", "StateVector.__init__", "if not abs(norm - 1.0) <= TOL:",
     "abs(norm - 1.0) <= TOL", "abs(norm - 1.0) < TOL", 0):
        "norm - 1.0 is a multiple of 2**-53 near 1, and the double 1e-10 is not, "
        "so the two never meet",
    ("mbqc", "_byproduct_table",
     "for branch in itertools.product((0, 1), repeat=len(pattern.steps)):",
     "(0, 1)", "(0, 2)", 0):
        "a branch bit is only tested for truth, and 2 is as true as 1",
    ("mbqc", "<module>", "kind: (frame, _byproduct_table(pattern_fn(0.0, 0.0)))",
     "pattern_fn(0.0, 0.0)", "pattern_fn(1e-06, 0.0)", 0):
        "a gate pattern's feedforward does not depend on its angles, so the "
        "byproduct table built from it is the same",
    ("mbqc", "<module>", "kind: (frame, _byproduct_table(pattern_fn(0.0, 0.0)))",
     "pattern_fn(0.0, 0.0)", "pattern_fn(0.0, 1e-06)", 0):
        "a gate pattern's feedforward does not depend on its angles, so the "
        "byproduct table built from it is the same",
    ("analysis", "_draw", "if abs(total_p - 1.0) > 1e-6:",
     "abs(total_p - 1.0) > 1e-06", "abs(total_p - 1.0) >= 1e-06", 0):
        "total_p - 1.0 is a multiple of 2**-53 near 1, and the double 1e-6 is not, "
        "so the two never meet",
    ("qcore", "_branches", "off = np.abs(traces - 1.0) > TOL",
     "np.abs(traces - 1.0) > TOL", "np.abs(traces - 1.0) >= TOL", 0):
        "traces - 1.0 is a multiple of 2**-53 near 1, and the double 1e-10 is not, "
        "so the two never meet",
    ("qcore", "_branches",
     "for coefs in splits if n > 1 else splits[:1]:  # a last qubit's weights need outcome 0 only",
     "n > 1", "n >= 1", 0):
        "it also builds the last qubit's outcome-1 branch, which nothing reads: both "
        "weights come from outcome 0's branch, and no residual is returned",
    ("qcore", "_branches",
     "for coefs in splits if n > 1 else splits[:1]:  # a last qubit's weights need outcome 0 only",
     ":1", ":2", 0):
        "it also builds the last qubit's outcome-1 branch, which nothing reads: both "
        "weights come from outcome 0's branch, and no residual is returned",
    ("qcore", "_split_coefficients", "@lru_cache(maxsize=256)",
     "lru_cache(maxsize=256)", "lru_cache(maxsize=257)", 0):
        "the cache's size decides only which angles stay cached, never a coefficient",
    ("qcore", "DensityMatrix.__init__", "dim = m.shape[0]", "m.shape[0]", "m.shape[1]", 0):
        "the squareness test one line earlier makes m.shape[0] == m.shape[1]",
    ("photonics", "_noise_channel", "d = rho.shape[-1]", "rho.shape[-1]", "rho.shape[-2]", 0):
        "the channel only receives square matrices or stacks of them, whose "
        "last two axes have the same length",
    ("photonics", "fit_noise", "if keep > 0.0 and 0.0 <= keep_q <= keep:",
     "0.0 <= keep_q <= keep", "0.0 < keep_q <= keep", 0):
        "at keep_q = 0 the interior candidate (keep, 0.0) equals the q = 0 edge "
        "candidate, which min already takes first",
}
RESHAPE = "numpy reads any negative length in a reshape as the one it infers"


def _key(site):
    """A site's ``EQUIVALENT`` key."""
    return tuple(site[name] for name in
                 ("module", "function", "source", "original", "mutated", "occurrence"))


def _equivalence(site):
    """Why a site's mutant is equivalent, or None."""
    if _key(site) in EQUIVALENT:
        return EQUIVALENT[_key(site)]
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


def _module_sites(module: str, source: str):
    """Every site of one module's ``source`` as a dict; ``source`` in the
    dict is the stripped text of the site's line, ``index`` its place
    among the module's sites, and ``occurrence`` the number of earlier
    sites with the same function, line text and mutation."""
    lines = source.splitlines()
    sites, seen = [], {}
    for index, (node, function, context, kind) in enumerate(_sites(ast.parse(source))):
        attr = {"operator": "op", "constant": "value"}.get(kind, "ops")
        saved = copy.copy(getattr(node, attr))
        original = ast.unparse(context) if context is not None else repr(node.value)
        _mutate(node, kind)
        mutated = ast.unparse(context) if context is not None else repr(node.value)
        setattr(node, attr, saved)
        sites.append({
            "module": module, "line": node.lineno, "function": function or "<module>",
            "kind": kind.split()[0], "original": original, "mutated": mutated,
            "source": lines[node.lineno - 1].strip(), "index": index,
        })
        same = _key({**sites[-1], "occurrence": None})
        sites[-1]["occurrence"] = seen[same] = seen.get(same, -1) + 1
    return sites


def _site_list():
    """Every site of the package, module by module."""
    return [
        site
        for module in MODULES
        for site in _module_sites(
            module, (ROOT / "src" / "onewaysim" / f"{module}.py").read_text(encoding="utf-8")
        )
    ]


def _mutant_text(site, source: str) -> str:
    """The text of a site's mutant, from a fresh tree of its module's ``source``."""
    tree = ast.parse(source)
    node, _, _, kind = _sites(tree)[site["index"]]
    _mutate(node, kind)
    return ast.unparse(tree)


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
    keys = {_key(site) for site in sites}
    for key in set(EQUIVALENT) - keys:
        print(f"EQUIVALENT entry matches no site: {key}")
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
        sources, baseline = {}, {}
        for module in MODULES:
            path = package / f"{module}.py"
            sources[module] = path.read_text(encoding="utf-8")
            baseline[module] = ast.unparse(ast.parse(sources[module]))
            path.write_text(baseline[module], encoding="utf-8")
        passed, seconds, failed = _run_tests(copy)
        print(f"unmutated copy: {'pass' if passed else 'FAIL ' + str(failed)} ({seconds:.0f} s)")
        if not passed:
            return 1
        for n, k in enumerate(chosen, 1):
            site = dict(sites[k])
            path = package / f"{site['module']}.py"
            path.write_text(_mutant_text(site, sources[site["module"]]), encoding="utf-8")
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
