"""Regenerate ``reference.json``: the outputs each workload's inputs give
at the default seed.

    python3 bench/make_reference.py

Run it from a checkout whose outputs are known to be right; every output
must first pass the closed-form and invariant checks.  Moving a stored
value changes what the benchmark accepts, so say why in the change log.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads
from checks import check_invocation


def main() -> int:
    cli = run.import_cli()
    run.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference_", dir=run.SCRATCH))
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            inputs = run.build_inputs(workload, workloads.DEFAULT_SEED, workdir, None)
            client = run.Client(cli, workdir)
            entries = []
            for index, item in enumerate(inputs):
                _, code = client.call(index, item)
                if code != 0:
                    raise SystemExit(f"{workload} input {index} exited {code}")
                doc, rows = client.outputs(index, item)
                check_invocation(item.command, item.config, doc, rows)
                entries.append({"command": item.command, "config": item.config, "output": doc})
            if workload == "shipped_fit":
                reference[workload] = {
                    item.config_path.name: entry["output"] for item, entry in zip(inputs, entries)
                }
            else:
                reference[workload] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
