"""Rewrite circ_reference.json: the circumference of every base graph of the
cli_circ workload, computed in-process by the library.

Usage: python3 perfbench/make_reference.py
Run it only when the workload's graph set changes on purpose; the committed
file is the reference that later versions of the program are checked against.
"""

import json

import env

env.use_source_tree()
import workloads  # noqa: E402

if __name__ == "__main__":
    path = workloads.CliCirc.REFERENCE
    path.write_text(json.dumps(workloads.compute_circ_reference()) + "\n")
    print(f"wrote {path}")
