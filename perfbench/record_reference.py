"""Record reference.json: the output of every pooled benchmark item.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are trusted; every benchmark run is
checked against the file it writes. Takes about 70 s on a 2-core x86
machine, most of it in the 30 walk-cdg-t20 steps.
"""

from __future__ import annotations

import json
import sys
import time

import program


def main() -> int:
    program.import_program()
    import measure
    import reference
    import workloads

    edges = workloads.catalog()
    sections = {}
    for name, workload in workloads.WORKLOADS.items():
        start = time.perf_counter()
        sections[name] = {key: workloads.encode(call(), edges)
                          for key, call in workload.pool()}
        print(f"{name}: {len(sections[name])} outputs in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    payload = {
        "recorded_from": {"git_sha": measure.environment(program.ROOT)["git_sha"]},
        "catalog": edges,
        "workloads": sections,
    }
    reference.REFERENCE_PATH.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
