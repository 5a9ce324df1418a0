"""Pin the default seed's outputs: one sha256 per op, null where the op fails.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark compares every later commit against them):

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import run

from verdicts import digest
from workloads import DEFAULT_SEED, WORKLOADS, build


def main() -> int:
    work_root = os.path.join(run.ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=work_root)
    pinned = {}
    try:
        for workload in WORKLOADS:
            for op in build(workload, DEFAULT_SEED, workdir):
                _, _, stdout, error = run.call(op)
                pinned[op.id] = None if error else digest(stdout)
                print(f"{op.id}: {error or 'ok'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "expected_default_seed.json"), "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
