"""Record the correctness gate's reference outputs, bench/reference/*.json.

    python3 bench/record_reference.py [workload ...]

Runs each workload's session once at the reference seed and once at a
second seed, in this process, and stores every numeric CSV column of the
operations that succeeded.  Columns that differ between the two seeds are
marked seed-dependent (see gate.py).  Record only at a commit whose outputs
are trusted: the gate holds every later commit to them.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import session
from workloads import WORKLOADS, write_configs

REFERENCE_SEED, OTHER_SEED = 0, 1


def record(degparab, workload):
    tables = []
    for seed in (REFERENCE_SEED, OTHER_SEED):
        work = session.ROOT / ".bench_work" / f"reference-{workload.name}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        write_configs(work, workload, seed)
        _, rows = session.run_session(degparab.cli, work, workload)
        expect = {op.name: op.expect for op in workload.ops}
        ok = {r["op"] for r in rows if r["code"] in expect[r["op"]]}
        tables.append({rel: cols for rel, cols
                       in gate.read_outputs(work / "out").items()
                       if rel.split("/", 1)[0] in ok})
        print(f"{workload.name} seed {seed}: "
              + ", ".join(f"{r['op']} exit {r['code']}" for r in rows))
    return gate.make_reference(tables[0], tables[1], REFERENCE_SEED)


def main(argv):
    degparab = session.import_degparab()
    session.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in argv or sorted(WORKLOADS):
        ref = record(degparab, WORKLOADS[name])
        path = session.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
