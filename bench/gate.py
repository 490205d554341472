"""Correctness gate: each operation's CSV outputs against a stored reference.

The reference holds every numeric CSV column of every operation that
succeeded when it was recorded, at the reference seed.  Columns that come
out the same at a second seed are marked seed-independent and are compared
at every seed; seed-dependent columns are compared only at the reference
seed.  Values agree when |value - ref| <= rtol * max|ref column|, so tiny
entries (underflowed kernel-decay masses) cannot trip the gate on their own.
`summary.txt` carries a timestamp and is never compared.
"""

from __future__ import annotations

import csv
import math
import os

# The CLI already gates Monte Carlo means on their standard errors.
SKIPPED = {("mc_compare.csv", "mean"), ("mc_compare.csv", "stderr")}


def read_outputs(outdir, prefix=""):
    """{prefix + "<relpath>.csv": {column: [float, ...]}} of the numeric
    columns of every CSV below outdir."""
    tables = {}
    for base, _, files in os.walk(outdir):
        for fname in sorted(files):
            if not fname.endswith(".csv"):
                continue
            path = os.path.join(base, fname)
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            columns = {}
            for col in (rows[0].keys() if rows else ()):
                if (fname, col) in SKIPPED:
                    continue
                try:
                    columns[col] = [float(r[col]) for r in rows]
                except (TypeError, ValueError):
                    continue  # text column
            rel = os.path.relpath(path, outdir).replace(os.sep, "/")
            tables[prefix + rel] = columns
    return tables


def make_reference(at_seed, at_other_seed, seed):
    """Reference from the outputs at `seed` and at a second seed."""
    outputs = {}
    for rel, columns in sorted(at_seed.items()):
        other = at_other_seed.get(rel, {})
        outputs[rel] = {col: {"seed_dependent": other.get(col) != values,
                              "values": values}
                        for col, values in columns.items()}
    return {"seed": seed, "outputs": outputs}


def _close(value, ref, limit):
    if math.isnan(ref) or math.isinf(ref):
        return value == ref or (math.isnan(value) and math.isnan(ref))
    return abs(value - ref) <= limit


def check(outroot, op, reference, seed, rtol):
    """Problems found in the outputs of operation `op`, written below
    outroot/op (empty means pass)."""
    wanted = {rel: cols for rel, cols in reference["outputs"].items()
              if rel.split("/", 1)[0] == op}
    if not wanted:
        return []
    got = read_outputs(os.path.join(outroot, op), prefix=f"{op}/")
    problems = []
    for rel, columns in wanted.items():
        table = got.get(rel)
        if table is None:
            problems.append(f"{rel}: missing")
            continue
        for col, ref in columns.items():
            if ref["seed_dependent"] and seed != reference["seed"]:
                continue
            values, expected = table.get(col), ref["values"]
            if values is None or len(values) != len(expected):
                problems.append(f"{rel}: column {col} missing or resized")
                continue
            finite = [abs(v) for v in expected if math.isfinite(v)]
            limit = rtol * max(finite, default=0.0)
            bad = [i for i, (v, r) in enumerate(zip(values, expected))
                   if not _close(v, r, limit)]
            if bad:
                i = bad[0]
                problems.append(f"{rel}: column {col} row {i}: {values[i]!r} "
                                f"vs reference {expected[i]!r} "
                                f"({len(bad)} rows off)")
    return problems
