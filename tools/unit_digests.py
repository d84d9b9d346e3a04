"""Print the unit digests of the benchmark's workloads: ROADMAP's digest table.

    python tools/unit_digests.py [--root DIR]

For each workload of perfbench/workloads.py and seeds 0 and 1, prepare the
workload's inputs, run one unit and print sha256(text)[:16] of its output,
the digest perfbench/run.py takes of every unit but writes to no record, and
beside it the structure digest: the same hash of the output's JSON documents
with every float replaced by null, which holds while only last bits move and
every label, mask, rank and count stays.
The program is imported from DIR/src and the workloads from DIR/perfbench
(DIR defaults to this checkout), so the table of another checkout, such as
a parent commit's, can be printed by the same script; nothing under DIR is
changed, and the workloads that write files write them to a temporary
directory.  The BLAS pools get one thread unless the environment sets them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


SEEDS = (0, 1)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def structure(text: str) -> str:
    """The JSON documents of a unit's text, one after another as the unit
    wrote them, with every float replaced by null and dumped one a line."""
    def strip(v):
        if isinstance(v, float):
            return None
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items()}
        return [strip(x) for x in v] if isinstance(v, list) else v

    decoder, docs, i = json.JSONDecoder(), [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        doc, i = decoder.raw_decode(text, i)
        docs.append(json.dumps(strip(doc)))
    return "\n".join(docs)


def digests(root: Path) -> dict:
    """{workload: [(digest, structure digest) per seed of SEEDS]} for the
    checkout at root."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            row = []
            for seed in SEEDS:
                wl = workloads.WORKLOADS[name](seed, False, Path(tmp) / f"{name}-{seed}")
                wl.prepare()
                res = wl.unit()
                if res.failed:
                    raise SystemExit(f"{name} seed {seed}: {res.failed} failed: {res.errors[:3]}")
                row.append((_digest(res.text), _digest(structure(res.text))))
            out[name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ and perfbench/ are used (default: this one)")
    args = ap.parse_args(argv)
    print("| workload | " + " | ".join(f"seed {s} | structure {s}" for s in SEEDS) + " |")
    print("|---|" + "---|---|" * len(SEEDS))
    for name, row in digests(args.root.resolve()).items():
        print(f"| {name} | " + " | ".join(f"`{d}` | `{t}`" for d, t in row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
