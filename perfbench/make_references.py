"""Regenerate perfbench/references.json from the current sources.

Usage (from the repository root): python3 perfbench/make_references.py

Runs every CLI call of the workloads once per reference seed (a seeded call
once per everyday seed and once for the held-out seed, a deterministic call
once) and stores the sha256 of its CSV and .meta.json.  Regenerate only
after an intended output change, in a change of its own, and record it.
"""

from __future__ import annotations

import json
import shutil

from run import (CALLS, EVERYDAY_SEEDS, HELD_OUT_SEED, REFERENCES, WORK, _sha256,
                 program_argv, run_child)


def main() -> int:
    references = {}
    for name, call in CALLS.items():
        entry = {"seeds": {}}
        for seed in EVERYDAY_SEEDS + (HELD_OUT_SEED,) if call.seeded else (0,):
            outdir = WORK / "references" / name
            shutil.rmtree(outdir, ignore_errors=True)
            report = run_child(program_argv(name, seed, outdir), trace=False, timeout=300)
            if report["status"] != 0:
                raise SystemExit(f"{name} seed {seed}: CLI exited {report['status']}")
            csv_bytes = (outdir / f"{call.kind}.csv").read_bytes()
            meta_bytes = (outdir / f"{call.kind}.meta.json").read_bytes()
            entry["seeds"][str(seed)] = {"csv": _sha256(csv_bytes), "meta": _sha256(meta_bytes)}
            shutil.rmtree(outdir)
            print(f"{name} seed {seed}: {report['wall_s']:.2f} s")
        references[name] = entry
    REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
