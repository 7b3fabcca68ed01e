"""Record the digests of the checked outputs that every benchmark run must match.

    python3 perfbench/record_digests.py

Run it on the commit whose outputs are the reference (the digests in
digests.json come from the seed commit).  For each workload it runs the
reference command (the uninterrupted walk for a resumed workload) once per
random-walk seed it uses, and writes the sha256 of each checked file.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from run import DIGESTS, WORK, cli_cmd, run_child, sha256
from workloads import CHECKED_FILES, RW_SEEDS, WORKLOADS, Workload


def reference_digests(w: Workload, seed: int | None, out: Path) -> dict[str, str]:
    """Run `w`'s reference command into `out`; sha256 of each checked file."""
    shutil.rmtree(out, ignore_errors=True)
    args = w.command(w.reference_argv or w.argv, seed)
    rc, _, _, tail = run_child(cli_cmd(args, out), time.monotonic() + 600)
    if rc != 0:
        raise RuntimeError(f"{w.name} seed {seed}: exit code {rc}: {tail}")
    digests = {f: sha256(out / f) for f in CHECKED_FILES if (out / f).is_file()}
    shutil.rmtree(out)
    return digests


def main() -> int:
    digests = {}
    for w in WORKLOADS.values():
        for seed in RW_SEEDS if w.seeded else (None,):
            key = w.digest_key(seed)
            digests[key] = reference_digests(w, seed, WORK / "record")
            print(f"{key}: {sorted(digests[key])}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
