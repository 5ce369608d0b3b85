"""Record the run digests the benchmark checks its outputs against.

Run from the repository root, after a change that is meant to alter
protocol outputs (never to make a failing check pass)::

    python3 perfbench/record_digests.py --seeds 0-10

Each (workload, seed) runs once at the ``run_seconds`` of
``BENCHMARK.json``, in a fresh process; its run digest (SHA-256 over every
round's winners, channels, charges and byte counts) is stored in
``digests.json`` under ``"<seed>:<rounds>"``.  Rounds whose networked
result differs from the in-process reference are never recorded.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-10"))
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    path = HERE / "digests.json"
    recorded = json.loads(path.read_text())
    for name in names:
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0", "--setup-samples", "0",
                 "--no-recorded"],
                capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
            )
            document = json.loads(out.stdout.strip().splitlines()[-1])
            if not document["correct"]:
                sys.exit(f"{name} seed {seed}: outputs failed their checks:\n{out.stdout}")
            digest = re.search(r"run digest ([0-9a-f]{64})", out.stdout).group(1)
            recorded.setdefault(name, {})[f"{seed}:{document['attempted']}"] = digest
            print(f"{name} seed {seed}: {document['attempted']} rounds {digest}", flush=True)
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
