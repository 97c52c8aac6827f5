"""Record the behaviour fingerprint of every workload for a range of seeds.

Usage, from the root of a checkout::

    python3 perfbench/record_fingerprints.py

Writes ``perfbench/fingerprints.json``: workload -> seed -> digest of the
``RunMetrics.to_dict()`` of one run per instance of that seed's cycle, for
seeds ``0 .. SEEDS - 1``.
``run.py`` prints whether a run's fingerprint matches the recorded one, so a
change that claims to be speed-only can show its behaviour is byte-identical.
Re-record only with a change that means to alter behaviour, and say so.
"""

from __future__ import annotations

import json
import sys

from run import FINGERPRINTS, ROOT
from workloads import WORKLOADS, fingerprint, instance_seeds, run, succeeded

#: Benchmark seeds recorded: ``0 .. SEEDS - 1``.
SEEDS = 16


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    recorded: dict[str, dict[str, str]] = {}
    for name, workload in WORKLOADS.items():
        for seed in range(SEEDS):
            results = [run(workload.inputs(s)) for s in instance_seeds(seed)]
            if not all(succeeded(r) for r in results):
                raise SystemExit(f"{name} seed {seed}: a run failed; nothing recorded")
            recorded.setdefault(name, {})[str(seed)] = fingerprint([r.metrics for r in results])
    FINGERPRINTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
