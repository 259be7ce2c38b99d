"""Record the SHA-256 pins of each workload's output for the given seeds.

    python3 bench/pin.py            # seeds 0-9, rewrites bench/pinned.json

Each pinned job must first pass its workload's other oracles.  Re-pin only
when a change to the package's output is intended.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pipeline import fresh_setup  # noqa: E402
from workloads import PINS_PATH, WORKLOADS, check, digest, prepare, sha256  # noqa: E402

DEFAULT_SEED = 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    args = parser.parse_args()
    env, _ = fresh_setup()
    pins: dict = {"default_seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in args.seeds:
            prepared = prepare(env, workload, seed)
            output = prepared.run(env, prepared.inputs[0])
            errors = check(prepared, output, None, None)
            if errors:
                print(f"{workload} seed {seed}: " + "; ".join(errors), file=sys.stderr)
                return 1
            pin = digest(output)
            if workload == "inspect_graph":
                pin["input"] = sha256(prepared.inputs[0])
            pins[workload][str(seed)] = pin
            print(f"{workload} seed {seed}: {pin['data'][:16]}", file=sys.stderr)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
