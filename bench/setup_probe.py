"""Set-up probe: a fresh interpreter imports horomu and parses one
workload's descriptors, which is all the work before its first layer call.

run.py times this script from spawn to exit; that is the set-up a CLI user
pays on every start. Usage:

    python3 bench/setup_probe.py --workload orbit --seed 1 --size full
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the path above)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    args = parser.parse_args()
    WORKLOADS[args.workload](args.seed, args.size).parse()
    return 0


if __name__ == "__main__":
    sys.exit(main())
