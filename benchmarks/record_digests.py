"""Record sha256 digests of every series-tables output into digests.json.

    PYTHONHASHSEED=0 python3 benchmarks/record_digests.py

Run only on a commit whose table output is known to be right: the digests
become the expected answers of the series-tables workload. The CLI promises
byte-identical output, so they should never need re-recording.
"""

from __future__ import annotations

import json
import sys

import oracles
import workloads
from worker import import_socone


def main() -> int:
    sc = import_socone()
    digests = {}
    for argv in workloads.all_table_argvs():
        result = workloads.run_cli(sc, argv)
        if result.code != 0:
            print(f"{' '.join(argv)} exited {result.code}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = oracles.sha256(result.stdout)
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    workloads.DIGESTS_PATH.write_text(text, encoding="utf-8")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
