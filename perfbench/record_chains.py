"""Records the apply_chains reference: a digest of canonical_code(result,
"full") for every (Platonic seed, first operation, second operation).

    python3 perfbench/record_chains.py

The digests do not depend on the workload seed, which only relabels the
seed graphs.  Re-recording changes the benchmark's reference data.
"""

from __future__ import annotations

import json
import sys

from warmup import load_package
from workloads import CHAIN_DIGESTS, PLATONIC, chain_digest, chain_key


def main() -> int:
    L = load_package()
    ops = L.catalog.OPERATION_NAMES
    table = {}
    for name in PLATONIC:
        g = L.catalog.seed(name)
        for a in ops:
            for b in ops:
                h = L.chambers.apply_decoration(
                    L.chambers.apply_decoration(g, L.catalog.lookup(a)),
                    L.catalog.lookup(b))
                table[chain_key(name, a, b)] = chain_digest(
                    L.maps.canonical_code(h, "full"))
    CHAIN_DIGESTS.parent.mkdir(exist_ok=True)
    with open(CHAIN_DIGESTS, "w", encoding="ascii") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {CHAIN_DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
