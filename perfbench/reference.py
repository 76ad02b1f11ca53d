"""Fixed reference task: the yardstick for the host's speed.

    python3 perfbench/reference.py

The benchmark times this script in a fresh interpreter between the commands
it measures and scales its times by how fast the script ran.  The script
does the kind of work the program does (small-integer loops of a naive point
count, products of polynomials with wide integer coefficients) with the
benchmark's own arithmetic, so no change to the program changes its time.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> None:
    for p in (293, 307, 311):
        workloads.ap_by_point_count((0, 1, 1, -2, 0), p)
    wide = [3**k * 7 ** (40 - k) for k in range(40)]
    product = wide
    for _ in range(40):
        product = workloads.poly_mul(product, wide)[: len(wide)]


if __name__ == "__main__":
    main()
