"""Sweep the truncation class for the sphere-describing quotients and
print what stabilizes.

Each row is a lower-central truncation, so the reported group is a
quotient of the untruncated one; stability across classes is evidence,
not proof.
"""

import time

from picolim.wu import WuConfiguration, wu_report

plan = [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]

for n, c in plan:
    t0 = time.time()
    rep = wu_report(WuConfiguration(n, c))
    inv = rep["invariants"]
    shape = " + ".join(
        ["Z"] * inv["free_rank"] + [f"Z/{d}" for d in inv["torsion"]]
    ) or "0"
    print(f"n={n} class={c}: {shape:>8}   "
          f"(num rows {rep['numerator']['igs_rows']}, "
          f"den rows {rep['denominator']['igs_rows']}, {time.time() - t0:.1f}s)")
