"""Reference optima for the pattern-search workload, computed once and stored.

For every instance the workload searches on a full lattice this records:

- ``full``: the largest N-/N+ over patterns whose support is the whole
  lattice (a minimum hitting set of the contributor sets), the space the
  exhaustive and greedy strategies search;
- ``any``: the largest N-/N+ over all patterns, zeros allowed, the space
  the local strategy searches.  For a positive set P the best negative set
  is {a not in P : every product monomial above a meets P}, so the maximum
  is taken over all P; only lattices of at most 21 points are enumerated.

Run ``python3 perfbench/optima.py`` to regenerate ``optima.json``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import exact  # noqa: E402

HERE = Path(__file__).resolve().parent
FULL = [
    (2, 10, 1), (2, 12, 1), (2, 12, 2), (2, 12, 3), (2, 14, 1), (2, 14, 2),
    (2, 16, 1), (2, 16, 2), (2, 18, 3), (2, 20, 1), (3, 3, 1), (3, 3, 2),
    (3, 4, 1), (3, 4, 2), (3, 4, 3), (3, 5, 1), (3, 5, 2), (3, 6, 1),
    (3, 7, 2), (3, 8, 1), (4, 3, 1),
]
ANY_POINT_LIMIT = 21


def full_optimum(n: int, D: int, d: int):
    points = exact.lattice(n, D)
    pos = exact.min_hitting_set(exact.hitting_sets(points, n, d), len(points))
    k = len(exact.bits(pos))
    return Fraction(len(points) - k, k), [list(points[i]) for i in exact.bits(pos)]


def any_optimum(n: int, D: int, d: int):
    points = exact.lattice(n, D)
    size = len(points)
    masks = exact.contributor_masks(points, n, d)
    deltas = exact.lattice(n, d)
    ups = [
        [masks[tuple(x + y for x, y in zip(a, delta))] for delta in deltas]
        for a in points
    ]
    best = (Fraction(0), 1)
    chunk = 1 << 18
    for lo in range(1, 1 << size, chunk):
        P = np.arange(lo, min(lo + chunk, 1 << size), dtype=np.int64)
        closure = np.zeros(P.shape, dtype=np.int64)
        for i, up in enumerate(ups):
            ok = ((P >> i) & 1) == 0
            for m in up:
                ok &= (P & m) != 0
            closure += ok
        npos = np.zeros(P.shape, dtype=np.int64)
        for i in range(size):
            npos += (P >> i) & 1
        # ratios of counts up to 21 are far apart in floats; the best is kept exact
        j = int(np.argmax(closure / npos))
        cand = Fraction(int(closure[j]), int(npos[j]))
        if cand > best[0]:
            best = (cand, int(P[j]))
    pmask = best[1]
    pos = [points[i] for i in exact.bits(pmask)]
    neg = [
        a for i, a in enumerate(points)
        if not (pmask >> i) & 1 and all(pmask & m for m in ups[i])
    ]
    return best[0], [list(a) for a in pos], [list(a) for a in neg]


def main() -> None:
    out = []
    for n, D, d in FULL:
        ratio, pos = full_optimum(n, D, d)
        rec = {"n": n, "D": D, "d": d, "full": str(ratio), "full_pos": pos}
        if len(exact.lattice(n, D)) <= ANY_POINT_LIMIT:
            r_any, p_any, n_any = any_optimum(n, D, d)
            rec.update({"any": str(r_any), "any_pos": p_any, "any_neg": n_any})
        print(n, D, d, rec["full"], rec.get("any"), flush=True)
        out.append(rec)
    (HERE / "optima.json").write_text("[\n" + ",\n".join(json.dumps(r) for r in out) + "\n]\n")


if __name__ == "__main__":
    main()
