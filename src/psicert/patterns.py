"""Sign-pattern combinatorics for the diagonal case.

A sign pattern assigns POS/NEG/ZERO to every lattice point of a fixed total
degree.  Feasibility is the covering condition: every product monomial that
receives a negative contribution must also receive a positive one.  When
that holds, making every positive coefficient large enough (and every
negative one -1) yields an exact class member, so feasibility and
realizability coincide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExhausted, ExplicitLimit, Infeasible
from .polycore import (
    MultiIndex,
    RealSparsePoly,
    _exponent_vector,
    _json_int,
    add_index,
    compositions,
    monomials_of_degree,
    multinomial,
    total_degree,
)

EXHAUSTIVE_POINT_CAP = 24


class Sign(enum.Enum):
    POS = "pos"
    NEG = "neg"
    ZERO = "zero"


class Strategy(enum.Enum):
    EXHAUSTIVE = "exhaustive"
    GREEDY = "greedy"
    LOCAL = "local"


@dataclass(frozen=True)
class SignPattern:
    """Total sign assignment on the degree-D lattice in n variables."""

    n: int
    D: int
    pos: frozenset
    neg: frozenset

    def __post_init__(self):
        pos = frozenset(tuple(a) for a in self.pos)
        neg = frozenset(tuple(a) for a in self.neg)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)
        if pos & neg:
            raise ValueError("a point cannot be both positive and negative")
        for a in pos | neg:
            if len(a) != self.n or any(x < 0 for x in a) or total_degree(a) != self.D:
                raise ValueError(f"{a} is not a degree-{self.D} point in {self.n} vars")

    def sign(self, alpha: MultiIndex) -> Sign:
        alpha = tuple(alpha)
        if alpha in self.pos:
            return Sign.POS
        if alpha in self.neg:
            return Sign.NEG
        return Sign.ZERO

    @property
    def support(self) -> frozenset:
        return self.pos | self.neg

    def ratio(self) -> Fraction | None:
        if not self.pos:
            return None
        return Fraction(len(self.neg), len(self.pos))

    def canonical(self) -> tuple:
        """Deterministic serialization used for tie-breaking."""
        return (tuple(sorted(self.pos)), tuple(sorted(self.neg)))


def pattern_from_poly(p: RealSparsePoly) -> SignPattern:
    """Sign skeleton of a homogeneous polynomial."""
    if p.is_zero():
        raise ValueError("zero polynomial has no sign pattern")
    if not p.is_homogeneous():
        raise ValueError("sign patterns are defined for homogeneous polynomials")
    pos = frozenset(a for a, c in p.table.items() if c > 0)
    neg = frozenset(a for a, c in p.table.items() if c < 0)
    return SignPattern(p.n, p.degree, pos, neg)


def pattern_to_json(pat: SignPattern) -> dict:
    return {
        "n": pat.n,
        "D": pat.D,
        "pos": [list(a) for a in sorted(pat.pos)],
        "neg": [list(a) for a in sorted(pat.neg)],
    }


def pattern_from_json(doc) -> SignPattern:
    import json as _json

    if isinstance(doc, str):
        doc = _json.loads(doc)
    n = _json_int(doc["n"])
    return SignPattern(
        n,
        _json_int(doc["D"]),
        frozenset(_exponent_vector(a, n) for a in doc.get("pos", [])),
        frozenset(_exponent_vector(a, n) for a in doc.get("neg", [])),
    )


def _negative_inflow(signs_neg, n: int, d: int) -> dict:
    """Multinomial-weighted negative mass arriving at each product monomial."""
    deltas = [(delta, multinomial(d, delta)) for delta in compositions(d, n)]
    inflow: dict = {}
    for alpha in signs_neg:
        for delta, w in deltas:
            key = add_index(alpha, delta)
            inflow[key] = inflow.get(key, 0) + w
    return inflow


class _Cover:
    """Contributor bitmasks of a fixed point set at power d.

    Point i of `points` is bit i.  `masks` maps each product monomial A to
    the bitmask of its contributors {a : A - a in Delta_d}.  A pattern on
    these points is feasible exactly when no mask meets its negative set
    without meeting its positive set.
    """

    def __init__(self, points, n: int, d: int):
        self.bit = {a: 1 << i for i, a in enumerate(points)}
        deltas = list(compositions(d, n))
        masks: dict = {}
        for a, b in self.bit.items():
            for delta in deltas:
                A = add_index(a, delta)
                masks[A] = masks.get(A, 0) | b
        self.masks = masks
        self.distinct = sorted(set(masks.values()))

    def bits(self, points) -> int:
        bit = self.bit
        return sum(bit[a] for a in points)

    def feasible(self, pos: int, neg: int) -> bool:
        return not any(m & neg and not m & pos for m in self.distinct)

    def witness(self, pos: int, neg: int):
        """Smallest product monomial fed by neg but not by pos, or None."""
        return min(
            (A for A, m in self.masks.items() if m & neg and not m & pos), default=None
        )


def support_feasible(pat: SignPattern, d: int):
    """(True, None) or (False, witness) for the covering condition at power d.

    A product monomial witnesses infeasibility when its contributor set
    meets the negative support but not the positive one; the witness is the
    smallest such monomial.
    """
    if d < 1:
        raise ValueError("power must be >= 1")
    cover = _Cover(pat.support, pat.n, d)
    witness = cover.witness(cover.bits(pat.pos), cover.bits(pat.neg))
    return (True, None) if witness is None else (False, witness)


def realize_signs(signs: dict, n: int, d: int) -> RealSparsePoly:
    """Realize a raw sign map (point -> +1/-1) with the uniform magnitude policy.

    Negative points get coefficient -1; positive points get
    M = 1 + (largest multinomial-weighted negative mass into any product
    monomial), which is enough for every covered product coefficient to come
    out positive.
    """
    neg = [a for a, s in signs.items() if s < 0]
    inflow = _negative_inflow(neg, n, d)
    M = 1 + max(inflow.values(), default=0)
    terms = {
        a: (Fraction(M) if s > 0 else Fraction(-1)) for a, s in signs.items() if s
    }
    return RealSparsePoly(n, terms)


def realize_magnitudes(pat: SignPattern, d: int) -> RealSparsePoly:
    """Exact class member with the pattern's signs, or Infeasible."""
    ok, witness = support_feasible(pat, d)
    if not ok:
        raise Infeasible(f"no realization exists; uncovered product monomial {witness}")
    signs = {a: 1 for a in pat.pos}
    signs.update({a: -1 for a in pat.neg})
    return realize_signs(signs, pat.n, d)


@dataclass(frozen=True)
class SearchResult:
    best: SignPattern
    ratio: Fraction
    evaluations: int
    strategy: Strategy
    realized: RealSparsePoly


def _pattern_on_support(n, D, support, pos_set):
    pos = frozenset(pos_set)
    neg = frozenset(support) - pos
    return SignPattern(n, D, pos, neg)


def search_max_ratio(
    n: int,
    D: int,
    d: int,
    strategy: Strategy = Strategy.EXHAUSTIVE,
    budget: int = 200_000,
    seed: int = 0,
    support=None,
) -> SearchResult:
    """Hunt for the feasible sign pattern maximizing N-/N+ at fixed (n, D, d).

    EXHAUSTIVE assigns POS/NEG over the given support (or the whole lattice
    when it is small enough) and is optimal over that space: the positive
    set is a minimum hitting set of the contributor masks, found by branch
    and bound, and the lex-smallest one is returned; `evaluations` counts
    branch-and-bound nodes.  GREEDY flips positives to negatives one at a
    time.  LOCAL runs steepest-ascent over single-point sign changes plus
    whole-pattern lattice shifts, restarting from seeded perturbations of a
    known-good pattern.  For both, `evaluations` counts the candidate
    patterns tested.  An empty support raises Infeasible.
    """
    if isinstance(strategy, str):
        strategy = Strategy(strategy.lower())
    lattice = monomials_of_degree(n, D)
    if support is None:
        support = lattice
        if strategy is Strategy.EXHAUSTIVE and len(lattice) > EXHAUSTIVE_POINT_CAP:
            raise ExplicitLimit(
                f"exhaustive search needs <= {EXHAUSTIVE_POINT_CAP} lattice points; "
                f"got {len(lattice)}; pass an explicit support restriction"
            )
    support = sorted(tuple(a) for a in support)
    if len(set(support)) != len(support):
        raise ValueError("support has duplicates")
    lattice_set = set(lattice)
    for a in support:
        if a not in lattice_set:
            raise ValueError(f"support point {a} is not on the degree-{D} lattice")
    if strategy is Strategy.EXHAUSTIVE and len(support) > EXHAUSTIVE_POINT_CAP:
        raise ExplicitLimit(
            f"exhaustive search needs <= {EXHAUSTIVE_POINT_CAP} support points"
        )
    if not support:
        raise Infeasible("empty support: there is no pattern to search")

    if strategy is Strategy.EXHAUSTIVE:
        return _search_exhaustive(n, D, d, support)
    if strategy is Strategy.GREEDY:
        return _search_greedy(n, D, d, support, budget)
    return _search_local(n, D, d, support, budget, seed)


def _finish(n, D, d, best, evals, strategy):
    ratio = best.ratio() if best.pos else Fraction(0)
    realized = realize_magnitudes(best, d)
    return SearchResult(best, ratio, evals, strategy, realized)


def _hitting_set_size(masks, most: int, enough: int, nodes: list):
    """Size of a smallest set of bits meeting every mask if it is <= `most`, else None.

    Branch and bound: branch on the unhit mask with the fewest bits and drop
    each branch's bit from the later branches; a packing of pairwise
    disjoint unhit masks bounds the size from below.  The search stops at
    the first set no larger than `enough` or than the root's bound.
    `nodes[0]` counts the nodes visited.
    """
    best = most + 1

    def packing(unhit):
        used = count = 0
        for m in unhit:
            if not m & used:
                used |= m
                count += 1
        return count

    def rec(count, unhit):
        nonlocal best
        nodes[0] += 1
        if not unhit:
            best = count
            return count <= enough
        unhit.sort(key=int.bit_count)
        if count + packing(unhit) >= best:
            return False
        m, excluded = unhit[0], 0
        while m:
            b = m & -m
            m ^= b
            rest = [u & ~excluded for u in unhit if not u & b]
            if not all(rest):
                return False
            if rec(count + 1, rest):
                return True
            excluded |= b
        return False

    masks = sorted(masks, key=int.bit_count)
    enough = max(enough, packing(masks))
    rec(0, masks)
    return best if best <= most else None


def _search_exhaustive(n, D, d, support):
    # On a fixed support the positives must meet every contributor mask,
    # and fewer positives give a larger ratio: the optimum is a minimum
    # hitting set.  Of those, keep the lex-smallest (the first a scan of
    # combinations in sorted order would meet): take each point in turn
    # when a hitting set of the optimal size still exists with it.
    masks = _Cover(support, n, d).distinct
    nodes = [0]
    k = _hitting_set_size(masks, len(support), 0, nodes)
    chosen = excluded = 0
    for i in range(len(support)):
        left = k - chosen.bit_count()
        if not left:
            break
        b = 1 << i
        rest = [m & ~excluded for m in masks if not m & (chosen | b)]
        if all(rest) and _hitting_set_size(rest, left - 1, left - 1, nodes) is not None:
            chosen |= b
        else:
            excluded |= b
    pos = [a for i, a in enumerate(support) if chosen >> i & 1]
    best = _pattern_on_support(n, D, support, pos)
    return _finish(n, D, d, best, nodes[0], Strategy.EXHAUSTIVE)


def _search_greedy(n, D, d, support, budget):
    # all positive to start; on the full support the negatives are the rest
    cover = _Cover(support, n, d)
    full = pos = (1 << len(support)) - 1
    evals = 0

    def current():
        kept = [a for i, a in enumerate(support) if pos >> i & 1]
        return _pattern_on_support(n, D, support, kept)

    improved = True
    while improved:
        improved = False
        for i in range(len(support)):
            b = 1 << i
            if not pos & b:
                continue
            if pos.bit_count() == 1:
                break
            if evals >= budget:
                raise BudgetExhausted(
                    f"greedy search stopped after {evals} evaluations",
                    best=_finish(n, D, d, current(), evals, Strategy.GREEDY),
                )
            evals += 1
            if cover.feasible(pos ^ b, full ^ pos ^ b):
                pos ^= b
                improved = True
                break
    return _finish(n, D, d, current(), evals, Strategy.GREEDY)


def _local_neighbors(pos: int, neg: int, size: int, shifts):
    """Neighbours of the pattern (pos, neg), as bitmasks over the lattice.

    Every single-point sign change, point by point and in the order
    POS, NEG, ZERO of the new sign; then every lattice shift, translating
    the whole pattern by e_i - e_j (points leaving the lattice drop to
    ZERO).  `shifts[s][k]` is the bit that point k moves to under shift s,
    or 0.
    """
    for k in range(size):
        b = 1 << k
        if pos & b:
            yield pos ^ b, neg | b
            yield pos ^ b, neg
        elif neg & b:
            yield pos | b, neg ^ b
            yield pos, neg ^ b
        else:
            yield pos | b, neg
            yield pos, neg | b

    def move(mask, to):
        out = 0
        while mask:
            low = mask & -mask
            out |= to[low.bit_length() - 1]
            mask ^= low
        return out

    for to in shifts:
        yield move(pos, to), move(neg, to)


def _search_local(n, D, d, support, budget, seed):
    import random

    from .generators import generate_pD

    rng = random.Random(seed)
    lattice = monomials_of_degree(n, D)
    cover = _Cover(lattice, n, d)
    support_set = set(support)
    # per shift e_i - e_j, the bit each lattice point moves to (0 when it leaves)
    shifts = []
    for i in range(n):
        for j in range(n):
            if i != j:
                to = []
                for a in lattice:
                    b = list(a)
                    b[i] += 1
                    b[j] -= 1
                    to.append(cover.bit[tuple(b)] if b[j] >= 0 else 0)
                shifts.append(to)

    base = pattern_from_poly(generate_pD(n, D))
    base = SignPattern(
        n, D, base.pos & support_set, base.neg & support_set
    )
    starts = [base]
    for _ in range(2):
        pos, neg = set(base.pos), set(base.neg)
        for point in rng.sample(sorted(support_set), max(1, len(support_set) // 4)):
            choice = rng.choice(("pos", "neg", "zero"))
            pos.discard(point)
            neg.discard(point)
            if choice == "pos":
                pos.add(point)
            elif choice == "neg":
                neg.add(point)
        starts.append(SignPattern(n, D, frozenset(pos), frozenset(neg)))

    evals = 0
    best = None

    def score(pos, neg):
        nonlocal evals
        evals += 1
        if evals > budget:
            raise _Budget()
        if not pos or not cover.feasible(pos, neg):
            return None
        return Fraction(neg.bit_count(), pos.bit_count())

    def points(mask):
        # bits follow the sorted lattice, so this is sorted too
        return tuple(a for k, a in enumerate(lattice) if mask >> k & 1)

    def canonical(masks):
        return points(masks[0]), points(masks[1])

    class _Budget(Exception):
        pass

    try:
        for start in starts:
            current = start
            masks = cover.bits(current.pos), cover.bits(current.neg)
            cur_score = score(*masks)
            if cur_score is None:
                current = _pattern_on_support(n, D, support, support)
                masks = cover.bits(current.pos), cover.bits(current.neg)
                cur_score = score(*masks)
            while True:
                # steepest ascent: the best ratio, ties to the smallest canonical form
                top, tied = cur_score, []
                for nb in _local_neighbors(*masks, len(lattice), shifts):
                    sc = score(*nb)
                    if sc is None or sc <= cur_score or sc < top:
                        continue
                    if sc > top:
                        top, tied = sc, []
                    tied.append(nb)
                if not tied:
                    break
                masks = min(tied, key=canonical)
                pos, neg = canonical(masks)
                current = SignPattern(n, D, frozenset(pos), frozenset(neg))
                cur_score = top
            if best is None or (cur_score, current.canonical()) > (
                best.ratio(),
                best.canonical(),
            ):
                best = current
    except _Budget:
        if best is None:
            raise BudgetExhausted(f"local search exhausted {budget} evaluations")
        raise BudgetExhausted(
            f"local search exhausted {budget} evaluations",
            best=_finish(n, D, d, best, evals, Strategy.LOCAL),
        )
    return _finish(n, D, d, best, evals, Strategy.LOCAL)
