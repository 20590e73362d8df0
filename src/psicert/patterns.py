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
from functools import cached_property, lru_cache
from math import comb

from .errors import BudgetExhausted, ExplicitLimit, Infeasible, ParamsInfeasible
from .polycore import (
    GEOMETRY_CACHE_SIZE,
    MultiIndex,
    RealSparsePoly,
    _exponent_vector,
    _json_int,
    compositions,
    monomials_of_degree,
    multinomial,
    packing,
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
    """Total sign assignment on the degree-D lattice in n variables.

    `pos` and `neg` may be any iterables of points; each point must be n
    nonnegative ints summing to D, and they are kept as frozensets of tuples.
    """

    n: int
    D: int
    pos: frozenset
    neg: frozenset

    def __post_init__(self):
        pos = frozenset(_exponent_vector(a, self.n) for a in self.pos)
        neg = frozenset(_exponent_vector(a, self.n) for a in self.neg)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)
        if pos & neg:
            raise ValueError("a point cannot be both positive and negative")
        for a in pos | neg:
            if total_degree(a) != self.D:
                raise ValueError(f"{a} is not a degree-{self.D} point in {self.n} vars")

    @classmethod
    def _trusted(cls, n: int, D: int, pos: frozenset, neg: frozenset) -> "SignPattern":
        """The pattern on disjoint frozensets of degree-D points in n variables, unchecked."""
        pat = object.__new__(cls)
        pat.__dict__.update(n=n, D=D, pos=pos, neg=neg)
        return pat

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


def pattern_from_poly(p: RealSparsePoly) -> SignPattern:
    """Sign skeleton of a homogeneous polynomial."""
    if p.is_zero():
        raise ValueError("zero polynomial has no sign pattern")
    if not p.is_homogeneous():
        raise ValueError("sign patterns are defined for homogeneous polynomials")
    # a RealSparsePoly's points are n-variable exponent vectors with nonzero coefficients
    pos = frozenset(a for a, c in p.table.items() if c > 0)
    neg = frozenset(a for a, c in p.table.items() if c < 0)
    return SignPattern._trusted(p.n, p.degree, pos, neg)


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
    return SignPattern(_json_int(doc["n"]), _json_int(doc["D"]), doc.get("pos", []), doc.get("neg", []))


class _Cover:
    """Contributor bitmasks of a fixed point set at power d.

    Point i of `points` is bit i.  `masks` maps each product monomial A,
    encoded into one int by the `polycore.packing` codec, to the bitmask of its
    contributors {a : A - a in Delta_d}.  A pattern on these points is
    feasible exactly when no mask meets its negative set without meeting
    its positive set.  `realize` checks a pattern on all masks and builds its
    member, so a search checks and realizes its result on its own cover.

    The searches share one cover per (points, n, d) through `_cover`, so
    nothing writes to a cover after `__init__`: `distinct` and `through` are
    built on first read and never changed, and callers sort copies of them.
    """

    def __init__(self, points, n: int, d: int):
        if d < 1:
            raise ValueError("power must be >= 1")
        points = list(points)
        encode, self._decode = packing(max(map(sum, points), default=0), n, d)
        self.n, self.d = n, d
        self.bit = {a: 1 << i for i, a in enumerate(points)}
        steps = list(compositions(d, n))
        self._deltas = deltas = list(zip(encode(steps), [multinomial(d, delta) for delta in steps]))
        self._codes = codes = encode(points)
        masks: dict = {}
        get = masks.get
        for c, b in zip(codes, self.bit.values()):
            for dc, _ in deltas:
                key = c + dc
                masks[key] = get(key, 0) | b
        self.masks = masks

    @cached_property
    def distinct(self) -> list:
        return sorted(set(self.masks.values()))

    @cached_property
    def through(self) -> list:
        """through[i]: the masks that contain bit i (one per delta)."""
        masks, deltas = self.masks, self._deltas
        return [[masks[c + dc] for dc, _ in deltas] for c in self._codes]

    def bits(self, points) -> int:
        bit = self.bit
        return sum(bit[a] for a in points)

    def feasible(self, pos: int, neg: int) -> bool:
        # a plain loop: searches call this per candidate, and any() over a
        # generator costs a frame per call
        for m in self.distinct:
            if m & neg and not m & pos:
                return False
        return True

    def feasible_move(self, pos: int, neg: int, k: int) -> bool:
        """`feasible(pos, neg)` for a pattern that differs from a feasible one at bit k only.

        Only a mask through bit k can have changed, so only those are read.
        """
        for m in self.through[k]:
            if m & neg and not m & pos:
                return False
        return True

    def witness(self, pos: int, neg: int):
        """Smallest product monomial fed by neg but not by pos, or None."""
        code = min(
            (A for A, m in self.masks.items() if m & neg and not m & pos), default=None
        )
        return None if code is None else self._decode([code])[0]

    def points(self, mask: int) -> frozenset:
        return frozenset(a for a, b in self.bit.items() if mask & b)

    def realize(self, pos: int, neg: int) -> RealSparsePoly:
        """The uniform-magnitude member with these signs, after a check on every mask.

        Every negative point gets -1 and every positive one M = 1 + the
        largest multinomial-weighted negative inflow into one product
        monomial, which makes every covered product coefficient positive.
        Points outside pos | neg carry no bit of either, so the verdict, the
        witness and M are those of a cover over the pattern's support alone.
        """
        witness = self.witness(pos, neg)
        if witness is not None:
            raise Infeasible(f"no realization exists; uncovered product monomial {witness}")
        inflow: dict = {}
        get = inflow.get
        for c, b in zip(self._codes, self.bit.values()):
            if neg & b:
                for dc, w in self._deltas:
                    key = c + dc
                    inflow[key] = get(key, 0) + w
        M = 1 + max(inflow.values(), default=0)
        signed = pos | neg
        return RealSparsePoly._from_table(
            self.n, 1, {a: M if pos & b else -1 for a, b in self.bit.items() if signed & b}
        )


def _cover(points: tuple, n: int, d: int) -> _Cover:
    """The searches' `_Cover` of a tuple of points at power d.

    Covers of at most EXHAUSTIVE_POINT_CAP points are shared per key; a
    cover's memory grows with its point count, so a larger one is built per
    call and freed with it.
    """
    if len(points) > EXHAUSTIVE_POINT_CAP:
        return _Cover(points, n, d)
    return _shared_cover(points, n, d)


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _shared_cover(points: tuple, n: int, d: int) -> _Cover:
    return _Cover(points, n, d)


def support_feasible(pat: SignPattern, d: int):
    """(True, None) or (False, witness) for the covering condition at power d.

    A product monomial witnesses infeasibility when its contributor set
    meets the negative support but not the positive one; the witness is the
    smallest such monomial.
    """
    cover = _Cover(pat.support, pat.n, d)
    witness = cover.witness(cover.bits(pat.pos), cover.bits(pat.neg))
    return (True, None) if witness is None else (False, witness)


def realize_magnitudes(pat: SignPattern, d: int) -> RealSparsePoly:
    """Exact class member with the pattern's signs, or Infeasible."""
    cover = _Cover(pat.support, pat.n, d)
    return cover.realize(cover.bits(pat.pos), cover.bits(pat.neg))


class _Budget(Exception):
    """Local search ran out of evaluations; `_search_local` stops its climb on it."""


@dataclass(frozen=True)
class SearchResult:
    """A search's best pattern, realized; `budget_exhausted` when the budget stopped it first."""

    best: SignPattern
    ratio: Fraction
    evaluations: int
    strategy: Strategy
    realized: RealSparsePoly
    budget_exhausted: bool


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
    known-good pattern (the dense family's skeleton, or the all-positive
    support when n = 1 or D = 0).  LOCAL uses `support` only to restrict its
    start patterns: its moves range over the whole lattice and may leave the
    support.  For both, `evaluations` counts the candidate patterns tested,
    and a search that runs out of `budget` returns its best pattern so far
    with `budget_exhausted` set; a local search that has found nothing by
    then raises BudgetExhausted.  An empty support raises Infeasible, and
    an exhaustive search over more than EXHAUSTIVE_POINT_CAP points raises
    ExplicitLimit on their count, before any lattice is built.
    """
    if isinstance(strategy, str):
        strategy = Strategy(strategy.lower())
    if support is not None:
        support = tuple(sorted(tuple(a) for a in support))
        if len(set(support)) != len(support):
            raise ValueError("support has duplicates")
        for a in support:
            if len(a) != n or not all(type(x) is int and x >= 0 for x in a) or sum(a) != D:
                raise ValueError(f"support point {a} is not on the degree-{D} lattice")
    size = comb(D + n - 1, n - 1) if support is None else len(support)
    if strategy is Strategy.EXHAUSTIVE and size > EXHAUSTIVE_POINT_CAP:
        raise ExplicitLimit(
            f"exhaustive search needs <= {EXHAUSTIVE_POINT_CAP} support points; "
            f"got {size}; pass an explicit support restriction"
        )
    if not size:
        raise Infeasible("empty support: there is no pattern to search")
    lattice = monomials_of_degree(n, D) if support is None or strategy is Strategy.LOCAL else None
    support = lattice if support is None else support

    if strategy is Strategy.EXHAUSTIVE:
        return _search_exhaustive(n, D, d, support)
    if strategy is Strategy.GREEDY:
        return _search_greedy(n, D, d, support, budget)
    return _search_local(n, D, d, lattice, support, budget, seed)


def _finish(cover, D, pos, neg, evals, strategy, exhausted=False):
    """The search's result, checked and realized on the cover it searched with."""
    realized = cover.realize(pos, neg)
    best = SignPattern._trusted(cover.n, D, cover.points(pos), cover.points(neg))
    ratio = best.ratio() if pos else Fraction(0)
    return SearchResult(best, ratio, evals, strategy, realized, exhausted)


def _hitting_set_size(masks, most: int, enough: int, nodes: list):
    """Size of a smallest set of bits meeting every mask if it is <= `most`, else None.

    Branch and bound: branch on the unhit mask with the fewest bits and drop
    each branch's bit from the later branches; a packing of pairwise
    disjoint unhit masks bounds the size from below.  The search stops at
    the first set no larger than `enough` or than the root's bound.
    `nodes[0]` counts the nodes visited.
    """
    masks = sorted(masks, key=int.bit_count)
    best = [most + 1]
    _branch(0, masks, max(enough, _disjoint_count(masks)), best, nodes)
    return best[0] if best[0] <= most else None


def _disjoint_count(unhit) -> int:
    """Size of a greedy packing of pairwise disjoint masks, in the given order."""
    used = count = 0
    for m in unhit:
        if not m & used:
            used |= m
            count += 1
    return count


def _branch(count: int, unhit: list, enough: int, best: list, nodes: list) -> bool:
    """One node of `_hitting_set_size` with `count` bits taken; True stops the search.

    A module-level function, not a closure over itself, so the recursion
    leaves no reference cycle behind.  `best[0]` is the smallest size found.
    """
    nodes[0] += 1
    if not unhit:
        best[0] = count
        return count <= enough
    unhit.sort(key=int.bit_count)
    if count + _disjoint_count(unhit) >= best[0]:
        return False
    m, excluded = unhit[0], 0
    while m:
        b = m & -m
        m ^= b
        rest = [u & ~excluded for u in unhit if not u & b]
        if not all(rest):
            return False
        if _branch(count + 1, rest, enough, best, nodes):
            return True
        excluded |= b
    return False


def _search_exhaustive(n, D, d, support):
    # On a fixed support the positives must meet every contributor mask,
    # and fewer positives give a larger ratio: the optimum is a minimum
    # hitting set.  Of those, keep the lex-smallest (the first a scan of
    # combinations in sorted order would meet): take each point in turn
    # when a hitting set of the optimal size still exists with it.
    cover = _cover(support, n, d)
    masks = cover.distinct
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
    full = (1 << len(support)) - 1
    return _finish(cover, D, chosen, full ^ chosen, nodes[0], Strategy.EXHAUSTIVE)


def _search_greedy(n, D, d, support, budget):
    # all positive to start; on the full support the negatives are the rest.
    # Every accepted flip keeps the pattern feasible, so each candidate is
    # checked on the masks through its own point; a flip that fails once
    # fails for every smaller positive set and is not checked again
    cover = _cover(support, n, d)
    full = pos = (1 << len(support)) - 1
    evals = dead = 0
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
                return _finish(cover, D, pos, full ^ pos, evals, Strategy.GREEDY, True)
            evals += 1
            if dead & b:
                continue
            if cover.feasible_move(pos ^ b, full ^ pos ^ b, i):
                pos ^= b
                improved = True
                break
            dead |= b
    return _finish(cover, D, pos, full ^ pos, evals, Strategy.GREEDY)


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _local_geometry(n: int, D: int) -> tuple:
    """(shifts, dense) of the sorted degree-D lattice, for local search.

    shifts holds, per lattice shift e_i - e_j, the pair (to, leave): to[k]
    is the bit that point k moves to, 0 when it leaves the lattice, and
    `leave` is the mask of the points that leave.  dense is the (pos, neg)
    frozensets of the dense family's pattern, or None for n = 1 or D = 0,
    where it has none.
    """
    from .generators import generate_pD

    lattice = monomials_of_degree(n, D)
    bit = {a: 1 << k for k, a in enumerate(lattice)}
    shifts = []
    for i in range(n):
        for j in range(n):
            if i != j:
                to = []
                for a in lattice:
                    b = list(a)
                    b[i] += 1
                    b[j] -= 1
                    to.append(bit[tuple(b)] if b[j] >= 0 else 0)
                leave = sum(1 << k for k, t in enumerate(to) if not t)
                shifts.append((tuple(to), leave))
    try:
        dense = pattern_from_poly(generate_pD(n, D))
    except ParamsInfeasible:
        return tuple(shifts), None
    return tuple(shifts), (dense.pos, dense.neg)


def _search_local(n, D, d, lattice, support, budget, seed):
    """Steepest ascent on (pos, neg) lattice bitmasks; see `search_max_ratio`.

    Each climb step tests every single-point sign change, point by point in
    the order POS, NEG, ZERO of the new sign, then every lattice shift
    e_i - e_j of the whole pattern (points leaving the lattice drop to
    ZERO); all 2 * |lattice| + #shifts candidates count as evaluations.
    Ratios are compared as cross products of counts, and a candidate is
    checked for feasibility only when its ratio could win the step.
    """
    import random

    rng = random.Random(seed)
    size = len(lattice)
    cover = _cover(lattice, n, d)
    support_set = set(support)
    # shared like the lattice's cover, up to the same point count
    geometry = _local_geometry if size <= EXHAUSTIVE_POINT_CAP else _local_geometry.__wrapped__
    shifts, dense = geometry(n, D)
    step_cost = 2 * size + len(shifts)

    if dense is None:
        # no dense family for n = 1 or D = 0: start from the all-positive support
        base = support_set, set()
    else:
        base = dense[0] & support_set, dense[1] & support_set
    starts = [base]
    for _ in range(2):
        pos, neg = set(base[0]), set(base[1])
        for point in rng.sample(support, max(1, len(support_set) // 4)):
            choice = rng.choice(("pos", "neg", "zero"))
            pos.discard(point)
            neg.discard(point)
            if choice == "pos":
                pos.add(point)
            elif choice == "neg":
                neg.add(point)
        starts.append((pos, neg))

    evals = 0
    best = None

    def spend(count):
        # charge a batch of evaluations up front: when the budget runs out
        # inside it, nothing the batch tests can change the outcome, so stop
        # at once with the budget + 1 that a one-by-one count would report
        nonlocal evals
        if evals + count > budget:
            evals = budget + 1
            raise _Budget()
        evals += count

    def move(mask, to):
        out = 0
        while mask:
            low = mask & -mask
            out |= to[low.bit_length() - 1]
            mask ^= low
        return out

    def step(pos, neg):
        """The best neighbour of the feasible (pos, neg), or None at a local optimum.

        The ratio to beat is cn/cp (the current one, strictly) and tn/tp
        (the best so far, weakly); ties go to the first in `precedes` order.
        """
        cp, cn = pos.bit_count(), neg.bit_count()
        tp, tn, tied = cp, cn, []

        def offer(p, q, pc, qc, k=None):
            nonlocal tp, tn, tied
            if not pc or qc * cp <= cn * pc or qc * tp < tn * pc:
                return
            if not (cover.feasible(p, q) if k is None else cover.feasible_move(p, q, k)):
                return
            if qc * tp > tn * pc:
                tp, tn, tied = pc, qc, []
            tied.append((p, q))

        for k in range(size):
            b = 1 << k
            if pos & b:
                offer(pos ^ b, neg | b, cp - 1, cn + 1, k)
                offer(pos ^ b, neg, cp - 1, cn, k)
            elif not neg & b:
                # ZERO -> POS never raises the ratio
                offer(pos, neg | b, cp, cn + 1, k)
            # NEG -> POS and NEG -> ZERO lower it
        for to, leave in shifts:
            # the counts after the shift are known before it is made: make
            # it only when its ratio could win
            pc, qc = cp - (pos & leave).bit_count(), cn - (neg & leave).bit_count()
            if pc and qc * cp > cn * pc and qc * tp >= tn * pc:
                offer(move(pos, to), move(neg, to), pc, qc)
        if not tied:
            return None
        first = tied[0]
        for other in tied[1:]:
            if precedes(other, first):
                first = other
        return first

    def precedes(u, v):
        """Whether (sorted pos points, sorted neg points) of u is below that of v.

        u and v are (pos, neg) mask pairs.  Bits follow the sorted lattice, so
        a mask's sorted points are its bits in increasing order.  At the lowest
        bit where two masks differ, the one holding it comes first unless the
        other has no later bit.
        """
        x, y = (u[0], v[0]) if u[0] != v[0] else (u[1], v[1])
        if x == y:
            return False
        low = (x ^ y) & -(x ^ y)
        above = -(low << 1)
        return bool(y & above) if x & low else not x & above

    try:
        for start_pos, start_neg in starts:
            masks = cover.bits(start_pos), cover.bits(start_neg)
            spend(1)
            if not masks[0] or not cover.feasible(*masks):
                masks = cover.bits(support), 0
                spend(1)
            while True:
                spend(step_cost)
                nxt = step(*masks)
                if nxt is None:
                    break
                masks = nxt
            if best is None:
                best = masks
                continue
            # larger ratio, then later in `precedes` order
            cross = masks[1].bit_count() * best[0].bit_count()
            other = best[1].bit_count() * masks[0].bit_count()
            if cross > other or (cross == other and precedes(best, masks)):
                best = masks
    except _Budget:
        if best is None:
            raise BudgetExhausted(f"local search exhausted {budget} evaluations")
        return _finish(cover, D, *best, evals, Strategy.LOCAL, True)
    return _finish(cover, D, *best, evals, Strategy.LOCAL)
