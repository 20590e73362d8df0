"""Independent checker for CLI outputs, run outside the timed region.

`check(job, rc, stdout)` returns None when the output is right and a short
reason otherwise.  Every check recomputes what it needs with `exact.py`:
naive Fraction products for member verdicts and search realizations, its
own product-matrix assembly for negative-direction witnesses, and the
stated pigeonhole properties for certificates.

Run ``python3 perfbench/check.py`` for the self-test, which shows that the
checker rejects a flipped verdict and a tampered witness.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import exact  # noqa: E402
from exact import GZERO, gadd, gconj, gmul  # noqa: E402


def parse_poly(doc) -> tuple:
    terms: dict = {}
    for t in doc["terms"]:
        key = tuple(int(e) for e in t["exp"])
        terms[key] = terms.get(key, 0) + Fraction(t["coef"])
    return int(doc["n"]), {k: v for k, v in terms.items() if v != 0}


def multinomial(d: int, delta) -> int:
    out = factorial(d)
    for x in delta:
        out //= factorial(x)
    return out


def product_table(table: dict, n: int, d: int) -> dict:
    """Entries of r * ||z||^(2d): (a, b) -> (a + delta, b + delta) with weight d!/delta!."""
    out: dict = {}
    deltas = [(delta, multinomial(d, delta)) for delta in exact.lattice(n, d)]
    for (a, b), v in table.items():
        for delta, w in deltas:
            key = (tuple(x + y for x, y in zip(a, delta)), tuple(x + y for x, y in zip(b, delta)))
            out[key] = gadd(out.get(key, GZERO), (v[0] * w, v[1] * w))
    return out


def quadratic_form(table: dict, basis: list, vector: list) -> tuple:
    acc = GZERO
    for i, bi in enumerate(basis):
        if vector[i] == GZERO:
            continue
        for j, bj in enumerate(basis):
            m = table.get((bi, bj))
            if m is not None and vector[j] != GZERO:
                acc = gadd(acc, gmul(gmul(gconj(vector[i]), m), vector[j]))
    return acc


def _check_generate(e, doc):
    n, terms = parse_poly(doc)
    if n != e["n"] or terms != e["terms"]:
        return "generated polynomial differs from the family rule"
    return None


def _check_member_output(e, doc):
    n, p = parse_poly(doc)
    if n != e["n"] or len({sum(a) for a in p}) != 1:
        return "output is not a homogeneous polynomial in n variables"
    if not exact.is_nonnegative(exact.simplex_product(p, n, e["d"])):
        return "output is not a member at the claimed power"
    return None


def _check_poly_verdict(e, doc):
    if doc["member"] is not e["member"]:
        return f"verdict {doc['member']} expected {e['member']}"
    p, n = e["poly"], e["n"]
    if "mult" in e:
        product = exact.naive_mul(p, {m: 1 for m in e["mult"]})
    else:
        product = exact.simplex_product(p, n, e["d"])
    if e["member"]:
        return None if exact.is_nonnegative(product) else "member verdict on a negative product"
    w = doc["witness"]
    mono = tuple(w["monomial"])
    value = Fraction(w["value"])
    if w["kind"] != "negative-coefficient" or value >= 0 or product.get(mono, 0) != value:
        return "negative-coefficient witness does not re-evaluate"
    return None


def _check_herm_verdict(e, doc):
    if doc["member"] is not e["member"]:
        return f"verdict {doc['member']} expected {e['member']}"
    if e["member"]:
        return None
    w = doc["witness"]
    if w["kind"] != "negative-direction":
        return "expected a negative-direction witness"
    basis = [tuple(b) for b in w["basis"]]
    vector = [(Fraction(re), Fraction(im)) for re, im in w["vector"]]
    if len(set(basis)) != len(basis) or len(vector) != len(basis):
        return "witness basis malformed"
    value = quadratic_form(product_table(e["table"], e["n"], e["d"]), basis, vector)
    if value[1] != 0 or value[0] >= 0 or value[0] != Fraction(w["value"]):
        return "negative-direction witness does not re-evaluate"
    return None


def _check_bounds(e, doc):
    pos, neg = _signs(e["poly"])
    ceiling = exact.ratio_ceiling(e["n"], e["d"])
    satisfied = neg == 0 if pos == 0 else Fraction(neg, pos) < ceiling
    got = (doc["n_plus"], doc["n_minus"], Fraction(doc["bound"]), doc["satisfied"])
    if got != (pos, neg, ceiling, satisfied):
        return f"bound report {got} expected {(pos, neg, ceiling, satisfied)}"
    return None


def _signs(p: dict) -> tuple:
    return sum(1 for c in p.values() if c > 0), sum(1 for c in p.values() if c < 0)


def _check_certificate(e, doc):
    p, n = e["poly"], e["n"]
    neg = sorted(a for a, c in p.items() if c < 0)
    pairs = [(tuple(x["from"]), tuple(x["to"])) for x in doc["assignment"]]
    if sorted(a for a, _ in pairs) != neg:
        return "assignment does not cover each negative monomial once"
    fibers: dict = {}
    for a, b in pairs:
        steps = [tuple(a[i] + (i == 0) - (i == j) for i in range(n)) for j in range(1, n)]
        if p.get(b, 0) <= 0 or b not in steps:
            return f"{a} -> {b} is not a step to a positive neighbour"
        fibers[b] = fibers.get(b, 0) + 1
    least = min(p)
    if max(fibers.values(), default=0) > n - 1 or doc["max_fiber"] != max(fibers.values(), default=0):
        return "a fiber exceeds n-1 or max_fiber is misreported"
    if tuple(doc["least_monomial"]) != least or p[least] <= 0 or least in fibers:
        return "least monomial is not positive with an empty fiber"
    return None


def _check_search(e, doc):
    n, D, d = e["n"], e["D"], e["d"]
    pos = {tuple(a) for a in doc["pattern"]["pos"]}
    neg = {tuple(a) for a in doc["pattern"]["neg"]}
    points = set(e["support"]) if e["support"] is not None else set(exact.lattice(n, D))
    lattice = set(exact.lattice(n, D))
    if not pos or pos & neg or not (pos | neg) <= lattice:
        return "pattern is not a sign pattern on the lattice"
    if e["strategy"] != "local" and pos | neg != points:
        return "pattern does not cover the searched support"
    ratio = Fraction(doc["ratio"])
    if ratio != Fraction(len(neg), len(pos)):
        return "reported ratio differs from the pattern's"
    rn, realized = parse_poly(doc["realized"])
    if rn != n or {a for a, c in realized.items() if c > 0} != pos or {a for a, c in realized.items() if c < 0} != neg:
        return "realization does not carry the pattern's signs"
    if not exact.is_nonnegative(exact.simplex_product(realized, n, d)):
        return "realization is not a member"
    ref = e["reference"]
    if ratio > ref or (e["strategy"] == "exhaustive" and ratio != ref):
        return f"ratio {ratio} against reference optimum {ref}"
    return None


def _check_diagram(e, doc):
    text = doc["document"]
    if e["style"] == "svg":
        counts = (text.count("<circle"), text.count(">P</text>"), text.count(">N</text>"))
    else:
        counts = (sum(text.count(c) for c in "PN."), text.count("P"), text.count("N"))
    want = (len(exact.lattice(e["n"], e["D"])), e["pos"], e["neg"])
    return None if counts == want else f"diagram marks {counts} expected {want}"


def _check_reduce(e, doc):
    if (doc["n_plus"], doc["n_minus"]) != tuple(e["signature"]):
        return "reduced signature differs from the construction's"
    if doc["echelon"] is not True or not doc["reconstruction_error"] <= e["tol"]:
        return "reduction not in echelon form within tolerance"
    return None


CHECKS = {
    "generate": _check_generate,
    "member-output": _check_member_output,
    "check-poly": _check_poly_verdict,
    "check-herm": _check_herm_verdict,
    "bounds": _check_bounds,
    "certificate": _check_certificate,
    "search": _check_search,
    "diagram": _check_diagram,
    "reduce": _check_reduce,
    "min-d": lambda e, doc: None if doc["min_d"] == e["min_d"] else f"min_d {doc['min_d']} expected {e['min_d']}",
    "signature": lambda e, doc: (
        None if (doc["n_plus"], doc["n_minus"]) == tuple(e["signature"]) else "signature differs from sign counts"
    ),
}


def check(job: dict, rc: int, stdout: str):
    """None when the job's exit code and output are right, else the reason."""
    if rc != job["rc"]:
        return f"exit code {rc} expected {job['rc']}"
    try:
        doc = json.loads(stdout)
        return CHECKS[job["kind"]](job["expect"], doc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"


def shortfall(job: dict, stdout: str) -> Fraction:
    """(reference optimum - ratio found) / reference optimum for a search job."""
    ref = job["expect"]["reference"]
    return (ref - Fraction(json.loads(stdout)["ratio"])) / ref


def self_test() -> list:
    """Reasons the checker failed to reject tampered outputs; empty when it works."""
    failures = []
    # x - y is not a member at power 3: the y^4 coefficient of the product is -1
    p = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    job = {"kind": "check-poly", "rc": 1, "expect": {"poly": p, "n": 2, "d": 3, "member": False}}
    good = {"member": False, "d": 3, "witness": {"kind": "negative-coefficient", "monomial": [0, 4], "value": "-1"}}
    # the diagonal quartic with lambda = 10 has the negative direction e_(2,2) at power 0
    table = {((4 - j, j), (4 - j, j)): (Fraction(c), Fraction(0)) for j, c in enumerate((1, 4, -4, 4, 1))}
    hjob = {"kind": "check-herm", "rc": 1, "expect": {"table": table, "n": 2, "d": 0, "member": False}}
    basis = [[4, 0], [3, 1], [2, 2], [1, 3], [0, 4]]
    vec = [["0", "0"], ["0", "0"], ["1", "0"], ["0", "0"], ["0", "0"]]
    hgood = {"member": False, "d": 0, "witness": {"kind": "negative-direction", "value": "-4", "vector": vec, "basis": basis}}
    cases = [(job, good), (hjob, hgood)]
    for j, doc in cases:
        if check(j, 1, json.dumps(doc)) is not None:
            failures.append(f"{j['kind']}: a correct output was rejected")
        flipped = dict(doc, member=True)
        flipped.pop("witness")
        if check(j, 0, json.dumps(flipped)) is None or check(j, 1, json.dumps(flipped)) is None:
            failures.append(f"{j['kind']}: a flipped verdict was accepted")
    tampered = [
        (job, dict(good, witness=dict(good["witness"], monomial=[1, 3]))),
        (job, dict(good, witness=dict(good["witness"], value="-2"))),
        (hjob, dict(hgood, witness=dict(hgood["witness"], vector=[["0", "0"], ["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]))),
        (hjob, dict(hgood, witness=dict(hgood["witness"], value="-5"))),
    ]
    for j, doc in tampered:
        if check(j, 1, json.dumps(doc)) is None:
            failures.append(f"{j['kind']}: a tampered witness was accepted")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line)
    print("checker self-test", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)
