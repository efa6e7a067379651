"""The benchmark's workloads: fixed op lists, one dominant layer each.

An op is a tuple of strings.  Most ops are ``cyclosieve`` command lines,
run through ``cyclosieve.cli.run`` with ``--json``.  A ``roots`` op,
``("roots", shape, k, d)``, checks one case of the twisted-Schur identity
(acceptance criterion 12) through the library API, because no CLI verb
computes it.  The op set of a workload never depends on the seed; the seed
only fixes the order in which the ops are issued.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("syt", "cst", "roots", "kl")

# Evaluation points of the twisted-Schur identity; d reaches 6.
ROOT_POINTS = (2, 3, 5, 7, 11, 13)


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n as tuples, largest part first."""
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def rectangles_up_to(n: int):
    for size in range(1, n + 1):
        for width in range(1, size + 1):
            if size % width == 0:
                yield (width,) * (size // width)


def compositions_of(n: int, length: int):
    """Compositions of n into exactly ``length`` non-negative parts."""
    if length == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in compositions_of(n - first, length - 1):
            yield (first,) + rest


def symmetric_contents(n: int, k: int, d: int):
    """Contents of length k summing to n that the d-th cyclic shift fixes."""
    if (n * d) % k:
        return
    for head in compositions_of(n * d // k, d):
        yield head * (k // d)


def _csv(parts) -> str:
    return ",".join(str(p) for p in parts)


def syt_ops() -> list[tuple[str, ...]]:
    """Promotion on standard tableaux: distinct entries, so promotion and
    orbit indexing dominate."""
    shapes = [_csv(lam) for lam in rectangles_up_to(12)] + ["4^4", "3^5", "5,5,5"]
    ops = [("csp", "syt", "--shape", s, "--json") for s in shapes]
    ops += [
        ("csp", "handshake", "6", "--json"),
        ("csp", "noncrossing", "6", "--json"),
        ("csp", "bnwords", "3", "--json"),
        ("csp", "syt", "--shape", "3,3,1", "--json"),  # documented failure, exit 1
        ("csp", "syt", "--shape", "5^4", "--json"),  # over the enumeration cap, exit 2
    ]
    return ops


def cst_ops() -> list[tuple[str, ...]]:
    """Bounded and fixed-content column-strict tableaux on rectangles of at
    most 7 cells, bounds up to 6 (acceptance criteria 4, 5, 11 and 13).

    Contents are taken for every proper cyclic symmetry d < k; d = k gives
    modulus 1, a single count, and thousands of ops.
    """
    ops: list[tuple[str, ...]] = []
    for lam in rectangles_up_to(7):
        s = _csv(lam)
        for k in range(1, 7):
            ops.append(("csp", "cst", "--shape", s, "--bound", str(k), "--json"))
            ops.append(("dihedral", "--shape", s, "--bound", str(k), "--json"))
            for d in range(1, k):
                if k % d:
                    continue
                m = k // d
                for alpha in symmetric_contents(sum(lam), k, d):
                    ops.append(("csp", "content", "--shape", s, "--content", _csv(alpha),
                                "--power", str(d), "--json"))
                    ops.append(("ribbon", "kf-check", "--shape", s, "--content", _csv(alpha),
                                "--power", str(m), "--json"))
                    ops.append(("ribbon", "count", "--shape", s, "--content", _csv(alpha[:d]),
                                "--power", str(m), "--json"))
    return ops


def roots_ops() -> list[tuple[str, ...]]:
    """The twisted-Schur identity over every partition of at most 5 cells,
    k <= 6 and d | k: cyclotomic ring arithmetic dominates."""
    ops: list[tuple[str, ...]] = []
    for size in range(1, 6):
        for lam in partitions_of(size):
            for k in range(1, 7):
                for d in range(1, k + 1):
                    if k % d == 0:
                        ops.append(("roots", _csv(lam), str(k), str(d)))
    return ops


def kl_ops() -> list[tuple[str, ...]]:
    """Building, dumping and querying Kazhdan-Lusztig tables up to rank 6.

    verify-promotion exits 2 off rectangles (e.g. 4,2); mu-invariance exits
    1 on the non-rectangles of 4 and 5 cells (e.g. 3,1).
    """
    ops: list[tuple[str, ...]] = [
        ("kl", "table", "--rank", "6", "--json"),
        ("kl", "immanants", "--rank", "4", "--json"),
        ("kl", "immanants", "--rank", "5", "--json"),
        ("kl", "verify-promotion", "--shape", "4,2", "--json"),
    ]
    for size in range(1, 6):
        for lam in partitions_of(size):
            ops.append(("kl", "verify-promotion", "--shape", _csv(lam), "--json"))
            ops.append(("kl", "mu-invariance", "--shape", _csv(lam), "--json"))
    ops.append(("kl", "mu-invariance", "--shape", "3,3", "--json"))
    return ops


_BUILDERS = {"syt": syt_ops, "cst": cst_ops, "roots": roots_ops, "kl": kl_ops}


def ops_for(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's op list in the order the seed fixes."""
    ops = _BUILDERS[workload]()
    random.Random(seed).shuffle(ops)
    return ops


def op_key(op) -> str:
    return " ".join(op)


def run_roots_op(op, cs, span) -> tuple[int, str]:
    """Check one (shape, k, d) case of the twisted-Schur identity.

    The left side is the Schur polynomial at the twisted points, summed over
    the contents of CST(shape, k) in Z[zeta_k]; the right side is a sum of
    ribbon-tableau counts.  ``cs`` is the cyclosieve package, whose modules
    are looked up at call time so that traced wrappers apply; ``span``
    opens a named trace span around the ring arithmetic.  Returns an exit
    code (0 when the identity holds) and a JSON record of both integer
    sides.
    """
    _, shape, k_text, d_text = op
    lam = cs.tableaux.Partition(int(p) for p in shape.split(","))
    k, d = int(k_text), int(d_text)
    m = k // d
    size = lam.size
    contents = [tuple(t.content(k)) for t in cs.tableaux.enumerate_cst(lam, k)]
    zeta = cs.cyclotomic.zeta
    with span("cyclotomic.eval"):
        values = [zeta(k, d * j) * ROOT_POINTS[i] for i in range(d) for j in range(m)]
        total = zeta(k, 0) * 0
        for content in contents:
            term = zeta(k, 0)
            for value, mult in zip(values, content):
                term = term * value ** mult
            total = total + term
    rhs = 0
    if size % m == 0:
        for beta in compositions_of(size // m, d):
            coeff = cs.ribbons.count_ribbon_cst(lam, m, cs.tableaux.Composition(beta))
            if coeff:
                prod = 1
                for i, b in enumerate(beta):
                    prod *= ROOT_POINTS[i] ** (m * b)
                rhs += coeff * prod
    eps = cs.ribbons.spin_sign(lam, cs.tableaux.Partition(()), m)
    with span("cyclotomic.eval"):
        if eps == 0:
            lhs = None
            holds = total.is_zero() and rhs == 0
        else:
            lhs = cs.cyclotomic.as_integer(eps * total)
            holds = lhs == rhs
            if lam.is_rectangular():
                prefactor = cs.cyclotomic.as_integer(zeta(k, d) ** cs.qpolys.kappa(lam))
                holds = holds and prefactor == eps
    record = json.dumps({"eps": eps, "lhs": lhs, "rhs": rhs}, sort_keys=True)
    return (0 if holds else 1), record
