"""Seeded, deterministic inputs for the benchmark workloads.

Every input is plain data built from a ``numpy.random.Generator``: problem
documents in the JSON schema that ``shishkin.problem_from_json`` reads, mesh
sizes and mesh orders.  The same seed always gives the same inputs.  What the
benchmark needs to check an answer (the expected verdict of a request, the
closed-form data of a scalar constant-coefficient problem) travels beside the
document and is never shown to the program.

Admissible problems get non-positive coupling and strict row dominance by
construction, as the test suite's ``zmatrix_problem`` builds them: each
off-diagonal entry is ``-(c + d*g(x))`` with ``g`` in [0, 1], so its modulus
is at most ``c + d``, and the diagonal adds a positive margin to the sum of
those moduli.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

# The paper's diffusion range: eps from 1e-10 up to 1e-2.  Fixed, not tuned.
EPS_LOG10_RANGE = (-10.0, -2.0)

# Shapes g(x) that stay within [0, 1] on [0, 1].
SHAPES = ("sin(x)", "exp(-x)", "4*x*(1 - x)", "x^2")

# Share of requests that are inadmissible: every REJECT_EVERY-th request.
# Rejects are fast, so their share places the median latency: at 1 in 10
# it falls inside the N = 128 class, not on the gap below it.
REJECT_EVERY = 10
REJECT_KINDS = ("sign", "dominance", "eps_order", "eps_coincident", "expr_syntax", "json_syntax")

# The verdict the CLI path must reach for each kind of request.
EXPECTED_VERDICT = {
    "ok": "ok",
    "sign": "sign",
    "dominance": "dominance",
    "eps_order": "ProblemFormatError",
    "eps_coincident": "CoincidentParametersError",
    "expr_syntax": "ProblemFormatError/ExprSyntaxError",
    "json_syntax": "ProblemFormatError/JSONDecodeError",
}

REQUEST_SIZES = (64, 128, 256)
ORDERS = ("first", "second")


def diffusion_vector(rng: np.random.Generator, n: int) -> list[float]:
    """n distinct, increasing parameters, log-uniform over the paper's range."""
    lo, hi = EPS_LOG10_RANGE
    while True:
        eps = np.sort(10.0 ** rng.uniform(lo, hi, size=n))
        if len(set(eps.tolist())) == n:
            return [float(e) for e in eps]


def admissible_problem(rng: np.random.Generator, n: int) -> dict:
    """Variable-coefficient admissible problem as a JSON-ready dict."""
    a = [["" for _ in range(n)] for _ in range(n)]
    for i in range(n):
        row_abs = 0.0
        for j in range(n):
            if j == i:
                continue
            c = float(rng.uniform(0.1, 0.6))
            d = float(rng.uniform(0.0, 0.4))
            a[i][j] = "-(%r + %r*%s)" % (c, d, SHAPES[rng.integers(len(SHAPES))])
            row_abs += c + d
        margin = float(rng.uniform(0.3, 2.0))
        bump = float(rng.uniform(0.0, 1.0))
        a[i][i] = "%r + %r*%s" % (row_abs + margin, bump, SHAPES[rng.integers(len(SHAPES))])
    f = []
    for _ in range(n):
        c0, c1, c2, c3 = (float(v) for v in rng.uniform(-1.0, 2.0, size=4))
        f.append("%r + %r*sin(3*x) + %r*exp(-2*x) + %r*x^2" % (c0, c1, c2, c3))
    return {
        "n": n,
        "eps": diffusion_vector(rng, n),
        "A": a,
        "f": f,
        "u_left": [float(v) for v in rng.uniform(-1.0, 1.0, size=n)],
        "u_right": [float(v) for v in rng.uniform(-1.0, 1.0, size=n)],
    }


@dataclass(frozen=True)
class ScalarData:
    """Constants of -eps u'' + a u = f with u(0) = u0, u(1) = u1."""

    eps: float
    a: float
    f: float
    u0: float
    u1: float


def constant_scalar_problem(rng: np.random.Generator) -> tuple[dict, ScalarData]:
    """n = 1 constant-coefficient problem, which has a closed-form solution."""
    data = ScalarData(
        eps=diffusion_vector(rng, 1)[0],
        a=float(rng.uniform(0.5, 3.0)),
        f=float(rng.uniform(-2.0, 2.0)),
        u0=float(rng.uniform(-1.0, 1.0)),
        u1=float(rng.uniform(-1.0, 1.0)),
    )
    doc = {"n": 1, "eps": [data.eps], "A": [[repr(data.a)]], "f": [repr(data.f)],
           "u_left": [data.u0], "u_right": [data.u1]}
    return doc, data


def _break(rng: np.random.Generator, doc: dict, kind: str) -> str:
    """Introduce exactly one admissibility or syntax fault; return the text."""
    n = doc["n"]
    if kind == "sign":
        doc["A"][0][1] = "%r + %r*x" % (float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.0, 0.5)))
    elif kind == "dominance":
        # the off-diagonal moduli of row 0 are at least 0.1 each, so a diagonal
        # below 0.05 fails dominance (for n = 1: a non-positive diagonal)
        doc["A"][0][0] = "0.05*x - 0.01" if n == 1 else "0.04 + 0.01*x"
    elif kind == "eps_order":
        doc["eps"] = doc["eps"][::-1]
    elif kind == "eps_coincident":
        doc["eps"][1] = doc["eps"][0]
    elif kind == "expr_syntax":
        doc["f"][0] = "1 + *x"
    text = json.dumps(doc)
    if kind == "json_syntax":
        text = text[: len(text) // 2]
    return text


@dataclass(frozen=True)
class Request:
    """One `shishkin solve`-style request and what the benchmark expects of it."""

    document: str
    intervals: int
    order: str
    kind: str  # a key of EXPECTED_VERDICT
    scalar: Optional[ScalarData] = None

    @property
    def expected_verdict(self) -> str:
        return EXPECTED_VERDICT[self.kind]


def requests(seed: int, count: int) -> list[Request]:
    """A fixed traffic mix; every REJECT_EVERY-th request is inadmissible.

    Sizes, component counts and mesh orders follow one fixed cycle, and the
    reject kinds another, so every seed sends the same mix and varies only
    the values (coefficients, eps, boundary data, which fault).  For n = 1,
    constant-coefficient problems alternate with variable ones.
    """
    rng = np.random.default_rng([seed, 3])
    shapes = [(size, n, order) for size in REQUEST_SIZES for n in (1, 2, 3) for order in ORDERS]
    out = []
    accepted = rejected = scalars = 0
    for k in range(count):
        if k % REJECT_EVERY == REJECT_EVERY - 1:
            kind = REJECT_KINDS[rejected % len(REJECT_KINDS)]
            size, n, order = shapes[rejected % len(shapes)]
            rejected += 1
            if kind in ("sign", "eps_order", "eps_coincident"):
                n = max(n, 2)  # these faults need an off-diagonal entry or a second eps
            text = _break(rng, admissible_problem(rng, n), kind)
            out.append(Request(text, size, order, kind))
            continue
        size, n, order = shapes[accepted % len(shapes)]
        accepted += 1
        if n == 1 and scalars % 2 == 0:
            doc, scalar = constant_scalar_problem(rng)
            out.append(Request(json.dumps(doc), size, order, "ok", scalar))
        else:
            out.append(Request(json.dumps(admissible_problem(rng, n)), size, order, "ok"))
        scalars += n == 1
    return out


def large_problems(seed: int, count: int) -> list[str]:
    """Variable-coefficient three-component problem documents."""
    rng = np.random.default_rng([seed, 1])
    return [json.dumps(admissible_problem(rng, 3)) for _ in range(count)]


def sweep_cases(seed: int, count: int) -> list[tuple[str, list[float], str]]:
    """(two-component template document, swept diffusion vector, mesh order) triples.

    Orders alternate first, second, first, ... so every pool holds both.
    """
    rng = np.random.default_rng([seed, 2])
    return [(json.dumps(admissible_problem(rng, 2)), diffusion_vector(rng, 2), ORDERS[k % 2])
            for k in range(count)]
