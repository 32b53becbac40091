"""Pinned per-rule step counts of every program family.

The cost model is fixed, so the steps each rule takes on a program are an
exact function of the program's parameters.  Within a regime (a few
boundary cases such as depth 0, or depth below, at or above the count of a
countdown) each rule's count is a polynomial of degree at most 3 in the
family's parameters.  ``pins.json`` holds those polynomials, fitted exactly
(rational arithmetic) on a grid of small programs and checked on a grid of
larger ones, at the commit that pinned them.

Run ``python3 perfbench/pins.py`` from the repository root to pin again,
which is only right in a change that fixes a proven bug in the counts.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"
DEGREE = 3


def _cmp(d: int, n: int) -> int:
    return max(-2, min(2, d - n))


def regime(family: str, p: dict) -> tuple[tuple, tuple[int, ...]]:
    """(regime key, polynomial variables) of a program's parameters."""

    if family in ("plus", "times"):
        return (), (p["n"], p["m"])
    if family == "pred":
        return (min(p["n"], 2),), (p["n"],)
    if family == "fact":
        return (p["n"],), ()
    d = p["d"]
    if family in ("nats", "zeroes"):
        return (min(d, 2),), (d,)
    if family == "repeat":
        return (min(d, 2), min(p["x"], 2)), (p["x"], d)
    if family == "scons":
        return (min(d, 2), min(p["x"], 2), p["s"]), (p["x"], d)
    if family in ("countDown", "countDown2", "countNow"):
        n = p["n"]
        return (min(d, 2), min(n, 2), _cmp(d, n)), (n, d)
    raise ValueError(f"no pins for family {family!r}")


def _monomials(nvars: int) -> list[tuple[int, ...]]:
    return [e for deg in range(DEGREE + 1)
            for e in itertools.product(range(deg + 1), repeat=nvars) if sum(e) == deg]


def _value(poly: dict[str, str], xs: tuple[int, ...]) -> Fraction:
    return sum((Fraction(coef) * _prod(xs, tuple(int(k) for k in key.split(",") if k))
                for key, coef in poly.items()), Fraction(0))


def _key(rkey: tuple) -> str:
    return json.dumps(list(rkey))


def expected_steps(table: dict, family: str, strategy: str, p: dict) -> dict[str, int] | None:
    """Pinned per-rule counts, or None when the regime was never pinned."""

    rkey, xs = regime(family, p)
    polys = table.get(f"{family}/{strategy}", {}).get(_key(rkey))
    if polys is None:
        return None
    out = {}
    for rule, poly in polys.items():
        v = _value(poly, xs)
        if v.denominator != 1:
            return None
        if v:
            out[rule] = int(v)
    return out


def load() -> dict:
    return json.loads(PINS.read_text())


# ---------------------------------------------------------------------------
# Fitting


def _solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """An exact solution of rows @ x = rhs (free unknowns 0), or None."""

    n = len(rows[0]) if rows else 0
    aug = [r[:] + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(all(v == 0 for v in row[:n]) and row[n] != 0 for row in aug):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def fit(points: list[tuple[tuple, tuple[int, ...], dict[str, int]]]) -> dict:
    """Per regime, per rule: the polynomial through every point, as
    {exponents: coefficient} with the coefficients as fraction strings."""

    by_regime: dict[str, list] = {}
    for rkey, xs, counts in points:
        by_regime.setdefault(_key(rkey), []).append((xs, counts))
    out = {}
    for rk, pts in by_regime.items():
        mons = _monomials(len(pts[0][0]))
        rows = [[Fraction(_prod(xs, e)) for e in mons] for xs, _ in pts]
        rules = sorted({r for _, c in pts for r in c})
        polys = {}
        for rule in rules:
            sol = _solve(rows, [Fraction(c.get(rule, 0)) for _, c in pts])
            if sol is None:
                raise ValueError(f"regime {rk} rule {rule}: not a polynomial of degree {DEGREE}")
            polys[rule] = {",".join(map(str, e)): str(v) for e, v in zip(mons, sol) if v}
        out[rk] = polys
    return out


def _prod(xs: tuple[int, ...], e: tuple[int, ...]) -> int:
    out = 1
    for x, k in zip(xs, e):
        out *= x ** k
    return out


def _grid(family: str, large: bool) -> list[dict]:
    """Parameter points to fit on (small) or to check the fit on (large)."""

    if family in ("plus", "times"):
        ns = [17, 40, 63] if large else range(0, 7)
        return [{"n": n, "m": m} for n in ns for m in ([5, 12] if large else range(0, 6))]
    if family == "pred":
        return [{"n": n} for n in ([9, 33, 120] if large else range(0, 9))]
    if family == "fact":
        return [] if large else [{"n": n} for n in range(0, 6)]
    ds = [11, 20, 37, 64] if large else range(0, 10)
    if family in ("nats", "zeroes"):
        return [{"d": d} for d in ds]
    if family == "repeat":
        return [{"d": d, "x": x} for d in ds for x in ([0, 1, 7] if large else range(0, 6))]
    if family == "scons":
        return [{"d": d, "x": x, "s": s} for d in ds for x in ([0, 1, 6] if large else range(0, 6))
                for s in ("nats", "zeroes")]
    out = []
    for d in ds:
        ns = sorted({0, 1, 2, d - 2, d - 1, d, d + 1, d + 2, 2 * d, 2 * d + 2}) if large else range(0, 13)
        out.extend({"d": d, "n": n} for n in ns if n >= 0)
    return out


def pin(measure) -> dict:
    """Fit every family and strategy; measure(family, strategy, params)
    returns the per-rule step counts of one program."""

    from corpus import STREAM_FAMILIES

    table = {}
    for family in ("plus", "times", "pred", "fact") + STREAM_FAMILIES:
        for strategy in ("cbv", "cbn"):
            pts = [(*regime(family, p), measure(family, strategy, p)) for p in _grid(family, False)]
            key = f"{family}/{strategy}"
            table[key] = fit(pts)
            for p in _grid(family, True):
                got = measure(family, strategy, p)
                if expected_steps(table, family, strategy, p) != got:
                    raise ValueError(f"{key} {p}: fit does not extrapolate ({got})")
            print(f"pinned {key}: {len(table[key])} regimes", file=sys.stderr)
    return table


def main() -> int:
    import run

    run.setup_paths()
    from corpus import stream_text

    session = run.Session()

    def measure(family: str, strategy: str, p: dict) -> dict[str, int]:
        if "d" in p:
            text, depth = stream_text(family, p), p["d"]
        else:
            stack = " . ".join(str(p[k]) for k in ("n", "m") if k in p)
            text, depth = f"main = <{family} | {stack} . a0>;", None
        return run.count_steps(session, text, strategy, depth)

    PINS.write_text(json.dumps(pin(measure), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
