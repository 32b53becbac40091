"""Seeded program lists for the four workloads, with hand-written answers.

Every expected answer is a closed form computed here in Python; none is
taken from the machine.  Sizes sit on a log-spaced ladder from 0 to the
family's largest size (so mostly small, a few large).  The seed moves each
rung of a wide ladder by up to 2%, picks the other operands and shuffles
the order.  Narrow ladders (fact up to 5, times up to 24) and the
cli-small ladder stay fixed: one rung moved by one there can change the
list's work, or its code size, by far more than 2%.  Cost grows
faster than linearly with size, so the few largest programs carry much of
a list's work: pinning the ladder keeps the total work of a list nearly
the same for every seed, which is what lets runs with different seeds be
compared.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

WORKLOADS = ("nat-cbv", "nat-cbn", "streams", "cli-small")

PRELUDE = Path(__file__).resolve().parent.parent / "src" / "duality_vm" / "prelude.ct"

# Corecursors whose escaping tail answers differently from the intended
# stream today (ROADMAP item 4): (family, strategy).
KNOWN_DEFECTS = frozenset({("countNow", "cbn"), ("scons", "cbn"), ("countDown2", "cbv")})


@dataclass(frozen=True)
class Job:
    """One program run: its text, how to run it and what it must answer."""

    id: int
    family: str
    strategy: str
    size: int
    params: dict
    text: str
    expected: int | None = None
    depth: int | None = None  # streams: observed element
    argv: list[str] = field(default_factory=list)  # cli-small: arguments to cli.main
    stdout: list[str] = field(default_factory=list)  # cli-small: expected leading output lines

    @property
    def known_defect(self) -> bool:
        return (self.family, self.strategy) in KNOWN_DEFECTS


def ladder(rng: random.Random, count: int, hi: int, jitter: float = 0.02) -> list[int]:
    """count sizes in [0, hi], log-spaced, each moved by up to +-jitter."""

    out = []
    for i in range(count):
        rung = (hi + 1) ** (i / (count - 1)) * (1 + jitter * (2 * rng.random() - 1))
        out.append(min(hi, max(0, int(rung) - 1)))
    return out


def _number_jobs(seed: int, strategy: str, per_family: int = 30) -> list[dict]:
    # The same list for both strategies: the RNG does not see the strategy.
    rng = random.Random(f"nat:{seed}")
    out = []
    for n in ladder(rng, per_family, 400):
        m = rng.randint(0, 9)
        out.append(dict(family="plus", size=n, params={"n": n, "m": m},
                        text=f"main = <plus | {n} . {m} . a0>;", expected=n + m))
    for n in ladder(rng, per_family, 24, jitter=0):
        # The largest products sit at the 90th percentile of the list's
        # program times; a seeded m would move programs across it.
        m = n // 2
        out.append(dict(family="times", size=n, params={"n": n, "m": m},
                        text=f"main = <times | {n} . {m} . a0>;", expected=n * m))
    for n in ladder(rng, per_family, 400):
        out.append(dict(family="pred", size=n, params={"n": n},
                        text=f"main = <pred | {n} . a0>;", expected=max(n - 1, 0)))
    for n in ladder(rng, per_family, 5, jitter=0):
        out.append(dict(family="fact", size=n, params={"n": n},
                        text=f"main = <fact | {n} . a0>;", expected=math.factorial(n)))
    rng.shuffle(out)
    return [dict(j, strategy=strategy) for j in out]


def stream_element(family: str, p: dict, d: int) -> int:
    """The intended element at depth d of each stream family."""

    if family == "nats":
        return d
    if family == "zeroes":
        return 0
    if family == "repeat":  # repeat succ x
        return p["x"] + d
    if family in ("countDown", "countDown2", "countNow"):
        return max(p["n"] - d, 0)
    if family == "scons":  # scons x s, with s nats or zeroes
        if d == 0:
            return p["x"]
        return d - 1 if p["s"] == "nats" else 0
    raise ValueError(family)


def stream_text(family: str, p: dict) -> str:
    if family in ("nats", "zeroes"):
        return f"main = {family};"
    if family == "repeat":
        return f"main = repeat succ {p['x']};"
    if family == "scons":
        return f"main = scons {p['x']} {p['s']};"
    return f"main = {family} {p['n']};"


STREAM_FAMILIES = ("nats", "zeroes", "repeat", "countDown", "countDown2", "scons", "countNow")


def _stream_jobs(seed: int, per_family: int = 8, max_depth: int = 400) -> list[dict]:
    rng = random.Random(f"streams:{seed}")
    out = []
    for family in STREAM_FAMILIES:
        # Call-by-value countDown costs about n * d steps of growing size, so
        # n stays small and falls as d rises: shallow programs read inside
        # the countdown, deep ones past its end.
        counts = ladder(rng, per_family, 40)[::-1]
        for rung, d in enumerate(ladder(rng, per_family, max_depth)):
            p: dict = {"d": d}
            if family in ("repeat", "scons"):
                p["x"] = rng.randint(0, 9)
            if family == "scons":
                p["s"] = ("nats", "zeroes")[rung % 2]
            if family in ("countDown", "countDown2", "countNow"):
                p["n"] = counts[rung]
            base = dict(family=family, size=d, params=p, text=stream_text(family, p),
                        depth=d, expected=stream_element(family, p, d))
            out.extend(dict(base, strategy=s) for s in ("cbv", "cbn"))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# cli-small: self-contained program files sent through duality_vm.cli.main

_DEPS = {"plus": ("plus",), "pred": ("pred",), "times": ("plus", "times"),
         "fact": ("plus", "times", "fact")}
_TYPES = {"plus": "Nat -> Nat -> Nat", "pred": "Nat -> Nat", "times": "Nat -> Nat -> Nat",
          "fact": "Nat -> Nat"}


def prelude_sources() -> dict[str, str]:
    """The source text of each prelude definition, keyed by name."""

    blocks: dict[str, str] = {}
    name = None
    for line in PRELUDE.read_text().splitlines():
        if line.startswith("def "):
            name = line.split()[1]
            blocks[name] = line
        elif name is not None and line.startswith(" "):
            blocks[name] += "\n" + line
        else:
            name = None
    return blocks


def _file(fn: str, args: list[int], sources: dict[str, str]) -> str:
    defs = "\n".join(sources[d] for d in _DEPS[fn])
    stack = " . ".join(str(a) for a in args)
    return f"{defs}\n\nmain = <{fn} | {stack} . a0>;\n"


def _value(fn: str, args: list[int]) -> int:
    return {"plus": lambda a, b: a + b, "times": lambda a, b: a * b,
            "pred": lambda a: max(a - 1, 0), "fact": math.factorial}[fn](*args)


def _args(rng: random.Random, fn: str, size: int) -> list[int]:
    return {"plus": lambda: [size, rng.randint(0, 9)], "times": lambda: [size % 7, rng.randint(0, 6)],
            "pred": lambda: [size], "fact": lambda: [size % 4]}[fn]()


def dual_numbered(k: int, names: dict) -> tuple[str, str]:
    """A numbered-fragment main and the text dualize must print for it."""

    x, p, y, z = names["x"], names["p"], names["y"], names["z"]
    producer = f"numZ {x}"
    observer = f"head {x}"
    for _ in range(k):
        producer = f"numS ({producer})"
        observer = f"tail ({observer})"
    text = f"main = <{producer} | rec : Nat {{ Z {p} -> {p} | S {y} -> {z}. {z} }} with a0>;\n"
    dual = f"main = <corec : Nat {{ head {p} -> {p} | tail {y} -> {z}. {z} }} with a0 | {observer}>;"
    return text, dual


CLI_COMMANDS = ("check", "expand", "run-json", "run-cbn-json", "run-trace", "dualize")


def _cli_jobs(seed: int, per_command: int = 24) -> list[dict]:
    rng = random.Random(f"cli:{seed}")
    sources = prelude_sources()
    out = []
    for command in CLI_COMMANDS:
        for i, size in enumerate(ladder(rng, per_command, 60, jitter=0)):
            strategy = "cbn" if command == "run-cbn-json" else "cbv"
            if command == "dualize":
                k = i % 12
                names = dict(zip("xpyz", rng.sample(["x", "u", "v", "w", "p", "q", "y", "z"], 4)))
                text, dual = dual_numbered(k, names)
                out.append(dict(family=command, strategy=strategy, size=k, params={"k": k, **names},
                                text=text, argv=["dualize", "-"], stdout=[dual]))
                continue
            # run commands alternate plus and pred so each family has a size
            # ladder; check and expand cycle through every definition chain.
            fn = ("plus", "pred")[i % 2] if command.startswith("run") else sorted(_DEPS)[i % 4]
            args = _args(rng, fn, size)
            text = _file(fn, args, sources)
            job = dict(family=f"{command}:{fn}", strategy=strategy, size=size,
                       params={"fn": fn, "args": args}, text=text)
            if command == "check":
                job.update(argv=["check", "-"],
                           stdout=[f"{d} : {_TYPES[d]}" for d in _DEPS[fn]]
                           + ["main : command (cut is consistent)"])
            elif command == "expand":
                job.update(argv=["expand", "-"],
                           stdout=[f"def {d} : {_TYPES[d]} = " for d in _DEPS[fn]] + ["main = "])
            else:
                argv = {"run-json": ["run", "--json", "-"],
                        "run-cbn-json": ["run", "--strategy", "cbn", "--json", "-"],
                        "run-trace": ["run", "--trace", "-"]}[command]
                job.update(argv=argv, expected=_value(fn, args))
            out.append(job)
    rng.shuffle(out)
    return out


def generate(workload: str, seed: int) -> list[Job]:
    """The workload's program list for this seed; same seed, same list."""

    if workload == "nat-cbv":
        raw = _number_jobs(seed, "cbv")
    elif workload == "nat-cbn":
        raw = _number_jobs(seed, "cbn")
    elif workload == "streams":
        raw = _stream_jobs(seed)
    elif workload == "cli-small":
        raw = _cli_jobs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    return [Job(id=i, **j) for i, j in enumerate(raw)]


def dump(jobs: list[Job]) -> bytes:
    """Canonical serialization of a program list (one JSON object a line)."""

    return "".join(json.dumps(asdict(j), sort_keys=True) + "\n" for j in jobs).encode()
