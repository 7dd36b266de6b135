"""Self-test of the output checks: each must reject a corrupted report.

Usage (from the root of a twistlab checkout): python3 perfbench/selftest.py

It runs ``twistlab batch`` once, traced so that the exact stretch-factor
enclosures are recorded, on one line of every kind the workloads hold,
confirms that the checks accept every true report, then corrupts each report
(or its recorded enclosure) in the ways listed in ``CORRUPTIONS`` and
confirms that the checks reject every corrupted copy.  Exit status 0 means every check did both.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from decimal import Decimal, getcontext
from fractions import Fraction

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, CheckFailed  # noqa: E402
from run import program_env, read_spans  # noqa: E402

getcontext().prec = 80


def shifted(iv, delta: str):
    """An interval moved by ``delta``, in the report's decimal format."""
    return [f"{Decimal(x) + Decimal(delta):.18f}" for x in iv]


def widened(iv, delta: str):
    return [f"{Decimal(iv[0]) - Decimal(delta):.18f}", f"{Decimal(iv[1]) + Decimal(delta):.18f}"]


def _set(path, value):
    """A corruption that sets ``case[path...]`` to value(old); a case holds
    the report's ``result`` and the line's recorded ``enclosure``."""

    def corrupt(case):
        node = case
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])

    return corrupt


def _general_surface_count(case):
    """Rows claim the general-surface count 2mn(l-2), which the torus never meets."""
    result = case["result"]
    for row in result["rows"]:
        row["distance"] = row["expected"]
        row["match"] = True
        row["ratio"] = str(Fraction(row["expected"], row["m"]))
    result["all_match"] = True


CORRUPTIONS = {
    "analyze Main3.1": {
        "exact value off by 2": _set(["result", "exact"], lambda v: v + 2),
        "other theorem": _set(["result", "theorem"], lambda v: "Cycle3.2"),
        "unverified": _set(["result", "verified"], lambda v: False),
    },
    "analyze TwoMulti3.4": {
        "upper bound off by 1": _set(["result", "upper"], lambda v: v + 1),
        "lower bound off by 4": _set(["result", "lower"], lambda v: v + 4),
    },
    "minword": {
        "a total off by 1": _set(["result", "totals", 0, 1], lambda v: v + 1),
        "verdict flipped": _set(
            ["result", "verdict"], lambda v: "equal_conjugate" if v == "strictly_greater" else "strictly_greater"
        ),
        "collected word reordered": _set(["result", "collected"], lambda v: " ".join(reversed(v.split()))),
    },
    "ratio": {
        "lambda moved by 1e-9": _set(["result", "lambda_interval"], lambda v: shifted(v, "1e-9")),
        "lT wider than asked": _set(["result", "lT_interval"], lambda v: widened(v, "1e-9")),
        "trace off by 1": _set(["result", "trace"], lambda v: v + 1),
        "lC of the torus count": _set(["result", "lC"], lambda v: v + 4),
    },
    "thurston": {
        "lambda moved by 1e-6": _set(["result", "lambda_interval"], lambda v: shifted(v, "1e-6")),
        "mu wider than asked": _set(["result", "mu_interval"], lambda v: widened(v, "1e-6")),
        "log moved by 1e-8": _set(["result", "lT_interval"], lambda v: shifted(v, "-1e-8")),
        "trace coefficient off by 1": _set(["result", "trace_poly", "s_coefficients", 0], lambda v: v + 1),
        "not hyperbolic": _set(["result", "hyperbolic"], lambda v: not v),
    },
    "thurston precise": {
        # each of these still lies inside the report's 18-place intervals
        "lambda enclosure 1e-30 wide": _set(["enclosure", 0], lambda v: v - Fraction(1, 10**30)),
        "lambda enclosure beside lambda": _set(["enclosure"], lambda v: [x + Fraction(1, 10**30) for x in v[:2]] + v[2:]),
        "log enclosure 1e-30 wide": _set(["enclosure", 3], lambda v: v + Fraction(1, 10**30)),
        "no enclosure recorded": _set(["enclosure"], lambda v: None),
    },
    "farey_dist small": {
        "distance off by 1": _set(["result", "distance"], lambda v: v + 1),
    },
    "farey_dist deep": {
        "distance off by 1": _set(["result", "distance"], lambda v: v - 1),
    },
    "farey_verify": {
        "rows at 2mn(l-2)": _general_surface_count,
        "l off by 1": _set(["result", "l"], lambda v: v + 1),
        "base point not next to a": _set(["result", "base_point"], lambda v: "1/0" if v != "1/0" else "0/1"),
    },
}


def kind_of(params: dict, budget: int) -> str | None:
    mode = params["mode"]
    if mode == "analyze":
        curves = {t.partition("^")[0] for t in params["word"].split()}
        return "analyze Main3.1" if len(curves) == 2 else "analyze TwoMulti3.4"
    if mode == "farey_dist":
        deep = max(reference.magnitude(reference.parse_slope(params[k])) for k in "xy") > budget
        return "farey_dist deep" if deep else "farey_dist small"
    if mode == "thurston":
        # a Penner word (A and B twisted in opposite senses) is hyperbolic
        signs = {(t[0], t.partition("^")[2].startswith("-")) for t in params["word"].split()}
        if signs not in ({("A", False), ("B", True)}, {("A", True), ("B", False)}):
            return None
        return "thurston precise" if "precision" in params else "thurston"
    return mode


def sample_lines(work: str, bfs) -> list[dict]:
    """First line of each kind from the generated workloads."""
    lines, seen = [], set()
    for workload in workloads.WORKLOADS:
        paths = workloads.generate(workload, 0, os.path.join(work, workload), bfs)
        with open(paths["batch"], "r", encoding="utf-8") as fh:
            for raw in fh:
                params = json.loads(raw)
                kind = kind_of(params, bfs.budget)
                if kind in CORRUPTIONS and kind not in seen:
                    seen.add(kind)
                    lines.append(params)
    missing = set(CORRUPTIONS) - seen
    if missing:
        raise SystemExit(f"selftest: the workloads hold no line of kind {sorted(missing)}")
    return lines


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "twistlab", "cli.py")):
        print("selftest: src/twistlab not found; run from the root of a twistlab checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, "perfbench", "work", "selftest")
    bfs = reference.FareyBFS()
    lines = sample_lines(work, bfs)
    batch = os.path.join(work, "batch.jsonl")
    spans_path = os.path.join(work, "spans.json")
    with open(batch, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(p) + "\n" for p in lines)
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "tracer.py"), batch, spans_path],
        env=program_env(root, os.path.join(work, "pycache")),
        cwd=root,
        capture_output=True,
        check=True,
    )
    docs = [json.loads(raw) for raw in out.stdout.splitlines()[:-1]]
    _, enclosures = read_spans(spans_path)
    checker = Checker(bfs)
    failures = 0
    for i, (params, doc) in enumerate(zip(lines, docs)):
        kind = kind_of(params, bfs.budget)
        checker.enclosures = enclosures
        try:
            checker.check(i, params, doc)
            print(f"accepts  {kind:22s} true report")
        except CheckFailed as exc:
            failures += 1
            print(f"FAILS    {kind:22s} true report: {exc}")
        for name, corrupt in CORRUPTIONS[kind].items():
            bad = copy.deepcopy(doc)
            case = {"result": bad["result"], "enclosure": list(enclosures.get(i, ()))}
            corrupt(case)
            checker.enclosures = {} if case["enclosure"] is None else {i: tuple(case["enclosure"])}
            try:
                checker.check(i, params, bad)
            except CheckFailed as exc:
                print(f"rejects  {kind:22s} {name}: {exc}")
            else:
                failures += 1
                print(f"MISSES   {kind:22s} {name}")
    print("selftest:", "ok" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
