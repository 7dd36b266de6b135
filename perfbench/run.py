"""Benchmark of the ``twistlab batch`` command on two generated workloads.

Usage (from the root of a twistlab checkout):

    python3 perfbench/run.py --workload mixed-batch --seed 1 --seconds 56 --trace 0

With ``--trace 0`` it first runs one traced round that only serves the
checks (below), then measures, with nothing traced:

* ``setup_s``: a fresh interpreter importing ``twistlab.cli`` (the fastest
  of starts spread over the run), the fixed cost of every command-line call;
* ``instances_per_s``: instances that finished ``ok`` per second of wall
  time of one ``twistlab batch`` process over the workload file (a round
  made of the fastest time of each of its parts over the rounds);
* ``instance_p50_s``: median over the instances of each instance's fastest
  time, from the arrival times of consecutive report lines on the
  unbuffered standard output;
* ``peak_rss_mb``: peak resident memory of the batch process (median of the
  rounds).

With ``--trace 1`` it alternates untraced rounds with rounds of
``perfbench/tracer.py``, which runs the same batch in one process with a
span around each layer, and reports the self time and call counts of each
layer per round (medians), plus the tracing overhead.

A round is one batch process over the whole workload file; the run repeats
whole rounds for about ``--seconds``.  Every report of the first round is
checked independently (``checks.py``), with the exact stretch-factor
enclosures a traced round recorded; every later round, traced or not, must
print the same bytes.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, CheckFailed  # noqa: E402

SETUP_PROBES = 21


def program_env(root: str, pycache: str) -> dict:
    """The program runs from ``src`` with its bytecode cached in ``pycache``,
    which is emptied here: no ``__pycache__`` already in the checkout is
    read, the first start compiles, and every later start reads the cache
    this run wrote."""
    shutil.rmtree(pycache, ignore_errors=True)
    os.makedirs(pycache)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONPYCACHEPREFIX"] = pycache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_probe(env: dict, root: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import twistlab.cli"], env=env, cwd=root, check=True)
    return perf_counter() - t0


def read_spans(path: str) -> tuple[list[list], dict[int, tuple[Fraction, ...]]]:
    """The spans and the exact stretch-factor enclosures by line index."""
    sys.set_int_max_str_digits(0)  # the enclosures run to thousands of digits
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["spans"], {int(n): tuple(Fraction(x) for x in enc) for n, enc in doc["stretch"].items()}


class Round:
    """One process over the workload file: output lines with arrival times."""

    def __init__(self, cmd: list[str], env: dict, root: str, label: str):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root)
        self.lines: list[bytes] = []
        self.arrivals: list[float] = []
        for raw in proc.stdout:
            self.arrivals.append(perf_counter() - t0)
            self.lines.append(raw)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.wall = perf_counter() - t0
        self.to_summary = self.arrivals[-1] if self.arrivals else self.wall
        self.peak_rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        print(
            f"perfbench: {label} round {self.wall:.3f} s, {len(self.lines)} lines, {self.peak_rss_mb:.1f} MB",
            file=sys.stderr,
        )

    def reports(self) -> list[dict]:
        return [json.loads(raw) for raw in self.lines[:-1]]

    def interval_times(self) -> list[float]:
        """Time of each instance after the first: gaps between report lines."""
        a = self.arrivals[:-1]
        return [b - x for x, b in zip(a, a[1:])]

    def segments(self) -> list[float]:
        """Start to the first line, gaps between lines, last line to exit."""
        marks = [0.0, *self.arrivals, self.wall]
        return [b - x for x, b in zip(marks, marks[1:])]


def verify_rounds(rounds: list[Round], inputs: list[dict], checker: Checker) -> tuple[bool, int]:
    """(correct, failed instances over all rounds); the first round's reports
    are checked, with the checker's enclosures."""
    first = rounds[0]
    problems = []
    failed = 0
    for r in rounds:
        if r.returncode != 0 or len(r.lines) != len(inputs) + 1:
            problems.append(f"round exited {r.returncode} after {len(r.lines)} lines")
            continue
        if r.lines != first.lines:
            problems.append("a round printed different reports from the first")
    try:
        docs = first.reports()
        summary = json.loads(first.lines[-1]) if first.lines else None
    except json.JSONDecodeError as exc:
        docs, summary = [], None
        problems.append(f"a report is not JSON: {exc}")
    if len(docs) == len(inputs):
        statuses = Counter(d.get("status") for d in docs)
        bad = len(docs) - statuses["ok"]
        failed = bad * len(rounds)
        if summary != {"pass": statuses["ok"], "fail": bad}:
            problems.append(f"summary {summary} does not match the reports")
        for i, (params, doc) in enumerate(zip(inputs, docs)):
            if doc.get("status") != "ok":
                print(f"perfbench: line {i + 1} failed: {doc.get('error')}", file=sys.stderr)
                continue
            try:
                checker.check(i, params, doc)
            except CheckFailed as exc:
                problems.append(f"line {i + 1} ({params['mode']}): {exc}")
    for p in problems[:10]:
        print(f"perfbench: {p}", file=sys.stderr)
    return not problems, failed


def run_rounds(make_round, seconds: float) -> list:
    """Whole rounds until the next would end after ``seconds``; at least one."""
    start = perf_counter()
    done = [make_round()]
    while perf_counter() - start + (perf_counter() - start) / len(done) <= seconds:
        done.append(make_round())
    return done


# ---------------------------------------------------------------------------
# per-layer figures from the spans


def cf_work(span_args) -> tuple[int, int]:
    """(sum of partial quotients, number of terms) of the distance input.

    ``farey_distance(x, y)`` moves x to 1/0 by a unimodular map and runs its
    dynamic programme on the image of y; its integer part is irrelevant, so
    this is the regular continued fraction of that image's fractional part.
    """
    xp, xq, yp, yq = span_args
    if (xp, xq) == (yp, yq):
        return 0, 0
    old_r, r, old_u, u, old_v, v = xp, xq, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    num = old_u * yp + old_v * yq
    den = -xq * yp + xp * yq
    if den < 0:
        num, den = -num, -den
    if den == 0:
        return 0, 0
    num %= den
    qsum = terms = 0
    a, b = den, num
    while b:
        q, rest = divmod(a, b)
        qsum += q
        terms += 1
        a, b = b, rest
    return qsum, terms


TIME_GROUPS = {
    "config.load_s": ("config.load",),
    "config.validate_s": ("config.validate",),
    "words.s": ("words",),
    "bounds.best_bound_s": ("bounds.best_bound", "bounds.checker"),
    "applications.minimal_word_s": ("applications.minimal_word",),
    "applications.ratio_report_s": ("applications.ratio_report",),
    "cli.run_instance_s": ("cli.run_instance",),
    "cli.serialize_s": ("cli.serialize",),
    "farey.farey_distance_s": ("farey.farey_distance",),
    "farey.farey_geodesic_s": ("farey.farey_geodesic",),
    "farey.word_matrix_s": ("farey.word_matrix",),
    "farey.verify_main_theorem_s": ("farey.verify_main_theorem",),
    "exact.log_enclosure_s": ("exact.log_enclosure",),
    "exact.sqrt_enclosure_s": ("exact.sqrt_enclosure",),
    "exact.refine_s": ("exact.refine",),
    "exact.p_eval_interval_s": ("exact.p_eval_interval",),
    "exact.char_poly_s": ("exact.char_poly",),
    "exact.rightmost_real_root_s": ("exact.rightmost_real_root",),
    "thurston.stretch_factor_s": ("thurston.stretch_factor",),
    "thurston.represent_s": ("thurston.represent",),
    "thurston.classify_s": ("thurston.classify",),
}
CALL_GROUPS = {
    "config.validate_calls": "config.validate",
    "bounds.checker_calls": "bounds.checker",
    "farey.farey_distance_calls": "farey.farey_distance",
    "exact.log_enclosure_calls": "exact.log_enclosure",
    "exact.refine_calls": "exact.refine",
    "thurston.perron_eigenvalue_calls": "thurston.perron_eigenvalue",
}


def layer_figures(spans: list[list]) -> dict[str, float]:
    """Self time (span minus its child spans) and calls per layer."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    qsum = terms = 0
    instance_time = 0.0
    for i, (name, start, end, _, _, args) in enumerate(spans):
        self_time[name] += end - start - children[i]
        calls[name] += 1
        if name == "cli.run_instance":
            instance_time += end - start
        if args is not None:
            q, t = cf_work(args)
            qsum += q
            terms += t
    out = {metric: sum(self_time[n] for n in names) for metric, names in TIME_GROUPS.items()}
    out.update({metric: calls[name] for metric, name in CALL_GROUPS.items()})
    out["farey.cf_quotient_sum"] = qsum
    out["farey.cf_terms"] = terms
    below_cli = sum(t for n, t in self_time.items() if not n.startswith("cli."))
    out["trace.layer_share"] = below_cli / instance_time if instance_time else 0.0
    return out


UNITS = {
    **{metric: "s" for metric in TIME_GROUPS},
    **{metric: "count" for metric in CALL_GROUPS},
    "farey.cf_quotient_sum": "count",
    "farey.cf_terms": "count",
    "trace.layer_share": "ratio",
}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "twistlab", "cli.py")):
        print("perfbench: src/twistlab not found; run from the root of a twistlab checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, "perfbench", "work", f"{args.workload}-{args.seed}")
    bfs = reference.FareyBFS()
    paths = workloads.generate(args.workload, args.seed, work, bfs)
    with open(paths["batch"], "r", encoding="utf-8") as fh:
        inputs = [json.loads(line) for line in fh]
    checker = Checker(bfs)
    env = program_env(root, os.path.join(work, "pycache"))
    batch_cmd = [sys.executable, "-u", "-m", "twistlab.cli", "batch", paths["batch"]]
    spans_path = os.path.join(work, "spans.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)  # a previous run's spans must not stand in for this one's
    traced_cmd = [sys.executable, "-u", os.path.join("perfbench", "tracer.py"), paths["batch"], spans_path]

    if args.trace == 0:
        # The check round, untimed, records the enclosures and fills the
        # bytecode cache.
        check = Round(traced_cmd, env, root, "check")
        _, checker.enclosures = read_spans(spans_path)
        start = perf_counter()
        probes: list[float] = []

        def plain_round():
            r = Round(batch_cmd, env, root, "plain")
            while len(probes) < SETUP_PROBES * min(1.0, (perf_counter() - start) / args.seconds):
                probes.append(setup_probe(env, root))
            return r

        rounds = run_rounds(plain_round, args.seconds)
        probes += [setup_probe(env, root) for _ in range(SETUP_PROBES - len(probes))]
        correct, failed = verify_rounds([check, *rounds], inputs, checker)
        ok = len(inputs) - failed // (len(rounds) + 1)
        # Every round does the same work and interference from other processes
        # only ever adds time, so the timings keep the least disturbed
        # measurement, as Python's timeit does: the fastest start, a round
        # put together from the fastest time of each of its parts, and each
        # instance's fastest time before the median over instances.
        best_round = sum(min(parts) for parts in zip(*(r.segments() for r in rounds)))
        best_times = [min(times) for times in zip(*(r.interval_times() for r in rounds))]
        metrics = {
            "setup_s": (min(probes), "s"),
            "instances_per_s": (ok / best_round, "1/s"),
            "instance_p50_s": (statistics.median(best_times), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in rounds), "MB"),
        }
        attempted = len(inputs) * (len(rounds) + 1)
    else:
        figures: list[dict] = []

        def pair():
            plain = Round(batch_cmd, env, root, "plain")
            traced = Round(traced_cmd, env, root, "traced")
            spans, enclosures = read_spans(spans_path)
            figures.append(layer_figures(spans))
            if len(figures) == 1:
                checker.enclosures = enclosures
            return plain, traced

        pairs = run_rounds(pair, args.seconds)
        rounds = [r for p in pairs for r in p]
        correct, failed = verify_rounds(rounds, inputs, checker)
        metrics = {m: (statistics.median(f[m] for f in figures), unit) for m, unit in UNITS.items()}
        overhead = statistics.median(t.to_summary for _, t in pairs) - statistics.median(p.to_summary for p, _ in pairs)
        metrics["trace.overhead_s"] = (overhead, "s")
        attempted = len(inputs) * len(rounds)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
