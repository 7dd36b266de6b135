"""Command-line entry point: JSON reports over the library functions.

Every subcommand prints one report envelope to stdout.  Exit status 0 means
success, 1 means the run finished but a hypothesis failed (the report is
still emitted, including all condition verdicts), and 2 means the input
could not be parsed at all.  Interval endpoints are serialized as decimal
strings rounded outward, so the printed interval always contains the exact
one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .applications import (
    FREE_CURVES,
    MULTICURVES,
    TWO_MULTICURVES,
    MinimalWordResult,
    RaagCertificate,
    RatioReport,
    minimal_word,
    raag_threshold,
    ratio_report,
)
from .bounds import (
    BoundResult,
    best_bound,
    bounds_curve_cycle,
    bounds_multicurve_cycle,
    bounds_two_multicurve,
    exact_two_filling,
    penner_certificate,
)
from .config import (
    CurveSystem,
    load_curve_system,
    load_curve_system_bytes,
    read_config_file,
    validate,
)
from .errors import MalformedConfig, MalformedInput, MalformedWord, NotHyperbolic, TwistlabError
from .farey import (
    Slope,
    VerificationReport,
    farey_distance,
    parse_slope,
    sample_main_equality,
    verify_main_theorem,
)
from .thurston import IntersectionMatrix, perron_eigenvalue, represent, stretch_factor
from .words import TwistWord, parse_word

DEFAULT_SEED = 20260808

WARN_DEFAULT_M = (
    "M left at its default of 100; every threshold shown is instantiated with this value"
)
WARN_TORUS_MODEL = (
    "torus backend: annular projections use the floor-difference model, exact for the "
    "twist identity and within a bounded additive constant otherwise"
)
WARN_TORUS_EMPIRICAL = (
    "the torus curve graph is sporadic: measured distances are an experiment, not a "
    "certificate of the general-surface distance count"
)


# ---------------------------------------------------------------------------
# exact decimal serialization


def _decimal(value: Fraction, places: int, round_up: bool) -> str:
    value = Fraction(value)
    scale = 10**places
    scaled = value * scale
    n = -((-scaled.numerator) // scaled.denominator) if round_up else scaled.numerator // scaled.denominator
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def interval_json(iv, places: int = 18) -> list[str]:
    lo, hi = iv
    return [_decimal(lo, places, round_up=False), _decimal(hi, places, round_up=True)]


def _verdicts_json(conditions) -> list[dict]:
    out = []
    for c in conditions:
        item = {"condition": c.description, "passed": c.passed}
        if c.witness is not None:
            item["witness"] = c.witness
        out.append(item)
    return out


def bound_json(res: BoundResult) -> dict:
    return {
        "theorem": res.theorem,
        "conditions": _verdicts_json(res.conditions),
        "lower": res.lower,
        "upper": "inf" if res.upper is None else res.upper,
        "exact": res.exact,
        "pseudo_anosov": res.pseudo_anosov,
        "verified": res.verified,
    }


def ratio_json(rr: RatioReport) -> dict:
    return {
        "lC": rr.lc,
        "lT_interval": interval_json(rr.lt),
        "tau_interval": interval_json(rr.tau),
        "optimizer_upper_interval": interval_json(rr.optimizer_upper),
        "omega": rr.omega,
        "t": rr.t,
        "trace": rr.trace,
        "lambda_interval": interval_json(rr.lam),
        "tau_within_bound": rr.tau_within_bound,
    }


def raag_json(cert: RaagCertificate) -> dict:
    return {
        "required_power": cert.required_power,
        "group_shape": cert.group_shape,
        "conditions_used": list(cert.conditions_used),
    }


def minword_json(res: MinimalWordResult) -> dict:
    return {
        "collected": str(res.collected),
        "verdict": res.verdict,
        "interchanges": res.interchanges,
        "totals": [[c, t] for c, t in res.totals],
    }


def verify_json(report: VerificationReport) -> dict:
    return {
        "a": str(report.a),
        "b": str(report.b),
        "l": report.l,
        "n": report.n,
        "exponents": list(report.exponents),
        "base_point": str(report.base_point),
        "rows": [
            {
                "m": r.power,
                "distance": r.distance,
                "expected": r.expected,
                "match": r.match,
                "ratio": str(r.ratio),
            }
            for r in report.rows
        ],
        "all_match": report.all_match,
    }


def envelope(result: dict, warnings: list[str], echo: dict) -> dict:
    return {
        "tool_version": __version__,
        "input_echo": echo,
        "result": result,
        "warnings": warnings,
    }


# ---------------------------------------------------------------------------
# parameter readers: each turns a batch value or a command-line string into
# the typed value a handler takes, raising ValueError or TypeError if it can't


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _names(value) -> list[str]:
    """A JSON array of names, or the command line's comma-separated list."""
    if isinstance(value, str):
        return [c.strip() for c in value.split(",") if c.strip()]
    if isinstance(value, list) and all(isinstance(c, str) for c in value):
        return value
    raise TypeError("expected an array of names")


def _int(value) -> int:
    """A JSON integer (not a boolean), or a decimal string from the command line."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _ints(value) -> list[int]:
    if not isinstance(value, list):
        raise TypeError("expected an array of integers")
    return [_int(e) for e in value]


def _positive(value) -> int:
    n = _int(value)
    if n < 1:
        raise ValueError(f"must be a positive integer, got {n}")
    return n


def _word(value) -> TwistWord:
    return parse_word(_text(value))


def _slope(value) -> Slope:
    return parse_slope(_text(value))


def _precision(value) -> Fraction:
    val = Fraction(str(value))
    if val <= 0:
        raise ValueError("precision must be positive")
    return val


# A process loads each distinct config content once and checks it once per
# M.  The content is a file's bytes, read again on every use so that an
# edited file is loaded afresh, or an inline object's JSON text; never the
# path.


@functools.lru_cache(maxsize=8)
def _load(content: bytes | str) -> CurveSystem:
    if isinstance(content, bytes):
        return load_curve_system_bytes(content)
    return load_curve_system(json.loads(content))


@functools.lru_cache(maxsize=8)
def _check(content: bytes | str, M: int | None) -> tuple[CurveSystem, list[str]]:
    """The system for this content and M override, and its violations."""
    sys_ = _load(content)
    if M is not None:
        sys_ = sys_.with_m(M)
    return sys_, validate(sys_)


def _config(value) -> bytes | str:
    """The configuration's content; loading it here reports a bad one as a
    bad parameter."""
    if isinstance(value, str):
        content = read_config_file(value)
    elif isinstance(value, dict):
        content = json.dumps(value)
    else:
        raise MalformedConfig("config must be a path or an inline object")
    _load(content)
    return content


def _matrix(value) -> IntersectionMatrix:
    if isinstance(value, str):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                value = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedInput(f"cannot read matrix: {exc}") from None
    if not isinstance(value, list):
        raise MalformedInput("matrix must be a JSON array of rows")
    return IntersectionMatrix.of([_ints(row) for row in value])


# ---------------------------------------------------------------------------
# handlers; each takes its mode's typed parameters and returns
# (result_dict, warnings, echo, ok)


def _system(config: bytes | str, M: int | None) -> CurveSystem:
    sys_, problems = _check(config, M)
    if problems:
        raise MalformedConfig("configuration fails validation: " + "; ".join(problems))
    return sys_


def _base_warnings(sys_: CurveSystem) -> list[str]:
    return [WARN_DEFAULT_M] if sys_.m_is_default else []


def _config_echo(w: TwistWord, sys_: CurveSystem) -> dict:
    return {"word": str(w), "config_digest": sys_.digest(), "M": sys_.M}


def do_analyze(config, M, word, theorem, A, B, cycle):
    if theorem in ("twomulti34", "penner") and not (A and B):
        raise MalformedInput(f"theorem {theorem} needs A and B")
    if theorem == "multicycle35" and not cycle:
        raise MalformedInput("theorem multicycle35 needs a cycle")
    sys_ = _system(config, M)
    if theorem == "auto":
        res = best_bound(word, sys_)
    elif theorem == "main31":
        res = exact_two_filling(word, sys_)
    elif theorem == "cycle32":
        res = bounds_curve_cycle(word, sys_)
    elif theorem == "twomulti34":
        res = bounds_two_multicurve(word, sys_, A, B)
    elif theorem == "multicycle35":
        res = bounds_multicurve_cycle(word, sys_, cycle)
    else:
        res = penner_certificate(word, sys_, A, B)
    return bound_json(res), _base_warnings(sys_), _config_echo(word, sys_), res.verified


def do_thurston(matrix, word, precision):
    mu = perron_eigenvalue(matrix)
    rep = represent(word)
    try:
        enc = stretch_factor(rep, mu, precision)
    except NotHyperbolic:
        enc = None
    mu_refined = mu.refined(precision)
    result = {
        "mu_interval": interval_json((mu_refined.lo, mu_refined.hi)),
        "trace_poly": {
            "s_coefficients": list(rep.trace_poly()),
            "mu_coefficients": list(rep.trace_in_mu()),
        },
        "hyperbolic": enc is not None,
    }
    if enc is not None:
        result["lambda_interval"] = interval_json(enc.lam)
        result["lT_interval"] = interval_json(enc.log)
    echo = {"word": str(word), "matrix": [list(r) for r in matrix.rows]}
    return result, [], echo, True


def do_minword(config, M, word, A, B):
    sys_ = _system(config, M)
    res = minimal_word(word, sys_, A, B)
    return minword_json(res), _base_warnings(sys_), _config_echo(word, sys_), True


def do_ratio(config, M, word, intersection):
    sys_ = _system(config, M)
    if intersection is None:
        curves = word.curves()
        if len(curves) != 2:
            raise MalformedInput("ratio needs a two-curve word")
        intersection = sys_.inter_or_none(*curves)
        if intersection is None:
            raise MalformedInput(
                "no stored intersection number; pass it explicitly with --intersection"
            )
    res = ratio_report(word, sys_, IntersectionMatrix.of([[intersection]]))
    return ratio_json(res), _base_warnings(sys_), _config_echo(word, sys_), True


def do_raag(config, M, raag_mode, curves, multicurves):
    sys_ = _system(config, M)
    key = "curves" if raag_mode == FREE_CURVES else "multicurves"
    data = curves if raag_mode == FREE_CURVES else multicurves
    if data is None:
        raise MalformedInput(f"raag mode {raag_mode} needs {key}")
    if raag_mode == TWO_MULTICURVES:
        if len(data) != 2:
            raise MalformedInput("two_multicurves mode needs exactly two names")
        data = tuple(data)
    cert = raag_threshold(sys_, raag_mode, data)
    echo = {"mode": raag_mode, "config_digest": sys_.digest(), "M": sys_.M}
    return raag_json(cert), _base_warnings(sys_), echo, True


def do_farey_dist(x, y):
    return {"distance": farey_distance(x, y)}, [], {"x": str(x), "y": str(y)}, True


def do_farey_verify(a, b, word, exponents, mmax, threshold):
    if word is not None:
        if set(word.curves()) - {"a", "b"}:
            raise MalformedWord("verify words use the letters a and b only")
        if any(s.curve != "ab"[i % 2] for i, s in enumerate(word)):
            raise MalformedWord("verify words must alternate a, b, a, b, ...")
        exponents = [s.exponent for s in word]
    elif exponents is None:
        raise MalformedInput("farey_verify needs a word or exponents")
    report = verify_main_theorem(a, b, exponents, mmax, threshold)
    warnings = [WARN_TORUS_MODEL, WARN_TORUS_EMPIRICAL]
    echo = {"a": str(a), "b": str(b), "exponents": exponents}
    return verify_json(report), warnings, echo, True


def do_verify_sample(count, seed, mmax, start, cap):
    samples = sample_main_equality(count, seed=seed, m_max=mmax, start=start, cap=cap)
    rows = []
    for s in samples:
        rows.append(
            {
                "b": str(s.b),
                "l": s.l,
                "n": s.n,
                "signs": list(s.signs),
                "base_all_match": s.base_report.all_match,
                "achieved_threshold": s.achieved_threshold,
                "ratios": [str(r.ratio) for r in s.base_report.rows],
            }
        )
    result = {
        "instances": rows,
        "matched": sum(1 for s in samples if s.achieved_threshold is not None),
        "count": count,
    }
    warnings = [WARN_TORUS_MODEL, WARN_TORUS_EMPIRICAL]
    return result, warnings, {"seed": seed, "count": count}, True


# ---------------------------------------------------------------------------
# the subcommand table: argparse, batch validation and dispatch all read it


class Param(NamedTuple):
    """One parameter of a mode.

    ``name`` is the batch key and the handler's keyword.  ``read`` turns a
    batch value or a command-line string into the typed value.  ``flag`` is
    the command-line spelling: ``"--"`` for ``--NAME``, ``""`` for a
    positional argument, ``None`` for a parameter only batch lines take.
    """

    name: str
    read: Callable = _text
    default: object = None
    required: bool = False
    choices: tuple = ()
    flag: str | None = "--"
    help: str | None = None


class Mode(NamedTuple):
    """One subcommand: its batch mode name, its command-line words, its help
    line, its handler and its parameters."""

    name: str
    command: tuple[str, ...]
    help: str
    handler: Callable
    params: tuple[Param, ...]

    @property
    def keys(self) -> set[str]:
        return {p.name for p in self.params}


CONFIG = Param("config", _config, required=True)
WORD = Param("word", _word, required=True)
M_OVERRIDE = Param("M", _int, help="override the projection constant M")
MMAX = Param("mmax", _int, 4)
GROUP_HELP = {"farey": "torus backend"}
THEOREMS = ("auto", "main31", "cycle32", "twomulti34", "multicycle35", "penner")

MODES = {mode.name: mode for mode in (
    Mode("analyze", ("analyze",), "length bounds for a twist word", do_analyze, (
        CONFIG, WORD, Param("theorem", default="auto", choices=THEOREMS), Param("A"), Param("B"),
        Param("cycle", _names, help="comma-separated multicurve names"), M_OVERRIDE)),
    Mode("thurston", ("thurston",), "representation and stretch factor", do_thurston, (
        Param("matrix", _matrix, required=True, help="JSON file with the intersection matrix"),
        WORD, Param("precision", _precision, Fraction(1, 10**9)))),
    Mode("minword", ("minword",), "collect a word per curve", do_minword, (
        CONFIG, WORD, Param("A", required=True), Param("B", required=True), M_OVERRIDE)),
    Mode("ratio", ("ratio",), "curve-graph vs Teichmueller ratio", do_ratio, (
        CONFIG, WORD, Param("intersection", _int), M_OVERRIDE)),
    Mode("raag", ("raag",), "twist power thresholds", do_raag, (
        CONFIG,
        Param("raag_mode", required=True, choices=(FREE_CURVES, TWO_MULTICURVES, MULTICURVES),
              flag="--mode"),
        Param("curves", _names, help="comma-separated curve names"),
        Param("multicurves", _names, help="comma-separated multicurve names"), M_OVERRIDE)),
    Mode("farey_dist", ("farey", "dist"), "Farey graph distance", do_farey_dist, (
        Param("x", _slope, required=True, flag=""), Param("y", _slope, required=True, flag=""))),
    Mode("farey_verify", ("farey", "verify"), "torus distance experiment", do_farey_verify, (
        Param("a", _slope, required=True), Param("b", _slope, required=True), Param("word", _word),
        Param("exponents", _ints, flag=None), MMAX, Param("threshold", _int))),
    Mode("verify_sample", ("farey", "sample"), "sampled torus distance experiments", do_verify_sample, (
        Param("count", _int, 25), Param("seed", _int, DEFAULT_SEED), MMAX, Param("start", _positive, 201),
        Param("cap", _int, 2**15))),
)}


def _read(mode: Mode, raw: dict) -> dict:
    """Check raw parameters against the mode's row; return the typed values."""
    unknown = set(raw) - mode.keys
    if unknown:
        raise MalformedInput(f"unknown {mode.name} parameters: {sorted(unknown)}")
    values = {}
    for p in mode.params:
        value = raw.get(p.name)
        if value is None:
            if p.required:
                raise MalformedInput(f"{mode.name} needs {p.name}")
            values[p.name] = p.default
            continue
        try:
            values[p.name] = p.read(value)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise MalformedInput(f"bad {p.name}: {exc}") from None
        if p.choices and values[p.name] not in p.choices:
            raise MalformedInput(f"bad {p.name} {value!r}: choose from {', '.join(p.choices)}")
    return values


def run_instance(mode: str, params: dict) -> tuple[dict, str]:
    """Run one instance; returns (envelope, status in ok/unmet)."""
    spec = MODES.get(mode) if isinstance(mode, str) else None
    if spec is None:
        raise MalformedInput(f"unknown mode {mode!r}")
    result, warnings, echo, ok = spec.handler(**_read(spec, params))
    return envelope(result, warnings, echo), "ok" if ok else "unmet"


# ---------------------------------------------------------------------------
# output


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "text":
        for line in _text_lines(doc, ""):
            print(line)
    else:
        print(json.dumps(doc, sort_keys=True))


def _text_lines(node, prefix: str):
    if isinstance(node, dict):
        for key in node:
            yield from _text_lines(node[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _text_lines(item, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]}: {node}"


# ---------------------------------------------------------------------------
# front ends


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "text"], default="json")

    parser = argparse.ArgumentParser(prog="twistlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for mode in MODES.values():
        where = sub
        if len(mode.command) == 2:
            group = mode.command[0]
            if group not in groups:
                p = sub.add_parser(group, parents=[common], help=GROUP_HELP[group])
                groups[group] = p.add_subparsers(dest=f"{group}_command", required=True)
            where = groups[group]
        p = where.add_parser(mode.command[-1], parents=[common], help=mode.help)
        p.set_defaults(mode=mode.name)
        for prm in mode.params:
            choices = prm.choices or None
            if prm.flag == "":
                p.add_argument(prm.name, choices=choices, help=prm.help)
            elif prm.flag is not None:
                flag = f"--{prm.name}" if prm.flag == "--" else prm.flag
                p.add_argument(
                    flag, dest=prm.name, required=prm.required, choices=choices, help=prm.help
                )

    p = sub.add_parser("batch", parents=[common], help="run a JSONL experiment file")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def _json_line(line: str):
    try:
        return json.loads(line)
    except ValueError as exc:  # bad JSON, or an integer longer than Python converts
        raise MalformedInput(f"bad JSON: {exc}") from None


def _run_batch(path: str, seed: int, fmt: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        print(f"twistlab: cannot read batch file: {exc}", file=_sys.stderr)
        return 2
    passed = failed = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            instance = _json_line(line)
            if not isinstance(instance, dict) or "mode" not in instance:
                raise MalformedInput("each instance needs a 'mode' field")
            params = dict(instance)
            mode = params.pop("mode")
            if isinstance(mode, str) and mode in MODES and "seed" in MODES[mode].keys:
                params.setdefault("seed", seed)
            doc, status = run_instance(mode, params)
        except TwistlabError as exc:
            doc = {
                "tool_version": __version__,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
            status = "error"
        doc["status"] = status
        if status == "ok":
            passed += 1
        else:
            failed += 1
        _emit(doc, fmt)
    _emit({"pass": passed, "fail": failed}, fmt)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "batch":
        return _run_batch(args.file, args.seed, args.format)
    params = {p.name: getattr(args, p.name) for p in MODES[args.mode].params if p.flag is not None}
    try:
        doc, status = run_instance(args.mode, params)
    except MalformedInput as exc:
        print(f"twistlab: {exc}", file=_sys.stderr)
        return 2
    except TwistlabError as exc:
        _emit(
            {
                "tool_version": __version__,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            },
            args.format,
        )
        return 1
    _emit(doc, args.format)
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    raise SystemExit(main())
