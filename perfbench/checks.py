"""Independent checks of every report ``twistlab batch`` prints.

Each check recomputes what the report claims, from the batch line and the
generator's own tables, without calling twistlab:

* ``analyze`` and ``minword``: the paper's formulas on the curve system
  (Main3.1 gives exactly 2n(l-2); TwoMulti3.4 gives [2kl - 4k, 2kl]);
* ``ratio`` and ``thurston``: every interval contains a value computed with
  mpmath (and the trace polynomial with sympy), and is no wider than the
  precision asked for, plus the outward rounding to 18 decimal places the
  report format applies;
* ``thurston`` again, at the precision asked for: the report format keeps
  18 places, so the exact enclosures ``stretch_factor`` returned, recorded
  by ``tracer.py`` in a traced round, must contain the mpmath values, be no
  wider than asked, and lie inside the reported intervals;
* ``farey_dist``: breadth-first search on small slopes, and distance 3 on
  the deep pairs, which are the only lines with a slope beyond the search
  budget (``workloads.torus_deep`` builds them at distance 3);
* ``farey_verify``: every row is the torus count 2mnl, and l is the
  breadth-first distance of a and b.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref

PLACES = 18  # report intervals are rounded outward to this many decimals
SLACK = Fraction(2, 10**PLACES)
RATIO_PRECISION = Fraction(1, 10**12)  # ratio_report's fixed enclosure width


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _equal(got, want, what: str) -> None:
    _require(got == want, f"{what}: report has {got!r}, expected {want!r}")


def _digits(precision: Fraction) -> int:
    d = 0
    while Fraction(1, 10**d) > precision:
        d += 1
    return d


def _contains(iv, value, what: str, max_width: Fraction) -> None:
    import mpmath

    lo, hi = Fraction(iv[0]), Fraction(iv[1])
    _require(lo <= hi, f"{what}: empty interval {iv}")
    _require(hi - lo <= max_width + SLACK, f"{what}: width {float(hi - lo):.3g} exceeds {float(max_width):.3g}")
    with mpmath.workdps(60):
        inside = mpmath.mpf(iv[0]) <= value <= mpmath.mpf(iv[1])
    _require(inside, f"{what}: {iv} does not contain {mpmath.nstr(value, 30)}")


def _exact(x) -> Fraction:
    """The exact value of an mpmath number."""
    man, exp = x.man_exp
    return Fraction(int(man)) * Fraction(2) ** exp


def _encloses(enc, value, what: str, max_width: Fraction, reported) -> None:
    """An exact enclosure: no wider than asked, around ``value``, and inside
    the interval the report printed."""
    lo, hi = enc
    _require(lo <= hi, f"{what} enclosure: empty")
    _require(hi - lo <= max_width, f"{what} enclosure: width {float(hi - lo):.3g} exceeds {float(max_width):.3g}")
    _require(lo <= _exact(value) <= hi, f"{what} enclosure: does not contain the mpmath value")
    _require(Fraction(reported[0]) <= lo and hi <= Fraction(reported[1]), f"{what} enclosure: outside the report {reported}")


class Checker:
    """Checks reports of one workload; ``bfs`` gives the breadth-first
    distances, and ``enclosures`` maps a line index to the exact
    (lam_lo, lam_hi, log_lo, log_hi) that ``stretch_factor`` returned."""

    def __init__(self, bfs: ref.FareyBFS):
        self.bfs = bfs
        self.enclosures: dict[int, tuple[Fraction, ...]] = {}
        self._configs: dict[str, dict] = {}

    def check(self, index: int, params: dict, doc: dict) -> None:
        _equal(doc.get("status"), "ok", "status")
        handler = getattr(self, "_" + params["mode"])
        try:
            handler(index, params, doc["result"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckFailed(f"malformed report: {type(exc).__name__}: {exc}") from None

    # -- curve-system lines -------------------------------------------------

    def _config(self, path: str) -> dict:
        if path not in self._configs:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
            cfg["_dist"] = {frozenset(r[:2]): r[2] for r in cfg["dist"]}
            cfg["_inter"] = {frozenset(r[:2]): r[2] for r in cfg["inter"]}
            cfg["_owner"] = {c: F for F, cs in cfg["multicurves"].items() for c in cs}
            self._configs[path] = cfg
        return self._configs[path]

    @staticmethod
    def _blocks(pairs, owner):
        blocks: list[tuple[str, list[int]]] = []
        for c, e in pairs:
            if blocks and blocks[-1][0] == owner[c]:
                blocks[-1][1].append(e)
            else:
                blocks.append((owner[c], [e]))
        return blocks

    def _analyze(self, index, params, res):
        cfg = self._config(params["config"])
        M = cfg["M"]
        pairs = ref.parse_word(params["word"])
        curves = list(dict.fromkeys(c for c, _ in pairs))
        if len(curves) == 2:
            # Main3.1: alternating on two filling curves, every |e| > 2M
            l = cfg["_dist"][frozenset(curves)]
            value = 2 * (len(pairs) // 2) * (l - 2)
            _require(len(pairs) % 2 == 0 and l >= 3, "two-curve line is not a filling alternating word")
            _require(all(abs(e) > 2 * M for _, e in pairs), "two-curve line has a small exponent")
            want = ("Main3.1", value, value, value)
        else:
            # TwoMulti3.4: 2k alternating blocks, one |e| > 2M + 3 per block
            blocks = self._blocks(pairs, cfg["_owner"])
            fams = list(dict.fromkeys(F for F, _ in blocks))
            k = len(blocks) // 2
            _require(len(fams) == 2 and len(blocks) % 2 == 0, "block line is not 2k alternating blocks")
            l = min(cfg["_dist"][frozenset((x, y))] for x in cfg["multicurves"][fams[0]] for y in cfg["multicurves"][fams[1]])
            _require(l >= 3, "block families do not fill")
            _require(all(max(abs(e) for e in es) > 2 * M + 3 for _, es in blocks), "a block lacks a large twist")
            want = ("TwoMulti3.4", 2 * k * l - 4 * k, 2 * k * l, None)
        got = (res["theorem"], res["lower"], res["upper"], res["exact"])
        _equal(got, want, "theorem, lower, upper, exact")
        _equal(res["verified"], True, "verified")
        _equal(res["pseudo_anosov"], True, "pseudo_anosov")
        _require(all(c["passed"] for c in res["conditions"]), "a condition is reported failed")

    def _minword(self, index, params, res):
        cfg = self._config(params["config"])
        A, B = params["A"], params["B"]
        pairs = ref.parse_word(params["word"])
        owner = {c: F for F in (A, B) for c in cfg["multicurves"][F]}
        k = len(self._blocks(pairs, owner)) // 2
        order = cfg["multicurves"][A] + cfg["multicurves"][B]
        totals = [[c, sum(e for x, e in pairs if x == c)] for c in order]
        _equal(res["totals"], totals, "totals")
        _equal(res["collected"], ref.word_str(totals), "collected word")
        _equal(res["interchanges"], k, "interchanges")
        _equal(res["verdict"], "strictly_greater" if k >= 2 else "equal_conjugate", "verdict")

    def _ratio(self, index, params, res):
        import mpmath

        cfg = self._config(params["config"])
        M = cfg["M"]
        pairs = ref.parse_word(params["word"])
        a, b = list(dict.fromkeys(c for c, _ in pairs))
        l = cfg["_dist"][frozenset((a, b))]
        i_ab = cfg["_inter"][frozenset((a, b))]
        lc = 2 * (len(pairs) // 2) * (l - 2)
        t = i_ab * (2 * M + 1)
        trace = ref.integer_trace([("A" if c == a else "B", e) for c, e in pairs], i_ab)
        surface = cfg["surface"]
        _equal(res["lC"], lc, "lC")
        _equal(res["t"], t, "t")
        _equal(res["trace"], trace, "trace")
        _equal(res["omega"], 3 * surface["genus"] + surface["punctures"] - 4, "omega")
        with mpmath.workdps(60):
            lam = (abs(trace) + mpmath.sqrt(mpmath.mpf(trace) ** 2 - 4)) / 2
            log_lam = mpmath.log(lam)
            tau = log_lam / lc
            opt = mpmath.log(2 * t) / (l - 2)
        p = RATIO_PRECISION
        _contains(res["lambda_interval"], lam, "lambda", p)
        _contains(res["lT_interval"], log_lam, "lT", 2 * p)
        _contains(res["tau_interval"], tau, "tau", 2 * p)
        _contains(res["optimizer_upper_interval"], opt, "log(2t)/(l-2)", p)
        if abs(tau - opt) > 1e-9:
            _equal(res["tau_within_bound"], bool(tau < opt), "tau_within_bound")

    # -- representation lines -------------------------------------------------

    def _thurston(self, index, params, res):
        import mpmath

        precision = Fraction(str(params.get("precision", "1e-9")))
        dps = _digits(precision) + 40
        pairs = ref.parse_word(params["word"])
        mu = ref.perron_mu(params["matrix"], dps)
        _contains(res["mu_interval"], mu, "mu", precision)
        coeffs = ref.trace_polynomial(pairs)
        mu_coeffs = coeffs[0::2]
        while mu_coeffs and mu_coeffs[-1] == 0:
            mu_coeffs.pop()
        _equal(res["trace_poly"]["s_coefficients"], coeffs, "trace polynomial in s")
        _equal(res["trace_poly"]["mu_coefficients"], mu_coeffs, "trace polynomial in mu")
        tr, lam, log_lam = ref.stretch_values(coeffs, mu, dps)
        if ref.trace_is_two(params["matrix"], coeffs, mu, dps):
            lam = None
        else:
            with mpmath.workdps(dps):
                _require(abs(abs(tr) - 2) > mpmath.mpf(10) ** (-30), "trace too close to 2 to decide")
        _equal(res["hyperbolic"], lam is not None, "hyperbolic")
        if lam is None:
            _require("lambda_interval" not in res, "lambda reported for a non-hyperbolic word")
            return
        _contains(res["lambda_interval"], lam, "lambda", precision)
        _contains(res["lT_interval"], log_lam, "lT", 2 * precision)
        enc = self.enclosures.get(index)
        _require(enc is not None, "no stretch_factor enclosure was recorded for this line")
        with mpmath.workdps(dps):
            _encloses(enc[:2], lam, "lambda", precision, res["lambda_interval"])
            _encloses(enc[2:], log_lam, "lT", 2 * precision, res["lT_interval"])

    # -- torus lines ------------------------------------------------------------

    def _farey_dist(self, index, params, res):
        x, y = ref.parse_slope(params["x"]), ref.parse_slope(params["y"])
        deep = max(ref.magnitude(x), ref.magnitude(y)) > self.bfs.budget
        want = 3 if deep else self.bfs.distance(x, y)
        _equal(res["distance"], want, f"d({params['x']}, {params['y']})")

    def _farey_verify(self, index, params, res):
        a, b = ref.parse_slope(params["a"]), ref.parse_slope(params["b"])
        exps = [e for _, e in ref.parse_word(params["word"])]
        n = len(exps) // 2
        l = self.bfs.distance(a, b)
        _equal((res["a"], res["b"]), (ref.slope_str(a), ref.slope_str(b)), "slopes")
        _equal((res["l"], res["n"], res["exponents"]), (l, n, exps), "l, n, exponents")
        v1 = ref.parse_slope(res["base_point"])
        _require(ref.adjacent(a, v1), f"base point {res['base_point']} is not next to a")
        if ref.magnitude(v1) <= self.bfs.budget:
            _equal(self.bfs.distance(v1, b), l - 1, "d(v1, b)")
        rows = res["rows"]
        _equal([r["m"] for r in rows], list(range(1, params["mmax"] + 1)), "powers")
        for r in rows:
            m = r["m"]
            _equal(r["distance"], 2 * m * n * l, f"d(v1, f^{m} v1) against 2mnl")
            _equal(r["expected"], 2 * m * n * (l - 2), f"general-surface count at m={m}")
            _equal(r["match"], r["distance"] == r["expected"], f"match at m={m}")
            _equal(r["ratio"], str(Fraction(r["distance"], m)), f"ratio at m={m}")
        _equal(res["all_match"], all(r["match"] for r in rows), "all_match")
