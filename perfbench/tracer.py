"""Traced run of ``twistlab batch``: one process, spans around each layer.

Usage: python3 perfbench/tracer.py BATCH.jsonl SPANS.json

Run from the root of a twistlab checkout.  It imports the package from
``src``, replaces the layer functions listed in ``LAYERS`` by timing
wrappers everywhere callers look them up (module globals and class
attributes; nothing under ``src`` is edited), runs ``twistlab batch`` on the
file exactly as the command line would, and writes what it kept in memory
to SPANS.json when the batch has ended: ``{"spans": [...], "stretch": {...}}``.

``stretch`` maps a batch line to the exact enclosure ``stretch_factor``
returned for it, ``[lam_lo, lam_hi, log_lo, log_hi]`` as fraction strings:
the report rounds intervals to 18 places, so the checks read the full
precision here.

A span is ``[name, start, end, parent, request, args]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``request`` the number of the
batch line being served, and ``args`` the slope pairs of ``farey_distance``
calls (from which the benchmark computes the continued-fraction work) or
null.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

# (layer, module, attribute); "Class.method" patches the method on its class
LAYERS = (
    ("words", "words", "parse_word"),
    ("words", "words", "word"),
    ("words", "words", "normalize"),
    ("words", "words", "cyclic_reduce"),
    ("words", "words", "syllable_prefixes"),
    ("words", "words", "block_decompose"),
    ("config.load", "config", "load_curve_system_file"),
    ("config.load", "config", "load_curve_system"),
    ("config.validate", "config", "validate"),
    ("bounds.best_bound", "bounds", "best_bound"),
    ("bounds.checker", "bounds", "exact_two_filling"),
    ("bounds.checker", "bounds", "bounds_curve_cycle"),
    ("bounds.checker", "bounds", "bounds_two_multicurve"),
    ("bounds.checker", "bounds", "bounds_multicurve_cycle"),
    ("bounds.checker", "bounds", "penner_certificate"),
    ("applications.minimal_word", "applications", "minimal_word"),
    ("applications.ratio_report", "applications", "ratio_report"),
    ("thurston.stretch_factor", "thurston", "stretch_factor"),
    ("thurston.represent", "thurston", "represent"),
    ("thurston.classify", "thurston", "classify"),
    ("thurston.perron_eigenvalue", "thurston", "perron_eigenvalue"),
    ("exact.log_enclosure", "exact", "log_enclosure"),
    ("exact.sqrt_enclosure", "exact", "sqrt_enclosure"),
    ("exact.refine", "exact", "AlgebraicReal.refined"),
    ("exact.p_eval_interval", "exact", "p_eval_interval"),
    ("exact.char_poly", "exact", "char_poly"),
    ("exact.rightmost_real_root", "exact", "rightmost_real_root"),
    ("farey.farey_distance", "farey", "farey_distance"),
    ("farey.farey_geodesic", "farey", "farey_geodesic"),
    ("farey.word_matrix", "farey", "word_matrix"),
    ("farey.verify_main_theorem", "farey", "verify_main_theorem"),
    ("cli.run_instance", "cli", "run_instance"),
    ("cli.serialize", "cli", "_emit"),
    ("cli.serialize", "cli", "envelope"),
    ("cli.serialize", "cli", "interval_json"),
    ("cli.serialize", "cli", "bound_json"),
    ("cli.serialize", "cli", "ratio_json"),
    ("cli.serialize", "cli", "minword_json"),
    ("cli.serialize", "cli", "verify_json"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.stretch: dict[int, object] = {}  # request -> StretchEnclosure

    def wrap(self, name: str, fn, keep_slopes: bool = False, new_request: bool = False, keep_result: bool = False):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if new_request:
                self.request += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            if keep_slopes:
                x, y = args[0], args[1]
                rec[5] = [x.p, x.q, y.p, y.q]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    self.stretch[self.request] = result
                return result
            finally:
                rec[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "twistlab") -> None:
        """Replace each listed function wherever a twistlab module holds it."""
        import importlib

        modules = [importlib.import_module(package)]
        modules += [
            importlib.import_module(f"{package}.{m}")
            for m in ("words", "config", "bounds", "applications", "thurston", "exact", "farey", "cli")
        ]
        for layer, mod_name, attr in LAYERS:
            home = importlib.import_module(f"{package}.{mod_name}")
            owner, _, name = attr.rpartition(".")
            target = getattr(home, owner) if owner else home
            if not hasattr(target, name):
                print(f"tracer: {package}.{mod_name}.{attr} not found; layer {layer} misses it", file=sys.stderr)
                continue
            if owner:
                setattr(target, name, self.wrap(layer, getattr(target, name)))
                continue
            original = getattr(home, attr)
            traced = self.wrap(
                layer,
                original,
                keep_slopes=attr == "farey_distance",
                new_request=layer == "cli.run_instance",
                keep_result=attr == "stretch_factor",
            )
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    batch, spans_path = argv
    sys.path.insert(0, os.path.abspath("src"))
    tracer = Tracer()
    tracer.install()
    from twistlab import cli

    status = cli.main(["batch", batch])
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        sys.set_int_max_str_digits(0)  # the enclosures run to thousands of digits
        stretch = {n: [str(x) for x in (*enc.lam, *enc.log)] for n, enc in tracer.stretch.items()}
        json.dump({"spans": tracer.spans, "stretch": stretch}, fh, separators=(",", ":"))
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
