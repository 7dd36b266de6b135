"""Golden corpus: stdout and exit code of fixed command-line and batch runs.

The corpus holds every README command-line example, every invocation of
``tests/test_cli.py`` and one batch file with a line of every mode, all run
in a directory holding the files in ``FILES``.  A refactor of the command
line must leave every recorded output byte-identical.

To rewrite ``tests/data/golden_cli.json`` from the current code, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from twistlab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_cli.json")

PAIR_CONFIG = {
    "curves": ["a", "b"],
    "multicurves": {"A": ["a"], "B": ["b"]},
    "dist": [["a", "b", 3]],
    "inter": [["a", "b", 1]],
}
CYCLE_CONFIG = {
    "curves": ["x", "y"],
    "multicurves": {"X": ["x"], "Y": ["y"]},
    "dist": [["x", "y", 3]],
    "inter": [["x", "y", 1]],
}


def _jsonl(*lines) -> str:
    return "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines)


FILES = {
    "sys.json": json.dumps(PAIR_CONFIG),
    "cycle.json": json.dumps(CYCLE_CONFIG),
    "bad.json": json.dumps({"curves": ["a"], "zzz": 1}),
    "N.json": "[[1]]",
    "degenerate.json": "[[1, -1]]",
    "all_modes.jsonl": _jsonl(
        {"mode": "analyze", "config": "sys.json", "word": "a^201 b^-201"},
        {"mode": "analyze", "config": PAIR_CONFIG, "word": "a^204 b^-204", "theorem": "twomulti34", "A": "A", "B": "B"},
        {"mode": "analyze", "config": "cycle.json", "word": "x^205 y^205", "theorem": "multicycle35", "cycle": ["X", "Y"]},
        {"mode": "analyze", "config": "sys.json", "word": "a^11 b^-11", "theorem": "main31", "M": 5},
        {"mode": "thurston", "matrix": [[1]], "word": "A^3 B^-1", "precision": "1e-12"},
        {"mode": "thurston", "matrix": "N.json", "word": "A"},
        {"mode": "minword", "config": "sys.json", "word": "a^204 b^-204 a^204 b^-204", "A": "A", "B": "B"},
        {"mode": "ratio", "config": "sys.json", "word": "a^201 b^-201"},
        {"mode": "ratio", "config": "sys.json", "word": "a^201 b^-201", "intersection": 2},
        {"mode": "raag", "raag_mode": "two_multicurves", "config": "sys.json", "multicurves": ["A", "B"]},
        {"mode": "farey_dist", "x": "1/0", "y": "3/5"},
        {"mode": "farey_verify", "a": "1/0", "b": "3/5", "word": "a^201 b^-201", "mmax": 2},
        {"mode": "farey_verify", "a": "1/0", "b": "2/5", "exponents": [201, -201], "mmax": 2},
        {"mode": "verify_sample", "count": 2, "cap": 402, "mmax": 2},
        {"mode": "nosuchmode"},
        "{not json",
    ),
    "batch.jsonl": _jsonl(
        {"mode": "farey_dist", "x": "1/0", "y": "3/5"},
        {"mode": "analyze", "config": PAIR_CONFIG, "word": "a^201 b^-201"},
        "{not json",
    ),
    "empty.jsonl": "",
    "order.jsonl": _jsonl(
        *({"mode": "farey_dist", "x": x, "y": y} for x, y in [("1/0", "0/1"), ("1/0", "1/2"), ("1/0", "3/5")])
    ),
    "sample.jsonl": _jsonl({"mode": "verify_sample", "count": 2, "cap": 402, "mmax": 2}),
}

CASES = {
    # README examples
    "readme-analyze": ["analyze", "--config", "sys.json", "--word", "a^201 b^-201"],
    "readme-analyze-twomulti": [
        "analyze", "--config", "sys.json", "--word", "a1^204 b1^204", "--theorem", "twomulti34", "--A", "A", "--B", "B",
    ],
    "readme-thurston": ["thurston", "--matrix", "N.json", "--word", "A B^-1", "--precision", "1e-9"],
    "readme-minword": ["minword", "--config", "sys.json", "--word", "a^204 b^-204 a^204 b^-204", "--A", "A", "--B", "B"],
    "readme-ratio": ["ratio", "--config", "sys.json", "--word", "a^201 b^-201"],
    "readme-raag": ["raag", "--config", "sys.json", "--mode", "two_multicurves", "--multicurves", "A,B"],
    "readme-farey-dist": ["farey", "dist", "1/0", "3/5"],
    "readme-farey-verify": ["farey", "verify", "--a", "1/0", "--b", "3/5", "--word", "a^201 b^-201", "--mmax", "4"],
    "readme-batch": ["batch", "all_modes.jsonl", "--seed", "20260808"],
    # tests/test_cli.py invocations
    "analyze-unmet": ["analyze", "--config", "sys.json", "--word", "a^10 b^10"],
    "analyze-zero-exponent": ["analyze", "--config", "sys.json", "--word", "a^0"],
    "analyze-bad-config": ["analyze", "--config", "bad.json", "--word", "a^2 b^2"],
    "analyze-forced-main31": ["analyze", "--config", "sys.json", "--word", "a^10 b^-10", "--theorem", "main31"],
    "analyze-m-override": [
        "analyze", "--config", "sys.json", "--word", "a^11 b^-11", "--theorem", "main31", "--M", "5",
    ],
    "analyze-forced-cycle": [
        "analyze", "--config", "cycle.json", "--word", "x^205 y^205", "--theorem", "multicycle35", "--cycle", "X,Y",
    ],
    "analyze-empty-word": ["analyze", "--config", "sys.json", "--word", ""],
    "analyze-text": ["analyze", "--config", "sys.json", "--word", "a^201 b^-201", "--format", "text"],
    "farey-dist": ["farey", "dist", "1/0", "0/1"],
    "farey-verify": ["farey", "verify", "--a", "1/0", "--b", "3/5", "--word", "a^201 b^-201", "--mmax", "2"],
    "farey-verify-bad-alphabet": ["farey", "verify", "--a", "1/0", "--b", "3/5", "--word", "a^201 c^-201"],
    "farey-verify-threshold": [
        "farey", "verify", "--a", "1/0", "--b", "3/5", "--word", "a^100 b^-201", "--threshold", "200",
    ],
    "thurston-not-hyperbolic": ["thurston", "--matrix", "N.json", "--word", "A"],
    "minword-zero-total": [
        "minword", "--config", "sys.json", "--word", "a^204 b^-204 a^-204 b^204", "--A", "A", "--B", "B",
    ],
    "batch": ["batch", "batch.jsonl"],
    "batch-empty": ["batch", "empty.jsonl"],
    "batch-order": ["batch", "order.jsonl"],
    "batch-verify-sample": ["batch", "sample.jsonl"],
    # further runs
    "batch-text": ["batch", "batch.jsonl", "--format", "text"],
    "thurston-degenerate-matrix": ["thurston", "--matrix", "degenerate.json", "--word", "A B^-1"],
    "thurston-M": ["thurston", "--matrix", "N.json", "--word", "A B^-1", "--M", "5"],
    "farey-dist-M": ["farey", "dist", "1/0", "3/5", "--M", "5"],
}


def run_case(argv: list[str]) -> dict:
    """Run ``twistlab ARGV`` in the current directory; keep stdout and exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


def write_files(directory: str) -> None:
    for name, text in FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


@pytest.fixture(scope="module")
def recorded():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, recorded, tmp_path, monkeypatch):
    write_files(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[name]) == recorded[name]


def test_corpus_is_complete(recorded):
    assert sorted(recorded) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp)
        here = os.getcwd()
        os.chdir(tmp)
        try:
            recorded = {name: run_case(argv) for name, argv in sorted(CASES.items())}
        finally:
            os.chdir(here)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
