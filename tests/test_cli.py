import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from twistlab.cli import MODES, main
from twistlab.config import validate

PAIR_CONFIG = {
    "curves": ["a", "b"],
    "multicurves": {"A": ["a"], "B": ["b"]},
    "dist": [["a", "b", 3]],
    "inter": [["a", "b", 1]],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(PAIR_CONFIG))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_success(capsys, config_path):
    code, out, _ = _run(capsys, ["analyze", "--config", config_path, "--word", "a^201 b^-201"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["theorem"] == "Main3.1"
    assert doc["result"]["exact"] == 2
    assert doc["tool_version"]
    assert any("M" in w for w in doc["warnings"])


def test_analyze_condition_unmet_exit_one(capsys, config_path):
    code, out, _ = _run(capsys, ["analyze", "--config", config_path, "--word", "a^10 b^10"])
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["theorem"] == "None"
    assert doc["result"]["pseudo_anosov"] is None
    assert doc["result"]["conditions"]


def test_analyze_malformed_word_exit_two(capsys, config_path):
    code, out, err = _run(capsys, ["analyze", "--config", config_path, "--word", "a^0"])
    assert code == 2
    assert not out
    assert "zero exponent" in err


def test_analyze_malformed_config_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"curves": ["a"], "zzz": 1}))
    code, _, err = _run(capsys, ["analyze", "--config", str(bad), "--word", "a^2 b^2"])
    assert code == 2
    assert "unknown configuration fields" in err


def test_analyze_forced_theorem(capsys, config_path):
    code, out, _ = _run(
        capsys,
        ["analyze", "--config", config_path, "--word", "a^10 b^-10", "--theorem", "main31"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["theorem"] == "Main3.1"
    assert doc["result"]["verified"] is False


def test_analyze_m_override(capsys, config_path):
    code, out, _ = _run(
        capsys,
        ["analyze", "--config", config_path, "--word", "a^11 b^-11", "--theorem", "main31", "--M", "5"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verified"] is True
    assert doc["warnings"] == []  # explicit M carries no default warning


def test_farey_dist(capsys):
    code, out, _ = _run(capsys, ["farey", "dist", "1/0", "0/1"])
    assert code == 0
    assert json.loads(out)["result"] == {"distance": 1}


def test_farey_verify(capsys):
    code, out, _ = _run(
        capsys,
        ["farey", "verify", "--a", "1/0", "--b", "3/5", "--word", "a^201 b^-201", "--mmax", "2"],
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["result"]["rows"]
    assert [r["distance"] for r in rows] == [6, 12]
    assert doc["warnings"]


def test_farey_verify_rejects_bad_alphabet(capsys):
    code, _, err = _run(
        capsys,
        ["farey", "verify", "--a", "1/0", "--b", "3/5", "--word", "a^201 c^-201"],
    )
    assert code == 2
    assert "letters a and b" in err


def test_thurston_command(capsys, tmp_path):
    matrix = tmp_path / "N.json"
    matrix.write_text("[[1]]")
    code, out, _ = _run(
        capsys,
        ["thurston", "--matrix", str(matrix), "--word", "A B^-1", "--precision", "1e-9"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["hyperbolic"] is True
    lo, hi = (float(x) for x in doc["result"]["lambda_interval"])
    assert lo <= 2.618033988749895 <= hi
    assert hi - lo < 1e-8
    assert doc["result"]["trace_poly"]["mu_coefficients"] == [2, 1]


def test_thurston_not_hyperbolic_is_reported(capsys, tmp_path):
    matrix = tmp_path / "N.json"
    matrix.write_text("[[1]]")
    code, out, _ = _run(capsys, ["thurston", "--matrix", str(matrix), "--word", "A"])
    assert code == 0
    assert json.loads(out)["result"]["hyperbolic"] is False


def test_ratio_command(capsys, config_path):
    code, out, _ = _run(capsys, ["ratio", "--config", config_path, "--word", "a^201 b^-201"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["lC"] == 2
    assert doc["result"]["tau_within_bound"] is True
    lo, hi = doc["result"]["tau_interval"]
    assert float(lo) <= float(hi)


def test_raag_command(capsys, config_path):
    code, out, _ = _run(
        capsys,
        ["raag", "--config", config_path, "--mode", "two_multicurves", "--multicurves", "A,B"],
    )
    assert code == 0
    assert json.loads(out)["result"]["required_power"] == 204


def test_minword_command(capsys, config_path):
    code, out, _ = _run(
        capsys,
        ["minword", "--config", config_path, "--word", "a^204 b^-204 a^204 b^-204", "--A", "A", "--B", "B"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["collected"] == "a^408 b^-408"
    assert doc["result"]["verdict"] == "strictly_greater"


def test_minword_zero_total_exit_one(capsys, config_path):
    code, out, _ = _run(
        capsys,
        ["minword", "--config", config_path, "--word", "a^204 b^-204 a^-204 b^204", "--A", "A", "--B", "B"],
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ZeroTotal"


def test_batch(capsys, tmp_path, config_path):
    lines = [
        json.dumps({"mode": "farey_dist", "x": "1/0", "y": "3/5"}),
        json.dumps({"mode": "analyze", "config": PAIR_CONFIG, "word": "a^201 b^-201"}),
        "{not json",
    ]
    batch = tmp_path / "batch.jsonl"
    batch.write_text("\n".join(lines) + "\n")
    code, out, _ = _run(capsys, ["batch", str(batch)])
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(docs) == 4
    assert docs[0]["status"] == "ok" and docs[0]["result"]["distance"] == 3
    assert docs[1]["status"] == "ok"
    assert docs[2]["status"] == "error"
    assert docs[3] == {"pass": 2, "fail": 1}


def test_batch_empty_file(capsys, tmp_path):
    batch = tmp_path / "empty.jsonl"
    batch.write_text("")
    code, out, _ = _run(capsys, ["batch", str(batch)])
    assert code == 0
    assert json.loads(out.strip()) == {"pass": 0, "fail": 0}


def test_batch_order_is_input_order(capsys, tmp_path):
    pairs = [("1/0", "0/1"), ("1/0", "1/2"), ("1/0", "3/5")]
    batch = tmp_path / "b.jsonl"
    batch.write_text(
        "\n".join(json.dumps({"mode": "farey_dist", "x": x, "y": y}) for x, y in pairs)
    )
    code, out, _ = _run(capsys, ["batch", str(batch)])
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert [d["result"]["distance"] for d in docs[:-1]] == [1, 2, 3]


def test_repeat_runs_byte_identical(capsys, config_path):
    _, out1, _ = _run(capsys, ["analyze", "--config", config_path, "--word", "a^201 b^-201"])
    _, out2, _ = _run(capsys, ["analyze", "--config", config_path, "--word", "a^201 b^-201"])
    assert out1 == out2


def test_analyze_forced_cycle(capsys, tmp_path):
    config = {
        "curves": ["x", "y"],
        "multicurves": {"X": ["x"], "Y": ["y"]},
        "dist": [["x", "y", 3]],
        "inter": [["x", "y", 1]],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code, out, _ = _run(
        capsys,
        [
            "analyze",
            "--config",
            str(path),
            "--word",
            "x^205 y^205",
            "--theorem",
            "multicycle35",
            "--cycle",
            "X,Y",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["theorem"] == "MultiCycle3.5"
    assert [doc["result"]["lower"], doc["result"]["upper"]] == [2, 6]


def test_farey_verify_threshold_violation(capsys):
    code, out, _ = _run(
        capsys,
        [
            "farey", "verify", "--a", "1/0", "--b", "3/5",
            "--word", "a^100 b^-201", "--threshold", "200",
        ],
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ConditionUnmet"


def test_analyze_empty_word_is_identity(capsys, config_path):
    code, out, _ = _run(capsys, ["analyze", "--config", config_path, "--word", ""])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["exact"] == 0
    assert doc["result"]["pseudo_anosov"] is False


def test_text_format(capsys, config_path):
    code, out, _ = _run(
        capsys,
        ["analyze", "--config", config_path, "--word", "a^201 b^-201", "--format", "text"],
    )
    assert code == 0
    assert "result.theorem: Main3.1" in out


def test_verify_sample_batch_mode(capsys, tmp_path):
    batch = tmp_path / "s.jsonl"
    batch.write_text(
        json.dumps({"mode": "verify_sample", "count": 2, "cap": 402, "mmax": 2}) + "\n"
    )
    code, out, _ = _run(capsys, ["batch", str(batch)])
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert docs[0]["result"]["count"] == 2
    assert len(docs[0]["result"]["instances"]) == 2


def _batch(capsys, tmp_path, lines):
    batch = tmp_path / "lines.jsonl"
    batch.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, out, _ = _run(capsys, ["batch", str(batch)])
    assert code == 0
    return [json.loads(line) for line in out.strip().splitlines()]


def test_raag_batch_line(capsys, tmp_path, config_path):
    line = {"mode": "raag", "raag_mode": "two_multicurves", "config": config_path, "multicurves": ["A", "B"]}
    docs = _batch(capsys, tmp_path, [line])
    assert docs[0]["status"] == "ok"
    assert docs[0]["result"]["required_power"] == 204
    assert docs[0]["input_echo"]["mode"] == "two_multicurves"
    assert docs[1] == {"pass": 1, "fail": 0}


def test_raag_missing_names_exit_two(capsys, config_path):
    code, out, err = _run(capsys, ["raag", "--config", config_path, "--mode", "free_curves"])
    assert code == 2
    assert not out
    assert "needs curves" in err


def test_farey_sample_command_matches_batch(capsys, tmp_path):
    code, out, _ = _run(capsys, ["farey", "sample", "--count", "2", "--cap", "402", "--mmax", "2"])
    assert code == 0
    docs = _batch(capsys, tmp_path, [{"mode": "verify_sample", "count": 2, "cap": 402, "mmax": 2}])
    assert json.loads(out)["result"] == docs[0]["result"]


@pytest.mark.parametrize("matrix", [[[1, -1]], [["x"]], [1], [[1], [1, 1]], "[[1"])
def test_bad_matrix_file_exit_two(capsys, tmp_path, matrix):
    path = tmp_path / "N.json"
    path.write_text(matrix if isinstance(matrix, str) else json.dumps(matrix))
    code, out, err = _run(capsys, ["thurston", "--matrix", str(path), "--word", "A B^-1"])
    assert code == 2
    assert not out
    assert err.startswith("twistlab: ")


def test_unknown_batch_key_rejected(capsys, tmp_path):
    docs = _batch(capsys, tmp_path, [{"mode": "farey_dist", "x": "1/0", "y": "3/5", "z": 1}])
    assert docs[0]["error"] == {"type": "MalformedInput", "message": "unknown farey_dist parameters: ['z']"}


# each of these lines used to end the whole batch in a Python traceback
CRASHERS = [
    {"mode": "minword", "config": PAIR_CONFIG, "word": "a^204 b^-204", "B": "B"},
    {"mode": "analyze", "config": PAIR_CONFIG, "word": "a^204 b^-204", "theorem": "penner"},
    {"mode": "analyze", "config": PAIR_CONFIG, "word": "a^204 b^-204", "theorem": "multicycle35"},
    {"mode": "farey_verify", "a": "1/0", "b": "3/5", "word": "a^201 b^-201", "mmax": "x"},
    {"mode": "verify_sample", "count": "x"},
    {"mode": "ratio", "config": PAIR_CONFIG, "word": "a^201 b^-201", "intersection": "q"},
    {"mode": "analyze", "config": PAIR_CONFIG, "word": "a^201 b^-201", "M": "x"},
    {"mode": "farey_verify", "a": "1/0", "b": "3/5", "exponents": ["x"]},
    {"mode": "thurston", "matrix": [["x"]], "word": "A B^-1"},
    {"mode": "thurston", "matrix": [1], "word": "A B^-1"},
    {"mode": "farey_dist", "x": 1, "y": "3/5"},
]


# each of these numbers used to be cut down to an integer and run
NOT_INTEGERS = [
    {"mode": "thurston", "matrix": [[1.9]], "word": "A B^-1"},
    {"mode": "thurston", "matrix": [[True]], "word": "A B^-1"},
    {"mode": "farey_verify", "a": "1/0", "b": "3/5", "word": "a^201 b^-201", "mmax": 2.7},
    {"mode": "farey_verify", "a": "1/0", "b": "3/5", "word": "a^201 b^-201", "mmax": True},
    {"mode": "farey_verify", "a": "1/0", "b": "3/5", "exponents": [201.5, -201]},
    {"mode": "farey_verify", "a": "1/0", "b": "3/5", "exponents": [201, -201], "threshold": 3.5},
    {"mode": "verify_sample", "count": 1.5, "cap": 201},
    {"mode": "ratio", "config": PAIR_CONFIG, "word": "a^201 b^-201", "intersection": 1.0},
    {"mode": "analyze", "config": PAIR_CONFIG, "word": "a^201 b^-201", "M": 100.0},
]


@pytest.mark.parametrize("line", CRASHERS + NOT_INTEGERS)
def test_former_crash_is_malformed_input(capsys, tmp_path, line):
    docs = _batch(capsys, tmp_path, [line, {"mode": "farey_dist", "x": "1/0", "y": "3/5"}])
    assert docs[0]["status"] == "error"
    assert docs[0]["error"]["type"] == "MalformedInput"
    assert docs[1]["result"] == {"distance": 3}
    assert docs[2] == {"pass": 1, "fail": 1}


def test_float_on_command_line_exit_two(capsys):
    argv = ["farey", "verify", "--a", "1/0", "--b", "3/5", "--word", "a^201 b^-201", "--mmax", "2.7"]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert not out
    assert err.startswith("twistlab: bad mmax: ")


def test_farey_dist_huge_quotient(capsys):
    code, out, _ = _run(capsys, ["farey", "dist", "1/0", "2/2000000001"])
    assert code == 0
    assert json.loads(out)["result"] == {"distance": 3}


def test_farey_sample_default_cap_matches_nothing(capsys):
    # the ladder chases the general-surface count, which the torus never meets
    code, out, _ = _run(capsys, ["farey", "sample", "--count", "3", "--mmax", "2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["matched"] == 0
    assert [row["achieved_threshold"] for row in result["instances"]] == [None] * 3


def test_overlong_integer_is_bad_json(capsys, tmp_path):
    batch = tmp_path / "long.jsonl"
    batch.write_text('{"mode": "farey_dist", "x": ' + "1" * 5000 + "}\n")
    code, out, _ = _run(capsys, ["batch", str(batch)])
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert docs[0]["error"]["type"] == "MalformedInput"
    assert docs[0]["error"]["message"].startswith("bad JSON: ")
    assert docs[1] == {"pass": 0, "fail": 1}


# one good line per mode; the property perturbs these
GOOD_LINES = {
    "analyze": {"config": PAIR_CONFIG, "word": "a^201 b^-201"},
    "thurston": {"matrix": [[1]], "word": "A B^-1"},
    "minword": {"config": PAIR_CONFIG, "word": "a^204 b^-204 a^204 b^-204", "A": "A", "B": "B"},
    "ratio": {"config": PAIR_CONFIG, "word": "a^201 b^-201"},
    "raag": {"config": PAIR_CONFIG, "raag_mode": "two_multicurves", "multicurves": ["A", "B"]},
    "farey_dist": {"x": "1/0", "y": "3/5"},
    "farey_verify": {"a": "1/0", "b": "3/5", "word": "a^201 b^-201", "mmax": 2},
    "verify_sample": {"count": 1, "cap": 3},
}
SMALL = st.integers(-3, 5)
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    SMALL,
    st.sampled_from([0.5, -1.5, 1e-3, float("nan"), float("inf")]),
    st.text(max_size=6),
    st.sampled_from(["1/0", "3/5", "a", "a^3 b^-3", "A B^-1", "A", "A,B", "a,b", "penner", "free_curves"]),
    st.just(PAIR_CONFIG),
    st.lists(SMALL | st.sampled_from(["a", "A", "B", "x"]), max_size=3),
    st.lists(st.lists(SMALL, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), SMALL, max_size=2),
)


@st.composite
def batch_lines(draw):
    """A line of a random mode: a good line with keys dropped, changed or added."""
    mode = draw(st.sampled_from(sorted(MODES)))
    line = {k: v for k, v in GOOD_LINES[mode].items() if draw(st.integers(0, 3))}
    keys = sorted(MODES[mode].keys) + ["mode", "zz"]
    line.update(draw(st.dictionaries(st.sampled_from(keys), VALUES, max_size=3)))
    line["mode"] = mode
    if mode == "verify_sample":
        # the sampler's doubling ladder is not what this property is about; keep it short
        line.update(count=draw(st.integers(0, 1)), cap=draw(SMALL))
    return line


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(batch_lines(), min_size=1, max_size=3))
def test_batch_never_raises(capsys, tmp_path, lines):
    docs = _batch(capsys, tmp_path, lines)
    assert len(docs) == len(lines) + 1
    assert all(doc["status"] in ("ok", "unmet", "error") for doc in docs[:-1])
    assert docs[-1]["pass"] + docs[-1]["fail"] == len(lines)


def test_thurston_computes_mu_and_verdict_once(capsys, tmp_path, monkeypatch):
    from twistlab import cli, thurston

    calls = []
    for name in ("perron_eigenvalue", "classify"):
        original = getattr(thurston, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in (cli, thurston):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    matrix = tmp_path / "N.json"
    matrix.write_text("[[2, 1], [1, 1]]")
    code, out, _ = _run(capsys, ["thurston", "--matrix", str(matrix), "--word", "A^3 B^-1"])
    assert code == 0 and json.loads(out)["result"]["hyperbolic"]
    assert sorted(calls) == ["classify", "perron_eigenvalue"]


@pytest.fixture
def validate_calls(monkeypatch):
    """Record the M of every system validated, from an empty check cache."""
    from twistlab import cli

    calls = []

    def counted(sys_):
        calls.append(sys_.M)
        return validate(sys_)

    monkeypatch.setattr(cli, "validate", counted)
    cli._check.cache_clear()
    yield calls
    cli._check.cache_clear()


def test_edited_config_file_is_read_again(capsys, tmp_path, config_path, validate_calls):
    line = {"mode": "analyze", "config": config_path, "word": "a^201 b^-201"}
    first = _batch(capsys, tmp_path, [line, line])
    with open(config_path, "w") as fh:
        json.dump({**PAIR_CONFIG, "dist": [["a", "b", 4]]}, fh)
    second = _batch(capsys, tmp_path, [line, line])
    assert first[0] == first[1] and second[0] == second[1]
    assert first[0]["input_echo"]["config_digest"] != second[0]["input_echo"]["config_digest"]
    assert (first[0]["result"]["exact"], second[0]["result"]["exact"]) == (2, 4)
    assert validate_calls == [100, 100]  # once per content


def test_invalid_shared_config_fails_every_line(capsys, tmp_path, validate_calls):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**PAIR_CONFIG, "dist": [["a", "b", 3], ["b", "a", 4]]}))
    line = {"mode": "analyze", "config": str(bad), "word": "a^201 b^-201"}
    docs = _batch(capsys, tmp_path, [line] * 3)
    for doc in docs[:3]:
        assert doc["status"] == "error"
        assert doc["error"]["type"] == "MalformedConfig"
        assert "asymmetric dist(b, a): 3 vs 4" in doc["error"]["message"]
    assert docs[3] == {"pass": 0, "fail": 3}
    assert len(validate_calls) == 1


def test_config_checked_once_per_m(capsys, tmp_path, config_path, validate_calls):
    line = {"mode": "analyze", "config": config_path, "word": "a^201 b^-201"}
    inline = {**line, "config": dict(PAIR_CONFIG)}
    lines = [{**line, "M": 5}, {**line, "M": 0}, line] * 2 + [inline, inline]
    docs = _batch(capsys, tmp_path, lines)
    assert sorted(validate_calls) == [0, 5, 100, 100]  # the inline copy is its own content
    for doc in docs[:6]:
        if doc["status"] == "error":
            assert doc["error"]["message"] == "configuration fails validation: M must be positive, got 0"
    assert [doc["status"] for doc in docs[:8]] == ["ok", "error", "ok"] * 2 + ["ok", "ok"]
    assert [docs[i]["input_echo"]["M"] for i in (0, 2, 6)] == [5, 100, 100]
