"""Command-line interface: flag grammar, report schemas, exit codes."""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icbounds import (
    BooleanFunction,
    Disjointness,
    Index,
    build_family,
    save_truth_table,
    violation_check,
)
from icbounds import cli, prbox
from icbounds.boolfn import MAX_TABLE_BITS
from icbounds.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_eq3_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family", "eq", "--n", "3",
        "--channel", "det", "--ordering", "natural", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "function", "parameters", "channel", "ordering", "terms", "total", "tolerance"
    }
    assert payload["function"] == "eq"
    assert payload["total"] == pytest.approx(3.0, abs=1e-9)
    assert payload["ordering"]["strategy"] == "natural"
    assert len(payload["terms"]) == 8


def test_bound_ip2_unit_first_terms(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family", "ip", "--n", "2",
        "--channel", "det", "--ordering", "unit-first", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [1.0, 1.0, 0.0, 0.0]
    assert payload["ordering"]["perm"] == [2, 1, 0, 3]


def test_bound_symmetric_channel_requires_eps(capsys):
    code, _, err = run_cli(capsys, "bound", "--family", "eq", "--n", "2", "--channel", "sym")
    assert code == 2
    assert "--eps" in err


def test_bound_with_table_dist_and_ordering_files(capsys, tmp_path):
    table = tmp_path / "f.json"
    table.write_text(save_truth_table(build_family(Disjointness(2))), encoding="utf-8")
    dist = tmp_path / "d.json"
    dist.write_text("[1, 1, 1, 1]", encoding="utf-8")
    ordering = tmp_path / "o.json"
    ordering.write_text("[2, 1, 0, 3]", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "bound", "--table", str(table), "--channel", "sym", "--eps", "0.1",
        "--dist", f"file:{dist}", "--ordering", f"file:{ordering}", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["function"] == f"table:{table}"
    assert payload["ordering"]["perm"] == [2, 1, 0, 3]
    assert payload["terms"][0] == pytest.approx(0.531004406, abs=1e-9)


def test_bound_rejects_missing_source(capsys):
    code, _, err = run_cli(capsys, "bound", "--channel", "det")
    assert code == 2
    assert "family" in err


def test_bound_rejects_bad_eps(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--family", "eq", "--n", "2", "--channel", "sym", "--eps", "0.7"
    )
    assert code == 2
    assert "eps" in err


def test_bound_reports_a_negative_zero_eps_as_zero(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family", "index", "--n", "2", "--channel", "sym", "--eps", "-0.0",
        "--format", "json",
    )
    assert code == 0
    assert '"eps": 0.0' in out and "-0.0" not in out


@pytest.mark.parametrize("bias", ["-0.0", "-0.0,-0.0"])
def test_prbox_bias_reports_a_negative_zero_bias_as_zero(capsys, bias):
    code, out, _ = run_cli(
        capsys, "prbox", "bias", "--family", "ip", "--n", "2", f"--bias={bias}", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["biases"] == [0.0, 0.0]
    assert "-0.0" not in out


def test_bound_exhaustive_refusal_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--family", "index", "--n", "17", "--ordering", "exhaustive"
    )
    assert code == 3
    assert "131072" in err


def test_bound_text_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "eq", "--n", "1")
    assert code == 0
    assert "total: 1.000000000" in out
    code, out, _ = run_cli(capsys, "bound", "--family", "eq", "--n", "1", "--format", "csv")
    assert code == 0
    assert "total,,1.000000000" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 8
    assert payload["total_functions"] == 65536
    assert [c["label"] for c in payload["classes"]][:3] == ["I", "II", "III"]
    assert all(c["passed"] for c in payload["hierarchy"])


def test_classify_thread_count_does_not_change_bytes(capsys):
    _, out1, _ = run_cli(capsys, "classify", "--threads", "1", "--format", "json")
    _, out4, _ = run_cli(capsys, "classify", "--threads", "4", "--format", "json")
    assert out1 == out4


def test_bound_thread_count_does_not_change_bytes(capsys):
    args = ("bound", "--family", "ip", "--n", "2", "--ordering", "exhaustive",
            "--format", "json")
    _, out1, _ = run_cli(capsys, *args, "--threads", "1")
    _, out4, _ = run_cli(capsys, *args, "--threads", "4")
    assert out1 == out4


def test_prbox_decompose_disj2(capsys):
    code, out, _ = run_cli(
        capsys, "prbox", "decompose", "--family", "disj", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["box_count"] == 3
    assert payload["message_term"] == "1111"
    monomials = {c["monomial"]: c for c in payload["coefficients"]}
    assert monomials["y0"]["bits"] == "0011"
    assert monomials["y0*y1"]["bits"] == "0001"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_prbox_decompose_output_does_not_depend_on_the_block_size(capsys, monkeypatch, tmp_path, fmt):
    # The bit strings are built a few columns at a time; blocks of one, three
    # and every column must give the same bytes, and the strings must be the
    # coefficients' bits.
    rng = np.random.default_rng(61)
    f = BooleanFunction(11, 16, rng.integers(0, 2, 11 * 16))
    table = tmp_path / "f.json"
    table.write_text(save_truth_table(f))
    args = ("prbox", "decompose", "--table", str(table), "--format", fmt)
    outputs = []
    for columns in (1, 3, 16):
        monkeypatch.setattr(prbox, "_COLUMN_BLOCK_BITS", columns * f.x_size)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    if fmt == "json":
        d = prbox.decompose(f)
        bits = {tuple(c["positions"]): c["bits"] for c in json.loads(outputs[0])["coefficients"]}
        assert bits == {s: "".join(map(str, c)) for s, c in d.coefficients.items()}


@pytest.mark.parametrize(
    "head, items",
    [
        ({"a": 1, "b": {"c": [1, 2]}}, [{"x": [1, 2], "y": "s\n", "z": 0.1234567891234}, {"x": [], "y": {}}]),
        ({"function": "f", "parameters": {}}, [[1, [2, []]], "text", 3, True, None]),
        ({"a": 1}, []),
    ],
)
def test_streamed_json_is_the_whole_payload_byte_for_byte(capsys, head, items):
    cli._emit_json_items(head, "items", iter(items))
    streamed = capsys.readouterr().out
    cli._emit_json({**head, "items": items})
    assert streamed == capsys.readouterr().out


def test_prbox_bias_broadcast_and_value(capsys):
    code, out, _ = run_cli(
        capsys, "prbox", "bias", "--family", "ip", "--n", "2",
        "--bias", "0.9", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["biases"] == [0.9, 0.9]
    assert payload["success_probability"] == pytest.approx(0.905, abs=1e-9)


def test_prbox_violation_perfect_boxes(capsys):
    code, out, _ = run_cli(
        capsys, "prbox", "violation", "--family", "index", "--n", "4",
        "--bias", "1", "--m", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["violated"] is True
    assert payload["bound_total"] == pytest.approx(4.0, abs=1e-9)
    assert payload["no_signal"] is False


def test_prbox_maxbias_index2(capsys):
    code, out, _ = run_cli(
        capsys, "prbox", "maxbias", "--family", "index", "--n", "2",
        "--m", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_bias"] == pytest.approx(0.779944, abs=1e-5)


def test_prbox_bias_disj5_with_31_boxes(capsys):
    code, out, _ = run_cli(
        capsys, "prbox", "bias", "--family", "disj", "--n", "5", "--bias", "0.9",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["box_count"] == 31
    assert payload["success_probability"] == pytest.approx((1.0 + 0.9**31) / 2.0, abs=1e-9)


def test_prbox_kint_requires_k(capsys):
    code, _, err = run_cli(
        capsys, "prbox", "decompose", "--family", "kint", "--n", "4"
    )
    assert code == 2
    assert "--k" in err


def test_families_listing(capsys):
    code, out, _ = run_cli(capsys, "families", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = {f["name"] for f in payload["families"]}
    assert names == {"index", "ip", "disj", "eq", "kint"}


def test_oracle_check_small(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "--cases", "10", "--max-size", "8", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["max_deviation"] <= 1e-9


def test_unknown_family_exits_2(capsys):
    code, _, _ = run_cli(capsys, "bound", "--family", "parity", "--n", "2")
    assert code == 2


def test_nine_decimal_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "prbox", "bias", "--family", "ip", "--n", "2", "--bias", "0.9,0.9"
    )
    assert code == 0
    assert "0.905000000" in out


# --- malformed input files and oversized tables ---------------------------------


def write_disj2_table(folder) -> str:
    table = Path(folder) / "f.json"
    table.write_text(save_truth_table(build_family(Disjointness(2))), encoding="utf-8")
    return str(table)


@pytest.mark.parametrize("content", ["[2, 1, 0", '[2, 1, 0, "a"]', "[2, 1.9, 0, 3]", "[2, true, 0, 3]"])
def test_malformed_ordering_files_are_refused(capsys, tmp_path, content):
    ordering = tmp_path / "o.json"
    ordering.write_text(content, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "bound", "--table", write_disj2_table(tmp_path), "--ordering", f"file:{ordering}"
    )
    assert code == 2
    assert out == ""
    assert "ordering file" in err


@pytest.mark.parametrize("content", ["[1, NaN, 1, 1]", "[1, Infinity, 1, 1]", "[-Infinity, 1, 1, 1]"])
def test_non_finite_weight_files_are_refused(capsys, tmp_path, content):
    dist = tmp_path / "d.json"
    dist.write_text(content, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "bound", "--table", write_disj2_table(tmp_path), "--dist", f"file:{dist}"
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_boolean_weight_file_is_refused(capsys, tmp_path):
    dist = tmp_path / "d.json"
    dist.write_text("[true, 1, 1, 1]", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "bound", "--table", write_disj2_table(tmp_path), "--dist", f"file:{dist}"
    )
    assert code == 2
    assert out == ""
    assert "numbers" in err


def test_boolean_table_size_is_refused(capsys, tmp_path):
    table = tmp_path / "t.json"
    table.write_text('{"x_size": true, "y_size": 3, "bits": "011"}', encoding="utf-8")
    code, out, err = run_cli(capsys, "bound", "--table", str(table))
    assert code == 2
    assert out == ""
    assert "integers" in err


def test_oracle_check_refuses_max_size_zero(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--cases", "5", "--max-size", "0")
    assert code == 2
    assert "max_size" in err


def test_oracle_check_refuses_max_size_beyond_the_oracle(capsys):
    code, out, err = run_cli(capsys, "oracle-check", "--cases", "2", "--max-size", "100000")
    assert code == 2
    assert out == ""
    assert "max_size must lie in [1, 1024]" in err


def test_oversized_family_is_refused_with_exit_3(capsys):
    code, out, err = run_cli(capsys, "bound", "--family", "eq", "--n", "40")
    assert code == 3
    assert out == ""
    assert "refused" in err and "bits" in err


def test_prbox_violation_decomposes_once(capsys, monkeypatch):
    real, calls = prbox.decompose, []

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(cli, "decompose", counting)
    monkeypatch.setattr(prbox, "decompose", counting)
    code, out, _ = run_cli(
        capsys, "prbox", "violation", "--family", "index", "--n", "4", "--bias", "0.95",
        "--m", "1", "--format", "json",
    )
    assert code == 0
    assert len(calls) == 1
    report = violation_check(Index(4), [0.95] * 3, 1)
    assert json.loads(out)["bound_total"] == round(report.bound_total, 9)


@pytest.mark.parametrize("m", ["0", "-3"])
def test_prbox_violation_refuses_bad_m_before_building_the_table(capsys, monkeypatch, m):
    def refuse(family):
        raise AssertionError(f"built {family!r} before checking --m")

    monkeypatch.setattr(cli, "build_family", refuse)
    code, out, err = run_cli(
        capsys, "prbox", "violation", "--family", "kint", "--n", "14", "--k", "7",
        "--bias", "0.9", "--m", m,
    )
    assert code == 2
    assert out == ""
    assert f"message_bits must be an integer >= 1, got {m}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("prbox", "violation", "--family", "eq", "--n", "1", "--bias", "1", "--m", "1"),
        ("prbox", "bias", "--family", "index", "--n", "1", "--bias", "0.9"),
    ],
)
def test_one_bias_broadcasts_to_a_protocol_without_boxes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["biases"] == []
    assert payload["success_probability"] == 1.0


@pytest.mark.parametrize("command", ["bias", "violation"])
@pytest.mark.parametrize("bias", ["nan", "1.5", "-2"])
def test_one_bias_is_checked_even_without_boxes(capsys, command, bias):
    extra = ("--m", "1") if command == "violation" else ()
    code, out, err = run_cli(
        capsys, "prbox", command, "--family", "index", "--n", "1", "--bias", bias, *extra
    )
    assert code == 2
    assert out == ""
    assert "bias must lie in [-1, 1]" in err


JSON_SCALARS = st.one_of(
    st.integers(-2, 6),
    st.integers(),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
FILE_CONTENTS = st.one_of(
    st.permutations(range(4)).map(json.dumps),
    st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4).map(json.dumps),
    st.lists(JSON_SCALARS, max_size=6).map(json.dumps),
    st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6).map(json.dumps),
    st.text(max_size=12),
).map(str.encode) | st.binary(max_size=12)


@settings(max_examples=60, deadline=None)
@given(
    cases=st.integers(-2, 2) | st.integers(),
    max_size=st.integers(-2, 3) | st.integers(1025) | st.integers(max_value=0) | st.integers(),
    seed=st.integers(-2, 2) | st.integers(),
)
def test_fuzzed_oracle_check_sizes_exit_cleanly(cases, max_size, seed):
    # Out-of-range counts, sizes and seeds are argument errors (2), refused
    # before any table is drawn; exit 1 stays reserved for an oracle deviation.
    valid = cases >= 1 and 1 <= max_size <= 1024 and seed >= 0
    if valid:
        cases, max_size = min(cases, 2), min(max_size, 3)
    argv = ["oracle-check", "--cases", str(cases), "--max-size", str(max_size), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == (0 if valid else 2)


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["index", "ip", "disj", "eq", "kint"]),
    n=st.integers(-2, 5) | st.integers(12, 16) | st.integers(22, 30) | st.integers(),
    command=st.sampled_from([["bound"], ["prbox", "maxbias", "--m", "1"]]),
)
def test_fuzzed_family_sizes_exit_cleanly(family, n, command):
    # Every --n ends in an answer (0), an argument error (2) or a refusal (3),
    # never a traceback: a huge n is refused from n alone, before 1 << n.
    # A size that would build is shrunk, so that the test stays fast.
    smallest = 2 if family == "kint" else 1  # kint needs 1 <= k <= n/2
    buildable = smallest <= n <= 23 and (n if family == "index" else 1 << n) << n <= MAX_TABLE_BITS
    if buildable:
        n = min(n, 4)
    argv = [*command, "--family", family, "--n", str(n), "--k", "1"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code == (0 if buildable else 2 if n < smallest else 3), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(ordering=FILE_CONTENTS, dist=FILE_CONTENTS, channel=st.sampled_from(["det", "sym"]))
def test_fuzzed_ordering_and_distribution_files_exit_cleanly(ordering, dist, channel):
    # An exception escaping main() is a traceback for the user; every input
    # must end in an answer (0), an argument error (2) or a refusal (3).
    with tempfile.TemporaryDirectory() as folder:
        (Path(folder) / "o.json").write_bytes(ordering)
        (Path(folder) / "d.json").write_bytes(dist)
        argv = ["bound", "--table", write_disj2_table(folder), "--channel", channel,
                "--eps", "0.1", "--ordering", f"file:{folder}/o.json", "--dist", f"file:{folder}/d.json"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 2, 3)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "command, bias",
    [
        (["prbox", "bias", "--family", "ip", "--n", "2"], "-0.5,0.5"),
        (["prbox", "bias", "--family", "disj", "--n", "2"], "-.25,0.5,-1"),
        (["prbox", "violation", "--family", "ip", "--n", "2", "--m", "1"], "-0.5,0.5"),
        (["prbox", "violation", "--family", "index", "--n", "2", "--m", "1"], "-0.9"),
    ],
)
def test_prbox_takes_a_spaced_bias_list_that_starts_with_a_negative_value(capsys, fmt, command, bias):
    joined = run_cli(capsys, *command, f"--bias={bias}", "--format", fmt)
    spaced = run_cli(capsys, *command, "--bias", bias, "--format", fmt)
    assert joined[0] == 0
    assert spaced == joined


def test_prbox_bias_value_that_is_an_option_is_still_refused(capsys):
    code, _, err = run_cli(capsys, "prbox", "bias", "--family", "ip", "--n", "2", "--bias", "--format", "json")
    assert code == 2
    assert "--bias: expected one argument" in err


def test_bound_greedy_refusal_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--family", "kint", "--n", "12", "--k", "6", "--ordering", "greedy"
    )
    assert code == 3
    assert "4096 active inputs" in err
    assert str(4096**3) in err


NUMBER_TEXT = st.one_of(
    st.integers(-3, 3).map(str),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.just(""),
)
# Sizes refused before any table is built; sizes that build are drawn up to n = 3.
BAD_N = st.one_of(
    st.integers(min_value=65).map(str),
    st.integers(max_value=0).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.just(""),
)
BIASES = st.lists(st.floats(-1.0, 1.0).map(repr), min_size=1, max_size=3).map(",".join)


@st.composite
def search_and_prbox_argv(draw):
    def value(valid, bad=NUMBER_TEXT):
        # Mostly valid, so that most calls get as far as an answer.
        return draw(valid if draw(st.integers(0, 4)) else bad)

    family = draw(st.sampled_from(["index", "ip", "disj", "eq", "kint"]))
    pairs = [
        ("--family", family),
        ("--n", value(st.sampled_from(["2", "3"] if family == "kint" else ["1", "2", "3"]), BAD_N)),
        ("--k", value(st.just("1"))),
    ]
    if draw(st.booleans()):
        command = ["bound"]
        pairs += [
            ("--ordering", draw(st.sampled_from(["exhaustive", "greedy"]))),
            ("--channel", draw(st.sampled_from(["det", "sym", "asym"]))),
            *((flag, value(st.sampled_from(["0.0", "0.1", "0.3"]))) for flag in ("--eps", "--eps1", "--eps2")),
        ]
    else:
        command = ["prbox", draw(st.sampled_from(["bias", "violation"]))]
        pairs.append(("--bias", value(BIASES, st.lists(NUMBER_TEXT, max_size=3).map(",".join))))
        if command[1] == "violation":
            pairs.append(("--m", value(st.sampled_from(["0", "1", "2"]))))
    pairs.append(("--format", draw(st.sampled_from(["text", "json", "csv"]))))
    # Flags in any order, each spaced or joined by '='.
    argv = []
    for flag, text in draw(st.permutations(pairs)):
        argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    return command + argv


@settings(max_examples=150, deadline=None)
@given(argv=search_and_prbox_argv())
def test_fuzzed_search_and_prbox_argv_exit_cleanly(argv):
    # Negative, huge, non-finite and empty values, flags in any order and in
    # either form: every call ends in an answer (0), an argument error (2) or
    # a refusal (3), and nothing escapes main().
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# A stand-in for the path of a truth-table file that the test writes.
TABLE = "<table>"
SMALL_COUNTS_REFUSED = st.one_of(
    st.integers(max_value=0).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.just(""),
)
# Every flag of the commands below: (values that reach an answer, values to
# refuse).  Only sizes that build cheaply are valid: --n at most 3, --cases
# at most 5, --max-size at most 16.
FLAG_VALUES = {
    "--family": (st.sampled_from(["index", "ip", "disj", "eq", "kint"]), st.text(max_size=4)),
    "--table": (st.just(TABLE), NUMBER_TEXT),
    "--n": (st.sampled_from(["1", "2", "3"]), BAD_N),
    "--k": (st.just("1"), NUMBER_TEXT),
    "--channel": (st.sampled_from(["det", "sym", "asym"]), st.text(max_size=4)),
    "--eps": (st.sampled_from(["0.0", "0.1", "0.3"]), NUMBER_TEXT),
    "--eps1": (st.sampled_from(["0.0", "0.1", "0.3"]), NUMBER_TEXT),
    "--eps2": (st.sampled_from(["0.0", "0.1", "0.3"]), NUMBER_TEXT),
    "--ordering": (st.sampled_from(["natural", "unit-first", "kint-proof"]), NUMBER_TEXT),
    "--dist": (st.just("uniform"), NUMBER_TEXT),
    "--threads": (st.sampled_from(["1", "2"]), SMALL_COUNTS_REFUSED),
    "--m": (st.sampled_from(["0", "1", "2"]), NUMBER_TEXT),
    "--cases": (st.integers(1, 5).map(str), SMALL_COUNTS_REFUSED),
    "--seed": (st.integers(min_value=0).map(str), NUMBER_TEXT),
    "--max-size": (
        st.integers(1, 16).map(str),
        SMALL_COUNTS_REFUSED | st.integers(min_value=1025).map(str),
    ),
    "--format": (st.sampled_from(["text", "json", "csv"]), st.text(max_size=4)),
}
OTHER_COMMANDS = [["bound"], ["classify"], ["families"], ["oracle-check"], ["prbox", "decompose"], ["prbox", "maxbias"]]


def subcommand_parser(path):
    """The parser that ``build_parser()`` uses for the subcommand ``path``."""
    parser = cli.build_parser()
    for name in path:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
    return parser


@st.composite
def other_subcommand_argv(draw):
    command = draw(st.sampled_from(OTHER_COMMANDS))
    argv = []
    # The subcommand's own flags, each drawn or left out, in any order.
    actions = [a for a in subcommand_parser(command)._actions if a.option_strings and a.dest != "help"]
    for action in draw(st.permutations(actions)):
        flag = action.option_strings[-1]
        # Mostly one function source and valid values, so that many calls
        # get as far as an answer.
        chance = {"--family": 8, "--n": 9, "--table": 1}.get(flag, 9 if action.required else 5)
        if draw(st.integers(0, 9)) >= chance:
            continue
        if action.nargs == 0:
            argv.append(flag)
            continue
        valid, bad = FLAG_VALUES[flag]
        text = draw(valid if draw(st.integers(0, 7)) else bad)
        argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    return command + argv


@settings(max_examples=200, deadline=None)
@given(argv=other_subcommand_argv())
def test_fuzzed_argv_of_the_other_subcommands_exit_cleanly(argv):
    # Every flag that build_parser() gives these subcommands, drawn valid or
    # not, in either form and any order: an answer (0), an argument error (2)
    # or a refusal (3), and nothing escapes main().
    with tempfile.TemporaryDirectory() as folder:
        if any(TABLE in arg for arg in argv):
            path = write_disj2_table(folder)
            argv = [arg.replace(TABLE, path) for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
