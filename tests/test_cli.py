"""Command-line interface: flag grammar, report schemas, exit codes."""

import json

import pytest

from icbounds import build_family, Disjointness, save_truth_table
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


def test_bound_exhaustive_refusal_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--family", "index", "--n", "9", "--ordering", "exhaustive"
    )
    assert code == 3
    assert "362880" in err


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
