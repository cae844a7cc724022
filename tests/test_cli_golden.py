"""Exact stdout of every subcommand, against saved output.

The saved bytes in ``data/cli_golden.json`` pin every family, all three
channels and the three output formats, so a change in summation order that
moves a printed ninth decimal, or the sign of a printed zero, shows here.
``classify``, ``families`` and ``oracle-check`` are pinned in all three
formats too.
"""

import json
from pathlib import Path

import pytest

from icbounds import Disjointness, build_family, save_truth_table
from icbounds.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))

SYM = ["--channel", "sym", "--eps", "0.1"]

ASYM = ["--channel", "asym", "--eps1", "0.05", "--eps2", "0.2"]

#: A random ordering of the 128 inputs of Equality(7), for ``file:p.json``.
PERM_128 = [
    70, 90, 107, 59, 66, 76, 32, 120, 69, 2, 105, 115, 111, 122, 35, 63,
    116, 3, 74, 100, 58, 46, 36, 30, 24, 78, 123, 126, 87, 109, 119, 6,
    9, 86, 7, 10, 57, 53, 125, 19, 20, 96, 60, 47, 91, 88, 54, 127,
    89, 15, 51, 22, 33, 41, 55, 99, 81, 39, 18, 72, 23, 68, 101, 95,
    61, 67, 118, 26, 79, 56, 52, 1, 80, 97, 65, 83, 17, 40, 75, 112,
    31, 25, 44, 108, 4, 29, 34, 93, 38, 5, 50, 16, 84, 43, 28, 98,
    11, 21, 114, 124, 42, 71, 110, 0, 106, 102, 92, 113, 37, 49, 73, 48,
    8, 27, 82, 12, 62, 103, 121, 104, 64, 94, 13, 85, 45, 77, 14, 117,
]

INVOCATIONS = [
    ["bound", "--family", "index", "--n", "5", "--format", "text"],
    ["bound", "--family", "index", "--n", "8", *SYM, "--format", "json"],
    ["bound", "--family", "index", "--n", "5", *ASYM, "--format", "csv"],
    ["bound", "--family", "ip", "--n", "3", "--format", "json"],
    ["bound", "--family", "ip", "--n", "3", *SYM, "--format", "text"],
    ["bound", "--family", "ip", "--n", "3", *ASYM, "--format", "csv"],
    ["bound", "--family", "ip", "--n", "3", "--channel", "sym", "--eps", "0.23", "--ordering", "greedy",
     "--format", "json"],
    ["bound", "--family", "disj", "--n", "3", *SYM, "--format", "csv"],
    ["bound", "--family", "disj", "--n", "3", "--format", "text"],
    ["bound", "--family", "disj", "--n", "3", *ASYM, "--format", "json"],
    ["bound", "--family", "disj", "--n", "2", *SYM, "--ordering", "exhaustive", "--format", "json"],
    ["bound", "--family", "eq", "--n", "3", "--format", "json"],
    ["bound", "--family", "eq", "--n", "3", "--channel", "sym", "--eps", "0.23", "--format", "csv"],
    ["bound", "--family", "eq", "--n", "4", *ASYM, "--format", "text"],
    ["bound", "--family", "kint", "--n", "6", "--k", "2", "--format", "csv"],
    ["bound", "--family", "kint", "--n", "6", "--k", "2", *SYM, "--format", "json"],
    ["bound", "--family", "kint", "--n", "6", "--k", "3", *ASYM, "--format", "text"],
    ["bound", "--family", "kint", "--n", "4", "--k", "1", *SYM, "--ordering", "natural", "--format", "csv"],
    ["bound", "--table", "f.json", "--dist", "file:d.json", "--ordering", "file:o.json", *SYM,
     "--format", "json"],
    # Orderings of more than 64 columns other than the natural one.
    ["bound", "--family", "kint", "--n", "8", "--k", "3", "--ordering", "kint-proof", *SYM, "--format", "json"],
    ["bound", "--family", "ip", "--n", "8", "--ordering", "unit-first", "--format", "csv"],
    ["bound", "--family", "eq", "--n", "7", "--ordering", "file:p.json", "--format", "json"],
    ["prbox", "violation", "--family", "index", "--n", "4", "--bias", "0.95", "--m", "1", "--format", "json"],
    ["prbox", "violation", "--family", "ip", "--n", "3", "--bias", "0.9", "--m", "1", "--format", "text"],
    ["prbox", "violation", "--family", "disj", "--n", "3", "--bias", "0.97", "--m", "2", "--format", "csv"],
    ["prbox", "violation", "--family", "eq", "--n", "3", "--bias", "0.99", "--m", "1", "--format", "json"],
    ["prbox", "violation", "--family", "kint", "--n", "4", "--k", "2", "--bias", "0.92", "--m", "1",
     "--format", "text"],
    ["prbox", "bias", "--family", "ip", "--n", "3", "--bias", "0.9", "--format", "json"],
    ["prbox", "bias", "--family", "disj", "--n", "2", "--bias", "0.9,0.8,0.95", "--format", "csv"],
    ["prbox", "maxbias", "--family", "index", "--n", "2", "--m", "1", "--format", "json"],
    ["prbox", "maxbias", "--family", "eq", "--n", "3", "--m", "1", "--format", "text"],
    ["prbox", "maxbias", "--family", "kint", "--n", "4", "--k", "2", "--m", "1", "--format", "csv"],
    ["prbox", "decompose", "--family", "ip", "--n", "2", "--format", "json"],
    *([command, *extra, "--format", fmt]
      for command, extra in (("classify", []), ("families", []), ("oracle-check", ["--cases", "10"]))
      for fmt in ("text", "json", "csv")),
]


def test_golden_file_covers_exactly_these_invocations():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in INVOCATIONS)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_stdout_is_byte_identical(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(save_truth_table(build_family(Disjointness(2))), encoding="utf-8")
    (tmp_path / "d.json").write_text("[1, 3, 0, 2.5]", encoding="utf-8")
    (tmp_path / "o.json").write_text("[2, 1, 0, 3]", encoding="utf-8")
    (tmp_path / "p.json").write_text(json.dumps(PERM_128), encoding="utf-8")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == GOLDEN[" ".join(argv)]
