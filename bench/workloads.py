"""The four workloads: seeded inputs, the operations of one round, and the
checks on every output.

A workload is built by ``make(name, seed, root, scratch, in_process)`` and
has ``ops``, a list of ``Op`` that a round runs in order, ``check(results)``,
which returns the errors found in one round's results (an empty list when
all is right), and ``close()``, which stops what the workload started.
Inputs depend on the seed only through their contents; sizes are fixed, so
every seed asks for the same amount of work.

In-process operations call the library.  ``cli-mix`` operations run
``python3 -m icbounds`` as a child process, or ``icbounds.cli.main`` in this
process for the traced replay.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import icbounds as ic
import icbounds.cli
import reference as ref

TOL = 1e-9
# Totals printed by the CLI are rounded to nine decimals.
CLI_TOL = 2e-9
CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    name: str
    fn: Callable
    # CLI invocations only: True where the input is malformed and the
    # documented answer is exit code 2, False where it is exit code 0.
    expect_refusal: Optional[bool] = None

    def ok(self, result) -> bool:
        """A library call succeeds when it returns.  A CLI invocation, whose
        result is (exit code, stdout, stderr), succeeds with the documented
        exit code and no traceback."""
        if self.expect_refusal is None:
            return True
        code, _out, err = result
        return "Traceback (most recent call last)" not in err and code == (2 if self.expect_refusal else 0)


@dataclass
class Workload:
    name: str
    ops: list
    check: Callable
    # cli-mix only, when it runs child processes.
    runner: Optional["ChildRunner"] = None

    def close(self) -> None:
        if self.runner is not None:
            self.runner.close()


def _near(errors: list, label: str, got: float, want: float, tol: float = TOL) -> None:
    if not abs(got - want) <= tol:
        errors.append(f"{label}: got {got!r}, want {want!r} (tolerance {tol:g})")


def _uniform(f):
    return ic.InputDistribution.uniform(f.x_size)


# ---------------------------------------------------------------------------
# bound-large
# ---------------------------------------------------------------------------

KINT_N, KINT_K = 12, 6
INDEX_N = 20
EQ_N = 12
REP_SIZE = 1 << 12
REP_CLASSES = 40


def repeated_row_table(rng, size: int, classes: int):
    """A size x size table whose rows are copies of ``classes`` distinct random
    rows; every class holds at least two inputs, so no input is ever alone in
    its cell and every step refines over all of X."""
    rows = rng.integers(0, 2, (classes, size), dtype=np.uint8)
    if len({r.tobytes() for r in rows}) != classes:
        raise RuntimeError("repeated random rows; the class entropy would not be the total")
    members = rng.permutation(np.arange(size) % classes)
    masses = np.bincount(members, minlength=classes) / size
    return rows[members], masses


def bound_large(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    eps_kint, eps_index, eps_eq = (float(v) for v in rng.uniform(0.02, 0.3, 3))
    eps_i, eps_ii = (float(v) for v in rng.uniform(0.02, 0.3, 2))
    table, masses = repeated_row_table(rng, REP_SIZE, REP_CLASSES)
    rep = ic.BooleanFunction(REP_SIZE, REP_SIZE, table)
    rep_order = ic.Ordering(tuple(int(v) for v in rng.permutation(REP_SIZE)))
    built = {}

    def build(key, family):
        def run():
            built[key] = ic.build_family(family)
            return built[key]
        return run

    def bound(key, channel, strategy):
        def run():
            f = built[key]
            order = ic.make_ordering(strategy, f, k=KINT_K)
            return ic.compute_bound(f, _uniform(f), order, channel)
        return run

    ops = [
        Op("build kint", build("kint", ic.KIntersect(KINT_N, KINT_K))),
        Op("kint det", bound("kint", ic.Deterministic(), "kint-proof")),
        Op("kint sym", bound("kint", ic.Symmetric(eps_kint), "kint-proof")),
        Op("build index", build("index", ic.Index(INDEX_N))),
        Op("index sym", bound("index", ic.Symmetric(eps_index), "natural")),
        Op("build eq", build("eq", ic.Equality(EQ_N))),
        Op("eq sym", bound("eq", ic.Symmetric(eps_eq), "natural")),
        Op("repeated det", lambda: ic.compute_bound(rep, _uniform(rep), rep_order, ic.Deterministic())),
        Op("repeated asym", lambda: ic.compute_bound(rep, _uniform(rep), rep_order, ic.Asymmetric(eps_i, eps_ii))),
    ]

    def check(r):
        errors = []
        det = ref.kint_det_total(KINT_N, KINT_K)
        _near(errors, "kint det total", r["kint det"].total, det)
        low = ref.kint_analytic(KINT_N, KINT_K, eps_kint)
        if not low - TOL <= r["kint sym"].total <= det + TOL:
            errors.append(f"kint sym total {r['kint sym'].total!r} outside [{low!r}, {det!r}]")
        _near(errors, "index sym total", r["index sym"].total, ref.bitwise_total(INDEX_N, ("sym", eps_index)))
        _near(errors, "eq sym total", r["eq sym"].total, ref.eq_total(EQ_N, ("sym", eps_eq)))
        entropy = ref.class_entropy(masses)
        _near(errors, "repeated det total", r["repeated det"].total, entropy)
        if not 0.0 <= r["repeated asym"].total <= entropy + TOL:
            errors.append(f"repeated asym total {r['repeated asym'].total!r} outside [0, {entropy!r}]")
        for key in ("repeated det", "repeated asym"):
            terms = np.asarray(r[key].terms)
            if terms.size != REP_SIZE or terms.min() < -TOL or terms.max() > 1.0 + TOL:
                errors.append(f"{key}: a term lies outside [0, 1] or a step is missing")
        return errors

    return Workload("bound-large", ops, check)


# ---------------------------------------------------------------------------
# maxbias
# ---------------------------------------------------------------------------

MAXBIAS_KINT = (8, 4)
MAXBIAS_INDEX = 14
MAXBIAS_EQ = 7
VIOLATION_FAMILIES = (("ip", ic.InnerProduct(10)), ("eq", ic.Equality(4)), ("index", ic.Index(16)))


def _family_table(family) -> np.ndarray:
    """Truth table of a family, computed here from its definition."""
    xs = np.arange(family.x_size, dtype=np.int64)[:, None]
    ys = np.arange(family.y_size, dtype=np.int64)[None, :]
    if isinstance(family, ic.Index):
        return ((xs >> (family.n - 1 - ys)) & 1).astype(np.uint8)
    if isinstance(family, ic.Equality):
        return (xs == ys).astype(np.uint8)
    both = xs & ys
    parity = np.zeros(both.shape, dtype=np.int64)
    for bit in range(family.n):
        parity ^= (both >> bit) & 1
    return parity.astype(np.uint8)


def _family_total(family, channel: tuple) -> float:
    if isinstance(family, ic.Equality):
        return ref.eq_total(family.n, channel)
    return ref.bitwise_total(family.n, channel)


def maxbias(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    m_kint, m_index, m_eq = (int(v) for v in rng.integers(1, 3, 3))
    kint = ic.KIntersect(*MAXBIAS_KINT)
    sweeps = []
    for label, family in VIOLATION_FAMILIES:
        boxes = ref.anf_box_count(_family_table(family))
        for i in range(2):
            biases = [float(v) for v in rng.uniform(0.85, 1.0, boxes)]
            sweeps.append((f"violation {label} {i}", family, biases, int(rng.integers(1, 4))))
    # One protocol whose box product is negative: no signal, so no bound.
    label, family, biases, m = sweeps[-1]
    sweeps[-1] = (label, family, [-biases[0]] + biases[1:], m)

    ops = [
        Op("maxbias kint", lambda: ic.max_bias(kint, m_kint)),
        Op("maxbias index", lambda: ic.max_bias(ic.Index(MAXBIAS_INDEX), m_index)),
        Op("maxbias eq", lambda: ic.max_bias(ic.Equality(MAXBIAS_EQ), m_eq)),
    ]
    for label, family, biases, m in sweeps:
        ops.append(Op(label, lambda family=family, biases=biases, m=m: ic.violation_check(family, biases, m)))

    def check(r):
        errors = []
        _near(errors, "maxbias index", r["maxbias index"], ref.index_threshold(MAXBIAS_INDEX, m_index), 2e-9)
        _near(errors, "maxbias eq", r["maxbias eq"], ref.eq_threshold(MAXBIAS_EQ, m_eq), 2e-9)
        e = r["maxbias kint"]
        f = ic.build_family(kint)
        order = ic.standard_ordering(kint)

        def bound_at(bias):
            return ic.compute_bound(f, _uniform(f), order, ic.Symmetric((1.0 - bias) / 2.0)).total

        if not 0.0 < e < 1.0 or bound_at(e) > m_kint or bound_at(e + 1e-8) <= m_kint:
            errors.append(f"maxbias kint {e!r} is not the threshold for m = {m_kint}")
        for label, family, biases, m in sweeps:
            v = r[label]
            p = (1.0 + math.prod(biases)) / 2.0
            _near(errors, f"{label} success", v.success_probability, p, 1e-12)
            if p <= 0.5:
                if not v.no_signal or v.violated or v.bound_total != 0.0:
                    errors.append(f"{label}: expected a no-signal report")
                continue
            want = _family_total(family, ("sym", 1.0 - p))
            _near(errors, f"{label} bound", v.bound_total, want)
            if v.no_signal or v.violated != (want > m + TOL):
                errors.append(f"{label}: violated = {v.violated}, bound {want!r} vs m = {m}")
        return errors

    return Workload("maxbias", ops, check)


# ---------------------------------------------------------------------------
# search-small
# ---------------------------------------------------------------------------

SEARCH_X, SEARCH_Y = 32, 6
SEARCH_INDEX = 6
GREEDY_KINT = (7, 3)
RANDOM_PERMS = 5


def search_small(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    e = [float(v) for v in rng.uniform(0.02, 0.3, 3)]
    channels = {"det": ic.Deterministic(), "sym": ic.Symmetric(e[0]), "asym": ic.Asymmetric(e[1], e[2])}
    tables = {}
    for key in channels:
        f = ic.BooleanFunction(SEARCH_X, SEARCH_Y, rng.integers(0, 2, SEARCH_X * SEARCH_Y))
        dist = ic.InputDistribution(rng.random(SEARCH_X) + 0.05)
        tables[key] = (f, dist)
    perms = [tuple(int(v) for v in rng.permutation(SEARCH_Y)) for _ in range(RANDOM_PERMS)]
    index = ic.build_family(ic.Index(SEARCH_INDEX))
    kint = ic.build_family(ic.KIntersect(*GREEDY_KINT))
    oracle_seed = int(rng.integers(0, 2**31))

    def exhaustive(key, threads=1):
        f, dist = tables[key]
        return lambda: ic.make_ordering("exhaustive", f, dist, channels[key], threads=threads)

    ops = [Op(f"exhaustive {key}", exhaustive(key)) for key in channels]
    ops += [
        Op("exhaustive det threads=2", exhaustive("det", threads=2)),
        Op("exhaustive index", lambda: ic.make_ordering("exhaustive", index)),
        Op("greedy kint", lambda: ic.make_ordering("greedy", kint)),
        Op("census", lambda: ic.census()),
        Op("census threads=2", lambda: ic.census(threads=2)),
        Op("oracle", lambda: ic.oracle_check(100, seed=oracle_seed)),
    ]

    def check(r):
        errors = []
        for key, channel in channels.items():
            f, dist = tables[key]
            best = ic.compute_bound(f, dist, r[f"exhaustive {key}"], channel).total
            rivals = [ic.Ordering(tuple(range(SEARCH_Y))), ic.make_ordering("greedy", f, dist, channel)]
            rivals += [ic.Ordering(p) for p in perms]
            for order in rivals:
                other = ic.compute_bound(f, dist, order, channel).total
                if other > best + TOL:
                    errors.append(f"exhaustive {key}: {order.perm} gives {other!r} > {best!r}")
        if r["exhaustive det threads=2"].perm != r["exhaustive det"].perm:
            errors.append("exhaustive with threads=2 differs from the serial search")
        if r["exhaustive index"].perm != tuple(range(SEARCH_INDEX)):
            errors.append(f"exhaustive index: {r['exhaustive index'].perm} is not the identity")
        table = ref.kint_table(*GREEDY_KINT)
        column_terms = [ref.h(float(c)) for c in table.mean(axis=0)]
        first = r["greedy kint"].perm[0]
        if column_terms[first] < max(column_terms) - 1e-12:
            errors.append(f"greedy kint picks y = {first} first, not a largest single-column term")
        if sorted(r["greedy kint"].perm) != list(range(table.shape[1])):
            errors.append("greedy kint is not a permutation")
        if r["census threads=2"] != r["census"]:
            errors.append("census with threads=2 differs from the serial census")
        if r["oracle"].max_deviation > TOL:
            errors.append(f"oracle_check deviation {r['oracle'].max_deviation!r}")
        counts = {sig.steps: entry.count for sig, entry in r["census"].items()}
        if counts != dict(ref.census_counts()) or sum(counts.values()) != 1 << 16:
            errors.append("census counts differ from the reference signature count")
        labels = sorted(entry.label for entry in r["census"].values())
        if labels != sorted(("I", "II", "III", "IV", "V", "VI", "VII", "VIII")):
            errors.append(f"census labels {labels}")
        return errors

    return Workload("search-small", ops, check)


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

CLI_TABLE = (64, 12, 8)  # x_size, y_size, distinct rows


def _cli_inputs(rng, folder: str) -> dict:
    """Write the seeded input files; returns their paths, the ordering and
    the entropy of the weighted row classes (the errorless total)."""
    os.makedirs(folder, exist_ok=True)
    x_size, y_size, classes = CLI_TABLE
    rows = rng.choice(1 << y_size, classes, replace=False)
    members = rng.permutation(np.arange(x_size) % classes)
    bits = "".join(format(int(rows[c]), f"0{y_size}b") for c in members)
    weights = (rng.random(x_size) + 0.05).tolist()
    perm = [int(v) for v in rng.permutation(y_size)]
    masses = np.bincount(members, weights=weights, minlength=classes)

    files = {
        "table": {"x_size": x_size, "y_size": y_size, "bits": bits},
        "weights": weights,
        "perm": perm,
        "nan-weights": weights[:3] + [float("nan")] + weights[4:],
        "alpha-perm": perm[:-1] + ["a"],
        "float-perm": [v + 0.9 if v == 1 else v for v in perm],
    }
    paths = {}
    for key, value in files.items():
        paths[key] = os.path.join(folder, f"{key}.json")
        with open(paths[key], "w", encoding="utf-8") as out:
            json.dump(value, out)
    paths["broken-perm"] = os.path.join(folder, "broken-perm.json")
    with open(paths["broken-perm"], "w", encoding="utf-8") as out:
        out.write(json.dumps(perm)[:-1])
    return {"paths": paths, "perm": perm, "entropy": ref.class_entropy(masses)}


def _text_total(out: str) -> float:
    return float(out.rsplit("total: ", 1)[1].split()[0])


def _csv_total(out: str) -> float:
    for line in out.splitlines():
        if line.startswith("total,"):
            return float(line.split(",")[2])
    raise ValueError("no total row")


class ChildRunner:
    """Runs ``python3 -m icbounds argv`` from the checkout root, one child at
    a time, through ``spawn.py`` (started on first use, stopped by
    ``close``).  Output goes through files; ``run`` returns (exit code,
    stdout, stderr) and ``peak_kib`` is the largest child's peak RSS."""

    def __init__(self, root: str, scratch: str):
        self.root = root
        self.out_path = os.path.join(scratch, "stdout")
        self.err_path = os.path.join(scratch, "stderr")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.spawner = None
        self.peak_kib = 0

    def run(self, argv: list):
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        request = {"argv": [sys.executable, "-m", "icbounds", *argv], "cwd": self.root, "env": self.env,
                   "stdout": self.out_path, "stderr": self.err_path}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.peak_kib = max(self.peak_kib, reply["rss_kib"])
        with open(self.out_path, encoding="utf-8", errors="replace") as out, \
                open(self.err_path, encoding="utf-8", errors="replace") as err:
            return reply["code"], out.read(), err.read()

    def close(self) -> None:
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait(timeout=CHILD_TIMEOUT_S)
            self.spawner.stdout.close()
            self.spawner = None


def run_in_process(argv: list):
    """``icbounds.cli.main(argv)`` with its output captured; an exception
    escaping ``main`` is reported as exit 1 with a traceback, as the child
    process would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = icbounds.cli.main(argv)
        except Exception as exc:  # the traceback a user would see
            code = 1
            err.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def cli_mix(seed: int, root: str, scratch: str, in_process: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 4])
    inputs = _cli_inputs(rng, os.path.join(scratch, "inputs"))
    eps = [round(float(v), 6) for v in rng.uniform(0.02, 0.3, 5)]
    bias = round(float(rng.uniform(0.8, 1.0)), 6)
    oracle_seed = int(rng.integers(0, 2**31))
    maxbias_m = int(rng.integers(1, 3))
    rel = lambda key: os.path.relpath(inputs["paths"][key], root)  # noqa: E731

    argv = {
        "bound kint json": ["bound", "--family", "kint", "--n", "10", "--k", "3", "--channel", "det",
                            "--ordering", "kint-proof", "--format", "json"],
        "bound index csv": ["bound", "--family", "index", "--n", "12", "--channel", "sym",
                            "--eps", str(eps[0]), "--format", "csv"],
        "bound eq text": ["bound", "--family", "eq", "--n", "8", "--channel", "asym",
                          "--eps1", str(eps[1]), "--eps2", str(eps[2]), "--format", "text"],
        "bound ip json": ["bound", "--family", "ip", "--n", "6", "--channel", "sym", "--eps", str(eps[3]),
                          "--ordering", "unit-first", "--format", "json"],
        "bound disj csv": ["bound", "--family", "disj", "--n", "6", "--channel", "asym", "--eps1", str(eps[4]),
                           "--eps2", str(eps[0]), "--ordering", "unit-first", "--format", "csv"],
        "bound files json": ["bound", "--table", rel("table"), "--dist", "file:" + rel("weights"),
                             "--ordering", "file:" + rel("perm"), "--format", "json"],
        "bound files greedy text": ["bound", "--table", rel("table"), "--dist", "file:" + rel("weights"),
                                    "--channel", "sym", "--eps", str(eps[1]), "--ordering", "greedy"],
        "bound exhaustive threads=1": ["bound", "--family", "index", "--n", "6", "--ordering", "exhaustive",
                                       "--threads", "1", "--format", "json"],
        "bound exhaustive threads=2": ["bound", "--family", "index", "--n", "6", "--ordering", "exhaustive",
                                       "--threads", "2", "--format", "json"],
        "bound exhaustive sym csv": ["bound", "--family", "index", "--n", "6", "--channel", "sym",
                                     "--eps", str(eps[2]), "--ordering", "exhaustive", "--format", "csv"],
        "classify threads=1": ["classify", "--format", "json", "--threads", "1"],
        "classify threads=2": ["classify", "--format", "json", "--threads", "2"],
        "prbox decompose": ["prbox", "decompose", "--family", "ip", "--n", "3", "--format", "json"],
        "prbox bias": ["prbox", "bias", "--family", "ip", "--n", "3", "--bias", str(bias), "--format", "json"],
        "prbox violation": ["prbox", "violation", "--family", "index", "--n", "4", "--bias", str(bias),
                            "--m", "1", "--format", "json"],
        "prbox maxbias": ["prbox", "maxbias", "--family", "index", "--n", "2", "--m", str(maxbias_m),
                          "--format", "json"],
        "families": ["families", "--format", "json"],
        "oracle-check": ["oracle-check", "--cases", "20", "--seed", str(oracle_seed), "--format", "json"],
        "refuse kint without k": ["bound", "--family", "kint", "--n", "4"],
        "refuse nan weight": ["bound", "--table", rel("table"), "--dist", "file:" + rel("nan-weights")],
        "refuse alpha ordering": ["bound", "--table", rel("table"), "--ordering", "file:" + rel("alpha-perm")],
        "refuse broken ordering": ["bound", "--table", rel("table"), "--ordering", "file:" + rel("broken-perm")],
        "refuse float ordering": ["bound", "--table", rel("table"), "--ordering", "file:" + rel("float-perm")],
        "refuse oracle max-size 0": ["oracle-check", "--cases", "5", "--max-size", "0"],
    }

    runner = None if in_process else ChildRunner(root, scratch)

    def call(args):
        if runner is None:
            return lambda: run_in_process(args)
        return lambda: runner.run(args)

    ops = [Op(name, call(args), expect_refusal=name.startswith("refuse")) for name, args in argv.items()]

    def check(r):
        errors = []
        out = {name: res[1] for name, res in r.items()}

        def js(name):
            return json.loads(out[name])

        _near(errors, "bound kint", js("bound kint json")["total"], ref.kint_det_total(10, 3), CLI_TOL)
        _near(errors, "bound index", _csv_total(out["bound index csv"]),
               ref.bitwise_total(12, ("sym", eps[0])), CLI_TOL)
        _near(errors, "bound eq", _text_total(out["bound eq text"]),
               ref.eq_total(8, ("asym", eps[1], eps[2])), CLI_TOL)
        _near(errors, "bound ip", js("bound ip json")["total"], ref.bitwise_total(6, ("sym", eps[3])), CLI_TOL)
        _near(errors, "bound disj", _csv_total(out["bound disj csv"]),
               ref.bitwise_total(6, ("asym", eps[4], eps[0])), CLI_TOL)
        files = js("bound files json")
        _near(errors, "bound files", files["total"], inputs["entropy"], CLI_TOL)
        if files["ordering"]["perm"] != inputs["perm"]:
            errors.append("bound files: the ordering file was not used")
        greedy = _text_total(out["bound files greedy text"])
        if not 0.0 <= greedy <= inputs["entropy"] + CLI_TOL:
            errors.append(f"bound files greedy: total {greedy!r} outside [0, {inputs['entropy']!r}]")
        exhaustive = js("bound exhaustive threads=1")
        if exhaustive["ordering"]["perm"] != list(range(6)) or abs(exhaustive["total"] - 6.0) > CLI_TOL:
            errors.append("bound exhaustive: index(6) must give the identity and total 6")
        _near(errors, "bound exhaustive sym", _csv_total(out["bound exhaustive sym csv"]),
               ref.bitwise_total(6, ("sym", eps[2])), CLI_TOL)
        for a, b in (("bound exhaustive threads=1", "bound exhaustive threads=2"),
                     ("classify threads=1", "classify threads=2")):
            if out[a] != out[b]:
                errors.append(f"{a} and {b} differ in their output")
        census = js("classify threads=1")
        classes = {c["label"]: c["count"] for c in census["classes"]}
        want = sorted(ref.census_counts().values())
        if census["total_functions"] != 1 << 16 or sorted(classes.values()) != want or len(classes) != 8:
            errors.append(f"classify: class counts {classes}")
        dec = js("prbox decompose")
        coeffs = {tuple(c["positions"]): c["bits"] for c in dec["coefficients"]}
        for x in range(8):
            for y in range(8):
                value = 0
                for positions, bits in coeffs.items():
                    if all((y >> (2 - i)) & 1 for i in positions):
                        value ^= int(bits[x])
                if value != ref.ip_value(x, y):
                    errors.append(f"prbox decompose: coefficients give f({x}, {y}) = {value}")
        if dec["box_count"] != 3:
            errors.append(f"prbox decompose: {dec['box_count']} boxes for ip(3)")
        _near(errors, "prbox bias", js("prbox bias")["success_probability"], (1.0 + bias**3) / 2.0, CLI_TOL)
        viol = js("prbox violation")
        p = (1.0 + math.prod(viol["biases"])) / 2.0
        if len(viol["biases"]) != ref.anf_box_count(_family_table(ic.Index(4))):
            errors.append("prbox violation: bias list does not cover every box")
        _near(errors, "prbox violation success", viol["success_probability"], p, CLI_TOL)
        want_bound = ref.bitwise_total(4, ("sym", 1.0 - p))
        _near(errors, "prbox violation bound", viol["bound_total"], want_bound, CLI_TOL)
        if viol["violated"] != (want_bound > 1 + TOL):
            errors.append("prbox violation: wrong verdict")
        _near(errors, "prbox maxbias", js("prbox maxbias")["max_bias"],
               ref.index_threshold(2, maxbias_m), 3e-9)
        names = {f["name"] for f in js("families")["families"]}
        if names != {"index", "ip", "disj", "eq", "kint"}:
            errors.append(f"families: {sorted(names)}")
        oracle = js("oracle-check")
        if not oracle["ok"] or oracle["max_deviation"] > TOL:
            errors.append(f"oracle-check: {oracle}")
        return errors

    return Workload("cli-mix", ops, check, runner)


def make(name: str, seed: int, root: str, scratch: str, in_process: bool = False) -> Workload:
    if name == "bound-large":
        return bound_large(seed)
    if name == "maxbias":
        return maxbias(seed)
    if name == "search-small":
        return search_small(seed)
    return cli_mix(seed, root, scratch, in_process)
