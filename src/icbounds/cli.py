"""Command-line interface with machine-readable output.

Subcommands: ``bound``, ``classify``, ``prbox decompose|bias|violation|maxbias``,
``families``, ``oracle-check``.  Exit codes: 0 success, 2 argument errors,
3 computation refusals (exhaustive search or family table too large, census
mismatch), 1 oracle-check deviation beyond tolerance.  Text and CSV numbers
carry nine decimal places and JSON numbers are ``round(x, 9)``;
configuration comes from flags only, so invocations are reproducible from
regression logs.  ``--threads`` is accepted and has no effect.

``--family`` takes one flag per parameter of the family's class, and
``families`` prints what the classes in ``boolfn.FAMILIES`` declare.  Every
report is written by ``_emit``, from one JSON payload, CSV rows and text
lines; only ``prbox decompose`` streams its coefficients as they are made.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
from pathlib import Path

from .boolfn import FAMILIES, InputDistribution, build_family, load_truth_table
from .classify import census_table, hierarchy_check
from .errors import (
    ArgumentError,
    CensusMismatchError,
    ExhaustiveSearchRefusal,
    HierarchyViolationError,
    IcboundsError,
    TableSizeRefusal,
    TruthTableFormatError,
)
from .icbound import (
    Asymmetric,
    Deterministic,
    Ordering,
    Symmetric,
    compute_bound,
    make_ordering,
    oracle_check,
)
from .infocalc import TOLERANCE
from .prbox import (
    _check_bias,
    _check_message_bits,
    _violation_report,
    decompose,
    max_bias,
    success_probability,
)

_FAMILIES = {cls.name: cls for cls in FAMILIES}


def _fmt(value: float) -> str:
    return f"{value:.9f}"


def _rounded(obj):
    """Round every float to nine decimals for stable JSON output."""
    if isinstance(obj, float):
        return round(obj, 9)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _emit_json(payload: dict) -> None:
    json.dump(_rounded(payload), sys.stdout, indent=2)  # written chunk by chunk
    sys.stdout.write("\n")


def _emit_json_items(head: dict, key: str, items) -> None:
    """``_emit_json(head | {key: list(items)})``, byte for byte, for a
    non-empty ``head``, but each item is encoded and written as it is made,
    so the list is never held whole."""
    sys.stdout.write(json.dumps(_rounded(head), indent=2)[: -len("\n}")])
    sys.stdout.write(f",\n  {json.dumps(key)}: [")
    # An item nested two levels deep is its own indented encoding with every
    # line moved right by four spaces.
    newline = "\n    "
    sep = newline
    for item in items:
        sys.stdout.write(sep + json.dumps(_rounded(item), indent=2).replace("\n", newline))
        sep = "," + newline
    sys.stdout.write("]\n}\n" if sep == newline else "\n  ]\n}\n")


def _emit(fmt: str, payload: dict, rows, lines) -> None:
    """Write one report: ``payload`` as JSON, ``rows`` as CSV records, or
    ``lines`` as text."""
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Flag resolution
# ---------------------------------------------------------------------------


def _family_from_args(args):
    """The family named by --family, with one flag per parameter."""
    cls = _FAMILIES[args.family]
    names = [field.name for field in dataclasses.fields(cls)]
    for name in names:
        if getattr(args, name) is None:
            raise ArgumentError(f"--family {args.family} requires --{name}")
    return cls(*(getattr(args, name) for name in names))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TruthTableFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _resolve_function(args):
    """Returns (function, name, parameters) from --family/--table flags."""
    if getattr(args, "table", None):
        f = load_truth_table(_read_text(args.table))
        return f, f"table:{args.table}", {"x_size": f.x_size, "y_size": f.y_size}
    family = _family_from_args(args)
    return build_family(family), family.name, dataclasses.asdict(family)


def _resolve_channel(args):
    if args.channel == "det":
        return Deterministic()
    if args.channel == "sym":
        if args.eps is None:
            raise ArgumentError("--channel sym requires --eps")
        return Symmetric(args.eps)
    if args.eps1 is None or args.eps2 is None:
        raise ArgumentError("--channel asym requires --eps1 and --eps2")
    return Asymmetric(args.eps1, args.eps2)


def _resolve_distribution(args, x_size: int) -> InputDistribution:
    spec = args.dist
    if spec == "uniform":
        return InputDistribution.uniform(x_size)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        return InputDistribution.from_json(_read_text(path), label=f"file:{path}")
    raise ArgumentError(f"--dist must be 'uniform' or 'file:PATH', got {spec!r}")


def _resolve_ordering(args, f, dist, channel):
    spec = args.ordering
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            data = json.loads(_read_text(path))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TruthTableFormatError(f"ordering file is not valid JSON: {exc}") from exc
        # type() rather than isinstance(): bools are ints, and floats such
        # as 1.9 must not be truncated into an index.
        if not isinstance(data, list) or any(type(v) is not int for v in data):
            raise TruthTableFormatError("ordering file must be a JSON array of integer y indices")
        return Ordering(tuple(data), strategy=f"file:{path}")
    return make_ordering(
        spec,
        f,
        dist,
        channel,
        k=args.k,
        threads=args.threads,
        allow_big_exhaustive=args.allow_big_exhaustive,
    )


def _parse_biases(spec: str, count: int) -> list:
    """The --bias values for ``count`` boxes, with -0.0 read as 0.0.  One
    value broadcasts to every box, also to none; it is checked first, since
    no box may be left to check it."""
    try:
        biases = [float(part) + 0.0 for part in spec.split(",") if part != ""]
    except ValueError as exc:
        raise ArgumentError(f"--bias expects comma-separated numbers, got {spec!r}") from exc
    if len(biases) == 1 and count != 1:
        _check_bias(biases[0])
        return biases * count
    return biases


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _handle_bound(args) -> int:
    f, name, params = _resolve_function(args)
    channel = _resolve_channel(args)
    dist = _resolve_distribution(args, f.x_size)
    ordering = _resolve_ordering(args, f, dist, channel)
    report = compute_bound(f, dist, ordering, channel)
    payload = {
        "function": name,
        "parameters": {**params, "distribution": dist.label},
        "channel": channel.describe(),
        "ordering": {"strategy": report.ordering_strategy, "perm": list(report.ordering)},
        "terms": list(report.terms),
        "total": report.total,
        "tolerance": TOLERANCE,
    }
    terms = [_fmt(t) for t in report.terms]
    _emit(
        args.format,
        payload,
        [["record", "index", "value"], *(["term", str(i), t] for i, t in enumerate(terms)),
         ["total", "", _fmt(report.total)]],
        [
            f"function: {name} {params}",
            f"channel: {channel.describe()}",
            f"ordering: {report.ordering_strategy} {list(report.ordering)}",
            f"distribution: {dist.label}",
            "terms:",
            *(f"  [{i}] {t}" for i, t in enumerate(terms)),
            f"total: {_fmt(report.total)}",
        ],
    )
    return 0


def _handle_classify(args) -> int:
    table = census_table(threads=args.threads)
    checks = hierarchy_check()
    payload = {
        "class_count": len(table),
        "total_functions": sum(count for _, count, _ in table),
        "classes": [
            {"label": label, "count": count, "representative": rep.bits()}
            for label, count, rep in table
        ],
        "hierarchy": [
            {"source": c.source, "target": c.target, "passed": c.passed} for c in checks
        ],
    }
    classes = payload["classes"]
    _emit(
        args.format,
        payload,
        [["label", "count", "representative"],
         *([c["label"], str(c["count"]), c["representative"]] for c in classes)],
        [
            f"classes: {payload['class_count']}  (functions: {payload['total_functions']})",
            *(f"  {c['label']:>4}: {c['count']:6d}  rep={c['representative']}" for c in classes),
            *(f"hierarchy {c.source}->{c.target}: ok" for c in checks),
        ],
    )
    return 0


def _coefficient_terms(dec):
    """Yield (monomial, subset, bits, constant) per mask in (size, subset) order.

    ``bits`` is the column's '0'/'1' string over x, made from one block of
    unpacked columns at a time.
    """
    constant = dec.constant.tolist()
    subsets = dec.subsets()
    columns = itertools.chain.from_iterable(dec.column_blocks([m for m, _ in subsets]))
    for (m, s), bits in zip(subsets, columns):
        bits += ord("0")
        monomial = "*".join(f"y{i}" for i in s) or "1"
        yield monomial, s, bits.tobytes().decode("ascii"), constant[m]


def _handle_prbox_decompose(args) -> int:
    f, name, params = _resolve_function(args)
    dec = decompose(f)
    terms = _coefficient_terms(dec)
    if args.format == "json":
        first = next(terms)  # mask 0, the empty monomial, sorts first
        head = {
            "function": name,
            "parameters": params,
            "box_count": dec.box_count,
            "message_term": first[2],
        }
        _emit_json_items(head, "coefficients", (
            {"monomial": mono, "positions": list(s), "bits": bits, "constant": const}
            for mono, s, bits, const in itertools.chain([first], terms)
        ))
    elif args.format == "csv":
        # Monomial names, digits and true/false need no csv quoting, so each
        # row is written as it is made, without the csv module's scan.
        sys.stdout.write("monomial,bits,constant\n")
        for mono, _, bits, const in terms:
            sys.stdout.write(f"{mono},{bits},{str(const).lower()}\n")
    else:
        sys.stdout.write(f"function: {name} {params}\nbox count: {dec.box_count}\n")
        for mono, _, bits, _ in terms:
            sys.stdout.write(f"  c[{mono}] = {bits}\n")
    return 0


def _handle_prbox_bias(args) -> int:
    f, name, params = _resolve_function(args)
    dec = decompose(f)
    biases = _parse_biases(args.bias, dec.box_count)
    p = success_probability(dec, biases)
    payload = {
        "function": name,
        "parameters": params,
        "biases": list(biases),
        "box_count": dec.box_count,
        "success_probability": p,
    }
    _emit(
        args.format,
        payload,
        [["box_count", "success_probability"], [str(dec.box_count), _fmt(p)]],
        [f"function: {name} {params}", f"biases: {list(biases)}", f"success probability: {_fmt(p)}"],
    )
    return 0


def _handle_prbox_violation(args) -> int:
    family = _family_from_args(args)
    # Refuse a bad --m before building the table.
    _check_message_bits(args.m)
    f = build_family(family)
    decomposition = decompose(f)
    biases = _parse_biases(args.bias, decomposition.box_count)
    report = _violation_report(family, f, decomposition, biases, args.m)
    payload = {
        "function": family.name,
        "parameters": dataclasses.asdict(family),
        "biases": list(biases),
        "message_bits": args.m,
        "success_probability": report.success_probability,
        "epsilon": report.epsilon,
        "bound_total": report.bound_total,
        "violated": report.violated,
        "no_signal": report.no_signal,
    }
    status = "NO SIGNAL" if report.no_signal else ("VIOLATED" if report.violated else "ok")
    _emit(
        args.format,
        payload,
        [
            ["success_probability", "bound_total", "message_bits", "violated", "no_signal"],
            [_fmt(report.success_probability), _fmt(report.bound_total), str(args.m),
             str(report.violated).lower(), str(report.no_signal).lower()],
        ],
        [
            f"function: {family.name} {payload['parameters']}",
            f"success probability: {_fmt(report.success_probability)}",
            f"bound: {_fmt(report.bound_total)} vs m = {args.m}",
            f"status: {status}",
        ],
    )
    return 0


def _handle_prbox_maxbias(args) -> int:
    family = _family_from_args(args)
    threshold = max_bias(family, args.m)
    payload = {
        "function": family.name,
        "parameters": dataclasses.asdict(family),
        "message_bits": args.m,
        "max_bias": threshold,
    }
    _emit(
        args.format,
        payload,
        [["message_bits", "max_bias"], [str(args.m), _fmt(threshold)]],
        [f"function: {family.name} {payload['parameters']}",
         f"max bias at m = {args.m}: {_fmt(threshold)}"],
    )
    return 0


def _handle_families(args) -> int:
    rows = [
        [cls.name, cls.definition, cls.parameter_range, cls.sizes, cls.ordering] for cls in FAMILIES
    ]
    keys = ["name", "definition", "parameters", "sizes", "standard_ordering"]
    _emit(
        args.format,
        {"families": [dict(zip(keys, row)) for row in rows]},
        [keys, *rows],
        [f"{n:>6}: {d}  ({p}; {s}; standard ordering {o})" for n, d, p, s, o in rows],
    )
    return 0


def _handle_oracle_check(args) -> int:
    result = oracle_check(cases=args.cases, seed=args.seed, max_size=args.max_size)
    payload = {**dataclasses.asdict(result), "tolerance": TOLERANCE, "ok": result.ok}
    _emit(
        args.format,
        payload,
        [["cases", "max_deviation", "ok"],
         [str(result.cases), f"{result.max_deviation:.3e}", str(result.ok).lower()]],
        [
            f"cases: {result.cases} (seed {result.seed}, sizes <= {result.max_size})",
            f"max deviation: {result.max_deviation:.3e}",
            f"ok: {result.ok}",
        ],
    )
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")


def _add_function_source(p: argparse.ArgumentParser, with_table: bool = True) -> None:
    p.add_argument("--family", choices=sorted(_FAMILIES))
    if with_table:
        p.add_argument("--table", metavar="PATH", help="truth-table JSON file")
    p.add_argument("--n", type=int, help="family size parameter")
    p.add_argument("--k", type=int, help="threshold for kint (also kint-proof ordering)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icbounds",
        description="Information-causality lower bounds on one-way communication complexity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate the information lower bound")
    _add_function_source(p_bound)
    p_bound.add_argument("--channel", choices=("det", "sym", "asym"), default="det")
    p_bound.add_argument("--eps", type=float)
    p_bound.add_argument("--eps1", type=float)
    p_bound.add_argument("--eps2", type=float)
    p_bound.add_argument(
        "--ordering",
        default="natural",
        help="natural|unit-first|kint-proof|greedy|exhaustive|file:PATH",
    )
    p_bound.add_argument("--dist", default="uniform", help="uniform|file:PATH")
    p_bound.add_argument("--threads", type=int, default=1)
    p_bound.add_argument("--allow-big-exhaustive", action="store_true")
    _add_common(p_bound)
    p_bound.set_defaults(handler=_handle_bound, needs_source=True)

    p_classify = sub.add_parser("classify", help="census of the equivalence classes")
    p_classify.add_argument("--threads", type=int, default=1)
    _add_common(p_classify)
    p_classify.set_defaults(handler=_handle_classify)

    p_prbox = sub.add_parser("prbox", help="PR-box protocol analysis")
    prbox_sub = p_prbox.add_subparsers(dest="prbox_command", required=True)

    p_dec = prbox_sub.add_parser("decompose", help="ANF-over-y coefficients and box count")
    _add_function_source(p_dec)
    _add_common(p_dec)
    p_dec.set_defaults(handler=_handle_prbox_decompose, needs_source=True)

    p_bias = prbox_sub.add_parser("bias", help="success probability under biased boxes")
    _add_function_source(p_bias)
    p_bias.add_argument("--bias", required=True, help="comma-separated biases (one broadcasts)")
    _add_common(p_bias)
    p_bias.set_defaults(handler=_handle_prbox_bias, needs_source=True)

    p_viol = prbox_sub.add_parser("violation", help="check a protocol against the m-bit bound")
    _add_function_source(p_viol, with_table=False)
    p_viol.add_argument("--bias", required=True)
    p_viol.add_argument("--m", type=int, required=True, help="message bits")
    _add_common(p_viol)
    p_viol.set_defaults(handler=_handle_prbox_violation, needs_source=True, table=None)

    p_max = prbox_sub.add_parser("maxbias", help="largest bias the m-bit bound tolerates")
    _add_function_source(p_max, with_table=False)
    p_max.add_argument("--m", type=int, required=True, help="message bits")
    _add_common(p_max)
    p_max.set_defaults(handler=_handle_prbox_maxbias, needs_source=True, table=None)

    p_fam = sub.add_parser("families", help="list built-in families")
    _add_common(p_fam)
    p_fam.set_defaults(handler=_handle_families)

    p_oracle = sub.add_parser("oracle-check", help="compare evaluator against direct oracle")
    p_oracle.add_argument("--cases", type=int, default=100)
    p_oracle.add_argument("--seed", type=int, default=1783)
    p_oracle.add_argument("--max-size", type=int, default=16)
    _add_common(p_oracle)
    p_oracle.set_defaults(handler=_handle_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # violation and maxbias take no --table and default it to None.
        if getattr(args, "needs_source", False) and (args.family is None) == (args.table is None):
            parser.error("exactly one of --family or --table is required")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ExhaustiveSearchRefusal, TableSizeRefusal) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (CensusMismatchError, HierarchyViolationError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    except (IcboundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
