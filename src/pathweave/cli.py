"""Command-line front door: ingest, check, simplify, evaluate, analyze.

Exit codes: 0 success, 1 domain error (evaluation or analysis) or input
too deep or too large to process, 2 I/O, format, or expression syntax
error; each failure prints one `pathweave: ...` line to stderr, never a
traceback. Output is deterministic: fixed orderings, floats printed with
12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, tensor as tensor_io
from .errors import AnalysisError, EvalError, ExprSyntaxError, GraphFormatError
from .evaluate import evaluate, plan
from .expr import (
    Not,
    SliceRef,
    check_signatures,
    children,
    format_expr,
    is_boolean_expr,
    parse,
    parse_program,
    postorder,
)
from .kernels import cell_rows, fmt_float, joined_rows, name_cells, tsv_rows
from .rewrite import derivation_table, simplify


def _json_num(x):
    return float(fmt_float(x))


def _load_tensor(args):
    try:
        return tensor_io.read_triples(args.graph)
    except OSError as err:
        raise GraphFormatError(f"cannot read graph file {args.graph}: {err}")


def _load_expression(args, t):
    # an empty `--expr ""` is given, and the parser refuses it
    if args.expr is not None and args.expr_file is not None:
        raise GraphFormatError("give either --expr or --expr-file, not both")
    if args.expr is not None:
        return parse(args.expr)
    if args.expr_file is not None:
        try:
            text = tensor_io.read_text(args.expr_file)
        except OSError as err:
            raise GraphFormatError(f"cannot read expression file {args.expr_file}: {err}")
        return parse_program(text)
    if t is not None and t.m == 1:
        return SliceRef(t.labels[0])
    raise GraphFormatError(
        "the graph has several labels; pick the path matrix with --expr or --expr-file"
    )


def _evaluated(args, simplified=False):
    """The graph and the path matrix of the command's expression. With
    `simplified`, the expression is simplified first and its derivation
    printed to stderr."""
    t = _load_tensor(args)
    e = _load_expression(args, t)
    if simplified:
        start = e
        e, trace = simplify(start)
        _print_derivation(start, trace, sys.stderr)
    return t, evaluate(e, t)


def _write_json(payload, out, key=None, rows=()):
    """Write `payload` as one line of JSON. With `key`, the payload ends
    with a list under `key` whose items are the JSON texts `rows` yields,
    each row one or more items joined by ", ", written a row at a time."""
    # json.dumps runs the C encoder; json.dump streams through the much
    # slower pure-Python one, for the same bytes.
    text = json.dumps(payload, ensure_ascii=False)
    if key is None:
        out.write(text + "\n")
        return
    rows = iter(rows)
    out.write(f"{text[:-1]}, {json.dumps(key)}: [{next(rows, '')}")
    out.writelines(", " + row for row in rows)
    out.write("]}\n")


def _json_cells(names):
    """(leads, heads) for `joined_rows` items `[tail, head, ...]`: a row's
    lead opens the item with its tail, a head cell adds the head."""
    heads = name_cells([json.dumps(name, ensure_ascii=False) for name in names], ", ")
    return ["[" + head for head in heads.tolist()], heads


def _json_value(v) -> str:
    """The JSON text of `_json_num(v)` closing an item, as json.dumps writes it."""
    return json.dumps(_json_num(v)) + "]"


def _emit_matrix(z, t, fmt, out):
    if fmt == "tsv":
        out.writelines(tsv_rows(z, t.vertices.names))
        return
    leads, heads = _json_cells(t.vertices.names)
    rows = z.entry_rows(leads, heads, _json_value)
    _write_json({"n": t.n}, out, "entries", joined_rows(rows, ", ", ""))


def _emit_vector(metric, values_by_name, scalars, fmt, out):
    if fmt == "tsv":
        for name in values_by_name:
            out.write(f"{name}\t{fmt_float(values_by_name[name])}\n")
        for key in scalars:
            out.write(f"#{key}\t{fmt_float(scalars[key])}\n")
        return
    payload = {
        "metric": metric,
        "scalars": {k: _json_num(v) for k, v in scalars.items()},
        "values": {k: _json_num(v) for k, v in values_by_name.items()},
    }
    _write_json(payload, out)


def cmd_load_check(args, out):
    t = _load_tensor(args)
    if args.signatures is not None:
        try:
            t = t.with_signatures(tensor_io.read_signatures(args.signatures))
        except OSError as err:
            raise GraphFormatError(f"cannot read signature file {args.signatures}: {err}")
    out.write(f"vertices\t{t.n}\n")
    out.write(f"labels\t{t.m}\n")
    for label in sorted(t.labels):
        s = t.slice(label)
        sig = f"\t{s.signature[0]}\t{s.signature[1]}" if s.signature else ""
        out.write(f"slice\t{label}\t{s.nnz}{sig}\n")
    if args.expr is not None or args.expr_file is not None:
        e = _load_expression(args, t)
        # refuses an unknown label or vertex name, as `eval` would
        plan(e, t)
        report = check_signatures(e, t)
        out.write(f"expression\t{format_expr(e)}\n")
        dom = report.derived[0] or "?"
        rng = report.derived[1] or "?"
        out.write(f"signature\t{dom}\t{rng}\t{'ok' if report.ok else 'violations'}\n")
        for v in report.violations:
            out.write(f"violation\t{v.subexpr}\texpected {v.expected}\tfound {v.found}\n")
        # `not` needs a {0,1} operand; whether one is depends on the data
        for node in postorder(e):
            if isinstance(node, Not) and not is_boolean_expr(children(node)[0]):
                out.write(f"note\t{format_expr(node)}\toperand may not be {{0,1}}\n")
    return 0


def _print_derivation(start, trace, stream):
    rows = derivation_table(start, trace)
    width = max(len(r) for r, _ in rows)
    for idx, (rendered, justification) in enumerate(rows):
        lead = "  " if idx == 0 else "= "
        stream.write(f"{lead}{rendered.ljust(width)}  | {justification}\n")


def cmd_simplify(args, out):
    if args.expr is None and args.expr_file is None:
        raise GraphFormatError("simplify needs --expr or --expr-file")
    e = _load_expression(args, None)
    simplified, trace = simplify(e)
    _print_derivation(e, trace, out)
    out.write(f"{format_expr(simplified)}\n")
    return 0


def cmd_eval(args, out):
    t, z = _evaluated(args, args.simplify)
    _emit_matrix(z, t, args.format, out)
    return 0


def cmd_pagerank(args, out):
    t, z = _evaluated(args)
    cfg = analysis.PageRankConfig(
        delta=args.delta, epsilon=args.epsilon, max_iters=args.max_iters
    )
    pi = analysis.pagerank(z, cfg)
    values = dict(zip(t.vertices.names, pi.tolist()))
    _emit_vector("pagerank", values, {}, args.format, out)
    return 0


def cmd_geodesic(args, out):
    t, z = _evaluated(args)
    res = analysis.shortest_paths(z)
    names = t.vertices.names
    rows = list(
        zip(names, res.eccentricity.tolist(), res.closeness.tolist(), res.reach_counts.tolist())
    )
    # hop counts run from 1 to the diameter; the table holds each text once
    longest = 0 if res.diameter is None else int(res.diameter)
    hops = res.hops
    if args.format == "tsv":
        for name, ecc, clo, reached in rows:
            ecc = "" if math.isnan(ecc) else fmt_float(ecc)
            clo = "" if math.isnan(clo) else fmt_float(clo)
            out.write(f"{name}\t{ecc}\t{clo}\t{reached}\n")
        radius = "" if res.radius is None else fmt_float(res.radius)
        diameter = "" if res.diameter is None else fmt_float(res.diameter)
        out.write(f"#radius\t{radius}\n#diameter\t{diameter}\n")
        leads = [f"d\t{name}\t" for name in names]
        texts = np.array([str(h) for h in range(longest + 1)], dtype=object)
        cells = cell_rows(leads, name_cells(names), hops.indptr, hops.indices, hops.data, texts)
        out.writelines(joined_rows(cells))
        return 0
    payload = {
        "metric": "geodesic",
        "scalars": {
            "radius": None if res.radius is None else _json_num(res.radius),
            "diameter": None if res.diameter is None else _json_num(res.diameter),
        },
        "values": {
            name: {
                "eccentricity": None if math.isnan(ecc) else _json_num(ecc),
                "closeness": None if math.isnan(clo) else _json_num(clo),
                "reached": reached,
            }
            for name, ecc, clo, reached in rows
        },
    }
    leads, heads = _json_cells(names)
    texts = np.array([f"{h}]" for h in range(longest + 1)], dtype=object)
    cells = cell_rows(leads, heads, hops.indptr, hops.indices, hops.data, texts)
    _write_json(payload, out, "distances", joined_rows(cells, ", ", ""))
    return 0


def _parse_seed(pairs, t):
    seed = np.zeros(t.n)
    if not pairs:
        raise GraphFormatError("spread needs at least one --seed name=value")
    for item in pairs:
        # split at the last `=`: a value is a number, a vertex name may hold `=`
        name, _, raw = item.rpartition("=")
        if not _ or not name:
            raise GraphFormatError(f"--seed expects name=value, got {item!r}")
        idx = t.vertices.index.get(name)
        if idx is None:
            raise EvalError(f"unknown vertex name {name!r} in --seed")
        try:
            seed[idx] = float(raw)
        except ValueError:
            raise GraphFormatError(f"--seed value must be a number, got {raw!r}")
    return seed


def cmd_spread(args, out):
    t, z = _evaluated(args)
    seed = _parse_seed(args.seed, t)
    flow = analysis.spreading_activation(
        z, seed, steps=args.steps, decay=args.decay, threshold=args.threshold
    )
    values = dict(zip(t.vertices.names, flow.tolist()))
    _emit_vector("spreading-activation", values, {}, args.format, out)
    return 0


def cmd_assort(args, out):
    t, z = _evaluated(args)
    try:
        raw = tensor_io.read_properties(args.property)
    except OSError as err:
        raise GraphFormatError(f"cannot read property file {args.property}: {err}")
    if args.kind == "scalar":
        values = np.full(t.n, np.nan)
        for name, text in raw.items():
            idx = t.vertices.index.get(name)
            if idx is not None:
                try:
                    values[idx] = float(text)
                except ValueError:
                    raise GraphFormatError(f"scalar property for {name!r} is not a number")
        r = analysis.assortativity_scalar(z, values)
    else:
        labels = [raw.get(name) for name in t.vertices.names]
        r = analysis.assortativity_categorical(z, labels)
    _emit_vector("assortativity", {}, {"r": r}, args.format, out)
    return 0


def _add_common(p, with_graph=True, with_format=True):
    if with_graph:
        p.add_argument("--graph", required=True, help="triple file: tail<TAB>label<TAB>head")
    p.add_argument("--expr", help="inline path expression")
    p.add_argument("--expr-file", help="expression file with optional let bindings")
    if with_format:
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathweave",
        description="path algebra over multi-relational networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load-check", help="validate a graph and optional expression")
    _add_common(p, with_format=False)
    p.add_argument("--signatures", help="optional label<TAB>domain<TAB>range file")
    p.set_defaults(func=cmd_load_check)

    p = sub.add_parser("eval", help="evaluate a path expression to a matrix")
    _add_common(p)
    p.add_argument("--simplify", action="store_true", help="print derivation, evaluate simplified tree")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simplify", help="algebraically simplify an expression")
    _add_common(p, with_graph=False, with_format=False)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("pagerank", help="stationary vector of the merged walk matrix")
    _add_common(p)
    p.add_argument("--delta", type=float, default=0.85)
    p.add_argument("--epsilon", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=1000)
    p.set_defaults(func=cmd_pagerank)

    p = sub.add_parser("geodesic", help="shortest-path metrics")
    _add_common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("spread", help="finite-step spreading activation")
    _add_common(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--decay", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--seed", action="append", default=[], help="name=value, repeatable")
    p.set_defaults(func=cmd_spread)

    p = sub.add_parser("assort", help="assortative mixing coefficient")
    _add_common(p)
    p.add_argument("--property", required=True, help="vertex<TAB>value file")
    p.add_argument("--kind", choices=("scalar", "categorical"), required=True)
    p.set_defaults(func=cmd_assort)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ExprSyntaxError, GraphFormatError) as err:
        print(f"pathweave: {err}", file=sys.stderr)
        return 2
    except (EvalError, AnalysisError) as err:
        print(f"pathweave: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        print("pathweave: input is nested too deeply to process", file=sys.stderr)
        return 1
    except MemoryError:
        print("pathweave: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
