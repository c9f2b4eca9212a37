"""Benchmark driver: generate corpora, reconstruct, verify, and sweep sizes.

Subcommands
    generate     write a seeded family instance as an edge-list file
    reconstruct  rebuild a graph from distance queries and verify it
    bench        sweep sizes/seeds for a family, emit CSV (and JSON) records
    verify       compare two edge-list files for exact edge-set equality

Every record carries the distinct-query totals per phase so runs can be
diffed; rows are emitted in sorted order and only the wall_time column varies
between identical runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
import time

from .generate import FamilySpec, FAMILIES, InfeasibleSpecError, generate
from .graph import (
    EdgeListParseError,
    Graph,
    graphs_equal,
    max_degree,
    read_edge_list,
    write_edge_list,
)
from .layering import build_layering, build_layering_tree, tree_length
from .oracle import DistanceOracle, QueryPhase
from .reconstruct import (
    ReconstructionConfig,
    ReconstructionError,
    reconstruct,
)

CSV_COLUMNS = (
    "family",
    "n",
    "delta",
    "tau",
    "ell",
    "seed",
    "q_total",
    "q_rootbfs",
    "q_bootstrap",
    "q_anc",
    "q_neighbor",
    "correct",
    "wall_time",
)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _size_list(text: str) -> list[int]:
    return [_positive_int(s) for s in text.split(",")]


def _read_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return read_edge_list(fh.read())


def _write_graph_file(path: str, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_edge_list(g))


def _ell_from_truth(hidden: Graph) -> int:
    if hidden.n < 1:  # the oracle's own error, not the layering's
        raise ValueError("hidden graph must have at least one vertex")
    layering = build_layering(hidden, 0)
    return tree_length(hidden, build_layering_tree(hidden, layering))


def run_one(
    hidden: Graph,
    *,
    family: str,
    delta: int,
    tau: int | None,
    ell: int | None,
    seed: int,
    strict_budget: bool = False,
    log_queries: bool = False,
) -> tuple[dict, DistanceOracle]:
    """Reconstruct one instance and assemble its experiment record."""
    oracle = DistanceOracle(hidden, log_queries=log_queries)
    true_delta = max_degree(hidden)
    cfg = ReconstructionConfig(
        tau=tau if tau is not None else 1,
        ell=ell,
        strict_budget=strict_budget,
        max_degree=true_delta,
    )
    correct = False
    suspected = False
    start = time.perf_counter()
    try:
        result = reconstruct(oracle, cfg)
        correct = graphs_equal(result.graph, hidden)
        suspected = not correct
    except ReconstructionError:
        suspected = True
        result = None
    wall = time.perf_counter() - start
    ledger = oracle.ledger
    eff_ell = cfg.effective_ell
    record = {
        "family": family,
        "n": hidden.n,
        "delta": delta,
        "tau": "" if tau is None else tau,
        "ell": eff_ell,
        "seed": seed,
        "q_total": ledger.distinct_queries,
        "q_rootbfs": ledger.per_phase[QueryPhase.ROOT_BFS],
        "q_bootstrap": ledger.per_phase[QueryPhase.BOOTSTRAP],
        "q_anc": ledger.per_phase[QueryPhase.ANCESTOR_SEARCH],
        "q_neighbor": ledger.per_phase[QueryPhase.NEIGHBOR_SEARCH],
        "correct": "true" if correct else "false",
        "wall_time": f"{wall:.6f}",
        "_extras": {
            "raw_calls": ledger.raw_calls,
            "tau_violation_suspected": suspected,
            "true_max_degree": true_delta,
            "budget_neighbor_per_vertex": true_delta ** (2 * eff_ell + 4),
            "budget_neighbor_per_vertex_loose": true_delta ** (4 * eff_ell + 8),
            "oracle_stats": dataclasses.asdict(oracle.stats),
        },
        "_result": result,
    }
    return record, oracle


def _emit_records(records: list[dict], out: io.TextIOBase, mirror: io.TextIOBase | None) -> None:
    records = sorted(
        records,
        key=lambda r: (r["family"], r["n"], r["delta"], str(r["tau"]), r["ell"], r["seed"]),
    )
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([rec[col] for col in CSV_COLUMNS])
    if mirror is not None:
        payload = []
        for rec in records:
            row = {col: rec[col] for col in CSV_COLUMNS}
            row.update(rec["_extras"])
            payload.append(row)
        json.dump(payload, mirror, indent=2, sort_keys=True)
        mirror.write("\n")


def cmd_generate(args: argparse.Namespace) -> int:
    spec = FamilySpec(
        family=args.family,
        n=args.n,
        max_degree=args.delta,
        k=args.k,
        clique_size=args.clique_size,
        seed=args.seed,
    )
    graph, meta = generate(spec)
    _write_graph_file(args.out, graph)
    tl = meta["tl_bound"]
    print(
        f"generated {args.family} n={graph.n} m={graph.m} "
        f"delta={max_degree(graph)} seed={args.seed} "
        f"tl_bound={'unknown' if tl is None else tl} -> {args.out}"
    )
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    hidden = _read_graph_file(args.graph)
    try:
        # a disconnected or empty graph fails here with a ValueError
        ell = _ell_from_truth(hidden) if args.ell_from_truth else args.ell
        record, oracle = run_one(
            hidden,
            family="file",
            delta=max_degree(hidden),
            tau=args.tau if ell is None else None,
            ell=ell,
            seed=0,
            strict_budget=args.strict_budget,
            log_queries=args.log_queries is not None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.log_queries:
        with open(args.log_queries, "w", encoding="utf-8") as fh:
            oracle.write_query_log(fh)
    if args.out and record["_result"] is not None:
        _write_graph_file(args.out, record["_result"].graph)
    for col in CSV_COLUMNS:
        print(f"{col}={record[col]}")
    print(f"tau_violation_suspected={record['_extras']['tau_violation_suspected']}")
    return 0 if record["correct"] == "true" else 1


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = args.sizes
    records: list[dict] = []
    # both outputs are opened first, so a bad path fails before any run, but
    # only emptied once every run is done, so a failed sweep leaves them be
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(args.out, "a", encoding="utf-8"))
        mirror = stack.enter_context(open(args.json, "a", encoding="utf-8")) if args.json else None
        for n in sizes:
            for rep in range(args.repeats):
                seed = args.seed + rep
                spec = FamilySpec(
                    family=args.family,
                    n=n,
                    max_degree=args.delta,
                    k=args.k,
                    clique_size=args.clique_size,
                    seed=seed,
                )
                hidden, _ = generate(spec)
                ell = _ell_from_truth(hidden) if args.ell_from_truth else None
                record, _ = run_one(
                    hidden,
                    family=args.family,
                    delta=args.delta,
                    tau=None if args.ell_from_truth else args.tau,
                    ell=ell,
                    seed=seed,
                    strict_budget=args.strict_budget,
                )
                records.append(record)
        for f in (out, mirror):
            if f is not None:
                f.truncate(0)
        _emit_records(records, out, mirror)

    print(f"family={args.family} delta={args.delta} repeats={args.repeats}")
    print(f"{'n':>8} {'runs':>5} {'mean_q':>12} {'q/(n*log2(n))':>14} {'naive_pairs':>12}")
    for n in sizes:
        rows = [r for r in records if r["n"] == n]
        mean_q = sum(r["q_total"] for r in rows) / len(rows)
        norm = mean_q / (n * math.log2(n)) if n > 1 else float("nan")
        print(f"{n:>8} {len(rows):>5} {mean_q:>12.1f} {norm:>14.3f} {n * (n - 1) // 2:>12}")
    bad = [r for r in records if r["correct"] != "true"]
    if bad:
        print(f"{len(bad)} run(s) FAILED verification", file=sys.stderr)
        return 1
    print(f"all {len(records)} runs verified -> {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    a = _read_graph_file(args.graph)
    b = _read_graph_file(args.reconstruction)
    if graphs_equal(a, b):
        print("edge sets match")
        return 0
    print("edge sets differ", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sprec",
        description="Reconstruct hidden graphs from shortest-path distance queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a seeded family instance")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--delta", type=int, required=True, help="degree cap")
    p_gen.add_argument("--k", type=int, default=None, help="ktree parameter")
    p_gen.add_argument("--clique-size", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_rec = sub.add_parser("reconstruct", help="reconstruct a graph file via queries")
    p_rec.add_argument("graph", help="edge-list file of the hidden graph")
    p_rec.add_argument("--tau", type=_positive_int, default=1, help="treelength bound")
    p_rec.add_argument("--ell", type=int, default=None, help="direct diameter bound")
    p_rec.add_argument(
        "--ell-from-truth",
        action="store_true",
        help="measure the exact layering-tree length of the input instead",
    )
    p_rec.add_argument("--strict-budget", action="store_true")
    p_rec.add_argument("--log-queries", default=None, metavar="FILE")
    p_rec.add_argument("--out", default=None, help="write the reconstruction here")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_bench = sub.add_parser("bench", help="sweep sizes and seeds, emit records")
    p_bench.add_argument("--family", required=True, choices=FAMILIES)
    p_bench.add_argument(
        "--sizes", required=True, type=_size_list, help="comma-separated n values"
    )
    p_bench.add_argument("--delta", type=int, required=True)
    p_bench.add_argument("--k", type=int, default=None)
    p_bench.add_argument("--clique-size", type=int, default=None)
    p_bench.add_argument("--tau", type=_positive_int, default=1)
    p_bench.add_argument("--ell-from-truth", action="store_true")
    p_bench.add_argument("--repeats", type=_positive_int, default=1)
    p_bench.add_argument("--seed", type=int, default=0, help="base seed")
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.add_argument("--json", default=None, help="JSON mirror path")
    p_bench.add_argument("--strict-budget", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_ver = sub.add_parser("verify", help="compare two edge-list files")
    p_ver.add_argument("graph")
    p_ver.add_argument("reconstruction")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, EdgeListParseError, InfeasibleSpecError) as exc:
        # unreadable or malformed input, an unwritable output path, or
        # family parameters that admit no graph
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
