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
import os
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


@contextlib.contextmanager
def _staged_outputs(*paths: str | None):
    """Stage each given output path, links resolved, in PATH.<pid>.tmp,
    made on entry so a bad path fails before any work. The block pops the
    files it writes from the yielded dict; if it ends without an exception,
    each of them replaces its path. Any other staged file is removed, so a
    failed run leaves an existing output as it was and creates none. Two
    paths that name one file fail before any is staged."""
    outputs = [path for path in paths if path]
    real = [os.path.realpath(path) for path in outputs]
    for i, path in enumerate(outputs):
        if real[i] in real[:i]:
            raise OSError(f"two outputs name the same file: {path}")
    staged: dict[str, tuple[str, io.TextIOWrapper]] = {}  # path -> (stage, file)
    try:
        for path, target in zip(outputs, real):
            tmp = f"{target}.{os.getpid()}.tmp"
            staged[path] = tmp, open(tmp, "x", encoding="utf-8")
        unclaimed = {path: fh for path, (_, fh) in staged.items()}
        yield unclaimed
        for path in staged.keys() - unclaimed.keys():
            tmp, fh = staged[path]
            fh.close()
            os.replace(tmp, os.path.realpath(path))
    finally:
        for tmp, fh in staged.values():
            with contextlib.suppress(OSError):  # what it holds is thrown away
                fh.close()
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


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
    start = time.perf_counter()
    try:
        result = reconstruct(oracle, cfg)
        correct = graphs_equal(result.graph, hidden)
    except ReconstructionError:
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
            "tau_violation_suspected": not correct,
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


def _family_spec(args: argparse.Namespace, n: int, seed: int) -> FamilySpec:
    return FamilySpec(args.family, n, args.delta, args.k, args.clique_size, seed)


def cmd_generate(args: argparse.Namespace) -> int:
    with _staged_outputs(args.out) as files:
        graph, tl = generate(_family_spec(args, args.n, args.seed))
        files.pop(args.out).write(write_edge_list(graph))
    print(
        f"generated {args.family} n={graph.n} m={graph.m} "
        f"delta={max_degree(graph)} seed={args.seed} "
        f"tl_bound={'unknown' if tl is None else tl} -> {args.out}"
    )
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    hidden = _read_graph_file(args.graph)
    with _staged_outputs(args.log_queries, args.out) as files:
        try:
            # a disconnected or empty graph fails here with a ValueError
            ell = _ell_from_truth(hidden) if args.ell_from_truth else None
            record, oracle = run_one(
                hidden,
                family="file",
                delta=max_degree(hidden),
                tau=args.tau if ell is None else None,
                ell=ell,
                seed=0,
                strict_budget=args.strict_budget,
                log_queries=bool(args.log_queries),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.log_queries:
            oracle.write_query_log(files.pop(args.log_queries))
        # a run that returned no graph leaves --out as it was
        if args.out and record["_result"] is not None:
            files.pop(args.out).write(write_edge_list(record["_result"].graph))
    for col in CSV_COLUMNS:
        print(f"{col}={record[col]}")
    print(f"tau_violation_suspected={record['_extras']['tau_violation_suspected']}")
    return 0 if record["correct"] == "true" else 1


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = args.sizes
    records: list[dict] = []
    with _staged_outputs(args.out, args.json) as files:
        for n in sizes:
            for rep in range(args.repeats):
                seed = args.seed + rep
                hidden, _ = generate(_family_spec(args, n, seed))
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
        _emit_records(records, files.pop(args.out), files.pop(args.json, None))

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
        allow_abbrev=False,  # a prefix such as --ell must not stand for --ell-from-truth
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups that two subcommands share, each declared once.
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, choices=FAMILIES)
    family.add_argument("--delta", type=int, required=True, help="degree cap")
    family.add_argument("--k", type=int, default=None, help="ktree parameter")
    family.add_argument("--clique-size", type=int, default=None)
    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument("--tau", type=_positive_int, default=1, help="treelength bound")
    bound.add_argument(
        "--ell-from-truth",
        action="store_true",
        help="measure the exact layering-tree length of the input instead",
    )
    bound.add_argument("--strict-budget", action="store_true")

    p_gen = sub.add_parser(
        "generate", parents=[family], help="write a seeded family instance",
        allow_abbrev=False,
    )
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_rec = sub.add_parser(
        "reconstruct", parents=[bound], help="reconstruct a graph file via queries",
        allow_abbrev=False,
    )
    p_rec.add_argument("graph", help="edge-list file of the hidden graph")
    p_rec.add_argument("--log-queries", default=None, metavar="FILE")
    p_rec.add_argument("--out", default=None, help="write the reconstruction here")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_bench = sub.add_parser(
        "bench", parents=[family, bound], help="sweep sizes and seeds, emit records",
        allow_abbrev=False,
    )
    p_bench.add_argument(
        "--sizes", required=True, type=_size_list, help="comma-separated n values"
    )
    p_bench.add_argument("--repeats", type=_positive_int, default=1)
    p_bench.add_argument("--seed", type=int, default=0, help="base seed")
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.add_argument("--json", default=None, help="JSON mirror path")
    p_bench.set_defaults(func=cmd_bench)

    p_ver = sub.add_parser(
        "verify", help="compare two edge-list files", allow_abbrev=False
    )
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
