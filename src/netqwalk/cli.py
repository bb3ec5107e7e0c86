"""Command-line interface.

Three subcommands: ``prioritize`` sweeps a walker over an interactome
and scores the ranking against target genes, ``cci`` runs the discrete
walkers over a cell-cell-interaction graph, and ``graph-stats`` prints
connectivity statistics as JSON.  A flag left unset takes the default
of its field in ``ExperimentConfig`` or ``CciConfig``.  Exit codes: 0 success,
1 validation or input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .expm import ConvergenceError
from .graphs import graph_stats, read_edge_list
from .pipeline import (
    CciConfig,
    ExperimentConfig,
    WALKERS,
    emit_cci_reports,
    emit_reports,
    run_cci_analysis,
    run_prioritization,
)
from .ctqrw import HAMILTONIAN_KINDS


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so usage maps to code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


def _comma_list(element, name: str):
    """argparse type for a comma-separated list of ``element`` values; argparse
    names a bad value by ``name``."""
    def parse(text: str) -> tuple:
        return tuple(element(part) for part in text.split(",") if part.strip())

    parse.__name__ = name
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netqwalk",
        description="Classical and quantum random walks on biomolecular networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an unset flag stays off the namespace, so its config field's default applies
    pri = sub.add_parser(
        "prioritize", argument_default=argparse.SUPPRESS,
        help="sweep a walker over an interactome and rank candidate genes",
    )
    pri.add_argument("--graph", dest="graph_path", metavar="GRAPH", required=True,
                     help="undirected edge list (TSV)")
    pri.add_argument("--scores", dest="scores_path", metavar="SCORES", required=True,
                     help="seed p-value table (TSV)")
    pri.add_argument("--targets", dest="targets_path", metavar="TARGETS", required=True,
                     help="target p-value table (TSV)")
    pri.add_argument("--walker", choices=WALKERS, help="walk model")
    pri.add_argument("--hamiltonian", choices=HAMILTONIAN_KINDS,
                     help="generator for the continuous quantum walk")
    pri.add_argument("--alpha", type=float, help="restart probability weight")
    pri.add_argument("--t-max", type=float, help="largest evolution time")
    pri.add_argument("--t-step", type=float, help="time grid spacing")
    pri.add_argument("--steps-max", type=int, help="largest step count for discrete walkers")
    pri.add_argument("--collapse", dest="collapse_times", metavar="COLLAPSE",
                     type=_comma_list(float, "comma-separated numbers"),
                     help="comma-separated collapse times (ctqrw only)")
    pri.add_argument("--k", dest="k_list", metavar="K",
                     type=_comma_list(int, "comma-separated integers"), help="K values for AP@K")
    pri.add_argument("--seed-thresh", type=float, help="seed p-value cutoff")
    pri.add_argument("--target-thresh", type=float, help="target p-value cutoff")
    pri.add_argument("--rng-seed", type=int, help="seed for random phases")
    pri.add_argument("--out", required=True, help="output directory")

    cci = sub.add_parser(
        "cci", argument_default=argparse.SUPPRESS,
        help="walk a cell-cell-interaction graph and extract supported paths",
    )
    cci.add_argument("--nodes", dest="nodes_path", metavar="NODES", required=True,
                     help="node-layer table (TSV)")
    cci.add_argument("--edges", dest="edges_path", metavar="EDGES", required=True,
                     help="directed edge list (TSV)")
    cci.add_argument("--steps", type=int, help="number of walk steps")
    cci.add_argument("--targets", required=True,
                     type=_comma_list(str.strip, "comma-separated labels"),
                     help="comma-separated target node labels")
    cci.add_argument("--epsilon", type=float,
                     help="per-hop probability threshold for the support subgraph")
    cci.add_argument("--out", required=True, help="output directory")

    stats = sub.add_parser("graph-stats", help="print connectivity statistics as JSON")
    stats.add_argument("--graph", required=True, help="undirected edge list (TSV)")
    return parser


def _config(cls, args):
    """``cls`` built from the namespace attributes that name its fields."""
    names = {field.name for field in fields(cls)}
    config = cls(**{k: v for k, v in vars(args).items() if k in names})
    if os.path.exists(args.out) and not os.path.isdir(args.out):  # fail before the run
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), args.out)
    return config


def _run_prioritize(args) -> int:
    result = run_prioritization(_config(ExperimentConfig, args))
    paths = emit_reports(result, args.out)
    summary = result.summary()
    for k, entry in summary["per_k"].items():
        print(
            f"AP@{k}: max {entry['max_ap']:.4f} at "
            f"{summary['grid_kind']}={entry['argmax_grid_value']:g}, "
            f"mean {entry['mean_ap']:.4f}"
        )
    print(f"wrote {', '.join(path.name for path in paths)} to {args.out}")
    return 0


def _run_cci(args) -> int:
    result = run_cci_analysis(_config(CciConfig, args))
    files = emit_cci_reports(result, args.out)
    for walker in sorted(result.walkers):
        output = result.walkers[walker]
        print(
            f"{walker}: support subgraph has {output.support.edge_count} edges"
            + (f", zero rows: {', '.join(output.zero_rows)}" if output.zero_rows else "")
        )
    print(f"wrote {len(files)} files to {args.out}")
    return 0


def _run_graph_stats(args) -> int:
    stats = graph_stats(read_edge_list(args.graph))
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "prioritize": _run_prioritize,
    "cci": _run_cci,
    "graph-stats": _run_graph_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
