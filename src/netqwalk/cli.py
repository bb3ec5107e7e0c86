"""Command-line interface.

Three subcommands: ``prioritize`` sweeps a walker over an interactome
and scores the ranking against target genes, ``cci`` runs the discrete
walkers over a cell-cell-interaction graph, and ``graph-stats`` prints
connectivity statistics as JSON.  Every flag can also be supplied
through an environment variable named ``NETQWALK_<FLAG>`` (dashes
become underscores, e.g. ``NETQWALK_T_MAX``); explicit command-line
values win, and a flag set neither way takes the default of its field
in ``ExperimentConfig`` or ``CciConfig``.  Exit codes: 0 success,
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

ENV_PREFIX = "NETQWALK_"


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so usage maps to code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


def _add(parser, flag: str, **kwargs) -> None:
    """``add_argument`` honoring the ``NETQWALK_`` environment override.

    An unset flag stays off the namespace, so the config dataclass's
    default applies.
    """
    name = flag.lstrip("-").replace("-", "_").upper()
    env_name = ENV_PREFIX + name
    env_value = os.environ.get(env_name)
    if env_value is None:
        kwargs["default"] = argparse.SUPPRESS
    else:
        # argparse runs string defaults through `type`, so the raw
        # environment string slots in as an overridable default.
        kwargs["default"] = env_value
        kwargs["required"] = False
    if "dest" in kwargs:
        kwargs["metavar"] = name
    kwargs.setdefault("help", "")
    kwargs["help"] += f" [env: {env_name}]"
    parser.add_argument(flag, **kwargs)


def _comma_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _comma_labels(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netqwalk",
        description="Classical and quantum random walks on biomolecular networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pri = sub.add_parser(
        "prioritize",
        help="sweep a walker over an interactome and rank candidate genes",
    )
    _add(pri, "--graph", dest="graph_path", required=True, help="undirected edge list (TSV)")
    _add(pri, "--scores", dest="scores_path", required=True, help="seed p-value table (TSV)")
    _add(pri, "--targets", dest="targets_path", required=True, help="target p-value table (TSV)")
    _add(pri, "--walker", choices=WALKERS, help="walk model")
    _add(
        pri, "--hamiltonian", choices=HAMILTONIAN_KINDS,
        help="generator for the continuous quantum walk",
    )
    _add(pri, "--alpha", type=float, help="restart probability weight")
    _add(pri, "--t-max", type=float, help="largest evolution time")
    _add(pri, "--t-step", type=float, help="time grid spacing")
    _add(pri, "--steps-max", type=int, help="largest step count for discrete walkers")
    _add(
        pri, "--collapse", dest="collapse_times", type=_comma_floats,
        help="comma-separated collapse times (ctqrw only)",
    )
    _add(pri, "--k", dest="k_list", type=_comma_ints, help="K values for AP@K")
    _add(pri, "--seed-thresh", type=float, help="seed p-value cutoff")
    _add(pri, "--target-thresh", type=float, help="target p-value cutoff")
    _add(pri, "--rng-seed", type=int, help="seed for random phases")
    _add(pri, "--out", required=True, help="output directory")

    cci = sub.add_parser(
        "cci",
        help="walk a cell-cell-interaction graph and extract supported paths",
    )
    _add(cci, "--nodes", dest="nodes_path", required=True, help="node-layer table (TSV)")
    _add(cci, "--edges", dest="edges_path", required=True, help="directed edge list (TSV)")
    _add(cci, "--steps", type=int, help="number of walk steps")
    _add(
        cci, "--targets", required=True, type=_comma_labels,
        help="comma-separated target node labels",
    )
    _add(
        cci, "--epsilon", type=float,
        help="per-hop probability threshold for the support subgraph",
    )
    _add(cci, "--out", required=True, help="output directory")

    stats = sub.add_parser("graph-stats", help="print connectivity statistics as JSON")
    _add(stats, "--graph", required=True, help="undirected edge list (TSV)")
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
