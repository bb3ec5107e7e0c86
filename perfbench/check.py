"""Output checks that decide whether a benchmark command failed.

Prioritization sweeps are compared with reference ``ap_at_K``/``p_at_K``
columns recorded when the benchmark was added (``reference/*.json``).  The
``ranking_sha256`` column is not compared: its tie order follows BLAS
rounding, so it differs between machines.  CCI reports are compared with
an independent oracle computed here from the generated files: dense
matrix powers for the classical walk, a sparse arc-space unitary applied
to every start node at once for the coined walk.  Every check returns a
list of problems; an empty list means the command passed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.spatial.distance import cdist

TOL = 1e-9
SWEEP_COLUMNS = ("ap_at_20", "ap_at_50", "ap_at_100", "p_at_20", "p_at_50", "p_at_100")


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= TOL))


# ---------------------------------------------------------------------------
# graph-stats and prioritize
# ---------------------------------------------------------------------------

def edge_list_stats(path: Path) -> dict:
    """What ``graph-stats`` must print for an edge-list file."""
    pairs = _read_pairs(path)
    index: dict[str, int] = {}
    for pair in pairs:
        for label in pair:
            index.setdefault(label, len(index))
    n = len(index)
    edges = np.unique(np.sort([[index[u], index[v]] for u, v in pairs], axis=1), axis=0)
    adj = sp.coo_matrix((np.ones(len(edges)), edges.T), shape=(n, n))
    count, comp = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(comp)
    best = int(np.argmax(sizes))
    return {
        "nodes": n, "edges": len(edges), "fragments": int(count),
        "gc_nodes": int(sizes[best]),
        "gc_edges": int(np.count_nonzero(comp[edges[:, 0]] == best)),
    }


def check_graph_stats(stdout: str, truth: dict) -> list[str]:
    try:
        stats = json.loads(stdout)
    except json.JSONDecodeError:
        return ["graph-stats printed no JSON object"]
    return [
        f"graph-stats {key} = {stats.get(key)!r}, expected {value}"
        for key, value in truth.items() if stats.get(key) != value
    ]


def read_sweep(path: Path) -> list[list[float]]:
    """Rows of ``[grid_value, ap_at_20, ..., p_at_100]`` from ``sweep.csv``."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [[float(r["grid_value"])] + [float(r[c]) for c in SWEEP_COLUMNS] for r in rows]


def check_sweep(out_dir: Path, reference: list[list[float]], truth: dict) -> list[str]:
    """Compare a prioritize report directory with its reference rows."""
    sweep = out_dir / "sweep.csv"
    manifest = out_dir / "manifest.json"
    for path in (sweep, manifest, out_dir / "summary.json"):
        if not path.is_file():
            return [f"missing report {path.name}"]
    try:
        rows = read_sweep(sweep)
    except (KeyError, ValueError) as exc:
        return [f"unreadable sweep.csv: {exc}"]
    problems = []
    if len(rows) != len(reference):
        problems.append(f"sweep.csv has {len(rows)} rows, expected {len(reference)}")
    else:
        bad = [i for i, (r, ref) in enumerate(zip(rows, reference)) if not _close(r, ref)]
        if bad:
            problems.append(
                f"{len(bad)} sweep rows differ from the reference by more than "
                f"{TOL:g}, first at grid value {reference[bad[0]][0]:g}"
            )
    graph = json.loads(manifest.read_text()).get("graph", {}).get("graph")
    if graph != truth:
        problems.append(f"manifest graph stats {graph}, expected {truth}")
    return problems


# ---------------------------------------------------------------------------
# CCI oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CciExpected:
    labels: tuple[str, ...]
    matrices: dict          # (walker, "profiles" or "distances") -> (n, n) array
    support: dict           # walker -> set of (tail, head) labels
    zero_rows: dict         # walker -> list of labels


def _read_pairs(path: Path) -> list[tuple[str, str]]:
    rows = []
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            rows.append(tuple(line.split("\t")))
    return rows


def cci_oracle(nodes_path: Path, edges_path: Path, steps: int, targets,
               epsilon: float) -> CciExpected:
    labels = tuple(label for label, _ in _read_pairs(nodes_path))
    layer = dict(_read_pairs(nodes_path))
    index = {label: i for i, label in enumerate(labels)}
    directed = [(index[u], index[v]) for u, v in _read_pairs(edges_path)]
    n = len(labels)
    und = {(min(u, v), max(u, v)) for u, v in directed}
    adj = np.zeros((n, n))
    for u, v in und:
        adj[u, v] = adj[v, u] = 1.0
    degree = adj.sum(axis=1)
    isolated = degree == 0

    # classical walk: rows of P**steps, isolated nodes hold their mass
    step_matrix = adj / np.where(isolated, 1.0, degree)[:, None] + np.diag(isolated * 1.0)
    dtrw = np.linalg.matrix_power(step_matrix, steps)

    # coined walk: Grover coin on each node's outgoing arcs, then flip-flop
    # shift; all non-isolated start nodes evolve together as columns
    arcs = sorted([(u, v) for u, v in und] + [(v, u) for u, v in und])
    arc_id = {arc: a for a, arc in enumerate(arcs)}
    tails = np.array([u for u, _ in arcs])
    m = len(arcs)
    incidence = sp.csr_matrix((np.ones(m), (tails, np.arange(m))), shape=(n, m))
    coin = sp.diags(2.0 / degree[tails]) @ incidence.T @ incidence - sp.identity(m)
    flip = sp.csr_matrix(
        (np.ones(m), (np.arange(m), [arc_id[(v, u)] for u, v in arcs])), shape=(m, m)
    )
    unitary = (flip @ coin).tocsr()
    starts = np.flatnonzero(~isolated)
    psi = (incidence[starts].T / np.sqrt(degree[starts])).toarray()
    for _ in range(steps):
        psi = unitary @ psi
    dtqrw = np.zeros((n, n))
    dtqrw[starts] = (incidence @ np.abs(psi) ** 2).T

    profiles = {"dtrw": dtrw, "dtqrw": dtqrw}
    target_set = {index[t] for t in targets}
    succ: dict[int, list[int]] = {}
    for u, v in directed:
        succ.setdefault(u, []).append(v)
    support = {}
    for walker, prof in profiles.items():
        kept = set()
        for s in (i for i in range(n) if layer[labels[i]] == "sender"):
            for lig in succ.get(s, ()):
                for rec in succ.get(lig, ()):
                    for cell in succ.get(rec, ()):
                        hops = ((s, lig), (lig, rec), (rec, cell))
                        if cell in target_set and all(prof[a, b] >= epsilon for a, b in hops):
                            kept.update(hops)
        support[walker] = {(labels[a], labels[b]) for a, b in kept}
    zero_rows = {"dtrw": [], "dtqrw": [labels[i] for i in np.flatnonzero(isolated)]}
    matrices = {}
    for walker, prof in profiles.items():
        matrices[walker, "profiles"] = prof
        matrices[walker, "distances"] = cdist(prof, prof)
    return CciExpected(labels, matrices, support, zero_rows)


def _read_matrix(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")[1:]
    rows = [line.split(",", 1)[0] for line in lines[1:]]
    values = np.loadtxt(
        lines[1:], delimiter=",", usecols=range(1, len(header) + 1), ndmin=2
    )
    return header, rows, values


def check_cci(out_dir: Path, expected: CciExpected) -> list[str]:
    """Compare a CCI report directory with the oracle."""
    manifest_path = out_dir / "cci_manifest.json"
    if not manifest_path.is_file():
        return ["missing report cci_manifest.json"]
    manifest = json.loads(manifest_path.read_text())
    labels = list(expected.labels)
    problems = []
    for walker, zero_rows in expected.zero_rows.items():
        entry = manifest.get("walkers", {}).get(walker, {})
        if entry.get("zero_rows") != zero_rows:
            problems.append(f"{walker} zero rows {entry.get('zero_rows')}")
        for kind in ("profiles", "distances"):
            matrix = expected.matrices[walker, kind]
            path = out_dir / f"cci_{walker}_{kind}.csv"
            if not path.is_file():
                problems.append(f"missing report {path.name}")
                continue
            try:
                header, rows, values = _read_matrix(path)
            except ValueError as exc:
                problems.append(f"unreadable {path.name}: {exc}")
                continue
            if header != labels or rows != labels:
                problems.append(f"{path.name} labels differ from the node table")
            elif not _close(values, matrix):
                problems.append(f"{path.name} differs from the oracle by more than {TOL:g}")
        path = out_dir / f"cci_{walker}_support.tsv"
        if not path.is_file():
            problems.append(f"missing report {path.name}")
        elif set(_read_pairs(path)) != expected.support[walker]:
            problems.append(f"{path.name} differs from the oracle support subgraph")
    return problems
