"""Acceptance gate: one test per criterion, one printed line per criterion.

Each test accumulates its violations and reports ``[PASS]``/``[FAIL]
criterion N`` before asserting, so a plain ``pytest -s`` run shows the
whole scoreboard.  Oracles are built independently, in this file or in
``walk_oracles`` (scipy expm on the full matrix, a coined-walk unitary
assembled from the dense adjacency, a naive average-precision evaluator,
hand-derived closed forms); the library never sees them.  Time limits
count this process's CPU seconds (BLAS threads included), so other load
on the machine does not fail them.
"""

import json
import time
from pathlib import Path

import numpy as np
import scipy.linalg

from netqwalk import classical, cli, ctqrw, dtqrw
from netqwalk.expm import expm_action
from netqwalk.graphs import (
    CciValidationError,
    build_cci_graph,
    graph_from_edges,
    symmetrized_view,
)
from netqwalk.metrics import average_precision_at_k, pairwise_distance_matrix
from netqwalk.pipeline import CciConfig, run_cci_analysis
from netqwalk.states import delta_distribution
from walk_oracles import (
    coined_walk_unitary_in,
    dtqrw_oracle,
    random_graph,
    restart_matrix,
    rwr_oracle,
)

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _report(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {label}")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures)


def _random_hamiltonian(rng, g):
    kind = ("adjacency", "laplacian", "chiral")[int(rng.integers(0, 3))]
    phases = None
    if kind == "chiral":
        phases = ctqrw.random_chiral_phases(g, int(rng.integers(0, 1 << 31)))
    return ctqrw.build_hamiltonian(g, kind, phases)


def _naive_ap(items, relevant, k):
    rel = set(relevant)
    precisions = []
    hits = 0
    for rank, item in enumerate(items[:k], start=1):
        if item in rel:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / min(k, len(rel))


# ---------------------------------------------------------------------------


def test_criterion_01_unitarity_suite():
    failures = []
    rng = np.random.default_rng(101)
    t0 = time.process_time()
    worst_ct = 0.0
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 201)))
        h = _random_hamiltonian(rng, g)
        psi0 = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        psi0 /= np.linalg.norm(psi0)
        psi = ctqrw.evolve(h, psi0, float(rng.uniform(0.0, 10.0)))
        worst_ct = max(worst_ct, abs(float(np.linalg.norm(psi)) - 1.0))
    worst_dt = 0.0
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 51)))
        arcs = dtqrw.arc_basis(g)
        psi0 = rng.standard_normal(arcs.n_arcs) + 1j * rng.standard_normal(arcs.n_arcs)
        psi0 /= np.linalg.norm(psi0)
        psi = dtqrw.evolve(arcs, psi0, int(rng.integers(0, 40)))
        worst_dt = max(worst_dt, abs(float(np.linalg.norm(psi)) - 1.0))
    elapsed = time.process_time() - t0
    if worst_ct > 1e-9:
        failures.append(f"continuous-walk norm drift {worst_ct:g} > 1e-9")
    if worst_dt > 1e-9:
        failures.append(f"coined-walk norm drift {worst_dt:g} > 1e-9")
    if elapsed >= 30.0:
        failures.append(f"CPU time {elapsed:.1f}s >= 30s")
    _report(1, f"unitarity (drift {max(worst_ct, worst_dt):.1e}, {elapsed:.1f}s CPU)", failures)


def test_criterion_02_oracle_equivalence(expm_kernel):
    failures = []
    rng = np.random.default_rng(102)
    worst_expm = 0.0
    for case in range(50):
        n = int(rng.integers(2, 201))
        mask = rng.random((n, n)) < min(1.0, 8.0 / n)
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * mask
        h = (a + a.conj().T) / 2.0
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        t = float(rng.uniform(0.0, 4.0))
        expm_kernel("lanczos" if case % 5 == 0 else "dense", 1e-11)
        got = expm_action(h, v, t)
        ref = scipy.linalg.expm(-1j * t * h) @ v
        worst_expm = max(worst_expm, float(np.max(np.abs(got - ref))))
    if worst_expm > 1e-8:
        failures.append(f"expm action deviates by {worst_expm:g} > 1e-8")
    worst_walk = 0.0
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(3, 51)))
        arcs = dtqrw.arc_basis(g)
        u = coined_walk_unitary_in(g, arcs.tails, arcs.heads)
        psi0 = rng.standard_normal(arcs.n_arcs) + 1j * rng.standard_normal(arcs.n_arcs)
        psi0 /= np.linalg.norm(psi0)
        steps = int(rng.integers(0, 12))
        got = dtqrw.evolve(arcs, psi0, steps)
        ref = np.linalg.matrix_power(u, steps) @ psi0
        worst_walk = max(worst_walk, float(np.max(np.abs(got - ref))))
    if worst_walk > 1e-10:
        failures.append(f"coined walk deviates from dense powers by {worst_walk:g} > 1e-10")
    _report(2, f"oracle equivalence (expm {worst_expm:.1e}, walk {worst_walk:.1e})", failures)


def test_criterion_03_analytic_cases():
    failures = []
    rng = np.random.default_rng(103)
    h2 = ctqrw.build_hamiltonian(graph_from_edges([("a", "b")]), "adjacency")
    worst = 0.0
    for t in rng.uniform(0.0, 10.0, size=100):
        p = ctqrw.transition_probability(h2, 1, 0, float(t))
        worst = max(worst, abs(p - np.sin(t) ** 2))
    if worst > 1e-10:
        failures.append(f"two-node transfer off by {worst:g} > 1e-10")
    h3 = ctqrw.build_hamiltonian(
        graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")]), "adjacency"
    )
    worst3 = 0.0
    for t in rng.uniform(0.0, 10.0, size=100):
        p = ctqrw.transition_probability(h3, 1, 0, float(t))
        worst3 = max(worst3, abs(p - (4.0 / 9.0) * np.sin(1.5 * t) ** 2))
    if worst3 > 1e-9:
        failures.append(f"triangle transfer off by {worst3:g} > 1e-9")
    g2 = graph_from_edges([("a", "b")])
    worstc = 0.0
    for t in rng.uniform(0.0, 6.0, size=100):
        p = classical.ctrw_evolve(g2, delta_distribution(2, 0), float(t))
        ref = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
        worstc = max(worstc, float(np.max(np.abs(p - ref))))
    if worstc > 1e-10:
        failures.append(f"two-node diffusion off by {worstc:g} > 1e-10")
    _report(3, f"analytic cases (worst {max(worst, worst3, worstc):.1e})", failures)


def test_criterion_04_real_symmetry_and_chiral_asymmetry():
    failures = []
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(3, 40)))
        kind = ("adjacency", "laplacian")[int(rng.integers(0, 2))]
        h = ctqrw.build_hamiltonian(g, kind)
        j, k = (int(x) for x in rng.integers(0, g.n, size=2))
        t = float(rng.uniform(0.1, 6.0))
        worst = max(
            worst,
            abs(
                ctqrw.transition_probability(h, j, k, t)
                - ctqrw.transition_probability(h, k, j, t)
            ),
        )
    if worst > 1e-10:
        failures.append(f"real-generator symmetry broken by {worst:g} > 1e-10")
    cycle = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    h = ctqrw.build_hamiltonian(cycle, "chiral", ctqrw.uniform_chiral_phases(cycle, np.pi / 2.0))
    asym = max(
        abs(
            ctqrw.transition_probability(h, 1, 0, float(t))
            - ctqrw.transition_probability(h, 0, 1, float(t))
        )
        for t in np.arange(0.01, 5.0 + 1e-12, 0.01)
    )
    if asym <= 0.05:
        failures.append(f"chiral cycle asymmetry {asym:g} <= 0.05")
    _report(4, f"transition symmetry (real {worst:.1e}, chiral asym {asym:.2f})", failures)


def test_criterion_05_restart_walk():
    failures = []
    rng = np.random.default_rng(105)
    worst_res = 0.0
    worst_agree = 0.0
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(3, 60)))
        p0 = rng.random(g.n)
        p0 /= p0.sum()
        alpha = float(rng.uniform(0.05, 0.95))
        p = classical.rwr_steady_state(g, p0, alpha)
        m = restart_matrix(g, p0)
        worst_res = max(
            worst_res,
            float(np.max(np.abs(p - alpha * (m @ p) - (1 - alpha) * p0))),
        )
        q = rwr_oracle(g, p0, alpha)
        worst_agree = max(worst_agree, float(np.max(np.abs(p - q))))
    if worst_res > 1e-8:
        failures.append(f"fixed-point residual {worst_res:g} > 1e-8")
    if worst_agree > 1e-8:
        failures.append(f"dense-oracle gap {worst_agree:g} > 1e-8")
    p = classical.rwr_steady_state(
        graph_from_edges([("a", "b")]), delta_distribution(2, 0), 0.5
    )
    dev2 = float(np.max(np.abs(p - np.array([2 / 3, 1 / 3]))))
    if dev2 > 1e-12:
        failures.append(f"two-node closed form off by {dev2:g} > 1e-12")
    p = classical.rwr_steady_state(
        graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")]),
        delta_distribution(3, 0),
        0.85,
    )
    dev3 = float(np.max(np.abs(p - np.array([23 / 57, 17 / 57, 17 / 57]))))
    if dev3 > 1e-10:
        failures.append(f"triangle closed form off by {dev3:g} > 1e-10")
    _report(5, f"restart walk (residual {worst_res:.1e}, agree {worst_agree:.1e})", failures)


def test_criterion_06_ranking_metric_oracle():
    failures = []
    # (1/1 + 2/3) / 2; summation order differs from the literal 5/6 by
    # one ulp, so the hand case is a value check, not a bitwise one
    five_sixths = average_precision_at_k(["a", "x", "b"], {"a", "b"}, 3)
    if abs(five_sixths - 5 / 6) > 1e-15:
        failures.append(f"hand case gave {five_sixths!r}, expected 5/6")
    rng = np.random.default_rng(106)
    universe = [f"g{j}" for j in range(80)]
    mismatches = 0
    for _ in range(1000):
        items = list(
            rng.choice(universe, size=int(rng.integers(1, 50)), replace=False)
        )
        relevant = set(rng.choice(universe, size=int(rng.integers(1, 20)), replace=False))
        k = int(rng.integers(1, 60))
        if average_precision_at_k(items, relevant, k) != _naive_ap(items, relevant, k):
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches}/1000 rankings disagree with the brute-force evaluator")
    _report(6, "average precision vs brute force (1000 rankings, exact)", failures)


def test_criterion_07_transition_rate():
    failures = []
    rng = np.random.default_rng(107)
    h_step = 1e-5
    worst = 0.0
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(3, 15)))
        h = _random_hamiltonian(rng, g)
        j, k = (int(x) for x in rng.integers(0, g.n, size=2))
        t = float(rng.uniform(0.1, 4.0))
        rate = ctqrw.transition_rate(h, j, k, t)
        numeric = (
            ctqrw.transition_probability(h, j, k, t + h_step)
            - ctqrw.transition_probability(h, j, k, t - h_step)
        ) / (2 * h_step)
        worst = max(worst, abs(rate - numeric))
    if worst > 1e-6:
        failures.append(f"rate vs centered difference off by {worst:g} > 1e-6")
    _report(7, f"transition rate vs finite difference (worst {worst:.1e})", failures)


def test_criterion_08_probability_conservation():
    failures = []
    rng = np.random.default_rng(108)
    worst_cl = 0.0
    worst_arc = 0.0
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(3, 40)))
        p0 = rng.random(g.n)
        p0 /= p0.sum()
        outputs = [
            classical.rwr_steady_state(g, p0, float(rng.uniform(0.0, 0.95))),
            classical.rwr_iterate(g, p0, 0.6, int(rng.integers(0, 20))),
            classical.dtrw_evolve(g, p0, int(rng.integers(0, 20))),
            classical.ctrw_evolve(g, p0, float(rng.uniform(0.0, 5.0))),
        ]
        for p in outputs:
            worst_cl = max(worst_cl, abs(float(p.sum()) - 1.0))
        arcs = dtqrw.arc_basis(g)
        psi = dtqrw.evolve(
            arcs, dtqrw.arc_state_from_scores(arcs, p0), int(rng.integers(0, 20))
        )
        worst_arc = max(
            worst_arc, abs(float(dtqrw.node_probabilities(arcs, psi).sum()) - 1.0)
        )
    if worst_cl > 1e-10:
        failures.append(f"classical output sum drifts by {worst_cl:g} > 1e-10")
    if worst_arc > 1e-10:
        failures.append(f"arc-walk node probabilities drift by {worst_arc:g} > 1e-10")
    _report(8, f"conservation (classical {worst_cl:.1e}, arc {worst_arc:.1e})", failures)


def _numeric_rows(csv_text: str):
    rows = []
    for line in csv_text.splitlines():
        cells = []
        for cell in line.split(","):
            try:
                cells.append(("f", float(cell)))
            except ValueError:
                cells.append(("s", cell))
        rows.append(cells)
    return rows


def _compare_numeric(a, b, tol, failures, context):
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            failures.append(f"{context}: keys differ")
            return
        for key in a:
            _compare_numeric(a[key], b[key], tol, failures, f"{context}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            failures.append(f"{context}: length differs")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_numeric(x, y, tol, failures, f"{context}[{i}]")
    elif isinstance(a, float) or isinstance(b, float):
        if abs(float(a) - float(b)) > tol:
            failures.append(f"{context}: {a} vs {b}")
    elif a != b:
        failures.append(f"{context}: {a!r} != {b!r}")


def test_criterion_09_end_to_end_determinism(tmp_path, capsys):
    failures = []
    args = [
        "prioritize",
        "--graph", str(DATA / "synthetic_ppi.tsv"),
        "--scores", str(DATA / "synthetic_scores.tsv"),
        "--targets", str(DATA / "synthetic_targets.tsv"),
        "--walker", "ctqrw",
        "--rng-seed", "0",
    ]
    t0 = time.process_time()
    code1 = cli.main(args + ["--out", str(tmp_path / "run1")])
    elapsed = time.process_time() - t0
    code2 = cli.main(args + ["--out", str(tmp_path / "run2")])
    capsys.readouterr()  # swallow the summary lines of both runs
    if (code1, code2) != (0, 0):
        failures.append(f"exit codes {(code1, code2)}")
    for name in ("sweep.csv", "summary.json", "manifest.json"):
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        if b1 != b2:
            failures.append(f"{name} differs between identical runs")
    # golden regression: numeric fields within 1e-9, everything else exact
    got_rows = _numeric_rows((tmp_path / "run1" / "sweep.csv").read_text())
    want_rows = _numeric_rows((GOLDEN / "sweep.csv").read_text())
    if len(got_rows) != len(want_rows):
        failures.append("sweep.csv row count changed")
    else:
        for r, (grow, wrow) in enumerate(zip(got_rows, want_rows)):
            if len(grow) != len(wrow):
                failures.append(f"sweep.csv row {r} column count changed")
                continue
            for c, ((gk, gv), (wk, wv)) in enumerate(zip(grow, wrow)):
                if gk == "f" and wk == "f":
                    if abs(gv - wv) > 1e-9:
                        failures.append(f"sweep.csv row {r} col {c}: {gv} vs {wv}")
                elif (gk, gv) != (wk, wv):
                    failures.append(f"sweep.csv row {r} col {c}: {gv!r} != {wv!r}")
    got_summary = json.loads((tmp_path / "run1" / "summary.json").read_text())
    want_summary = json.loads((GOLDEN / "summary.json").read_text())
    _compare_numeric(got_summary, want_summary, 1e-9, failures, "summary")
    if elapsed >= 60.0:
        failures.append(f"CPU time {elapsed:.1f}s >= 60s")
    _report(9, f"prioritize determinism + golden regression ({elapsed:.1f}s CPU)", failures)


def test_criterion_10_cci_pipeline(capsys):
    failures = []
    # partition validation: the committed fixture is accepted...
    result = run_cci_analysis(
        CciConfig(
            str(DATA / "cci_nodes.tsv"),
            str(DATA / "cci_edges.tsv"),
            steps=5,
            targets=("C1",),
            epsilon=0.2,
        )
    )
    # ...and each partition-rule violation is rejected
    nodes = [("S1", "sender"), ("L1", "ligand"), ("R1", "receptor"), ("C1", "receiver")]
    violations = [
        [("L1", "S1")],  # reverse direction
        [("S1", "R1")],  # skips the ligand layer
        [("S1", "S1")],  # intra-layer
    ]
    for bad in violations:
        try:
            build_cci_graph(nodes, bad)
        except CciValidationError:
            pass
        else:
            failures.append(f"edge set {bad} was not rejected")

    # distance matrices vs dense oracles built from scratch
    labels = result.cci.graph.labels
    sym = symmetrized_view(result.cci)
    n = sym.n
    adj = np.zeros((n, n))
    for j, k in sym.edges:
        adj[j, k] = adj[k, j] = 1.0
    deg = adj.sum(axis=1)
    p_row = np.zeros((n, n))
    for j in range(n):
        if deg[j] > 0:
            p_row[j] = adj[j] / deg[j]
        else:
            p_row[j, j] = 1.0
    p5 = np.linalg.matrix_power(p_row, 5)
    dtrw_profiles = p5  # row j = five-step distribution from node j
    dtqrw_profiles = dtqrw_oracle(sym, np.eye(n), 5).T

    def euclidean(mat):
        diff = mat[:, None, :] - mat[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))

    for walker, oracle in (("dtrw", dtrw_profiles), ("dtqrw", dtqrw_profiles)):
        got = pairwise_distance_matrix(result.walkers[walker].profiles)
        want = euclidean(oracle)
        dev = float(np.max(np.abs(got - want)))
        if dev > 1e-10:
            failures.append(f"{walker} distance matrix deviates by {dev:g} > 1e-10")

    # the planted chain is recovered at epsilon = 0.2 by both walkers
    planted = {("S1", "L1"), ("L1", "R1"), ("R1", "C1")}
    for walker in ("dtrw", "dtqrw"):
        kept = {
            (labels[j], labels[k]) for j, k in result.walkers[walker].support.edges
        }
        if kept != planted:
            failures.append(f"{walker} support {sorted(kept)} != planted chain")
    _report(10, "CCI validation, dense-oracle distances, planted path", failures)
