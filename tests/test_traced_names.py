"""The functions the benchmark tracer wraps must keep their names and step
arguments, and the spans it requires must still be reached.

``perfbench/spans.py`` finds each traced function by name and sums a step
argument (``steps``, ``n_iter``) per call; a rename there only shows up as
a failed traced benchmark pass.  The first test resolves every target the
same way, without installing the tracer.  The tracer also patches
``scipy.linalg.eigh`` as the ``expm.spectral`` span and counts
``scipy.linalg.eigh_tridiagonal`` calls as ``expm.krylov_iters``; the next
tests count those calls in one continuous sweep each.  The last tests count
the component labellings of one prioritization, the transition-matrix
builds of an rwr and of a dtrw sweep and the walker calls of one CCI run,
which evolves its start nodes in column blocks, and the functions the CLI's
``cci`` path reaches.
"""

import importlib.util
import inspect
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import scipy.linalg

import netqwalk.cli  # noqa: F401 - loads every module the CLI reaches
from netqwalk import classical, cli, ctqrw, dtqrw, expm, graphs, pipeline
from netqwalk.pipeline import (
    _DISTANCE_ROWS,
    CciConfig,
    ExperimentConfig,
    run_cci_analysis,
    run_prioritization,
)
from netqwalk.states import START_BLOCK

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_with_its_step_argument():
    spans = _load_spans()
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "netqwalk" or key.startswith("netqwalk.")]
    for span, name, home, step_arg in spans.TARGETS:
        fn = spans._resolve(modules, name, home)
        if step_arg is not None:
            params = inspect.signature(fn).parameters
            assert step_arg in params, f"{span}: {name} lost its {step_arg!r} argument"


DATA = Path(__file__).resolve().parent.parent / "data"


def _count_calls(monkeypatch, module, name, calls):
    """Replace ``module.name`` with a wrapper that appends to ``calls``."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _run_fixture(**fields):
    return run_prioritization(ExperimentConfig(
        graph_path=DATA / "synthetic_ppi.tsv",
        scores_path=DATA / "synthetic_scores.tsv",
        targets_path=DATA / "synthetic_targets.tsv",
        **fields,
    ))


@pytest.mark.parametrize("walker", ["ctqrw", "ctrw"])
def test_one_dense_eigendecomposition_per_continuous_sweep(walker, monkeypatch):
    # the benchmark's must-hit ``expm.spectral`` span wraps scipy.linalg.eigh,
    # and the sweep must reuse one cached decomposition for every grid point;
    # its 21 points fit one block, which one ``expm.action`` call evolves
    calls, actions = [], []
    _count_calls(monkeypatch, scipy.linalg, "eigh", calls)
    _count_calls(monkeypatch, ctqrw, "expm_action", actions)
    _count_calls(monkeypatch, classical, "real_expm_action", actions)
    result = _run_fixture(walker=walker, t_max=2.0)
    assert len(result.records) == 21
    assert len(calls) == 1
    assert len(actions) == 1


def test_chiral_collapse_sweep_reaches_the_krylov_counter(expm_kernel, monkeypatch):
    # the benchmark's must-hit ``expm.krylov_iters`` counts
    # scipy.linalg.eigh_tridiagonal calls; with the Lanczos kernel forced,
    # the fixture runs the krylov-collapse command shape: one action per
    # segment between collapses (5) plus one per collapse (4)
    expm_kernel("lanczos")
    iterations, actions = [], []
    _count_calls(monkeypatch, scipy.linalg, "eigh_tridiagonal", iterations)
    _count_calls(monkeypatch, ctqrw, "expm_action", actions)
    result = _run_fixture(
        walker="ctqrw", hamiltonian="chiral", t_max=5.0, collapse_times=(1, 2, 3, 4)
    )
    assert len(result.records) == 51
    assert len(iterations) >= 1
    assert len(actions) == 9


@pytest.mark.parametrize(
    ("fields", "points", "iterations"),
    [
        (dict(hamiltonian="chiral", t_max=5.0, collapse_times=(1, 2, 3, 4)), 51, 135),
        (dict(t_max=10.0), 101, 275),
    ],
    ids=["chiral-collapses", "adjacency-t10"],
)
def test_a_lanczos_sweep_builds_one_basis_per_substep_not_per_time(
    expm_kernel, monkeypatch, fields, points, iterations
):
    # a block of grid times is read from the bases of its substeps; one basis
    # per grid time would take 1,109 and 14,145 eigh_tridiagonal calls here.
    # Each collapse sits on a grid time and acts on the state already computed
    # there; evolving it again from the collapse before would take 243 calls
    expm_kernel("lanczos")
    calls = []
    _count_calls(monkeypatch, scipy.linalg, "eigh_tridiagonal", calls)
    assert len(_run_fixture(walker="ctqrw", **fields).records) == points
    assert len(calls) == iterations


def test_a_blocked_lanczos_sweep_continues_from_the_block_before(expm_kernel, monkeypatch):
    # blocks of 10 grid times on the 490-node fixture component; each block
    # evolves from the last row of the one before, so the blocks together take
    # about as many Lanczos iterations as one block (275 calls).  Evolving
    # every block from t = 0 would take 1,790
    expm_kernel("lanczos")
    monkeypatch.setattr(expm, "_BLOCK_BYTES", 16 * 490 * 10)
    calls, actions = [], []
    _count_calls(monkeypatch, scipy.linalg, "eigh_tridiagonal", calls)
    _count_calls(monkeypatch, ctqrw, "expm_action", actions)
    assert len(_run_fixture(walker="ctqrw", t_max=10.0).records) == 101
    assert len(actions) == 11
    assert len(calls) <= 1.5 * 275


def test_prioritization_labels_the_components_once(monkeypatch):
    # ``graph_stats`` and ``greatest_component`` (the must-hit
    # ``graphs.component`` span) share one labelling of the input graph
    calls = []
    _count_calls(monkeypatch, graphs, "weak_labels", calls)
    _run_fixture(walker="rwr")
    assert len(calls) == 1


def test_rwr_steady_state_builds_one_transition_matrix(monkeypatch):
    # the restart walk steps with the dtrw matrix and builds it once
    built = []
    _count_calls(monkeypatch, classical, "row_stochastic", built)
    result = _run_fixture(walker="rwr")
    assert len(result.records) == 1
    assert len(built) == 1


def test_dtrw_sweep_builds_one_transition_matrix(monkeypatch):
    built = []
    _count_calls(monkeypatch, classical, "row_stochastic", built)
    result = _run_fixture(walker="dtrw")
    assert len(result.records) > 1
    assert len(built) == 1


def test_cci_builds_one_transition_matrix_per_walk_and_walks_once_per_chunk(
    four_layer_cci, monkeypatch
):
    # ``dtrw_evolve`` and ``dtqrw.evolve`` are must-hit spans on the benchmark's
    # ``cci`` workload; a run must reach both, with one call per block of
    # start nodes rather than one per node
    built, dtrw_walks, dtqrw_walks = [], [], []
    _count_calls(monkeypatch, classical, "row_stochastic", built)
    _count_calls(monkeypatch, classical, "dtrw_evolve", dtrw_walks)
    _count_calls(monkeypatch, dtqrw, "evolve", dtqrw_walks)
    nodes, edges, target = four_layer_cci
    result = run_cci_analysis(CciConfig(nodes, edges, steps=5, targets=(target,)))
    n = result.cci.graph.n
    launched = n - len(result.walkers["dtqrw"].zero_rows)
    assert launched > 2 * START_BLOCK
    assert len(built) == 1
    assert 1 <= len(dtrw_walks) <= -(-n // START_BLOCK)
    assert 1 <= len(dtqrw_walks) <= -(-launched // START_BLOCK)


def test_the_cli_cci_path_measures_distances_in_row_blocks(four_layer_cci, monkeypatch, tmp_path):
    # ``metrics.distance`` is a must-hit span on the benchmark's ``cci``
    # workload and ``pipeline.emit`` is hit by every workload; the CLI writes
    # the distances of each walker in blocks of rows, from one arc basis.
    # Only the last walker's blocks are made in this process: the other is
    # written in a forked child, whose calls this list never sees
    distances, emitted, bases = [], [], []
    _count_calls(monkeypatch, pipeline, "pairwise_distance_matrix", distances)
    _count_calls(monkeypatch, cli, "emit_cci_reports", emitted)
    _count_calls(monkeypatch, dtqrw, "arc_basis", bases)
    nodes, edges, target = four_layer_cci
    argv = ["cci", "--nodes", nodes, "--edges", edges, "--targets", target,
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    n = len(Path(nodes).read_text().splitlines())
    assert n > _DISTANCE_ROWS
    assert len(distances) == -(-n // _DISTANCE_ROWS)
    assert len(emitted) == 1
    assert len(bases) == 1


def test_a_traced_command_of_each_workload_shape_hits_every_must_hit_span(
    tmp_path, child_env, perfbench
):
    # a traced benchmark pass fails a workload whose commands leave one of
    # its must-hit spans without calls; run one command of each workload's
    # shape under ``spans.py``, small enough for the suite.  The pass traces
    # its ``graph-stats`` setup command too, the one ``cci`` command that
    # takes a greatest component
    run = perfbench("run")
    big = perfbench("gen").write_interactome(tmp_path / "krylov", expm.DENSE_LIMIT + 100, 3)
    fixture = ["--graph", DATA / "synthetic_ppi.tsv", "--scores", DATA / "synthetic_scores.tsv",
               "--targets", DATA / "synthetic_targets.tsv"]
    commands = {
        "continuous-dense": [[*fixture, "--walker", "ctqrw"],
                             [*fixture, "--walker", "ctrw", "--t-max", "5"]],
        "krylov-collapse": [["--graph", big.graph, "--scores", big.scores, "--targets", big.targets,
                             "--walker", "ctqrw", "--hamiltonian", "chiral", "--t-max", "5",
                             "--collapse", "1,2,3,4"]],
        "discrete-large": [[*fixture, "--walker", w] for w in ("rwr", "dtrw", "dtqrw")],
    }
    commands = {name: [["prioritize", *argv] for argv in argvs] for name, argvs in commands.items()}
    commands["cci"] = [["cci", "--nodes", DATA / "cci_nodes.tsv", "--edges", DATA / "cci_edges.tsv",
                        "--targets", "C1"]]
    jobs = [(name, [*argv, "--out", tmp_path / f"{name}-{i}"])
            for name, argvs in commands.items() for i, argv in enumerate(argvs)]
    jobs.append(("cci", ["graph-stats", "--graph", DATA / "cci_edges.tsv"]))

    def traced(job):
        name, argv = job
        spans = tmp_path / f"spans-{jobs.index(job)}.json"
        proc = subprocess.run(
            [sys.executable, str(SPANS), str(spans), "--", *map(str, argv)],
            env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, f"{name}: {proc.stderr}"
        recorded = json.loads(spans.read_text())
        hit = {span for span, agg in recorded["spans"].items() if agg["calls"]}
        return name, hit | {c for c, count in recorded["counters"].items() if count}

    hit = {name: set() for name in commands}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, spans in pool.map(traced, jobs):
            hit[name] |= spans
    for name in commands:
        missing = [s for s in (*run.COMMON_SPANS, *run.MUST_HIT[name]) if s not in hit[name]]
        assert not missing, f"{name}: no calls to {missing}"
