"""The functions the benchmark tracer wraps must keep their names and step
arguments, and the spans it requires must still be reached.

``perfbench/spans.py`` finds each traced function by name and sums a step
argument (``steps``, ``n_iter``) per call; a rename there only shows up as
a failed traced benchmark pass.  The first test resolves every target the
same way, without installing the tracer.  The tracer also patches
``scipy.linalg.eigh`` as the ``expm.spectral`` span; the second test counts
those calls in one continuous sweep.  The last test counts the walker calls
of one CCI run, which evolves its start nodes in column blocks.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest
import scipy.linalg

import netqwalk.cli  # noqa: F401 - loads every module the CLI reaches
from netqwalk import classical, dtqrw
from netqwalk.pipeline import (
    _CCI_CHUNK,
    CciConfig,
    ExperimentConfig,
    run_cci_analysis,
    run_prioritization,
)

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


@pytest.mark.parametrize("walker", ["ctqrw", "ctrw"])
def test_one_dense_eigendecomposition_per_continuous_sweep(walker, monkeypatch):
    # the benchmark's must-hit ``expm.spectral`` span wraps scipy.linalg.eigh,
    # and the sweep must reuse one cached decomposition for every grid point
    calls = []
    eigh = scipy.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    result = run_prioritization(ExperimentConfig(
        graph_path=DATA / "synthetic_ppi.tsv",
        scores_path=DATA / "synthetic_scores.tsv",
        targets_path=DATA / "synthetic_targets.tsv",
        walker=walker, t_max=2.0,
    ))
    assert len(result.records) == 21
    assert len(calls) == 1


def test_cci_builds_one_transition_matrix_per_walk_and_walks_once_per_chunk(
    four_layer_cci, monkeypatch
):
    # ``dtrw_evolve`` and ``dtqrw.evolve`` are must-hit spans on the benchmark's
    # ``cci`` workload; a run must reach both, with one call per chunk of
    # start nodes rather than one per node
    calls = {"row_stochastic": 0, "dtrw_evolve": 0, "evolve": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(classical, "row_stochastic")
    count(classical, "dtrw_evolve")
    count(dtqrw, "evolve")
    nodes, edges, target = four_layer_cci
    result = run_cci_analysis(CciConfig(nodes, edges, steps=5, targets=(target,)))
    n = result.cci.graph.n
    launched = n - len(result.walkers["dtqrw"].zero_rows)
    assert launched > 2 * _CCI_CHUNK
    assert calls["row_stochastic"] <= calls["dtrw_evolve"]
    assert 1 <= calls["dtrw_evolve"] <= -(-n // _CCI_CHUNK)
    assert 1 <= calls["evolve"] <= -(-launched // _CCI_CHUNK)
