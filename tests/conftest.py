"""Shared test inputs."""

import importlib
import math
import os
from pathlib import Path

import numpy as np
import pytest

from netqwalk import expm
from netqwalk.graphs import CCI_LAYERS
from netqwalk.states import START_BLOCK


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    left = []
    try:
        # reap every ended child, so that the next test does not inherit it
        while pid := os.waitpid(-1, os.WNOHANG)[0]:
            left.append(str(pid))
        left.append("one still running")
    except ChildProcessError:  # no child is left
        pass
    if left:
        pytest.fail(f"the test left child processes behind: {', '.join(left)}")


@pytest.fixture
def child_env():
    """``child_env(**extra)``: the environment plus ``extra``, with this
    checkout's ``src`` on the path, for a child Python process."""
    src = str(Path(expm.__file__).resolve().parent.parent)

    def env(**extra):
        env = dict(os.environ, **extra)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env

    return env


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench(name)`` imports the benchmark's module ``perfbench/<name>.py``,
    with ``perfbench/`` on the path for the modules it imports in turn."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module


@pytest.fixture
def expm_kernel(monkeypatch):
    """``expm_kernel(kernel, tol)`` makes every later action take ``kernel``,
    ``"dense"`` or ``"lanczos"``, whatever the matrix size.  The Lanczos
    action then aims at ``tol`` (``expm.DEFAULT_TOL`` when omitted)."""
    def use(kernel: str, tol: float = expm.DEFAULT_TOL) -> None:
        monkeypatch.setattr(expm, "DENSE_LIMIT", {"dense": math.inf, "lanczos": 0}[kernel])
        monkeypatch.setattr(expm, "DEFAULT_TOL", tol)

    return use


@pytest.fixture
def four_layer_cci(request, tmp_path):
    """A generated four-layer CCI graph with more than two ``START_BLOCK``
    blocks of start nodes, or with ``request.param`` nodes per layer when
    parametrized indirectly.

    Node 0 of every layer has no edges, so each layer holds an isolated
    node; every other node has an edge to each adjacent layer.  Returns
    ``(nodes_path, edges_path, target)``.
    """
    rng = np.random.default_rng(81)
    per_layer = getattr(request, "param", START_BLOCK // 2 + 7)
    labels = [[f"{layer}{i}" for i in range(per_layer)] for layer in CCI_LAYERS]
    edges = set()
    for tails, heads in zip(labels, labels[1:]):
        for i in range(1, per_layer):
            edges.add((tails[i], heads[int(rng.integers(1, per_layer))]))
            edges.add((tails[int(rng.integers(1, per_layer))], heads[i]))
    nodes_path = tmp_path / "four_layer_nodes.tsv"
    edges_path = tmp_path / "four_layer_edges.tsv"
    nodes_path.write_text("".join(
        f"{label}\t{layer}\n" for layer, names in zip(CCI_LAYERS, labels) for label in names
    ))
    edges_path.write_text("".join(f"{u}\t{v}\n" for u, v in sorted(edges)))
    return str(nodes_path), str(edges_path), labels[-1][1]
