"""The functions the benchmark tracer wraps must keep their names and step
arguments.

``perfbench/spans.py`` finds each traced function by name and sums a step
argument (``steps``, ``n_iter``) per call; a rename there only shows up as
a failed traced benchmark pass.  This test resolves every target the same
way, without installing the tracer.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import netqwalk.cli  # noqa: F401 - loads every module the CLI reaches

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
