import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metric_atlas

SRC = str(Path(metric_atlas.__file__).resolve().parents[1])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_runtime_imports_no_scipy():
    # the runtime is numpy-only; scipy is a test-side cross-check
    code = ("import importlib, pkgutil, sys, metric_atlas\n"
            "names = [m.name for m in pkgutil.iter_modules(metric_atlas.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('metric_atlas.' + name)\n"
            "assert {'cli', 'oracles', 'transport'} <= set(names), names\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_readme_quick_tour_runs_as_written():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(block, ns)  # the block's own check_wasserstein call and assert run too
    ma, mu, unif = ns["ma"], ns["mu"], ns["unif"]
    # the values the block's comments state
    assert ma.total_variation(mu, unif) == pytest.approx(0.5, abs=1e-12)
    assert round(ma.relative_entropy(mu, unif), 4) == 1.0751
    assert ma.discrepancy_finite(mu, unif) == pytest.approx(0.5, abs=1e-12)
    assert ma.prokhorov(mu, unif) == pytest.approx(0.5, abs=1e-12)
    assert ns["value"] == pytest.approx(1.5, abs=1e-12)
    assert ns["report"].passed


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    # `perfbench/run.py --trace 1` wraps each (owner, attr) through getattr,
    # so renaming or deleting one of them breaks the traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    missing = [name for owner, attr, name, _ in workloads.TRACED
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing


def test_checkers_import_only_numpy_math_and_spaces():
    # the oracles and the witness checkers verify the solvers only while
    # they share no code with them
    allowed = {"numpy", "math", ".spaces", "__future__"}
    for name in ("oracles.py", "witness.py"):
        tree = ast.parse((Path(metric_atlas.__file__).parent / name).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert imported <= allowed, (name, imported - allowed)
