"""The traced benchmark wraps package routines by name and reads their
arguments and results.

`bench/layers.py` looks each span up with `vars(owner)[leaf]`, and its
counter hooks read the matrices, targets and results of `solve_columns`
and `exact_rank`, so a deleted or renamed routine, or a changed argument
or result, breaks `bench/run.py --trace 1`; these tests make that a
tier-1 failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_in_the_package():
    missing = []
    for name, module_name, attrs, _hook in _load_layers().SPANS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = vars(owner).get(part)
                if owner is None:
                    break
            if owner is None or not callable(vars(owner).get(leaf)):
                missing.append(f"{name}: {module_name}.{attr}")
    assert not missing, missing


def test_the_linalg_hooks_read_what_the_solvers_take_and_return():
    # the hooks read `nrows`, `ncols` and `entries` of the matrix and the
    # dense targets, and count every result that is not None as solved
    from suspvdp.linalg import ExactMatrix, exact_rank, solve_columns
    from suspvdp.scalars import ONE, ZERO, gr

    layers = _load_layers()
    counts = {}

    def count(name, value):
        counts[name] = counts.get(name, 0) + value

    a = ExactMatrix.from_rows([[ONE, ZERO, gr(2)], [ZERO, ZERO, ZERO]])
    targets = [[gr(3), ZERO], [ZERO, ONE]]      # inside, outside the span
    solved = solve_columns(a, targets)
    layers._solve_columns_hook((a, targets), {}, solved, count)
    m = ExactMatrix.from_rows([[ONE, gr(0, 1)], [gr(0, 1), -ONE], [ZERO, ONE]])
    rank = exact_rank(m)
    layers._exact_rank_hook((m,), {}, rank, count)
    assert counts == {
        "linalg.solve_columns.cells": 10,
        "linalg.solve_columns.nonzeros": 4,
        "linalg.solve_columns.targets": 2,
        "linalg.solve_columns.solved": 1,
        "linalg.exact_rank.cells": 6,
        "linalg.exact_rank.nonzeros": 5,
        "linalg.exact_rank.rank_sum": 2,
    }
