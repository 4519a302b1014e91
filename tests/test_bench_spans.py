"""The traced benchmark wraps package routines by name.

`bench/layers.py` looks each span up with `vars(owner)[leaf]`, so a
deleted or renamed routine breaks `bench/run.py --trace 1`; this test
makes that a tier-1 failure instead.
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
