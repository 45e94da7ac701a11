"""The benchmark's tracer wraps hhverify entry points by name, and refuses
to run when one is missing. Every name it lists must resolve here first."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    # run the source, not an import, so no bytecode cache lands in perfbench/
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_in_hhverify():
    tracer = _tracer()
    missing = []
    for layer, names in tracer.ENTRY_POINTS.items():
        module = importlib.import_module(f"hhverify.{layer}")
        missing += [f"{layer}.{n}" for n in names if not callable(module.__dict__.get(n))]
    for entries in tracer.METHODS.values():
        for mod_name, cls_name, methods in entries:
            cls = importlib.import_module(f"hhverify.{mod_name}").__dict__.get(cls_name)
            if not isinstance(cls, type):
                missing.append(f"{mod_name}.{cls_name}")
                continue
            missing += [
                f"{mod_name}.{cls_name}.{m}" for m in methods if not callable(cls.__dict__.get(m))
            ]
    assert not missing, f"perfbench/tracer.py lists names hhverify lacks: {missing}"
