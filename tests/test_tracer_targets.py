"""``perfbench/tracer.py`` wraps the layers' entry points by name, so a change
that renames or removes one of its ``TARGETS`` fails here, in the fast
tests, and not only in ``perfbench/test_smoke.py``."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    """The tracer module as it is, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every value bound in a loaded isurf module or in a class it defines,
    keyed by (module, name) or (module, class, name)."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "isurf" or name.startswith("isurf.")):
            continue
        for key, value in vars(module).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[name, key, attr] = member
    return out


def test_the_tracer_wraps_every_target_and_restores_every_binding():
    tracer_module = _load_tracer()
    for _, module_name, _, _ in tracer_module.TARGETS:
        importlib.import_module(module_name)
    before = _bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()
    wrapped = {key for key, value in before.items() if during[key] is not value}
    for _, module_name, path, _ in tracer_module.TARGETS:
        assert (module_name, *path.split(".")) in wrapped, path
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
