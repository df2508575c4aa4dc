"""The benchmark tracer (``perfbench/tracer.py``) wraps todgen functions by
name. Its module imports only the standard library, so an untraced benchmark
run never looks the names up; this test does, so a rename fails here and not
only in a traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for module_name, attr, _, how in _targets():
        module = importlib.import_module(module_name)
        if "." in attr:  # a method, looked up in its class's own namespace
            cls_name, meth = attr.split(".")
            fn = vars(getattr(module, cls_name, object)).get(meth)
        else:
            fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
        elif how and how.startswith("kw:") and \
                how[3:] not in inspect.signature(fn).parameters:
            missing.append(f"{module_name}.{attr}: no {how[3:]}= parameter")
    assert missing == []
