"""The benchmark's tracer (``wbbench/tracing.py``) wraps windbridge names by
lookup when it installs.  A name deleted or renamed in the package must fail
here, not only in a traced benchmark round."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "wbbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("wbbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = load_targets()
    assert targets
    for module, attr, _ in targets:
        mod = importlib.import_module(f"windbridge.{module}")
        if "." in attr:
            # methods are wrapped from the class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
