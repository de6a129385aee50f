"""The package names that the benchmark under perfbench/ pins."""
import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import spans  # noqa: E402


def test_every_span_target_resolves():
    # run.py --trace 1 wraps each target by name, as a module attribute or
    # a class __dict__ entry, and fails on the first one that is missing
    missing = []
    for layer, quals in spans.TARGETS.items():
        mod = importlib.import_module(f"cyclogaudin.{layer}")
        for qual in quals:
            owner, _, name = qual.rpartition(".")
            if owner:
                found = name in vars(getattr(mod, owner, object))
            else:
                found = hasattr(mod, name)
            if not found:
                missing.append(f"{layer}.{qual}")
    assert missing == []
