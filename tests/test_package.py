"""The package namespace re-exports every module's public names."""

import importlib
import pkgutil

import topinf


def test_every_module_public_name_resolves_at_package_level():
    # cli is the command-line entry point, not part of the library namespace
    names = sorted(m.name for m in pkgutil.iter_modules(topinf.__path__) if m.name != "cli")
    assert "basis" in names and "errors" in names
    for name in names:
        module = importlib.import_module(f"topinf.{name}")
        for public in module.__all__:
            assert getattr(topinf, public) is getattr(module, public), f"{name}.{public}"
            assert public in topinf.__all__, f"{name}.{public}"
    assert len(topinf.__all__) == len(set(topinf.__all__))
