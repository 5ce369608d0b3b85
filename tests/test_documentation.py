"""Documentation coverage: every public item carries a docstring.

Deliverable-level guarantee, enforced: each module under ``repro``, every
public class, and every public function/method must be documented.  New
code cannot land undocumented without breaking this test.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would execute the CLI
        yield importlib.import_module(info.name)


MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_items_are_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
            continue
        if inspect.isclass(obj):
            for attr_name in vars(obj):
                if attr_name.startswith("_"):
                    continue
                attr = getattr(obj, attr_name, None)
                if not callable(attr):
                    continue
                # getattr + getdoc credit docstrings inherited from a
                # documented interface (PrivacyScheme, ZeroDisguisePolicy, ...).
                doc = inspect.getdoc(attr)
                if not (doc and doc.strip()):
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, (
        f"{module.__name__}: undocumented public items: {undocumented}"
    )
