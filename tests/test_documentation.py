"""Documentation-quality gates: every public module, class, and function
in the library carries a docstring, every `__all__` export appears in
docs/API.md, and every name an API.md table lists still exists."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


ALL_MODULES = sorted(_walk_modules())


def test_package_tree_is_nontrivial():
    assert len(ALL_MODULES) > 40


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", ALL_MODULES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for attr_name in dir(module):
        if attr_name.startswith("_"):
            continue
        obj = getattr(module, attr_name)
        if getattr(obj, "__module__", None) != name:
            continue  # re-exports are documented at their home
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{name}.{attr_name} lacks a docstring"
            )


def test_top_level_exports_resolve():
    from repro import core, cxl, dram, genomics, memmgmt, sim  # noqa: F401

    from repro.core import BeaconD, BeaconS, Report  # noqa: F401
    from repro.experiments import ExperimentScale  # noqa: F401


#: The prose documents whose ``repro.*`` paths must resolve.
DOCS_NAMING_MODULES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")


def _modules_named_in_docs():
    root = pathlib.Path(__file__).resolve().parent.parent
    names = set()
    for pattern in DOCS_NAMING_MODULES:
        for doc in sorted(root.glob(pattern)):
            # No closing backtick required: `repro.x.f(arg)` names repro.x.f.
            names |= set(re.findall(r"`(repro(?:\.\w+)+)", doc.read_text()))
    assert "repro.perf" in names, "the docs name no repro.* modules?"
    return sorted(names)


@pytest.mark.parametrize("name", _modules_named_in_docs())
def test_api_doc_modules_import(name):
    """Every dotted `repro.*` path written in the docs must import (as a
    module, or as an attribute of its parent module)."""
    try:
        importlib.import_module(name)
    except ImportError:
        parent, _, attr = name.rpartition(".")
        module = importlib.import_module(parent)
        assert hasattr(module, attr), f"the docs name missing {name}"


API_DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"

_BACKTICK = re.compile(r"`([^`]+)`")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*")
_SECTION = re.compile(r"^##\s+`(repro(?:\.\w+)*)`")


def _documented_words():
    """Every identifier, and every component of a dotted one, that
    docs/API.md writes inside backticks."""
    words = set()
    for span in _BACKTICK.findall(API_DOC.read_text()):
        for ident in _IDENT.findall(span):
            words.add(ident)
            words.update(ident.split("."))
    return words


def _exports():
    for name in ALL_MODULES:
        for export in getattr(importlib.import_module(name), "__all__", ()):
            yield name, export


def test_every_export_is_documented_in_api_md():
    words = _documented_words()
    missing = [f"{module}.{name}" for module, name in _exports()
               if name not in words]
    assert not missing, (
        f"exported via __all__ but absent from docs/API.md: {missing}"
    )


def _table_tokens():
    """``(line, section, token, prefix)`` for each backticked name in a
    table's first column; ``section`` is the enclosing ``## `repro.x```
    heading (``None`` under other headings) and ``prefix`` the module
    path of the cell's last dotted token (`core.ui.BeaconUI` / `JobRequest`
    names ``core.ui.JobRequest``)."""
    section = None
    for line_no, line in enumerate(API_DOC.read_text().splitlines(), 1):
        if line.startswith("## "):
            match = _SECTION.match(line)
            section = match.group(1) if match else None
            continue
        cells = line.strip().strip("|").split("|")
        if not line.startswith("|") or set(cells[0]) <= set("-: "):
            continue
        prefix = ""
        for raw in _BACKTICK.findall(cells[0]):
            token = raw.split("(")[0].strip().rstrip(".")
            if not _IDENT.fullmatch(token):
                continue
            if "." in token:
                prefix = token.rpartition(".")[0]
                yield line_no, section, token, ""
            else:
                yield line_no, section, token, prefix


def _has_path(obj, dotted):
    for attr in dotted.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _resolve(path):
    """Import the longest module prefix of ``path``, then getattr the rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _has_path(module, ".".join(parts[cut:])) if parts[cut:] else True
    return False


def _section_modules(section):
    module = importlib.import_module(section)
    yield module
    for info in pkgutil.walk_packages(getattr(module, "__path__", []),
                                      prefix=section + "."):
        yield importlib.import_module(info.name)


def _defined_in_section(section, token):
    """``token`` resolves in a module of the section's package tree, or
    names a member of a class defined there (`run_with_outcomes` under
    `repro.experiments`)."""
    for module in _section_modules(section):
        if _has_path(module, token):
            return True
        if "." in token:
            continue
        for obj in vars(module).values():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and (hasattr(obj, token)
                         or token in getattr(obj, "__annotations__", {}))):
                return True
    return False


def test_every_api_md_table_name_resolves():
    unresolved = []
    for line_no, section, token, prefix in _table_tokens():
        candidates = [token, f"repro.{token}"]
        if prefix:
            candidates.append(f"repro.{prefix}.{token}")
        if section:
            candidates.append(f"{section}.{token}")
        if any(_resolve(c) for c in candidates):
            continue
        if section and _defined_in_section(section, token):
            continue
        unresolved.append(f"docs/API.md:{line_no}: {token} (under {section})")
    assert not unresolved, "\n".join(unresolved)
