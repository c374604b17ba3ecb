"""Reach audit: src/ holds only what the commands run.

Every public function and method the package defines must be called by
at least one of the seven commands, run in process at their defaults
(simulate in both frames, resonant and detuned; scan-gamma also with a
config's own sweep axes), each in CSV and in JSON.  A name no command reaches is either on the allowlist below, with
its reason, or imported by the benchmark under perfbench/, which keeps
its own import lines; anything else serves tests alone and belongs in
tests/oracles.py or nowhere.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import sys
from pathlib import Path

import tlspurify
from tlspurify import cli

REPO = Path(__file__).resolve().parents[1]

#: public names no command reaches by design, with the reason each stays
OFF_THE_COMMAND_PATH = {
    "cli.entry": "the process entry, which test_cli runs in fresh "
                 "interpreters; the audit calls main",
    "output.emit_error": "writes the error object of the error and usage "
                         "paths",
}

#: (argv, config text or None) of every audited invocation; each runs in
#: CSV and in JSON
INVOCATIONS = [
    *(([command], None) for command in (
        "scan-gamma", "scan-beta", "region-map", "coherence-map",
        "purity-trace", "verify")),
    # a config's own sweep axes replace the command's default grid
    (["scan-gamma"], "sweep:\n  axes:\n"
     "    - {name: gamma_over_j, start: 0.0, stop: 4.4, count: 5}\n"),
    *((["simulate", "--frame", frame], drive)
      for frame in ("rwa", "lab")
      for drive in (None, "drive:\n  epsilon: 2.05\n")),
]


def _module_names() -> list[str]:
    return [info.name for info in pkgutil.iter_modules(tlspurify.__path__)]


def public_functions() -> dict[str, object]:
    """Code object of every public function and method defined in the
    package, by its name relative to the package: module.function or
    module.Class.method (a property counts by its getter)."""
    found = {}
    for module_name in _module_names():
        module = importlib.import_module(f"tlspurify.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__",
                                               None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{module_name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{module_name}.{name}.{attr}"] = member.__code__
    return found


def perfbench_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from tlspurify... import name`` line of
    perfbench/*.py."""
    pairs = []
    for path in sorted((REPO / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "tlspurify"):
                pairs += [(node.module, alias.name) for alias in node.names]
    return pairs


def _home(obj) -> str:
    """obj's name relative to the package, as public_functions keys it."""
    return f"{obj.__module__.removeprefix('tlspurify.')}.{obj.__qualname__}"


def test_every_public_function_is_reached_by_a_command(tmp_path):
    names = public_functions()
    assert not set(OFF_THE_COMMAND_PATH) - set(names)
    pairs = perfbench_imports()
    assert len(pairs) > 10
    kept = set()
    for module, name in pairs:
        obj = getattr(importlib.import_module(module), name, None)
        assert obj is not None, f"perfbench imports {module}.{name}"
        if inspect.isfunction(obj):
            kept.add(_home(obj))

    runs = []
    for k, (argv, text) in enumerate(INVOCATIONS):
        if text is not None:
            path = tmp_path / f"config{k}.yaml"
            path.write_text(text)
            argv = [*argv, "--config", str(path)]
        runs += [[*argv, "--format", fmt, "--out", os.devnull]
                 for fmt in ("csv", "json")]

    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    unreached = {name for name, code in names.items() if code not in reached}
    assert sorted(unreached - kept - set(OFF_THE_COMMAND_PATH)) == []


def test_every_import_names_the_defining_module():
    """An import from a package module under src/ or tests/ names only
    what that module itself defines: each name has one home."""
    defined = {}
    for module_name in _module_names():
        tree = ast.parse((REPO / "src" / "tlspurify"
                          / f"{module_name}.py").read_text())
        defined[f"tlspurify.{module_name}"] = {
            target.id if isinstance(target, ast.Name) else target.name
            for node in tree.body
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node])
            if isinstance(target, (ast.Name, ast.FunctionDef,
                                   ast.ClassDef))}
    borrowed = []
    for path in sorted([*(REPO / "src" / "tlspurify").glob("*.py"),
                        *(REPO / "tests").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = ("tlspurify" + (f".{node.module}" if node.module else "")
                      if node.level else node.module or "")
            if module in defined:
                borrowed += [f"{path.name}: {module}.{alias.name}"
                             for alias in node.names
                             if alias.name not in defined[module]]
    assert borrowed == []
