"""The prose a reader meets first cites only what exists.

README.md, DESIGN.md and EXPERIMENTS.md name files and code in
backticks.  Every backticked path under ``src/``, ``tests/``,
``benchmarks/`` or ``examples/`` must exist; every backticked
``Class.member`` (a class defined in :mod:`repro`) and every backticked
``repro.module.name`` must resolve by import; and no text cites a
``file.py:123`` line, which drifts with every edit (cite the function).
Lower-case dotted names that are not ``repro.`` paths are left alone:
span, metric and instance names (``mtcache.execute``,
``obs.overhead_frac``, ``result.warnings``) share that form.  Every
``python -m <module> [subcommand] [--flag ...]`` they cite must run:
the module's ``--help`` lists the subcommand, and the subcommand's (or
the module's) ``--help`` lists each flag.
"""

import functools
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]

PATH = re.compile(r"(?<![\w/.-])((?:src|tests|benchmarks|examples)/[\w./-]*)")
CLASS_MEMBER = re.compile(r"([A-Z]\w*)\.([A-Za-z_]\w*)(?:\(\))?")
QUALIFIED = re.compile(r"repro(?:\.[A-Za-z_]\w*)+(?:\(\))?")
#: ``README.md`` and ``BENCH_7.json`` are files, not class members.
FILE_SUFFIXES = {"md", "py", "json", "jsonl", "txt", "yml"}
LINE_CITATION = re.compile(r"\b[\w/.-]+\.(?:py|md|json|ya?ml):\d+")
#: ``python -m module args``, continued over ``\``-ended lines, up to a
#: closing backtick, a comment or the prose around an inline citation.
COMMAND = re.compile(r"python3? -m ([\w.]+)((?:[^\n`#)|;\\]|\\\n)*)")


def spans(name):
    """The backticked spans of one document, fenced blocks included."""
    text = (ROOT / name).read_text()
    return re.findall(r"``?([^`\n]+)``?", text)


def repro_classes():
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__.startswith("repro"):
                classes.setdefault(obj.__name__, set()).add(obj)
    return classes


def has_member(cls, name):
    """A class attribute, a slot, or an attribute its methods assign."""
    if hasattr(cls, name) or name in getattr(cls, "__slots__", ()):
        return True
    return any(re.search(rf"\bself\.{name}\s*=", inspect.getsource(c))
               for c in cls.__mro__ if c.__module__.startswith("repro"))


def resolves(dotted):
    parts = dotted.removesuffix("()").split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


@pytest.fixture(scope="module")
def classes():
    return repro_classes()


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_exist(doc):
    missing = sorted({path for span in spans(doc) for path in PATH.findall(span)
                      if not (ROOT / path.split("::")[0]).exists()})
    assert not missing, f"{doc} cites paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_cited_code_resolves(doc, classes):
    unresolved = set()
    for span in spans(doc):
        if QUALIFIED.fullmatch(span):
            if not resolves(span):
                unresolved.add(span)
            continue
        match = CLASS_MEMBER.fullmatch(span)
        if match and match.group(2) not in FILE_SUFFIXES:
            owners = classes.get(match.group(1), ())
            if not any(has_member(cls, match.group(2)) for cls in owners):
                unresolved.add(span)
    assert not unresolved, f"{doc} cites code that does not exist: {sorted(unresolved)}"


@pytest.mark.parametrize("doc", DOCS)
def test_no_line_citations(doc):
    found = LINE_CITATION.findall((ROOT / doc).read_text())
    assert not found, f"{doc} cites lines, which drift: {found}"


def cited_commands(doc):
    """``(module, subcommand or None, flags)`` of each cited command; the
    first argument is taken for a subcommand when it is not a flag."""
    for module, args in COMMAND.findall((ROOT / doc).read_text()):
        words = args.replace("\\\n", " ").split()
        sub = words[0] if words and not words[0].startswith("-") else None
        flags = [w.split("=")[0] for w in words if w.startswith("--")]
        yield module, sub, flags


@functools.lru_cache(maxsize=None)
def help_text(*command):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", *command, "--help"], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, f"python -m {' '.join(command)} --help failed"
    return done.stdout


@pytest.mark.parametrize("doc", DOCS)
def test_cited_commands_exist(doc):
    wrong = []
    for module, sub, flags in cited_commands(doc):
        usage = help_text(module)
        choices = re.search(r"\{([\w,-]+)\}", usage)
        if choices and sub is not None:
            if sub not in choices.group(1).split(","):
                wrong.append(f"python -m {module} {sub}")
                continue
            usage = help_text(module, sub)
        listed = set(re.findall(r"--[\w-]+", usage))
        wrong += [f"python -m {module} ... {flag}" for flag in flags if flag not in listed]
    assert not wrong, f"{doc} cites commands that do not exist: {wrong}"
