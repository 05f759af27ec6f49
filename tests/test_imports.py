"""No module imports a name it never reads, the library needs only numpy, and
every module parses as Python 3.10.

A stdlib stand-in for a linter's unused-import rule (F401) over every module
of ``src/exsim``, ``tests`` and ``perfbench``. An import line that must stay although
nothing reads it (a binding another tool looks up by name) says so with
``# noqa: F401``. Every module of ``src/exsim`` imports only the standard
library, numpy and ``exsim`` itself. ``pyproject.toml`` requires Python >=
3.10, so every ``.py`` file under ``src``, ``tests`` and ``perfbench`` must
parse with ``ast.parse(..., feature_version=(3, 10))``, which refuses syntax
that came later, such as ``except*``, and must not use a standard-library name
of the deny-list ``NEWER_NAMES`` (names added after 3.10), neither imported
(``from itertools import batched``) nor read off an imported module
(``itertools.batched``).

Text becomes tokens in one module: under ``src/exsim`` only ``pairclf``
reads a function of ``TEXT_TO_TOKENS`` (``textnorm`` defines them). The
``# noqa: F401`` imports that perfbench's tracer looks up are not reads.

The serving stages are built in one place: under ``src/exsim`` only
``Pipeline.load`` calls ``Recaller.build`` or constructs a ``Ranker``, and
only ``Pipeline._compute`` calls ``rerank.rerank``, so what ``step_eval``
scores is what a query is served. Nothing under ``src/exsim`` constructs a
per-pair reference (``PER_PAIR_REFERENCES``): the stages score bare heads
over the query's feature rows, and only tests compare those with them.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read inside a string annotation such as ``"Optional[Corpus]"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any(NOQA in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
    return [(line, name) for line, name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom typing import Optional, List\n"
              "from collections import OrderedDict as OD\n"
              "def f(x: 'Optional[int]') -> int:\n    return os.sep\n")
    assert unused_imports(source) == [(3, "List"), (4, "OD")]


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(ROOT)) for folder in ("src/exsim", "tests", "perfbench")
    for p in (ROOT / folder).glob("*.py")))
def test_no_unused_imports(path):
    found = unused_imports((ROOT / path).read_text(encoding="utf-8"))
    assert not found, ", ".join(f"{path}:{line} imports {name!r}, never read"
                                for line, name in found)


LIBRARY_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "exsim"}


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of each absolute import outside LIBRARY_IMPORTS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m.split(".")[0]) for m in modules
                  if m.split(".")[0] not in LIBRARY_IMPORTS]
    return found


def test_the_check_finds_a_foreign_import():
    source = ("import os, scipy.sparse\nfrom numpy import linalg\nfrom . import corpus\n"
              "from __future__ import annotations\nfrom exsim.corpus import Corpus\n"
              "import pandas as pd\n")
    assert foreign_imports(source) == [(1, "scipy"), (6, "pandas")]


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(ROOT)) for p in (ROOT / "src/exsim").glob("*.py")))
def test_the_library_imports_only_the_standard_library_and_numpy(path):
    found = foreign_imports((ROOT / path).read_text(encoding="utf-8"))
    assert not found, ", ".join(f"{path}:{line} imports {module!r}"
                                for line, module in found)


OLDEST_PYTHON = (3, 10)  # pyproject.toml: requires-python = ">=3.10"


def test_the_check_finds_syntax_newer_than_the_oldest_python():
    # Python 3.11 syntax, refused under the 3.10 grammar whatever runs the test
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST_PYTHON)


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(ROOT)) for folder in ("src", "tests", "perfbench")
    for p in (ROOT / folder).rglob("*.py")))
def test_every_module_parses_as_the_oldest_supported_python(path):
    ast.parse((ROOT / path).read_text(encoding="utf-8"), filename=path,
              feature_version=OLDEST_PYTHON)


# standard-library names added after Python 3.10, by module; None: the module
NEWER_NAMES = {
    "tomllib": None,
    "typing": {"Self", "Never", "LiteralString", "assert_never", "assert_type",
               "reveal_type", "override", "Required", "NotRequired", "Unpack",
               "TypeVarTuple", "dataclass_transform", "TypeAliasType", "ReadOnly", "TypeIs"},
    "enum": {"StrEnum", "ReprEnum", "verify", "member", "nonmember", "global_enum"},
    "datetime": {"UTC"},
    "itertools": {"batched"},
    "hashlib": {"file_digest"},
    "contextlib": {"chdir"},
    "math": {"cbrt", "exp2", "sumprod", "fma"},
    "operator": {"call"},
    "asyncio": {"TaskGroup", "Runner", "timeout", "timeout_at", "Barrier"},
    "logging": {"getLevelNamesMapping", "getHandlerByName", "getHandlerNames"},
    "re": {"NOFLAG"},
    "sys": {"exception", "monitoring"},
    "warnings": {"deprecated"},
    "copy": {"replace"},
}


def newer_names(source: str) -> list[tuple[int, str]]:
    """(line, ``module.name``) of each use of a ``NEWER_NAMES`` entry: an
    import of it, or an attribute read off a module bound by ``import``."""
    tree = ast.parse(source)
    modules = {}  # name bound by an ``import`` -> the module it names
    found = []

    def newer(module: str, name: str) -> bool:
        return module in NEWER_NAMES and (NEWER_NAMES[module] is None
                                          or name in NEWER_NAMES[module])

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if newer(alias.name, ""):
                    found.append((node.lineno, alias.name))
                if alias.asname or "." not in alias.name:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                      if newer(node.module, alias.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and newer(modules[node.value.id], node.attr)):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_the_check_finds_names_newer_than_the_oldest_python():
    source = ("from typing import Optional, Self\nimport itertools\nimport math as m\n"
              "import tomllib\nfrom datetime import datetime\n"
              "pairs = itertools.batched(x, 2)\nroot = m.cbrt(8) + m.sqrt(4)\n"
              "now = datetime.UTC\nfirst = itertools.islice(x, 1)\n")
    assert newer_names(source) == [(1, "typing.Self"), (4, "tomllib"),
                                   (6, "itertools.batched"), (7, "math.cbrt")]


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(ROOT)) for folder in ("src", "tests", "perfbench")
    for p in (ROOT / folder).rglob("*.py")))
def test_no_module_uses_a_name_newer_than_the_oldest_python(path):
    found = newer_names((ROOT / path).read_text(encoding="utf-8"))
    assert not found, ", ".join(f"{path}:{line} uses {name}, which Python "
                                f"{'.'.join(map(str, OLDEST_PYTHON))} lacks"
                                for line, name in found)


# the functions that turn text into tokens, and the modules that may read them
TEXT_TO_TOKENS = {"text_tokens", "normalize_text", "clean_text", "split_tokens"}
TOKENIZING_MODULES = {"src/exsim/pairclf.py", "src/exsim/textnorm.py"}


def text_to_token_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each read of a ``TEXT_TO_TOKENS`` function, a call or
    any other use, by name or as an attribute; an import is not a read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in TEXT_TO_TOKENS:
            found.append((node.lineno, name))
    return sorted(found)


def test_the_check_finds_text_turned_into_tokens():
    source = ("from .textnorm import normalize_text  # noqa: F401\n"
              "from . import pairclf\nfrom .textnorm import split_tokens\n"
              "a = pairclf.text_tokens(t, ())\nb = list(map(split_tokens, texts))\n"
              "c = clean_text\n")
    assert text_to_token_reads(source) == [(4, "text_tokens"), (5, "split_tokens"),
                                           (6, "clean_text")]


@pytest.mark.parametrize("path", sorted(
    path for path in (str(p.relative_to(ROOT)) for p in (ROOT / "src/exsim").glob("*.py"))
    if path not in TOKENIZING_MODULES))
def test_only_pairclf_turns_text_into_tokens(path):
    found = text_to_token_reads((ROOT / path).read_text(encoding="utf-8"))
    assert not found, ", ".join(f"{path}:{line} reads {name}, which only pairclf may"
                                for line, name in found)


# the calls that build or compose the serving stages, and the one function
# of src/exsim that may make each
STAGE_CALLS = {"Recaller.build": "src/exsim/pipeline.py:Pipeline.load",
               "Ranker": "src/exsim/pipeline.py:Pipeline.load",
               "rerank": "src/exsim/pipeline.py:Pipeline._compute"}


def stage_calls(source: str, names=STAGE_CALLS) -> list[tuple[int, str, str]]:
    """(line, enclosing function's dotted name, call) of each call of one of
    ``names``, by that name or as an attribute of another."""
    found = []

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                called = ast.unparse(child.func)
                found.extend((child.lineno, scope, name) for name in names
                             if called == name or called.endswith("." + name))
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_the_check_finds_the_stage_calls():
    source = ("from . import ranking, rerank as rerank_mod\n"
              "def step_eval(view):\n    r = recall_mod.Recaller.build(view)\n"
              "    k = ranking.Ranker(p, view)\n"
              "class Pipeline:\n    def load(cls):\n"
              "        return Recaller.build(v), Ranker(p, v)\n"
              "    def _compute(self, q):\n        return rerank_mod.rerank(q, c, None)\n"
              "other = LexicalIndex.build(view)\n")
    assert stage_calls(source) == [(3, "step_eval", "Recaller.build"), (4, "step_eval", "Ranker"),
                                   (7, "Pipeline.load", "Ranker"),
                                   (7, "Pipeline.load", "Recaller.build"),
                                   (9, "Pipeline._compute", "rerank")]


def assert_only_their_owners_call(names: dict[str, str]) -> None:
    """Every call of a ``names`` key under src/exsim is in the function its
    value names, and each key is called."""
    paths = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src/exsim").glob("*.py"))
    found = [(f"{path}:{scope}", name, line) for path in paths
             for line, scope, name in stage_calls((ROOT / path).read_text(encoding="utf-8"),
                                                  names)]
    strays = [f"{where}:{line} calls {name}, which only {names[name]} may"
              for where, name, line in found if where != names[name]]
    assert not strays, ", ".join(strays)
    assert {name for _, name, _ in found} == set(names)


def test_only_pipeline_load_builds_the_serving_stages():
    assert_only_their_owners_call(STAGE_CALLS)


# the dedup head's training pairs are made where the head is fitted
DEDUP_DATA_CALLS = {"generate_dedup_pairs": "src/exsim/recall.py:train_dedup"}


def test_the_check_finds_the_dedup_pair_calls():
    source = ("from . import corpus as corpus_mod\n"
              "def step_index(workdir):\n    pairs = corpus_mod.generate_dedup_pairs(c, t)\n"
              "def train_dedup(truth, view):\n"
              "    return generate_dedup_pairs(view.corpus, truth, seed=97)\n"
              "other = generate_synthetic(spec)\n")
    assert stage_calls(source, DEDUP_DATA_CALLS) == [
        (3, "step_index", "generate_dedup_pairs"), (5, "train_dedup", "generate_dedup_pairs")]


def test_only_train_dedup_makes_the_dedup_pairs():
    assert_only_their_owners_call(DEDUP_DATA_CALLS)


# the per-pair classes the tests check the served stages against
PER_PAIR_REFERENCES = ("PairFeaturizer", "DuplicateDetector", "VariantClassifier")


def test_the_check_finds_the_per_pair_constructions():
    source = ("from . import pairclf, recall as recall_mod\n"
              "class Pipeline:\n    def load(cls):\n"
              "        f = pairclf.PairFeaturizer(view)\n"
              "        return recall_mod.DuplicateDetector(h, f), VariantClassifier(h, f)\n"
              "featurizer: PairFeaturizer\n"
              "def prob(self, a, b):\n    return self.featurizer.features(a, b)\n")
    assert stage_calls(source, PER_PAIR_REFERENCES) == [
        (4, "Pipeline.load", "PairFeaturizer"), (5, "Pipeline.load", "DuplicateDetector"),
        (5, "Pipeline.load", "VariantClassifier")]


def test_no_library_function_constructs_a_per_pair_reference():
    found = [f"{path.relative_to(ROOT)}:{line} ({scope or 'module'}) constructs {name}"
             for path in sorted((ROOT / "src/exsim").glob("*.py"))
             for line, scope, name in stage_calls(path.read_text(encoding="utf-8"),
                                                  PER_PAIR_REFERENCES)]
    assert not found, ", ".join(found)
