"""Every public name in src/cqarank is read by some program.

The scan parses src/cqarank/*.py, except the package's __init__.py, and
lists each public module-level function and class and each public method
of a module-level class. A name passes when it appears:
- in the code of src/ other than the lines that define a function, method
  or class of that name (comments and strings do not count), or
- anywhere in cqabench/*.py, whose tracer names what it wraps in strings,
  or
- among the names tests/test_acceptance.py imports from cqarank or reads
  as attributes, the API the acceptance criteria call.

Blind spots:
- A method that shares its name with a used one passes with it, as
  `TranslationTable.prob` did beside `CollectionStats.prob`: the scan
  matches names, not the objects they are looked up on.
- Dataclass fields and other attributes are not checked.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cqarank"


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each public module-level function or
    class and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _code_names(source: str) -> Counter:
    """How often each identifier occurs in code, outside comments and strings."""
    return Counter(tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                   if tok.type == tokenize.NAME)


def _acceptance_names() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cqarank"):
            names.update(alias.name for alias in node.names)
    return names


def unread_public_names() -> list[str]:
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    uses = Counter()
    definitions = []
    for path, source in sources.items():
        tree = ast.parse(source)
        uses.update(_code_names(source))
        # a def or class line names what it defines once; that is no use
        uses.subtract(node.name for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        if path.parent == PACKAGE and path.name != "__init__.py":
            definitions += [(f"{path.stem}.{qualified}", name)
                            for qualified, name in _definitions(tree)]
    bench = set()
    for path in sorted((ROOT / "cqabench").glob("*.py")):
        bench.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    kept = bench | _acceptance_names()
    return [qualified for qualified, name in definitions
            if uses[name] <= 0 and name not in kept]


def test_every_public_name_is_read_by_a_program():
    assert unread_public_names() == []
