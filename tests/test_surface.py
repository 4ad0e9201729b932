"""Guard against regrowth of library code that no program path reaches.

Every top-level public function and class of ``src/liblab`` must be named
somewhere in the program (``src/liblab`` or ``perfbench``, not its tests)
other than on its own definition line, and every public method of a public
class must occur there as ``.method``; otherwise the name is listed in
``KEPT`` (methods as ``Class.method``) with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBLAB = sorted((ROOT / "src" / "liblab").glob("*.py"))
PROGRAM = LIBLAB + sorted((ROOT / "perfbench").glob("*.py"))

KEPT = {
    "catalan": "acceptance criterion 06 counts NC(n) against the Catalan numbers",
    "scalar_cumulants": "acceptance criterion 06 round-trips moments and cumulants",
    "parse_word": "the inverse of format_word's text form: tests round-trip words through it "
    "and build words from text in other processes with it",
    "UnitaryTrajectory.unitarity_defect": "tests bound the stepper's drift from U(N) with it; "
    "a run's numerical-health report is to read it",
}


def _public(node, kinds):
    return isinstance(node, kinds) and not node.name.startswith("_")


def public_definitions():
    """(name, path, line) of every top-level public def and class, and of
    every public method of a public class, named ``Class.method``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for path in LIBLAB:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not _public(node, functions + (ast.ClassDef,)):
                continue
            out.append((node.name, path, node.lineno))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    ("%s.%s" % (node.name, m.name), path, m.lineno)
                    for m in node.body
                    if _public(m, functions)
                )
    return out


def unreached(definitions, program):
    """Names of ``definitions`` with no occurrence in the ``program`` files
    other than their own definition line: a word-boundary match of a
    top-level name, ``.method`` for ``Class.method``."""
    lines = {path: path.read_text().splitlines() for path in program}
    missing = []
    for name, def_path, def_line in definitions:
        if "." in name:
            pattern = re.compile(r"\.%s\b" % re.escape(name.split(".")[1]))
        else:
            pattern = re.compile(r"\b%s\b" % re.escape(name))
        if not any(
            pattern.search(text)
            for path, texts in lines.items()
            for lineno, text in enumerate(texts, 1)
            if not (path == def_path and lineno == def_line)
        ):
            missing.append(name)
    return missing


def test_every_public_name_is_reached():
    missing = [n for n in unreached(public_definitions(), PROGRAM) if n not in KEPT]
    assert not missing, "defined in src/liblab but reached by no program path: %s" % missing


def test_kept_names_exist_and_are_unreached():
    # an entry whose name is gone, or that the program now reaches, is stale
    definitions = public_definitions()
    assert set(KEPT) <= {name for name, _, _ in definitions}
    assert set(unreached(definitions, PROGRAM)) >= set(KEPT)

