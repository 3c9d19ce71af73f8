"""src/ holds only what a subcommand or script reaches.

A name-based pass over the syntax trees: the roots are the functions of
cli.py, the module-level code of src/semifree (imports aside), and all of
scripts/ and perfbench/.  A top-level definition of src/semifree is reached
when a reached piece of code uses its name, as a name, an attribute or a
dotted string (perfbench's tracer lists functions as strings).  Names are
not resolved to modules, so a name that two modules define is reached for
both: the pass can miss dead code, never flag live code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semifree"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_used(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def unreached_definitions(src=SRC) -> list:
    """(module, name) of each top-level definition in src that no root
    reaches."""
    definitions = {}
    reached = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS):
                definitions[(path.stem, node.name)] = node
                if path.stem == "cli":
                    reached |= names_used(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= names_used(node)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            reached |= names_used(ast.parse(path.read_text(encoding="utf-8")))
    pending = dict(definitions)
    grown = True
    while grown:
        grown = False
        for key in [key for key in pending if key[1] in reached]:
            reached |= names_used(pending.pop(key))
            grown = True
    return sorted(pending)


def test_src_holds_only_what_a_subcommand_or_script_reaches():
    assert unreached_definitions() == []


def test_the_pass_finds_a_definition_only_tests_reach(tmp_path):
    # the same pass over a copy of src/ with one function that nothing calls
    copy = tmp_path / "semifree"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"),
                                      encoding="utf-8")
    with open(copy / "reduce.py", "a", encoding="utf-8") as out:
        out.write("\n\ndef only_tests_call_this(cat):\n    return cat\n")
    assert unreached_definitions(copy) == [("reduce", "only_tests_call_this")]
