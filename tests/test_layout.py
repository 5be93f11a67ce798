"""The package holds what a run executes: a helper that only tests call lives in tests/lemmas.py."""

import ast
from pathlib import Path

import phaselab

# Public top-level functions and classes of the package that no package module references.
KEPT_UNREFERENCED = {
    "candidate_to_text",  # writes the circuit format that the circuit=<file> option reads
    "assemble_score_net_small_sigma",  # the compiled-score provider (ROADMAP item 3) is to call it
    "assemble_score_net_large_sigma",  # likewise
}


def test_package_defines_only_what_it_references():
    """A scan of every module's syntax tree: a public top-level def or class that no module names
    (by name, attribute or `from ... import`) is in KEPT_UNREFERENCED, and no module imports
    scipy.stats or scipy.integrate."""
    defined, named, imported = set(), set(), set()
    for path in sorted(Path(phaselab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert defined - named == KEPT_UNREFERENCED
    heavy = {m for m in imported if m.startswith(("scipy.stats", "scipy.integrate"))}
    assert not heavy
