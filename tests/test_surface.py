"""Every public function and class of src/iprox has a reader outside the
tests: the package itself, scripts/ or perfbench/ names it.  The few that
do not are public on purpose, and the README's API section says why."""

import ast
import collections
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "iprox")
# the package, less the __init__ re-export, and the scripts and benchmark
READERS = ([p for p in glob.glob(os.path.join(PACKAGE, "*.py"))
            if os.path.basename(p) != "__init__.py"]
           + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
           + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
# public with no reader outside the tests, each for a reason the README gives
ALLOWED = {"objective", "linear_ratio_audit", "gamma0_root"}


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def names_in(node):
    """Each name node reads: as a name, an attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def is_definition(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def public_definitions():
    """{(file, name)} of the module-level public functions and classes."""
    return {(os.path.basename(path), node.name)
            for path in glob.glob(os.path.join(PACKAGE, "*.py"))
            for node in parse(path).body
            if is_definition(node) and not node.name.startswith("_")}


def readers():
    """{name: {(file, definition)}} of where each name is read: the file in
    src/iprox (None elsewhere) and the module-level definition the read is
    inside (None outside any)."""
    owners = collections.defaultdict(set)
    for path in READERS:
        here = os.path.basename(path) if path.startswith(PACKAGE) else None
        for node in parse(path).body:
            own = node.name if is_definition(node) else None
            for name in names_in(node):
                owners[name].add((here, own))
    return owners


def unread():
    """Names of the public definitions read nowhere outside their own body."""
    owners = readers()
    return {name for module, name in public_definitions()
            if not owners[name] - {(module, name)}}


def test_every_public_definition_has_a_reader_outside_the_tests():
    assert unread() == ALLOWED


def test_the_readme_api_section_says_why_each_allowed_name_is_public():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    section = re.search(r"^## Public API\n(.*?)^## ", readme, re.S | re.M).group(1)
    for name in ALLOWED:
        assert re.search(rf"`(?:[\w.]+\.)?{name}\b", section), name
