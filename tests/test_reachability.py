"""``src/`` is the program: every public name in it is reached from the
program's roots, and the predicted side of a verdict reaches no enumerator.

The call graph is walked statically with ``ast``.  A name in a module
reaches the module's own definition of it or the definition it imports,
at module level or inside a function (an import anywhere in a module binds
its name for the whole module, which over-approximates); an
attribute ``x.name`` reaches every method called ``name`` (the type of ``x``
is not known, so the walk over-approximates), and ``module.name`` on an
imported module reaches that definition.  Reaching a class reaches its
dunder methods, which Python calls implicitly.  Public means that no part
of the qualified name starts with an underscore.

The program's roots are the command-line handlers (``cli.LEAVES``),
``cli.run``, the console script ``cli.main``, the library names that the
benchmark's ``run_roots_op`` looks up, and ``KLTable.comparable_pairs``,
which the benchmark's tracer calls.  A public name that none of them
reaches belongs in ``tests/oracles/``, where every public name is used by a
test, or nowhere.  ``perfbench/`` is only read.

Independence: the predicted side of each report in ``sieving`` is read off
its AST, as the second argument of each ``verify_csp`` call and the
``expected`` values of a report dict, a local name standing for its
assignment.  No predicted side may reach the orbit side, enumeration and
the actions on what it enumerates, except in the reports of
``SHARED_ENUMERATION``.  ``ribbon kf-check`` compares two predictions, and
neither of its two roots reaches the other's functions.

Every name in the tables below is a definition in ``src/``, and every name
that a ``tests/*.py`` file imports is used in it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cyclosieve"
ORACLES = ROOT / "tests" / "oracles"

PROGRAM_ROOTS = {"cli.LEAVES", "cli.run", "cli.main", "klcells.KLTable.comparable_pairs"}

# Enumeration, and the cyclic actions on what it enumerates.
ORBIT_SIDE = {
    "tableaux.enumerate_syt",
    "tableaux.enumerate_cst",
    "tableaux._strip_words",
    "jeudetaquin.promotion_permutation",
    "jeudetaquin._image_permutation",
    "jeudetaquin._promote_words",
    "jeudetaquin.evacuation_permutation",
    "sieving.FiniteAction",
    "sieving.handshake_partners",
    "sieving.bn_reduced_words",
}

# Predicted sides that are not read off a report's AST: ``ribbon kf-check``
# compares Kostka-Foulkes polynomials at a root of unity with ribbon counts.
EXTRA_PREDICTED = {"ribbons.kf_root_of_unity_check": {"qpolys.kostka_foulkes"}}

# Reports whose predicted side walks an enumeration: report -> the ROADMAP
# direction that gives it a closed formula.  Kostka-Foulkes polynomials are
# a charge sum over enumerate_cst.
SHARED_ENUMERATION = {
    "sieving.content_csp_report": "direction 1",
    "ribbons.kf_root_of_unity_check": "direction 1",
}


# ``ribbon kf-check`` compares Kostka-Foulkes polynomials at a root of unity
# with ribbon counts on the m-quotient: root -> what it must not reach.
KF_CHECK_APART = {
    "qpolys.kostka_foulkes": {"ribbons.count_ribbon_cst"},
    "ribbons.count_ribbon_cst": {"qpolys.kostka_foulkes", "tableaux.enumerate_cst",
                                 "tableaux._strip_words", "qpolys.charge"},
}

# What both roots reach besides the value types -> the ROADMAP direction that
# parts them.  ``kostka_foulkes`` reaches ``cst_tuple_count`` through the cap
# check of ``enumerate_cst``, and the strip filler and the ribbon counter
# share ``_strips``.
KF_CHECK_SHARED = {
    "tableaux._strips": "direction 1",
    "tableaux._count_strips": "direction 1",
    "tableaux.cst_tuple_count": "direction 1",
}

# The value types that every side builds and reads; sharing them shares no work.
VALUE_TYPES = {"tableaux.Partition", "tableaux.Composition", "tableaux.Tableau",
               "permutations.Permutation"}


class CallGraph:
    """Definitions of the package's modules and the names each one uses."""

    def __init__(self, package: Path):
        self.uses: dict[str, list[ast.AST]] = {}  # "module.qualname" -> nodes it runs
        self.methods: dict[str, set[str]] = {}  # method name -> "module.Class.method"
        self.imports: dict[str, dict[str, str]] = {}  # module -> local name -> target
        for path in sorted(package.glob("*.py")):
            if path.stem != "__init__":  # its re-exports use nothing
                self._read(path.stem, ast.parse(path.read_text()))

    def _read(self, module: str, tree: ast.Module) -> None:
        self.imports[module] = {
            alias.asname or alias.name: f"{node.module}.{alias.name}" if node.module else alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.uses[f"{module}.{node.name}"] = [node]
            elif isinstance(node, ast.ClassDef):
                body = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        key = f"{module}.{node.name}.{item.name}"
                        self.uses[key] = [item]
                        self.methods.setdefault(item.name, set()).add(key)
                    else:
                        body.append(item)
                self.uses[f"{module}.{node.name}"] = body
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.uses[f"{module}.{target.id}"] = [node]

    def _callees(self, key: str) -> set[str]:
        out = {name for name in self.uses if name.startswith(key + ".__")}
        return out | self.names_in(key.split(".", 1)[0], self.uses[key])

    def names_in(self, module: str, nodes) -> set[str]:
        """The definitions that ``nodes``, read in ``module``, use."""
        imports = self.imports[module]
        out: set[str] = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    out.add(f"{module}.{sub.id}")
                    out.add(imports.get(sub.id, ""))
                elif isinstance(sub, ast.Attribute):
                    out |= self.methods.get(sub.attr, set())
                    if isinstance(sub.value, ast.Name) and sub.value.id in imports:
                        out.add(f"{imports[sub.value.id]}.{sub.attr}")
        return out & self.uses.keys()

    def reached(self, roots) -> set[str]:
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            key = stack.pop()
            if key not in seen:
                seen.add(key)
                stack.extend(self._callees(key) - seen)
        return seen

    def public(self) -> set[str]:
        return {key for key in self.uses
                if not any(part.startswith("_") for part in key.split(".")[1:])}


def roots_op_names(graph: CallGraph) -> set[str]:
    """What ``run_roots_op`` looks up: ``cs.module.name`` and methods by name."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    op = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "run_roots_op")
    names: set[str] = set()
    for sub in ast.walk(op):
        if isinstance(sub, ast.Attribute):
            inner = sub.value
            if (isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name)
                    and inner.value.id == "cs"):
                names.add(f"{inner.attr}.{sub.attr}")
            names |= graph.methods.get(sub.attr, set())
    return names


def predicted_sides(graph: CallGraph) -> dict[str, set[str]]:
    """report -> the definitions its predicted side uses, for every function
    of ``sieving`` that has one, plus ``EXTRA_PREDICTED``."""
    tree = ast.parse((SRC / "sieving.py").read_text())
    sides = {key: set(roots) for key, roots in EXTRA_PREDICTED.items()}
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        assigned = {target.id: node.value for node in ast.walk(func) if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        roots = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "verify_csp":
                roots.append(node.args[1])
            elif isinstance(node, ast.Dict):
                roots += [value for key, value in zip(node.keys, node.values)
                          if isinstance(key, ast.Constant) and key.value == "expected"]
        roots = [assigned.get(root.id, root) if isinstance(root, ast.Name) else root for root in roots]
        if roots:
            sides[f"sieving.{func.name}"] = graph.names_in("sieving", roots)
    return sides


@pytest.fixture(scope="module")
def used_oracles() -> set[str]:
    """"module.name" of every oracle that a ``tests/test_*.py`` imports from
    ``oracles.module`` and then uses, and "module.name.attr" for every
    attribute that the file reads, so that methods of a used class count."""
    used: set[str] = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text())
        bound = {alias.asname or alias.name: f"{node.module.split('.', 1)[1]}.{alias.name}"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oracles.")
                 for alias in node.names}
        loads = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        attributes = {sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}
        for name, key in bound.items():
            if name in loads:
                used |= {key, *(f"{key}.{attr}" for attr in attributes)}
    return used


@pytest.fixture(scope="module")
def graph() -> CallGraph:
    return CallGraph(SRC)


@pytest.fixture(scope="module")
def program(graph) -> set[str]:
    roots = PROGRAM_ROOTS | roots_op_names(graph)
    assert roots <= graph.uses.keys(), sorted(roots - graph.uses.keys())
    return graph.reached(roots)


def test_every_name_in_the_tables_is_defined(graph):
    """A stale name in a table matches nothing, and the check that reads it
    would lose coverage without failing."""
    named = (ORBIT_SIDE | KF_CHECK_SHARED.keys() | VALUE_TYPES
             | EXTRA_PREDICTED.keys() | set().union(*EXTRA_PREDICTED.values())
             | KF_CHECK_APART.keys() | set().union(*KF_CHECK_APART.values()))
    assert named <= graph.uses.keys(), sorted(named - graph.uses.keys())


def test_a_function_local_import_is_followed(tmp_path):
    (tmp_path / "caller.py").write_text(
        "def run():\n    from .callee import work\n    return work()\n")
    (tmp_path / "callee.py").write_text("def work():\n    return 1\n")
    assert CallGraph(tmp_path).reached({"caller.run"}) == {"caller.run", "callee.work"}


def test_oracles_are_the_public_names_the_program_does_not_reach(graph, program):
    """None are left in ``src/``: each is in ``tests/oracles/`` or deleted."""
    unreached = graph.public() - program
    assert not unreached, f"move to tests/oracles/ or delete: {sorted(unreached)}"


@pytest.mark.parametrize("name", sorted(CallGraph(ORACLES).public()))
def test_each_oracle_names_a_test_that_uses_it(used_oracles, name):
    """Every public name in ``tests/oracles/`` is used by a test file, so
    that no oracle rots unused."""
    assert name in used_oracles, f"no tests/test_*.py uses oracles.{name}"


def test_predicted_sides_reach_no_enumerator_but_the_shared_ones(graph):
    sides = predicted_sides(graph)
    assert {"sieving.syt_csp_report", "sieving.cst_csp_report", "sieving.dihedral_report",
            "sieving._catalan_report", "sieving.bn_csp_report"} <= sides.keys()
    violators = {report: sorted(graph.reached(roots) & ORBIT_SIDE) for report, roots in sides.items()}
    violators = {report: reached for report, reached in violators.items() if reached}
    assert violators.keys() == SHARED_ENUMERATION.keys(), violators


def test_the_two_sides_of_kf_check_reach_only_the_shared_ones(graph):
    reached = {root: graph.reached({root}) for root in KF_CHECK_APART}
    for root, apart in KF_CHECK_APART.items():
        assert not reached[root] & apart, (root, sorted(reached[root] & apart))
    shared = {key for key in set.intersection(*reached.values())
              if ".".join(key.split(".")[:2]) not in VALUE_TYPES}
    assert shared == KF_CHECK_SHARED.keys(), sorted(shared)


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("*.py")), ids=lambda path: path.name)
def test_every_name_a_test_file_imports_is_used(path):
    """``from __future__ import annotations`` is exempt."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    assert not imported - used, f"unused imports: {sorted(imported - used)}"
