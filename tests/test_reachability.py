"""Every public name in ``src/`` is reached by the program or is a test oracle.

The call graph is walked statically with ``ast``.  A name in a module
reaches the module's own definition of it or the definition it imports; an
attribute ``x.name`` reaches every method called ``name`` (the type of ``x``
is not known, so the walk over-approximates), and ``module.name`` on an
imported module reaches that definition.  Reaching a class reaches its
dunder methods, which Python calls implicitly.  Public means that no part
of the qualified name starts with an underscore.

The program's roots are the command-line handlers (``cli.LEAVES``),
``cli.run``, the console script ``cli.main``, the library names that the
benchmark's ``run_roots_op`` looks up, and ``KLTable.comparable_pairs``,
which the benchmark's tracer calls.  Every public name that none of them
reaches is an entry of ``ORACLES``, with a test that uses it: directly, or
through another entry that the test's file calls.  ``perfbench/`` is only
read.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cyclosieve"

PROGRAM_ROOTS = {"cli.LEAVES", "cli.run", "cli.main", "klcells.KLTable.comparable_pairs"}

# Public names that only tests reach: name -> a test that uses it.
ORACLES = {
    "jeudetaquin.demote": "tests/test_jeudetaquin.py::TestRoundTripAndContent",
    "jeudetaquin.evacuate": "tests/test_jeudetaquin.py::TestBenderKnuthOracle",
    "jeudetaquin.is_semistandardizable": "tests/test_klcells.py::TestVanishingCriterion",
    "jeudetaquin.promote": "tests/test_jeudetaquin.py::TestPromotionExamples",
    "jeudetaquin.promote_power": "tests/test_jeudetaquin.py::TestPromotionOrder",
    "jeudetaquin.semistandardize": "tests/test_jeudetaquin.py::TestSemistandardize",
    "jeudetaquin.standardize": "tests/test_jeudetaquin.py::TestStandardize",
    "klcells.Immanant": "tests/test_klcells.py::TestImmanants",
    "klcells.Immanant.scale": "tests/test_klcells.py::TestImmanants::test_row_swap_action",
    "klcells.Immanant.swap_rows": "tests/test_klcells.py::TestImmanants::test_row_swap_action",
    "klcells.KLTable.leq": "tests/test_klcells.py::TestTableAxioms::test_defining_axioms",
    "klcells.KLTable.poly": "tests/test_klcells.py::TestTableAxioms",
    "klcells.kl_immanant": "tests/test_klcells.py::TestImmanants",
    "klcells.mu_tableaux": "tests/test_klcells.py::TestMu",
    "klcells.representation_matrix": "tests/test_klcells.py::TestCellMatrices",
    "permutations.Permutation.inverse": "tests/test_klcells.py::TestTableAxioms::test_index_tables",
    "permutations.Permutation.left_descents": "tests/test_klcells.py::TestTableAxioms::test_index_tables",
    "permutations.Permutation.length": "tests/test_klcells.py::TestTableAxioms::test_index_tables",
    "permutations.Permutation.right_descents": "tests/test_klcells.py::TestTableAxioms::test_index_tables",
    "permutations.bruhat_leq": "tests/test_permutations.py::TestBruhat",
    "permutations.identity": "tests/test_permutations.py::TestBruhat::test_extremes",
    "permutations.simple": "tests/test_klcells.py::TestCellMatrices",
    "qpolys.IntPolynomial.divmod": "tests/test_cyclotomic.py::TestResidueTable",
    "qpolys.IntPolynomial.exact_div": "tests/test_qpolys.py::TestIntPolynomial::test_exact_division",
    "qpolys.IntPolynomial.monomial": "tests/test_qpolys.py::TestSchur::test_single_column",
    "qpolys.IntPolynomial.one": "tests/test_cyclotomic.py::TestAgainstReducedReference",
    "qpolys.IntPolynomial.shift": "tests/test_qpolys.py::TestSchur",
    "qpolys.QProduct.expand": "tests/test_qpolys.py::TestQProduct",
    "qpolys.content_weight": "tests/test_qpolys.py::TestSchur",
    "qpolys.q_binomial_product": "tests/test_qpolys.py::TestQAnalogues",
    "qpolys.q_factorial": "tests/test_qpolys.py::TestQProduct",
    "qpolys.q_int": "tests/test_qpolys.py::TestQHookFormula",
    "qpolys.schur_evaluate": "tests/test_qpolys.py::TestSchur",
    "qpolys.schur_principal_specialization": "tests/test_qpolys.py::TestSchur",
    "ribbons.enumerate_ribbon_cst": "tests/test_ribbons.py::TestCounting::test_peeling_matches_labeled_tiling_oracle",
    "ribbons.m_core": "tests/test_ribbons.py::TestCoresAndQuotients",
    "sieving.handshake_to_tableau": "tests/test_sieving.py::TestHandshakesAndNoncrossing",
    "sieving.multisets_action": "tests/test_sieving.py::TestClassicalTheorems::test_multisets_rotation",
    "sieving.multisets_csp_report": "tests/test_sieving.py::TestClassicalTheorems::test_multisets_rotation",
    "sieving.noncrossing_to_handshake": "tests/test_sieving.py::TestHandshakesAndNoncrossing",
    "sieving.reflect_matching": "tests/test_sieving.py::TestHandshakesAndNoncrossing::test_proposition_8_3",
    "sieving.reflect_noncrossing": "tests/test_sieving.py::TestHandshakesAndNoncrossing::test_proposition_8_3",
    "sieving.subsets_action": "tests/test_sieving.py::TestClassicalTheorems::test_subsets_rotation",
    "sieving.subsets_csp_report": "tests/test_sieving.py::TestClassicalTheorems::test_subsets_rotation",
    "tableaux.Composition.rotated": "tests/test_jeudetaquin.py::TestExtendedDescentRotation",
    "tableaux.Partition.contains_cell": "tests/test_tableaux.py::TestHooks",
    "tableaux.Tableau.is_row_strict": "tests/test_tableaux.py::TestEnumerateCst::test_rst_is_transposed_cst",
    "tableaux.arm_leg": "tests/test_tableaux.py::TestHooks",
    "tableaux.hook_length": "tests/test_tableaux.py::TestHooks",
}


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
        imports = self.imports[module] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}" if node.module else alias.name
                    imports[alias.asname or alias.name] = target
            elif isinstance(node, ast.FunctionDef):
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
        module = key.split(".", 1)[0]
        imports = self.imports[module]
        out = {name for name in self.uses if name.startswith(key + ".__")}
        for node in self.uses[key]:
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


@pytest.fixture(scope="module")
def graph() -> CallGraph:
    return CallGraph(SRC)


@pytest.fixture(scope="module")
def program(graph) -> set[str]:
    roots = PROGRAM_ROOTS | roots_op_names(graph)
    assert roots <= graph.uses.keys(), sorted(roots - graph.uses.keys())
    return graph.reached(roots)


def test_oracles_are_the_public_names_the_program_does_not_reach(graph, program):
    unreached = graph.public() - program
    assert not unreached - ORACLES.keys(), f"not in ORACLES: {sorted(unreached - ORACLES.keys())}"
    assert not ORACLES.keys() - unreached, f"not oracles: {sorted(ORACLES.keys() - unreached)}"


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_each_oracle_names_a_test_that_uses_it(graph, name):
    path, *inside = ORACLES[name].split("::")
    tree = ast.parse((ROOT / path).read_text())
    node = tree
    for part in inside:  # the named class and test must exist
        node = next(item for item in node.body
                    if isinstance(item, (ast.ClassDef, ast.FunctionDef)) and item.name == part)
    used = {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(tree) if isinstance(sub, (ast.Name, ast.Attribute))}
    called = {key for key in ORACLES if key.rsplit(".", 1)[1] in used}
    assert name in graph.reached(called), f"{path} reaches {name} through no entry it calls"
