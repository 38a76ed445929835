"""Static checks on the package source.

- Every name a package module imports is used by that module
  (`__init__.py` is left out: it imports names to re-export them).
- One function evaluates the pairwise hash: no other function reduces a
  value mod the hash modulus.
- The instance loops of `oracle.verify_bound_suite` build no per-instance
  exact quantity or channel object; every exact quantity is evaluated on
  stacks of instances after the loops.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "reidrisk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set:
    """Names bound by the module's import statements, `from __future__` left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def referenced_names(tree: ast.Module) -> set:
    """Names the module reads, including those inside string annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names |= referenced_names(ast.parse(ann.value, mode="eval"))
    return names


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(imported_names(tree) - referenced_names(tree))
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


# the one function that reduces values mod the hash modulus P
RESIDUE_HELPER = "_hash_residues"


def is_modulus(node: ast.expr) -> bool:
    """A name `prime` or `P`, or an attribute `.prime`."""
    return ((isinstance(node, ast.Name) and node.id in ("prime", "P"))
            or (isinstance(node, ast.Attribute) and node.attr == "prime"))


def modulus_reductions(tree: ast.Module) -> list:
    """(function, line) of every `% P` or `%= P` outside the residue helper."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.BinOp):
            operand = node.right
        elif isinstance(node, ast.AugAssign):
            operand = node.value
        else:
            operand = None
        if (operand is not None and isinstance(node.op, ast.Mod) and is_modulus(operand)
                and owner != RESIDUE_HELPER):
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_one_hash_evaluator():
    found = {path.name: modulus_reductions(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: where for name, where in found.items() if where}
    assert not found, f"reductions mod P outside {RESIDUE_HELPER}: {found}"
    helpers = [path.name for path in PACKAGE.glob("*.py")
               if f"def {RESIDUE_HELPER}(" in path.read_text()]
    assert helpers == ["mechanisms.py"]


def test_modulus_reductions_finds_each_form():
    source = """
def helper(x, prime):
    return x % prime
def _hash_residues(a, prime):
    a %= prime
    return a % prime
def other(fam, x, P):
    y = (x % fam.prime) + 1
    y %= P
    return y % 7
"""
    assert modulus_reductions(ast.parse(source)) == [("helper", 3), ("other", 8), ("other", 9)]


# calls the loops of the oracle suite must not make
PER_INSTANCE_CALLS = {"exact_pie", "exact_pse", "exact_composed_pie", "mutual_information",
                      "SmallInstance", "MechanismKernel"}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def per_instance_calls(tree: ast.Module, function: str = "verify_bound_suite"):
    """Sorted (line, name) of each PER_INSTANCE_CALLS call inside a loop of `function`.

    None when the module defines no such function.
    """
    defs = [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == function]
    if not defs:
        return None
    found = set()
    for loop in (node for d in defs for node in ast.walk(d) if isinstance(node, LOOPS)):
        for call in ast.walk(loop):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if name in PER_INSTANCE_CALLS:
                    found.add((call.lineno, name))
    return sorted(found)


def test_oracle_suite_loops_stay_stacked():
    path = PACKAGE / "oracle.py"
    found = per_instance_calls(ast.parse(path.read_text(), filename=str(path)))
    assert found == [], f"per-instance calls in the loops of verify_bound_suite: {found}"


def test_per_instance_calls_finds_each_form():
    source = """
def verify_bound_suite(count, x, xs):
    exact_pie(x)
    for i in range(count):
        a = oracle.exact_pse(x)
        k = MechanismKernel(2, 2, a)
        while k:
            probcore.mutual_information(k)
    total = [exact_composed_pie(i) for i in xs]
    return SmallInstance(total, k)
def other():
    for i in range(3):
        exact_pie(i)
"""
    assert per_instance_calls(ast.parse(source)) == [
        (5, "exact_pse"), (6, "MechanismKernel"), (8, "mutual_information"),
        (9, "exact_composed_pie")]
    assert per_instance_calls(ast.parse("def other():\n    pass\n")) is None
