"""Static checks on the package source.

- Every name a package module imports is used by that module
  (`__init__.py` is left out: it imports names to re-export them).
- One function evaluates the pairwise hash: no other function reduces a
  value mod the hash modulus.
- One function makes the randomized-response draws: no other function
  compares a `*.random(...)` draw with a `theta...` keep probability.
- One function tests a symbol array against its alphabet [0, size): no
  other function compares an array's `min` with 0 or its `max` with a
  half-open upper edge, apart from the hash-member checks listed with
  their reason.
- The instance loops of `oracle.verify_bound_suite` and of the functions
  holding its draw and evaluation loops build no per-instance exact
  quantity, distribution, population or channel object; every exact
  quantity is evaluated on stacks of instances after the loops.
- Every name the package exports is reached by its own code outside the
  def or class that defines it, by the README "Library" block or by a
  benchmark, or is listed, with its reason, as kept for the tests alone.
"""

import ast
import pathlib
import re

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


# the one function that draws randomized response, for RR records and GLH buckets alike
RR_DRAW_HELPER = "_rr_draws"


def is_keep_draw(node: ast.expr) -> bool:
    """A call `x.random(...)`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "random")


def is_keep_probability(node: ast.expr) -> bool:
    """A name `theta...` or an attribute `.theta...`."""
    name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
    return isinstance(node, (ast.Name, ast.Attribute)) and name.startswith("theta")


def rr_draws(tree: ast.Module) -> list:
    """(function, line) of every comparison of a `*.random(...)` call with a theta."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_keep_draw, operands)) and any(map(is_keep_probability, operands)):
                found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_one_rr_draw():
    found = [(path.name, owner)
             for path in sorted(PACKAGE.glob("*.py"))
             for owner, _ in rr_draws(ast.parse(path.read_text(), filename=str(path)))]
    assert found == [("mechanisms.py", RR_DRAW_HELPER)], f"randomized-response draws: {found}"


def test_rr_draws_finds_each_form():
    source = """
def one(mech, rng, n):
    keep = rng.random(n) < mech.theta
def two(m, r):
    return m.theta_bucket > r.random()
def three(rng, theta):
    return rng.random(3) <= theta
def four(rng, mech):
    late = rng.integers(0, 2) < mech.theta
    return rng.random() < 0.5 or mech.mu < rng.random()
def five(self, np):
    def inner():
        return 0 < np.random.random(4) < self.theta_rr
    return inner
"""
    assert rr_draws(ast.parse(source)) == [("one", 3), ("two", 5), ("three", 7), ("inner", 13)]


# the one function that tests a symbol array against its alphabet [0, size)
SYMBOL_GATE = "alphabet_symbols"
# (module, function, array) range tests of arrays that are not symbols, with the reason
NOT_SYMBOLS = {
    ("mechanisms.py", "read_records", "a"): "hash members a in [1, P), read from a record file",
    ("mechanisms.py", "read_records", "b"): "hash members b in [0, P), read from a record file",
}


def extreme_of(node: ast.expr, which: str):
    """The array whose `which` ('min' or 'max') the node computes, or None.

    Reads x.min(), np.min(x), np.amin(x) and min(x), through an int(...) or
    float(...) cast; min(a, b) of several values is no array's extreme.
    """
    while (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id in ("int", "float") and len(node.args) == 1):
        node = node.args[0]
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in (which, "a" + which):
        return node.args[0] if node.args else func.value
    if isinstance(func, ast.Name) and func.id == which and len(node.args) == 1:
        return node.args[0]
    return None


def symbol_range_tests(tree: ast.Module) -> list:
    """Sorted (function, array, line) of every edge test of [0, size) on an array.

    The lower edge compares the array's min with 0; the upper edge compares
    its max with a half-open bound, as max >= size, max < size, size <= max
    or size > max.
    """
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                for side, other, upper_ops in ((left, right, (ast.GtE, ast.Lt)),
                                               (right, left, (ast.LtE, ast.Gt))):
                    low = extreme_of(side, "min")
                    if low is not None and isinstance(other, ast.Constant) and other.value == 0:
                        found.add((owner, ast.unparse(low), node.lineno))
                    high = extreme_of(side, "max")
                    if high is not None and isinstance(op, upper_ops):
                        found.add((owner, ast.unparse(high), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def test_one_symbol_gate():
    found = {(path.name, owner, array)
             for path in sorted(PACKAGE.glob("*.py"))
             for owner, array, _ in symbol_range_tests(ast.parse(path.read_text(),
                                                                 filename=str(path)))}
    assert found == {("probcore.py", SYMBOL_GATE, "arr"), *NOT_SYMBOLS}, (
        f"tests of an array against [0, size) outside {SYMBOL_GATE}: {sorted(found)}")


def test_symbol_range_tests_finds_each_form():
    source = """
def one(xs, size):
    if xs.min() < 0 or xs.max() >= size:
        raise ValueError
def two(ys, table):
    return ys.size and (ys.min() < 0 or ys.max() >= table.size)
def three(arr, k, np):
    return 0 <= np.min(arr) and np.max(arr) < k
def four(t, n, np):
    return min(t) < 0 or n <= max(t) or int(t.max()) >= n or 0 > np.amin(t[1:])
def alphabet_symbols(arr, size):
    return arr.size and (arr.min() < 0 or arr.max() >= size)
def fine(ys, g, a, b):
    return ys.min() < 1 or ys.max() > g or a.min() != a.max() or min(a, b) < 0 or g > a.min()
"""
    assert symbol_range_tests(ast.parse(source)) == [
        ("alphabet_symbols", "arr", 12), ("four", "t", 10), ("four", "t[1:]", 10),
        ("one", "xs", 3), ("three", "arr", 8), ("two", "ys", 6)]


# calls the loops of the oracle suite must not make
PER_INSTANCE_CALLS = {"exact_pie", "exact_pse", "exact_composed_pie", "mutual_information",
                      "SmallInstance", "MechanismKernel", "CategoricalDistribution",
                      "PopulationModel", "rr_kernel", "random_small_instance"}
# the suite and the functions holding its draw and evaluation loops
SUITE_FUNCTIONS = ("verify_bound_suite", "_draw_block", "_block_report")
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def called_names(call: ast.Call) -> set:
    """The PER_INSTANCE_CALLS names a call makes: f(...), mod.f(...) or Cls.make(...)."""
    func = call.func
    names = {getattr(func, "id", None), getattr(func, "attr", None)}
    if isinstance(func, ast.Attribute):
        names |= {getattr(func.value, "id", None), getattr(func.value, "attr", None)}
    return names & PER_INSTANCE_CALLS


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
                found.update((call.lineno, name) for name in called_names(call))
    return sorted(found)


def test_oracle_suite_loops_stay_stacked():
    path = PACKAGE / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {function: per_instance_calls(tree, function) for function in SUITE_FUNCTIONS}
    assert found == dict.fromkeys(SUITE_FUNCTIONS, []), f"per-instance calls in the loops: {found}"


def test_per_instance_calls_finds_each_form():
    source = """
def verify_bound_suite(count, x, xs):
    exact_pie(x)
    for i in range(count):
        a = oracle.exact_pse(x)
        k = MechanismKernel(2, 2, a)
        while k:
            probcore.mutual_information(k)
        pop = PopulationModel.make(2, probcore.CategoricalDistribution.uniform(2), k)
    total = [exact_composed_pie(i) for i in xs]
    return SmallInstance(total, k)
def other():
    for i in range(3):
        exact_pie(i)
"""
    assert per_instance_calls(ast.parse(source)) == [
        (5, "exact_pse"), (6, "MechanismKernel"), (8, "mutual_information"),
        (9, "CategoricalDistribution"), (9, "PopulationModel"), (10, "exact_composed_pie")]
    assert per_instance_calls(ast.parse("def other():\n    pass\n")) is None


# exports that no program path, README "Library" line or benchmark reaches: each
# is kept for the tests alone, for the reason given
_ORACLE_REFERENCE = "the oracle's per-instance reference, which its stacked suite is tested against"
TEST_FACING = {
    "exact_pse": _ORACLE_REFERENCE,
    "exact_composed_pie": _ORACLE_REFERENCE,
    "exact_bayes_error": _ORACLE_REFERENCE,
    "mutual_information": _ORACLE_REFERENCE,
    "postprocess": _ORACLE_REFERENCE,
    "mixture_kernel": _ORACLE_REFERENCE,
    "random_small_instance": "the one-instance draw the oracle tests check the suite's array "
                             "draws against",
    "ExhaustiveTable": "the brute-force hash family the suite's preimage-set form is checked "
                       "against",
    "entropy": "the reference the mutual-information tests check against",
    "harvest_scores_sparse": "acceptance 6 draws its millions of score pairs with it",
}
README = PACKAGE.parent.parent / "README.md"
BENCH = sorted((PACKAGE.parent.parent / "bench").glob("*.py"))


def exported_names(tree: ast.Module) -> set:
    """Names the package's `__init__` re-exports from its modules."""
    return {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names}


def reached_names(tree: ast.AST) -> set:
    """Names read as `x` or `mod.x`, or named by a string "mod.x" as the benchmark's
    tracer names its targets, except inside a def or class that is itself named x."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            found.update({getattr(node, "id", None) or node.attr} - owners)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"\w+(\.\w+)+", node.value):
            found.update(set(node.value.split(".")) - owners)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def unreached_exports(init: str, sources: list) -> list:
    """Sorted exports of the `init` source that none of the sources reaches."""
    reached = set().union(*(reached_names(ast.parse(s)) for s in sources))
    return sorted(exported_names(ast.parse(init)) - reached)


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return "".join(re.findall(r"```python\n(.*?)```", section, flags=re.S))


def test_every_export_is_reached():
    sources = [p.read_text() for p in MODULES + BENCH] + [library_block()]
    unreached = unreached_exports((PACKAGE / "__init__.py").read_text(), sources)
    assert unreached == sorted(TEST_FACING), (
        f"exports reached by no program path, README Library line or benchmark: {unreached}")


def test_unreached_exports_finds_each_form():
    init = ("from .a import (called, by_attribute, by_string, recursive, dead_class)\n"
            "from .b import alias as dead\n")
    module = """
def called():
    pass
def recursive(n):
    return recursive(n - 1)
class dead_class:
    def copy(self):
        return dead_class()
def user():
    called()
    dead = 1  # a store, not a read
"""
    library = "import reidrisk as rr\nrr.by_attribute()\nTARGETS = {'a.by_string': 1}\n"
    assert unreached_exports(init, [module, library]) == ["dead", "dead_class", "recursive"]
