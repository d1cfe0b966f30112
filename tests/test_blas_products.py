"""Every BLAS product in ``src/fedca`` is one that the value contract names.

A product that BLAS computes (``@``, ``np.dot``, ``.dot(``, ``np.matmul``,
``np.inner``, ``np.vdot``, and ``np.linalg.norm`` without ``axis``, which
runs ``x.dot(x)``) may change its bits with the BLAS thread count.
Each one must sit in a function of ``ALLOWED``, whose entry names the
bullet of the ``fedca.geometry`` value contract that covers it, so no
output comes to rest on raw BLAS bits without the contract saying so.
"""

import ast
from pathlib import Path

import fedca
from fedca import geometry

# (module, function) -> the value-contract bullet that covers its products
ALLOWED = {
    ("geometry", "_screen_gemm"): "Screen values",
    ("geometry", "_gemv_rows"): "GEMV values",
    ("clustering", "_plus_plus_init.d2_to"): "k-means seeding",
}

_PRODUCT_CALLS = {"dot", "matmul", "inner", "vdot"}


class _Products(ast.NodeVisitor):
    """``(function, line)`` of every BLAS product in one module's source;
    the function is the dotted name of the innermost enclosing def."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _record(self, node):
        self.found.append((".".join(self.scope), node.lineno))

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self._record(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.MatMult):
            self._record(node)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and (
            func.attr == "dot"
            or (func.attr in _PRODUCT_CALLS and _is_numpy(func.value))
            or (func.attr == "norm" and isinstance(func.value, ast.Attribute)
                and func.value.attr == "linalg" and _is_numpy(func.value.value)
                and len(node.args) < 3 and "axis" not in {k.arg for k in node.keywords})
        ):
            self._record(node)
        self.generic_visit(node)


def _is_numpy(node) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _products() -> dict[tuple[str, str], list[int]]:
    found: dict[tuple[str, str], list[int]] = {}
    for path in sorted(Path(fedca.__file__).parent.glob("*.py")):
        visitor = _Products()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        for function, line in visitor.found:
            found.setdefault((path.stem, function), []).append(line)
    return found


def test_every_blas_product_is_named_by_the_value_contract():
    found = _products()
    stray = {f"{module}.py:{lines} in {function or '<module>'}"
             for (module, function), lines in found.items()
             if (module, function) not in ALLOWED}
    assert not stray, f"BLAS products outside the value contract: {sorted(stray)}"
    # no stale entry: each still holds a product
    assert set(found) == set(ALLOWED)
    for bullet in set(ALLOWED.values()):
        assert f"* {bullet}" in geometry.__doc__, bullet


def test_the_guard_sees_every_spelling_of_a_product():
    source = """
def f(a, b):
    a @ b
    a @= b
    np.dot(a, b)
    a.dot(b)
    numpy.matmul(a, b)
    np.inner(a, b)
    np.vdot(a, b)
    np.linalg.norm(a)
    numpy.linalg.norm(a, 2)
    np.einsum("i,i->", a, b)
    np.multiply(a, b)
    np.linalg.norm(a, axis=1)
    np.linalg.norm(a, None, 1)
"""
    visitor = _Products()
    visitor.visit(ast.parse(source))
    assert visitor.found == [("f", line) for line in range(3, 12)]
