"""The FFT backend boundary: which library runs, and at what precision,
is decided in ``repro.dft.backends`` alone.  No module of ``src/repro``
outside ``repro/dft/`` compares a backend's ``name`` or passes
``precision=``; they pass arrays, and the backend answers at the
input's precision."""

import ast
from pathlib import Path

from repro.dft.backends import _BACKENDS

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Identifiers that hold a backend where a ``.name`` test would read it.
_BACKEND_VARS = {"be", "backend"}


def _is_backend_var(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _BACKEND_VARS
    return isinstance(node, ast.Attribute) and node.attr in _BACKEND_VARS


def violations(source: str) -> list[tuple[int, str]]:
    """``(line, what)`` for each backend-name test and ``precision=``
    argument in *source*."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = [o for o in operands if isinstance(o, ast.Attribute) and o.attr == "name"]
            if names and (
                any(_is_backend_var(o.value) for o in names)
                or any(isinstance(o, ast.Constant) and o.value in _BACKENDS for o in operands)
            ):
                found.append((node.lineno, "backend name test"))
        elif isinstance(node, ast.Call):
            found += [(node.lineno, "precision=") for k in node.keywords if k.arg == "precision"]
    return found


def test_the_checker_sees_both_patterns():
    source = (
        'if be.name == "repro":\n'
        '    plan = plan_for(n, precision="single")\n'
        'if "numpy" != self.backend.name:\n'
        '    pass\n'
        'if span.name == "alltoall":\n'
        '    pass\n'
    )
    assert sorted(violations(source)) == [
        (1, "backend name test"), (2, "precision="), (3, "backend name test"),
    ]


def test_no_module_above_dft_names_a_backend_or_a_precision():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        if "dft" not in path.relative_to(SRC).parts[:1]
        for line, what in violations(path.read_text())
    ]
    assert not offenders, offenders
