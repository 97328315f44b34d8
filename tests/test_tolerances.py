import ast
import pathlib

TESTS = pathlib.Path(__file__).parent


def _approx_calls_without_abs(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "approx" and not any(kw.arg == "abs" for kw in node.keywords):
            yield f"{path.name}:{node.lineno}"


def test_every_approx_names_its_absolute_tolerance():
    # approx's default abs=1e-12 swallows any relative check on a
    # probability below about 1e-12, so every call must set abs itself
    missing = [where for path in sorted(TESTS.glob("*.py"))
               for where in _approx_calls_without_abs(path)]
    assert not missing, "pytest.approx without abs=: " + ", ".join(missing)
