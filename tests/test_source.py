"""Conventions of the library and test source that no test sees at run time."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hyperbetti"
TESTS = Path(__file__).resolve().parent
MAX_LINE = 99


def test_every_byte_conversion_names_its_byte_order():
    # int.from_bytes and int.to_bytes have no default byte order before
    # Python 3.11, which pyproject.toml allows: every call passes one, and
    # neither method is handed on uncalled (to map, say), where none is seen
    calls, bare = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("from_bytes", "to_bytes")):
                called.add(id(node.func))
                if len(node.args) < 2 and not any(k.arg == "byteorder" for k in node.keywords):
                    calls.append(f"{path.name}:{node.lineno}")
        bare += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes")
                 and id(node) not in called]
    assert not calls and not bare, (calls, bare)


def test_no_line_is_over_the_length_limit():
    long = [f"{path.parent.name}/{path.name}:{number}"
            for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert not long, long


# the nodes of a constant: numbers, strings and tuples, and operators on them
CONSTANT = (ast.Constant, ast.Tuple, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop,
            ast.Load)


def module_state(name):
    """The names that a source file binds at module level to anything but a constant (a
    container, a call, a lambda, another name), or rebinds from a function."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    state = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if isinstance(node, ast.AugAssign) or not all(
                    isinstance(part, CONSTANT) for part in ast.walk(node.value)):
                state.update(target.id for target in targets)
    return state | {name for node in ast.walk(tree) if isinstance(node, ast.Global)
                    for name in node.names}


def test_betti_binds_no_mutable_module_global():
    # every kept result of the Betti kernel and the survivor pass lives in the
    # memo of complexes.py, under its lock and its byte bound: betti.py binds
    # only constants at module level and rebinds no global from a function
    assert module_state("betti.py") == set()


def test_the_memo_is_the_only_module_state():
    # complexes.py keeps exactly the documented memo, every entry under its lock
    # and its bounds, and verify.py no memo beside it: only the builders by name
    assert module_state("complexes.py") == {
        "_skeletons", "_shapes", "_held", "_memo_lock"}
    assert module_state("verify.py") == {"COMPLEXES"}
