"""Checks on the package source itself."""

import ast
import subprocess
import sys
import types
from pathlib import Path

import insdel

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "insdel"


def test_package_has_no_assert_statements():
    """Runtime bounds must survive `python -O`, so the package raises instead."""
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no package source under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def functions(path: Path):
    """(qualified name, node) for every function and method in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
                yield f"{path.stem}.{owner}{child.name}", child


def name_pair(node: ast.AST, op: type) -> frozenset | None:
    """{a, b} when node is `a <op> b` over two names, else None."""
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, op)
        and isinstance(node.left, ast.Name)
        and isinstance(node.right, ast.Name)
    ):
        return frozenset((node.left.id, node.right.id))
    return None


def runs_a_bit_vector_step(fn: ast.AST) -> bool:
    """Whether fn ors v + u with v - u, directly or through a name bound to v + u."""
    sums = {
        node.targets[0].id: name_pair(node.value, ast.Add)
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and name_pair(node.value, ast.Add)
    }
    for node in ast.walk(fn):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            for total, diff in ((node.left, node.right), (node.right, node.left)):
                pair = name_pair(diff, ast.Sub)
                summed = name_pair(total, ast.Add)
                if isinstance(total, ast.Name):
                    summed = sums.get(total.id)
                if pair and pair == summed:
                    return True
    return False


def test_no_integer_is_read_from_a_record_by_int():
    """A field read from a record is checked by core._whole, not passed to int().

    int(data["q"]) reads 2.9 as 2 and "3" as 3, so a malformed JSON
    field would be truncated or parsed instead of refused.
    """
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
        and any(isinstance(arg, ast.Subscript) for arg in node.args)
    ]
    assert found == []


def test_one_lcs_kernel():
    """The Hyyrö update, (v + u) | (v - u), is written only in core._lcs_steps."""
    found = [
        name
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, fn in functions(path)
        if runs_a_bit_vector_step(fn)
    ]
    assert found == ["core._lcs_steps"]


def test_decoders_do_no_lane_arithmetic_of_their_own():
    """Lane layout, masks and thresholds come from core.

    A function of concat.py or decode.py that touches the LCS lanes (a
    core `_lane*`, `_lcs*`, `_packed*` or `_flagged*` helper, or
    `inner_grams`) shifts nothing, so no second gate, popcount or
    threshold can be written there.
    """
    prefixes = ("_lane", "_lcs", "_packed", "_flagged", "inner_grams")
    shifting = []
    for module in ("concat.py", "decode.py"):
        for name, fn in functions(PACKAGE / module):
            nodes = list(ast.walk(fn))
            names = {n.id for n in nodes if isinstance(n, ast.Name)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            names.add(fn.name)
            if any(ref.startswith(prefixes) for ref in names) and any(
                isinstance(n, ast.BinOp) and isinstance(n.op, (ast.LShift, ast.RShift))
                for n in nodes
            ):
                shifting.append(name)
    assert shifting == []


def test_channels_do_not_replay_their_scripts():
    """A channel applies each edit as it draws it; only apply_script replays a script."""
    callers = [
        name
        for name, fn in functions(PACKAGE / "channel.py")
        if name != "channel.apply_script"
        and any(isinstance(n, ast.Name) and n.id == "apply_script" for n in ast.walk(fn))
    ]
    assert callers == []


def test_concat_decoder_calls_feasibility_and_recovery_by_bare_name():
    """The decoder looks its traced stages up in concat's namespace at call time.

    perfbench's traced run rebinds concat.build_windows,
    concat.feasible_jN and the brute_force_list_recover name concat
    imports, and fails when one never fires; an attribute call or a
    local alias would bypass that.
    """
    decoder = dict(functions(PACKAGE / "concat.py"))["concat.list_decode_concat_detailed"]
    called = {
        node.func.id
        for node in ast.walk(decoder)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert {"build_windows", "feasible_jN", "brute_force_list_recover"} <= called


def test_params_record_is_checked_only_by_concat_params():
    """The JSON path builds through make_concat_params, and only ConcatParams checks fields.

    perfbench's cli-mix trace requires concat.make_concat_params to
    fire, so params_from_json_dict calls it by bare name; neither
    function runs a field through core._whole or core._frac, so each
    field has one check site.
    """
    concat = dict(functions(PACKAGE / "concat.py"))
    called = {
        name: {
            node.func.id
            for node in ast.walk(concat[f"concat.{name}"])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        for name in ("make_concat_params", "params_from_json_dict")
    }
    assert "make_concat_params" in called["params_from_json_dict"]
    assert all(not {"_whole", "_frac"} & names for names in called.values())


_LAZY_PROBE = """
import sys
import insdel

loaded = [m for m in sys.modules if m.startswith("insdel.")]
assert loaded == [], loaded
assert set(insdel.__all__) <= set(dir(insdel))
assert insdel.concat is sys.modules["insdel.concat"]
names = {}
exec("from insdel import *", names)
assert set(insdel.__all__) <= set(names)
for name in insdel.__all__:
    value = names[name]
    assert value.__module__.startswith("insdel."), name
    assert getattr(sys.modules[value.__module__], name) is value, name
    assert getattr(insdel, name) is value, name
try:
    insdel.nope
except AttributeError as exc:
    assert str(exc) == "module 'insdel' has no attribute 'nope'", exc
else:
    raise AssertionError("insdel.nope resolved")
"""


def test_lazy_namespace_in_a_fresh_interpreter():
    """A bare `import insdel` loads no submodule; every name resolves on first use.

    Runs in a child interpreter, since in-process other tests have
    already imported every submodule.  A submodule name resolves after
    a bare import, each star-imported name is the object its defining
    module holds, and an unknown name raises the standard AttributeError.
    """
    result = subprocess.run([sys.executable, "-c", _LAZY_PROBE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_export_list_is_sorted_unique_and_complete():
    """insdel.__all__ names every public non-module attribute once, in order, and each resolves."""
    names = insdel.__all__
    assert names == sorted(set(names))
    assert all(hasattr(insdel, name) for name in names)
    public = {
        name
        for name, value in vars(insdel).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
