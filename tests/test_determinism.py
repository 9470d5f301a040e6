"""Every verdict is deterministic: no module draws random numbers and no
entry point takes a seed or a sample size."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import quivercy
from quivercy.algebra import Algebra
from quivercy.cli import main
from quivercy.linalg import Mat

PACKAGE = pathlib.Path(quivercy.__file__).parent
KNOBS = {"seed", "tries", "samples"}


def _modules():
    return [importlib.import_module(f"quivercy.{info.name}")
            for info in pkgutil.iter_modules([str(PACKAGE)])]


def test_no_module_imports_random():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "random" for n in names), path.name


def test_no_public_function_takes_a_seed():
    checked = []
    for mod in _modules():
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            funcs = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                # __func__ unwraps the static and class methods, such as Mat.zero
                funcs = [getattr(f, "__func__", f) for n, f in vars(obj).items()
                         if n == "__init__" or not n.startswith("_")]
                funcs = [f for f in funcs if inspect.isfunction(f)]
            for f in funcs:
                assert not KNOBS & set(inspect.signature(f).parameters), (mod.__name__, f)
                checked.append(f)
    assert len(checked) > 50
    # constructors and static methods are walked too
    assert Mat.zero in checked and Algebra.__init__ in checked


def test_no_cli_subcommand_takes_a_seed():
    assert main.commands
    for name, cmd in main.commands.items():
        opts = {o for p in cmd.params for o in p.opts}
        assert "--seed" not in opts, name
