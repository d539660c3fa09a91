"""Every library error type is raised somewhere in the library.

An error class that no ``raise`` in ``src/`` names is API with no behaviour
behind it: a caller can catch it, but nothing ever throws it.
"""

import ast
import inspect
import pathlib

import jordanperturb
from jordanperturb import errors

SRC = pathlib.Path(jordanperturb.__file__).resolve().parent


def raised_names():
    """The names of the exceptions that some ``raise`` statement in the package creates."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    classes = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.JordanPerturbError) and cls is not errors.JordanPerturbError
    }
    assert classes
    assert not classes - raised_names(), sorted(classes - raised_names())
