import ast
from pathlib import Path

import snrloss
from snrloss import errors

SOURCE = Path(snrloss.__file__).parent


def raised_names():
    """Names of the exceptions that a ``raise`` statement of the package
    raises, called or not."""
    names = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def error_classes(cls=errors.SnrLossError):
    for sub in cls.__subclasses__():
        if sub.__module__ == errors.__name__:
            yield sub
        yield from error_classes(sub)


def test_every_error_class_is_raised_by_the_package():
    # an error class that nothing raises is dead code the CLI still catches
    unraised = sorted(cls.__name__ for cls in error_classes() if cls.__name__ not in raised_names())
    assert unraised == []

