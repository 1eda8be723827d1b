import inspect
import pickle
import typing

import pytest

from sefc import errors

# One value per annotated parameter type; parameters without an annotation
# (the message of the plain subclasses) take text.
_VALUES = {str: "f", int: 7, float: 0.125}


def _error_types():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.SefcError)]


def _instance(cls):
    hints = typing.get_type_hints(cls.__init__)
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    if params[0].kind is inspect.Parameter.VAR_POSITIONAL:
        return cls("some detail")
    return cls(*(_VALUES[hints.get(p.name, str)] for p in params))


def test_walk_finds_the_types_with_their_own_init():
    names = {cls.__name__ for cls in _error_types()}
    assert {"SefcError", "MissingRawColumn", "NonNumericColumn", "SchemaViolation", "RaggedRow",
            "ExcessiveMissing", "DuplicateKey", "UnsupportedFault", "MissingChannel"} <= names


@pytest.mark.parametrize("cls", _error_types(), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
def test_error_survives_pickling(cls, protocol):
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc, protocol))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.__dict__ == exc.__dict__
