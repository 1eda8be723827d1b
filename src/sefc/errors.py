"""Exception types shared across the toolkit."""

from __future__ import annotations

import copyreg


class SefcError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # Rebuild without calling ``__init__``, whose parameters differ from
        # ``args`` (the message) in most subclasses: same type, same ``args``
        # and so the same ``str()``, same attributes.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# --- schema / adapters ---------------------------------------------------

class MissingRawColumn(SefcError):
    def __init__(self, name: str):
        super().__init__(f"mapped raw column not found in table: {name!r}")
        self.name = name


class NonNumericColumn(SefcError):
    def __init__(self, name: str, detail: str = ""):
        msg = f"column {name!r} failed numeric parse"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.name = name


class SchemaViolation(SefcError):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


# --- ingestion -----------------------------------------------------------

class RaggedRow(SefcError):
    def __init__(self, line: int, expected: int, got: int):
        super().__init__(
            f"line {line}: expected {expected} fields, got {got}"
        )
        self.line = line


class EmptyFile(SefcError):
    pass


class DegenerateEpisode(SefcError):
    pass


class ExcessiveMissing(SefcError):
    def __init__(self, channel: str, fraction: float):
        super().__init__(
            f"channel {channel!r} has missing fraction {fraction:.6f} above threshold"
        )
        self.channel = channel
        self.fraction = fraction


class DuplicateKey(SefcError):
    def __init__(self, set_name: str, key: str):
        super().__init__(f"duplicate pairing key {key!r} in {set_name} set")
        self.set_name = set_name
        self.key = key


# --- synthetic generation ------------------------------------------------

class InfeasibleProfile(SefcError):
    pass


class NumericalInstability(SefcError):
    pass


class UnsupportedFault(SefcError):
    def __init__(self, fault_type: str):
        super().__init__(f"fault type {fault_type!r} has no signal-level injection")
        self.fault_type = fault_type


# --- models / evaluation -------------------------------------------------

class ShapeMismatch(SefcError):
    pass


class EmptyDataset(SefcError):
    pass


class MissingChannel(SefcError):
    def __init__(self, name: str):
        super().__init__(f"required channel not present: {name!r}")
        self.name = name


class DegenerateLabels(SefcError):
    pass


class HorizonOverrun(SefcError):
    pass


class NoCommonPhases(SefcError):
    pass


class EmptyInput(SefcError):
    pass
