"""Exception types shared across the engine and protocol layers.

Grouped here so the CLI can map error families onto exit codes without
importing every module.
"""


class StarfishError(Exception):
    """Base class for all package errors."""


class ConfigError(StarfishError):
    """Invalid run configuration (bad value, unknown key, missing file)."""


class RangeError(StarfishError):
    """Value not representable under the fixed-point codec."""


class ShapeError(StarfishError):
    """Operand shapes incompatible with the requested operation."""


class ProtocolError(StarfishError):
    """Base class for failures raised while a two-party session runs."""


class TransportError(ProtocolError):
    """Channel failure: framing violation, peer loss, tag mismatch."""


class DivisionDomainError(ProtocolError):
    """sec_div divisor outside its admissible domain."""


class DivergenceError(ProtocolError):
    """Stage II recovery left the codec's range at a given recovery round."""

    def __init__(self, round_index: int, detail: str):
        super().__init__(f"recovery diverged at round {round_index}: {detail}")
        self.round_index = round_index


class AssumptionError(StarfishError):
    """A theoretical precondition (mu > 2, eta_u = mu/L) does not hold."""


class UnknownFunctionality(StarfishError):
    """Cost prediction or audit asked about a functionality we do not meter."""
