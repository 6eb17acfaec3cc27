"""Exception types shared across the simulator."""


class SimulatorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SimulatorError):
    """A configuration value is malformed or inconsistent."""


class HeapExhausted(SimulatorError):
    """Allocation cannot be satisfied even after collecting."""


class TraceError(SimulatorError):
    """A trace line or replayed operation is invalid.

    Carries enough position information to point at the offending input.
    """

    def __init__(self, message: str, *, line: int | None = None, op_index: int | None = None):
        super().__init__(message)
        self.line = line
        self.op_index = op_index

    def __str__(self) -> str:  # pragma: no cover - formatting only
        msg = super().__str__()
        if self.line is not None:
            msg = f"line {self.line}: {msg}"
        if self.op_index is not None:
            msg = f"op {self.op_index}: {msg}"
        return msg


class InvariantError(SimulatorError):
    """A model invariant does not hold; the simulator's state is inconsistent.

    Raised, never asserted, so ``python -O`` cannot remove the check and a
    run reports it as a failure, under the instance of the heap that the
    run was checking.
    """
