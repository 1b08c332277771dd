"""Exception types shared across the package."""


class ContractError(ValueError):
    """An argument violated a documented precondition."""


class NumericDomainError(ArithmeticError):
    """An operation left its numeric domain (non-finite input, zero norm, ...)."""


class FormatError(ValueError):
    """A binary or JSON artifact failed to parse; the message names the offset or field."""


class ConfigError(ValueError):
    """A run configuration is invalid or inconsistent."""


class TrainingDiverged(RuntimeError):
    """Training left the finite range: a batch's loss was not finite, or a
    forward pass met a non-finite value, named by `reason`. `epoch` and
    `batch` are None when the step's evaluation met it."""

    def __init__(self, step: int, epoch: int | None, batch: int | None,
                 value: float = float("nan"), reason: str = ""):
        self.step = step
        self.epoch = epoch
        self.batch = batch
        self.value = value
        self.reason = reason
        where = "in evaluation" if epoch is None else f"epoch {epoch}, batch {batch}"
        super().__init__(f"{reason or f'non-finite loss {value!r}'} at step {step}, {where}")

    def __reduce__(self):
        # rebuilt from its fields, not its message, when a worker process sends it back
        return (type(self), (self.step, self.epoch, self.batch, self.value, self.reason),
                self.__dict__)


class VerificationFailure(RuntimeError):
    """A self-check (gradient suite) reported an error above tolerance."""
