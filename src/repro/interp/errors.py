"""Guest-program exceptions raised by the interpreter and runtime."""

from __future__ import annotations


class BlockBreakpoint(Exception):
    """Raised when execution is about to enter a registered block.

    Defined here (rather than in :mod:`repro.interp.interpreter`) so the
    compiled fast path can raise it without a circular import; the
    interpreter module re-exports it under its historical name.
    """

    def __init__(self, frame, target, prev):
        super().__init__(f"breakpoint at {target.name}")
        self.frame = frame
        self.target = target
        self.prev = prev


class GuestError(Exception):
    """Base class for errors attributable to the interpreted program."""


class GuestFault(GuestError):
    """Invalid memory access (wild pointer, use-after-free, overflow)."""


class GuestExit(GuestError):
    """The guest called ``exit(code)``."""

    def __init__(self, code: int = 0):
        super().__init__(f"guest exited with code {code}")
        self.code = code


class GuestTimeout(GuestError):
    """The interpreter exceeded its instruction budget."""


class Misspeculation(GuestError):
    """A Privateer runtime validation failed (§5.1).

    ``kind`` is one of: separation, privacy, lifetime, value, control.
    """

    def __init__(self, kind: str, detail: str = "", iteration: int = -1):
        super().__init__(f"misspeculation[{kind}] at iteration {iteration}: {detail}")
        self.kind = kind
        self.detail = detail
        self.iteration = iteration
        #: Forensic conflict context (a plain picklable dict built by
        #: :meth:`repro.runtime.system.RuntimeSystem.capture_conflict_context`)
        #: or None when nothing could be recovered from the detail string.
        self.context = None
