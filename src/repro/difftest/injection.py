"""Backend-scoped fault injection for oracle self-validation.

Every simulator in this repository executes instructions through the
same :mod:`repro.isa.semantics` functions, which is exactly what makes
differential testing meaningful — and what makes validating the oracle
awkward: a bug planted in shared semantics changes the reference and
the machine under test identically, so nothing diverges.

This module provides the seam. The oracle wraps every backend run in
:func:`use_backend`, and :func:`inject_opcode_bug` installs a wrapper
around :func:`semantics.evaluate_alu` that corrupts the result of one
opcode only when the *current* backend matches — e.g. "the multiscalar
processor computes ``xor`` wrong", with the functional reference left
intact. Tests use it to assert the fuzzer catches and shrinks a planted
semantics bug; it must never be active outside a ``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.isa import semantics
from repro.isa.memory_image import u32
from repro.isa.opcodes import Op

#: Kind label of the backend currently executing ("functional",
#: "scalar", or "multiscalar"); None outside oracle-controlled runs.
_current_backend: str | None = None


def current_backend() -> str | None:
    """The backend kind the oracle is currently running, if any."""
    return _current_backend


@contextmanager
def use_backend(kind: str):
    """Mark ``kind`` as the backend under execution (oracle internal)."""
    global _current_backend
    previous = _current_backend
    _current_backend = kind
    try:
        yield
    finally:
        _current_backend = previous


@contextmanager
def inject_opcode_bug(op: Op, backends: frozenset[str] | set[str] =
                      frozenset({"multiscalar"}), corrupt=None):
    """Make ``op`` compute a wrong result on the given backends only.

    ``corrupt`` maps the correct result to the wrong one; the default
    flips the low bit of an integer result (floats pass through, so the
    default is only meaningful for integer opcodes). The patch applies
    to every simulator that calls ``semantics.evaluate_alu`` through
    the module attribute — i.e. all of them — but misbehaves only when
    :func:`current_backend` is in ``backends``.
    """
    if corrupt is None:
        def corrupt(value):
            return u32(value ^ 1) if isinstance(value, int) else value
    real = semantics.evaluate_alu
    wanted = frozenset(backends)

    def buggy_evaluate_alu(instr, srcs):
        value = real(instr, srcs)
        if instr.op is op and _current_backend in wanted:
            return corrupt(value)
        return value

    semantics.evaluate_alu = buggy_evaluate_alu
    try:
        yield
    finally:
        semantics.evaluate_alu = real


@contextmanager
def inject_jit_guard_miss(mode: str = "taken-branch"):
    """Plant a guard bug in the trace-JIT's generated executors.

    ``mode`` names the guard family that goes blind (see
    :func:`repro.jit.engine.set_injection`): ``"taken-branch"`` makes
    compiled bodies dispatch past a taken branch. The JIT — and so the
    scalar core, the only machine it serves — silently diverges from
    the interpreter while the reference backends stay honest: the JIT
    analogue of :func:`inject_opcode_bug`, used by the fuzz self-test
    to prove the ``-nojit`` differential axis actually catches
    compiled-code bugs. Compiled bodies are cached per engine and
    engines are built per run, so entering and leaving the context
    cannot leak buggy code into clean runs.
    """
    from repro.jit import engine as jit_engine

    previous = jit_engine.current_injection()
    jit_engine.set_injection(mode)
    try:
        yield
    finally:
        jit_engine.set_injection(previous)


@contextmanager
def inject_livelock(after_retires: int = 0):
    """Silently block multiscalar task retirement after ``after_retires``
    tasks have retired.

    The head task then sits stopped-and-drained forever; its successors
    drain the forwarding ring, stall on unavailable head values, and the
    whole machine stops issuing — a livelock with no exception and no
    halt, exactly the failure mode the resilience watchdog exists to
    catch. Used by the watchdog tests and the chaos harness to assert a
    hang surfaces as a typed
    :class:`~repro.resilience.failures.LivelockError` naming the stuck
    unit, instead of spinning until the cycle budget dies.
    """
    from repro.core.processor import MultiscalarProcessor

    real = MultiscalarProcessor._try_retire

    def stuck_retire(self, cycle):
        if self.tasks_retired >= after_retires:
            return
        real(self, cycle)

    MultiscalarProcessor._try_retire = stuck_retire
    try:
        yield
    finally:
        MultiscalarProcessor._try_retire = real
