"""Concurrency execution backends for the wave stepper and fleet."""

from .backend import (
    SERIAL,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)

__all__ = [
    "SERIAL",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "resolve_backend",
]
