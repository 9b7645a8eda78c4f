"""Name of the walk kernel in use: always ``RandomWalkEngine``'s numpy one."""

from __future__ import annotations


# Kept because perfbench/common.py records this name in its host fingerprint.
def active_backend_name(name: str = "auto") -> str:
    return "numpy"


__all__ = ["active_backend_name"]
