"""Resource accounting: the deep memory footprint of a sampler."""

from .memory import deep_sizeof, megabytes, sampler_memory_bytes

__all__ = [
    "deep_sizeof",
    "megabytes",
    "sampler_memory_bytes",
]
