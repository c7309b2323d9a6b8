"""Distributed fixed-gain consensus observers for bearing-only target tracking,
with gain certification, a deterministic simulator, and an information-filter
baseline."""

__version__ = "0.1.0"
