"""Two-orthogonal-coil WPT simulation with communication-free metal detection."""

__version__ = "0.1.0"
