"""Discrete exterior calculus: simplicial meshes, dual meshes, Whitney and
Sibson interpolation, three discrete Hodge stars, and mixed solvers."""

__version__ = "0.1.0"


class Error(ValueError):
    """An input that decstar rejects: an inadmissible mesh, star or system,
    or a bad argument.  The CLI prints it as one `error:` line."""
