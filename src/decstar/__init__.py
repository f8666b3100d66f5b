"""Discrete exterior calculus: simplicial meshes, dual meshes, Whitney and
Sibson interpolation, three discrete Hodge stars, and mixed solvers."""

__version__ = "0.1.0"
