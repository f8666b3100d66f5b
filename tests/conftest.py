"""Shared fixtures and the acceptance-summary reporter.

Acceptance tests record one verdict per criterion; the verdicts are echoed
as PASS/FAIL lines in the terminal summary so the run log carries them even
when output capture is on.
"""

import itertools

import numpy as np
import pytest

from decstar import mesh

ACCEPTANCE_RESULTS = {}


@pytest.fixture(scope="session")
def relabelled_delaunay():
    """(vertices, cells) of `mesh.random_delaunay(n, seed, dim)` under a
    seeded random vertex relabelling, with the cells and the vertices
    within each cell shuffled."""
    def build(n_points, seed, dim):
        comp = mesh.random_delaunay(n_points, seed, dim)
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(len(comp.vertices))
        verts = np.empty_like(comp.vertices)
        verts[perm] = comp.vertices
        cells = rng.permuted(perm[comp.simplices[dim]], axis=1)
        return verts, cells[rng.permutation(len(cells))]

    return build


@pytest.fixture(scope="session")
def crossing_dual_polygons():
    """The vertices of a 2D complex whose flat-sided dual polygon, the ring
    of `mesh.vertex_ring` without its interior-edge midpoints, has two sides
    that cross properly: each side's ends lie strictly on opposite sides of
    the other's line.  A loop over side pairs."""
    def orient(a, b, c):
        return np.sign((b[0] - a[0]) * (c[1] - a[1])
                       - (b[1] - a[1]) * (c[0] - a[0]))

    def crosses(loop):
        sides = [(loop[i], loop[(i + 1) % len(loop)]) for i in range(len(loop))]
        return any(orient(a, b, c) * orient(a, b, d) < 0
                   and orient(c, d, a) * orient(c, d, b) < 0
                   for (a, b), (c, d) in itertools.combinations(sides, 2))

    def find(comp, dual):
        boundary = comp.boundary_simplices(1)
        found = []
        for v in range(len(comp.vertices)):
            loop = np.array([dual.centers[{"v": 0, "m": 1, "c": 2}[kind]][j]
                             for kind, j in mesh.vertex_ring(comp, v)
                             if kind != "m" or boundary[j]])
            if crosses(loop):
                found.append(v)
        return found

    return find


@pytest.fixture
def acceptance():
    def record(number: int, title: str, passed: bool, detail: str = ""):
        ACCEPTANCE_RESULTS[number] = (title, bool(passed), detail)
        return bool(passed)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        title, passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        line = f"CRITERION {number} ({title}): {verdict}"
        if detail:
            line += f" — {detail}"
        terminalreporter.write_line(line)
