"""Shared fixtures and the acceptance-summary reporter.

Acceptance tests record one verdict per criterion; the verdicts are echoed
as PASS/FAIL lines in the terminal summary so the run log carries them even
when output capture is on.
"""

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
