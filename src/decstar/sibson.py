"""Sibson (natural-neighbor) coordinates on dual cells and dual Whitney forms.

2D coordinates are exact and come from one batch kernel: site regions are
precomputed by half-plane clipping, and the region of an inserted point is one
half-plane clip of each site region, vectorized over query points.  The same
pass measures the bisector chord that bounds each overlap, and Sibson's vector
identity (Sibson 1980; Piper 1993) turns the chord's length and first moment
into the exact gradient of the overlap area.  One point is a batch of one, with
the Milbradt-Pick limit on the cell boundary.  3D coordinates are estimated by
regular-grid sampling of the cell, and their gradients by central differences.

Dual Whitney forms attach interpolants to dual mesh cells: Sibson coordinates
to dual vertices, antisymmetric gradient pairs to dual edges, a weighted
primal-2-form partition to dual faces (3D), and normalized characteristic
functions to top-dimensional dual cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import DualMesh, SimplicialComplex, vertex_ring


class SibsonError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polygon primitives (2D)


def polygon_area(loop: np.ndarray) -> float:
    loop = np.asarray(loop, dtype=float)
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def ensure_ccw(loop: np.ndarray) -> np.ndarray:
    loop = np.asarray(loop, dtype=float)
    return loop if polygon_area(loop) >= 0 else loop[::-1]


def _ccw_ring(loop: np.ndarray, labels: list):
    """A labelled loop turned counter-clockwise, its labels kept in step."""
    loop = np.asarray(loop, dtype=float)
    if polygon_area(loop) >= 0:
        return loop, list(labels)
    return loop[::-1], list(labels)[::-1]


def clip_halfplane(loop: np.ndarray, point, normal) -> np.ndarray:
    """Sutherland-Hodgman clip keeping {y : (y - point) . normal <= 0}."""
    point = np.asarray(point, dtype=float)
    normal = np.asarray(normal, dtype=float)
    out = []
    m = len(loop)
    d = (loop - point) @ normal
    for i in range(m):
        a, b = loop[i], loop[(i + 1) % m]
        da, db = d[i], d[(i + 1) % m]
        if da <= 0:
            out.append(a)
        if (da <= 0) != (db <= 0):
            t = da / (da - db)
            out.append(a + t * (b - a))
    return np.array(out) if out else np.empty((0, 2))


def points_in_polygon(loop: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd crossing test, vectorized over query points."""
    loop = np.asarray(loop, dtype=float)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    ax, ay = loop[:, 0][None, :], loop[:, 1][None, :]
    bx, by = np.roll(loop[:, 0], -1)[None, :], np.roll(loop[:, 1], -1)[None, :]
    straddles = (ay > y) != (by > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = ax + (y - ay) * (bx - ax) / (by - ay)
    crossings = straddles & (x < xint)
    return crossings.sum(axis=1) % 2 == 1


def _bisector_clip(region: np.ndarray, site: np.ndarray, pts: np.ndarray):
    """Clip `region` to the part nearer each query point than `site`.

    `region` is a counter-clockwise loop and `pts` a (q, 2) batch.  For every
    point x this is one pass over the loop's edges against the bisector half-
    plane {y : |y - x| <= |y - site|}, returning

    - the clipped area,
    - the length L of the chord F (the bisector inside `region`),
    - the first moment of F about the bisector midpoint c = (x + site) / 2,
      i.e. the integral of (y - c) over F.

    An edge contributes the inside fraction of its shoelace term.  The chord
    terms are signed sums over the edges that cross the bisector (+1 where
    the loop leaves the half-plane, -1 where it enters), so a chord with
    several pieces on a non-convex region is counted piece by piece.  Edges
    are taken relative to c, where the chord adds nothing to the shoelace
    sum.
    """
    closed = np.vstack([region, region[:1]])
    n = site - pts
    nrm = np.sqrt(n[:, 0] ** 2 + n[:, 1] ** 2)[:, None]
    nhat = n / np.where(nrm == 0.0, 1.0, nrm)
    mid = 0.5 * (pts + site)
    rx = closed[None, :, 0] - mid[:, :1]
    ry = closed[None, :, 1] - mid[:, 1:]
    d = rx * nhat[:, :1] + ry * nhat[:, 1:]
    s = rx * nhat[:, 1:] - ry * nhat[:, :1]  # coordinate along the bisector
    out = d > 0
    da, db = d[:, :-1], d[:, 1:]
    sign = out[:, 1:].astype(float) - out[:, :-1]
    t = da / np.where(sign == 0.0, 1.0, da - db)
    inside = (~out[:, :-1]) - sign * (1.0 - t)
    cross = rx[:, :-1] * ry[:, 1:] - ry[:, :-1] * rx[:, 1:]
    area = 0.5 * np.sum(inside * cross, axis=1)
    sa = s[:, :-1]
    crossing = sa + t * (s[:, 1:] - sa)
    length = np.sum(sign * crossing, axis=1)
    along = 0.5 * np.sum(sign * crossing ** 2, axis=1)
    tangent = np.column_stack([nhat[:, 1], -nhat[:, 0]])
    return area, length, along[:, None] * tangent


# ---------------------------------------------------------------------------
# cells


@dataclass(frozen=True)
class PolyCell:
    """A polygonal (2D) or polyhedral (3D) cell of the dual mesh.

    2D: `vertices` is the ordered boundary loop (counter-clockwise).
    3D: `faces` lists boundary loops into `vertices`; inside tests use the
    star decomposition around `generator`.
    """

    vertices: np.ndarray
    faces: tuple | None = None
    generator: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           np.asarray(self.vertices, dtype=float))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def measure(self) -> float:
        if self.dim == 2:
            return abs(polygon_area(self.vertices))
        return sum(abs(np.linalg.det(t[1:] - t[0])) / 6.0
                   for t in self._star_tets())

    @property
    def diameter(self) -> float:
        v = self.vertices
        return float(max(np.linalg.norm(v[i] - v[j])
                         for i in range(len(v)) for j in range(i + 1, len(v))))

    def _star_tets(self):
        g = self.generator if self.generator is not None else self.vertices.mean(0)
        tets = []
        for face in self.faces:
            pts = self.vertices[list(face)]
            for i in range(1, len(pts) - 1):
                tets.append(np.array([g, pts[0], pts[i], pts[i + 1]]))
        return tets

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.dim == 2:
            return points_in_polygon(self.vertices, pts)
        inside = np.zeros(len(pts), dtype=bool)
        for tet in self._star_tets():
            E = (tet[1:] - tet[0]).T
            try:
                coef = np.linalg.solve(E, (pts - tet[0]).T)
            except np.linalg.LinAlgError:
                continue
            lam = np.vstack([1.0 - coef.sum(axis=0), coef])
            inside |= np.all(lam >= -1e-12, axis=0)
        return inside

    def boundary_distance(self, x):
        """Distance from x to the cell boundary (2D only); an array for a
        (q, 2) batch of points, a float for one point."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)[:, None, :]
        v = self.vertices
        d = np.roll(v, -1, axis=0) - v
        t = np.clip(np.sum((pts - v) * d, axis=2)
                    / np.einsum("id,id->i", d, d), 0.0, 1.0)
        proj = v + t[..., None] * d
        dist = np.linalg.norm(proj - pts, axis=2).min(axis=1)
        return float(dist[0]) if x.ndim == 1 else dist


@dataclass(frozen=True)
class SibsonEvaluation:
    """Sibson coordinates at one point."""

    x: np.ndarray
    coords: np.ndarray  # lambda-bar per site


# ---------------------------------------------------------------------------
# clipped Voronoi measures


def is_convex(loop: np.ndarray, tol: float = 1e-12) -> bool:
    loop = ensure_ccw(np.asarray(loop, dtype=float))
    d = np.roll(loop, -1, axis=0) - loop
    cross = d[:, 0] * np.roll(d, -1, axis=0)[:, 1] - d[:, 1] * np.roll(d, -1, axis=0)[:, 0]
    scale = max(abs(polygon_area(loop)), 1e-300)
    return bool(np.all(cross >= -tol * scale))


def _site_regions_within(loop: np.ndarray, domain: np.ndarray) -> list:
    """Voronoi region of each site of `loop`, clipped to `domain`."""
    # np.allclose(vi, vj) for every pair, with its default tolerances
    close = np.all(np.abs(loop[:, None] - loop[None])
                   <= 1e-8 + 1e-5 * np.abs(loop[None]), axis=2)
    regions = []
    for i, vi in enumerate(loop):
        region = domain
        for j, vj in enumerate(loop):
            if j == i or close[i, j]:
                continue
            mid = 0.5 * (vi + vj)
            region = clip_halfplane(region, mid, vj - vi)
            if len(region) == 0:
                break
        regions.append(region)
    return regions


def clipped_voronoi_measures(cell: PolyCell, x=None, resolution: int = 64):
    """Grid-sampled measures of a 3D cell's site regions; with an inserted
    point x, the overlaps D(x) cap C_i instead.

    2D site-region areas are exact and come from `SibsonCell.region_areas`.
    """
    if cell.dim != 3:
        raise SibsonError("sampled measures are for 3D cells; 2D site-region "
                          "areas are SibsonCell.region_areas")
    pts, vox = _sample_grid(cell, resolution)
    sites = cell.vertices
    d2 = ((pts[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    if x is None:
        return np.bincount(nearest, minlength=len(sites)) * vox
    x = np.asarray(x, dtype=float)
    dx2 = ((pts - x) ** 2).sum(axis=1)
    taken = dx2 < d2.min(axis=1)
    counts = np.bincount(nearest[taken], minlength=len(sites))
    return counts * vox


def _sample_grid(cell: PolyCell, resolution: int):
    lo = cell.vertices.min(axis=0)
    hi = cell.vertices.max(axis=0)
    axes = [np.linspace(l, h, resolution, endpoint=False)
            + (h - l) / (2 * resolution) for l, h in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, cell.dim)
    vox = np.prod((hi - lo) / resolution)
    inside = cell.contains(grid)
    if inside.sum() < 10:
        raise SibsonError("sampling resolution too coarse for this cell")
    return grid[inside], float(vox)


# ---------------------------------------------------------------------------
# Sibson coordinates


def _pad_regions(regions: list) -> list:
    """Pad region loops to a common length by repeating the last vertex;
    repeated vertices do not change clipped areas."""
    maxlen = max(len(r) for r in regions)
    return [
        np.vstack([r, np.repeat(r[-1:], maxlen - len(r), axis=0)])
        if len(r) >= 3 else None
        for r in regions
    ]


class SibsonCell:
    """Sibson coordinate evaluator on one cell; precomputes site regions.

    Two variants of the area ratios are supported.  `restricted=True`
    intersects every Voronoi region with the cell itself, which keeps the
    construction meaningful on non-convex cells.  `restricted=False` uses the
    classical unrestricted Voronoi diagram of the sites, which is the variant
    with exact linear precision; it is the automatic choice on convex cells.
    """

    def __init__(self, cell: PolyCell, resolution: int = 64,
                 restricted: bool | None = None):
        self.cell = cell
        self.resolution = resolution
        if cell.dim == 2:
            loop = ensure_ccw(cell.vertices)
            self.sites = loop
            if restricted is None:
                restricted = not is_convex(loop)
            self.restricted = restricted
            regions = _site_regions_within(loop, loop)
            self.region_areas = np.array(
                [abs(polygon_area(r)) if len(r) >= 3 else 0.0 for r in regions]
            )
            self.regions = _pad_regions(regions)
            self._box_cache = {}
        else:
            self.sites = cell.vertices
            self.restricted = True

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def _boxed_regions(self, half: float):
        """Site regions clipped to a bounding box, cached by box size."""
        key = math.ceil(math.log2(max(half / self.cell.diameter, 1.0)))
        if key not in self._box_cache:
            half = self.cell.diameter * 2.0 ** key + self.cell.diameter
            box = self.sites.mean(axis=0) + half * np.array(
                [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
            self._box_cache[key] = _pad_regions(
                _site_regions_within(self.sites, box)
            )
        return self._box_cache[key]

    def _site_clips(self, pts: np.ndarray):
        """Overlap areas A_i = |D(x) cap C_i| and their exact gradients at a
        batch of points (2D).

        Sibson's identity gives grad A_i = integral over F_i of (y - x) ds
        divided by |v_i - x|, where F_i is the part of the x-v_i bisector
        inside the site region C_i.  Site regions do not move with x, so the
        identity holds for the restricted and the classical variant alike.
        """
        if self.restricted:
            regions = self.regions
        else:
            # the inserted region of a point at distance d from the site hull
            # can reach roughly diam^2 / (2 d) beyond it; size the box so the
            # batch's closest point is still covered
            margin = max(self.cell.boundary_distance(pts).min(),
                         1e-9 * self.cell.diameter)
            regions = self._boxed_regions(
                self.cell.diameter ** 2 / (2.0 * margin) + self.cell.diameter
            )
        areas = np.zeros((len(pts), self.n_sites))
        grads = np.zeros((len(pts), self.n_sites, 2))
        for i, region in enumerate(regions):
            if region is None:
                continue
            vi = self.sites[i]
            area, length, moment = _bisector_clip(region, vi, pts)
            areas[:, i] = np.maximum(area, 0.0)
            # (y - x) = (y - c) + (v_i - x) / 2 with c the bisector midpoint
            n = vi - pts
            dist = np.sqrt(n[:, 0] ** 2 + n[:, 1] ** 2)[:, None]
            grads[:, i] = ((moment + 0.5 * length[:, None] * n)
                           / np.where(dist == 0.0, 1.0, dist))
        return areas, grads

    def coords_batch(self, pts: np.ndarray) -> np.ndarray:
        """Sibson coordinates for a batch of points inside the cell (2D):
        the overlap areas of `_site_clips` over their sum."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        areas, _ = self._site_clips(pts)
        return areas / areas.sum(axis=1)[:, None]

    def _boundary_coords(self, x):
        """Milbradt-Pick limit on the cell boundary: coordinates depend only
        on the vertices of the edge containing x (2D)."""
        v = self.sites
        tol = 1e-12 * self.cell.diameter
        d = np.linalg.norm(v - x, axis=1)
        coords = np.zeros(self.n_sites)
        j = int(d.argmin())
        if d[j] <= tol:
            coords[j] = 1.0
            return coords
        w = np.roll(v, -1, axis=0)
        for i in range(self.n_sites):
            seg = w[i] - v[i]
            t = float(np.clip((x - v[i]) @ seg / (seg @ seg), 0.0, 1.0))
            if np.linalg.norm(v[i] + t * seg - x) <= tol:
                coords[i] = 1.0 - t
                coords[(i + 1) % self.n_sites] = t
                return coords
        raise SibsonError("point not on the cell boundary")

    def evaluate(self, x) -> SibsonEvaluation:
        """Coordinates at one point: the batch kernel inside the cell (2D),
        the Milbradt-Pick limit on its boundary."""
        x = np.asarray(x, dtype=float)
        if self.cell.dim == 3:
            return self._evaluate_sampled(x)
        tol = 1e-12 * self.cell.diameter
        on_boundary = (self.cell.boundary_distance(x) <= tol
                       or np.linalg.norm(self.sites - x, axis=1).min() <= tol)
        if on_boundary:
            return SibsonEvaluation(x, self._boundary_coords(x))
        if not self.cell.contains(x)[0]:
            raise SibsonError("point lies outside the cell")
        return SibsonEvaluation(x, self.coords_batch(x[None])[0])

    def _evaluate_sampled(self, x):
        overlaps = clipped_voronoi_measures(self.cell, x, self.resolution)
        total = float(overlaps.sum())
        if total == 0.0:
            raise SibsonError("inserted point captured no samples")
        return SibsonEvaluation(x, overlaps / total)

    def gradients(self, x) -> np.ndarray:
        """Gradients of all coordinates at x, one row per site.

        2D gradients are exact (see `coords_and_gradients_batch`).  3D
        gradients are central differences of the sampled coordinates.
        """
        x = np.asarray(x, dtype=float)
        if self.cell.dim == 2:
            return self.coords_and_gradients_batch(x[None])[1][0]
        h = 1e-4 * self.cell.diameter
        grads = np.zeros((self.n_sites, 3))
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            hi = self._evaluate_sampled(x + e).coords
            lo = self._evaluate_sampled(x - e).coords
            grads[:, d] = (hi - lo) / (2 * h)
        return grads

    def coords_and_gradients_batch(self, pts: np.ndarray):
        """Coordinates (q, n) and gradients (q, n, 2) at a batch of points (2D).

        One clip pass per site gives each overlap area A_i and its exact
        gradient (`_site_clips`); the quotient rule on lambda_i = A_i / sum A
        then gives grad lambda_i = (grad A_i - lambda_i sum_j grad A_j)
        / sum_j A_j.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        areas, area_grads = self._site_clips(pts)
        total = areas.sum(axis=1)[:, None]
        coords = areas / total
        grads = (area_grads - coords[..., None]
                 * area_grads.sum(axis=1, keepdims=True)) / total[..., None]
        return coords, grads


# ---------------------------------------------------------------------------
# dual Whitney forms (2D machinery; 3D dual-face form below)


@dataclass(frozen=True)
class DualWhitneyForm:
    """Interpolant attached to the dual cell of a primal k-simplex."""

    k: int  # primal degree of the generator; the dual cell has dim n-k
    generator: int


class DualInterpolation:
    """Dual-mesh interpolation structure for a 2D complex.

    Each primal vertex owns a flat-sided dual polygon whose corners are the
    barycenters of the incident triangles; at the boundary the polygon closes
    through the adjacent boundary-edge midpoints and the vertex itself.
    These polygons partition the domain, and Sibson coordinates on them are
    the building blocks of the dual Whitney forms.
    """

    def __init__(self, complex: SimplicialComplex, dual: DualMesh,
                 restricted: bool = True):
        if complex.dim != 2:
            raise SibsonError("dual interpolation machinery is 2D")
        self.complex = complex
        self.restricted = restricted
        self.cells = []  # PolyCell per primal vertex
        self.site_tags = []  # per vertex: list of tags matching cell loop
        self.site_lookup = []  # per vertex: dict tag -> local index
        boundary = complex.boundary_simplices(1)
        for v in range(len(complex.vertices)):
            ring = vertex_ring(complex, v)
            # sites are the ring's triangle centers, boundary-edge midpoints
            # and boundary vertex; interior-edge midpoints are not sites
            keep = [i for i, (kind, e) in enumerate(ring)
                    if kind != "m" or boundary[e]]
            loop, tags = _ccw_ring(dual.cells[0][v].points[keep],
                                   [ring[i] for i in keep])
            self.cells.append(PolyCell(loop))
            self.site_tags.append(tags)
            self.site_lookup.append({tag: i for i, tag in enumerate(tags)})
        self._evaluators = [None] * len(self.cells)

    def evaluator(self, v: int) -> SibsonCell:
        if self._evaluators[v] is None:
            self._evaluators[v] = SibsonCell(self.cells[v],
                                             restricted=self.restricted)
        return self._evaluators[v]

    def edge_endpoint_tags(self, e: int):
        """Ordered site-tag pair of the dual edge of primal edge e."""
        tris = self.complex.cofaces(1, e)
        if len(tris) == 2:
            return ("c", int(tris[0])), ("c", int(tris[1]))
        return ("c", int(tris[0])), ("m", e)

    def locate(self, x):
        """Primal vertex whose dual polygon contains x, or None."""
        x = np.asarray(x, dtype=float)
        for v in range(len(self.cells)):
            if self.cells[v].contains(x)[0]:
                return v
        return None

    # -- form evaluation -----------------------------------------------

    def eval_form(self, form: DualWhitneyForm, x, cell_vertex: int | None = None):
        """Dual Whitney form value at x; zero outside its support."""
        x = np.asarray(x, dtype=float)
        if cell_vertex is None:
            cell_vertex = self.locate(x)
        k = form.k
        if k == 0:
            if cell_vertex != form.generator:
                return 0.0
            return 1.0 / self.cells[cell_vertex].measure
        if cell_vertex is None:
            return 0.0 if k == 2 else np.zeros(2)
        lookup = self.site_lookup[cell_vertex]
        if k == 2:
            tag = ("c", form.generator)
            if tag not in lookup:
                return 0.0
            ev = self.evaluator(cell_vertex).evaluate(x)
            return float(ev.coords[lookup[tag]])
        if k == 1:
            tag_a, tag_b = self.edge_endpoint_tags(form.generator)
            if tag_a not in lookup or tag_b not in lookup:
                return np.zeros(2)
            sc = self.evaluator(cell_vertex)
            ev = sc.evaluate(x)
            grads = sc.gradients(x)
            ia, ib = lookup[tag_a], lookup[tag_b]
            return (ev.coords[ia] * grads[ib]
                    - ev.coords[ib] * grads[ia])
        raise SibsonError(f"unsupported dual form degree {k}")

    def interpolate(self, dual_degree: int, cochain):
        """Interpolant of a dual k-cochain over the dual cell mesh.

        The cochain is indexed like the primal (n - k)-simplices whose dual
        cells carry the degrees of freedom.
        """
        n = self.complex.dim
        p = n - dual_degree
        weights = np.asarray(cochain, dtype=float)
        expected = len(self.complex.simplices[p])
        if weights.shape != (expected,):
            raise SibsonError(
                f"dual cochain has length {len(weights)}, expected {expected}"
            )

        def field(x):
            x = np.asarray(x, dtype=float)
            v = self.locate(x)
            if v is None:
                return 0.0 if p in (0, 2) else np.zeros(2)
            if p == 0:
                return weights[v] / self.cells[v].measure
            lookup = self.site_lookup[v]
            sc = self.evaluator(v)
            if p == 2:
                ev = sc.evaluate(x)
                total = 0.0
                for tag, i in lookup.items():
                    if tag[0] == "c":
                        total += weights[tag[1]] * ev.coords[i]
                return total
            ev = sc.evaluate(x)
            grads = sc.gradients(x)
            total = np.zeros(2)
            for e in self.complex.cofaces(0, v).tolist():
                tag_a, tag_b = self.edge_endpoint_tags(e)
                if tag_a in lookup and tag_b in lookup:
                    ia, ib = lookup[tag_a], lookup[tag_b]
                    total += weights[e] * (ev.coords[ia] * grads[ib]
                                           - ev.coords[ib] * grads[ia])
            return total

        return field


# ---------------------------------------------------------------------------
# 3D dual-face form


@dataclass(frozen=True)
class DualFacePartition:
    """Canonical triangle partition of a 3D dual face (the dual of a primal
    edge): fan triangles tau_i around the vertex centroid, each weighted by
    its area share and carrying the Whitney 2-form of the tetrahedron it
    spans with the interior endpoint of the primal edge."""

    ring: np.ndarray  # (m, 3) ordered face vertices
    centroid: np.ndarray
    apex: np.ndarray  # endpoint of the primal edge inside the polyhedron
    weights: np.ndarray  # |tau_i| / |dual face|

    @classmethod
    def build(cls, ring: np.ndarray, apex: np.ndarray) -> "DualFacePartition":
        ring = np.asarray(ring, dtype=float)
        c = ring.mean(axis=0)
        areas = np.array([
            0.5 * np.linalg.norm(np.cross(ring[i] - c,
                                          ring[(i + 1) % len(ring)] - c))
            for i in range(len(ring))
        ])
        return cls(ring, c, np.asarray(apex, dtype=float), areas / areas.sum())

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        m = len(self.ring)
        for i in range(m):
            tet = np.array([self.apex, self.centroid, self.ring[i],
                            self.ring[(i + 1) % m]])
            lam, grads = _tet_barycentric(tet, x)
            if np.all(lam >= -1e-12):
                # Whitney 2-form of the face (centroid, v_i, v_{i+1})
                val = 2.0 * (lam[1] * np.cross(grads[2], grads[3])
                             + lam[2] * np.cross(grads[3], grads[1])
                             + lam[3] * np.cross(grads[1], grads[2]))
                return self.weights[i] * val
        return np.zeros(3)


def _tet_barycentric(tet: np.ndarray, x):
    A = np.column_stack([np.ones(4), tet])
    coeff = np.linalg.inv(A)
    lam = coeff.T @ np.concatenate([[1.0], x])
    return lam, coeff[1:].T
