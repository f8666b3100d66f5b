"""Sibson (natural-neighbor) coordinates and dual Whitney forms in 2D.

Each dual polygon is one `SibsonCell`: its corners are its Sibson sites.
Coordinates are exact and come from one batch kernel.  Site regions come
from one batched Sutherland-Hodgman pass (`_site_regions`) over every site
of every polygon it is given: the dual-inverse star and a dual field each
build the regions of the polygons they evaluate in one
`DualInterpolation.build_regions` call, and only a cell used on its own
builds its own on first use.  The region of an inserted point is one
half-plane clip of each site region, vectorized over query points.  The
same pass measures the bisector chord that bounds each overlap and
returns, by Sibson's vector identity (Sibson 1980; Piper 1993), the exact
gradient of the overlap area; a caller that wants coordinates alone
(`coords_batch`) gets an area-only pass that skips the chord terms.  On
the cell boundary the coordinates take the Milbradt-Pick limit, from the
same nearest-side projection that measures the boundary distance.

Query points stay on the contiguous axis from the clip kernel to the Gram
matrix, so each numpy call runs over a whole batch at once.  The kernel
works on (region sides, points) arrays.  Areas are stored (sites, points)
and area gradients (sites, 2, points), each site's row written
contiguously; the quotient rule works on those rows in place, and the dual
edge forms are (forms, 2, points).  The public batch methods and
`edge_forms` return their documented (points, ...) shapes as transposed
views of that storage, with no copy.  `DualInterpolation.forms`, which the
dual-inverse star integrates, and the Table 1 block take the views back to
points last for free; `DualInterpolation.interpolate` transposes its field
values once.  Every sum over region sides or over sites adds one row at a
time in order (`_row_sum`), so a point's coordinates and gradients are the
same bits in any batch, a batch of one included.

Dual Whitney forms attach interpolants to dual mesh cells: normalized
characteristic functions to the dual polygons of primal vertices,
antisymmetric gradient pairs to dual edges and Sibson coordinates to dual
vertices.  `DualInterpolation.forms` evaluates all of them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import Error
from .mesh import DualMesh, SimplicialComplex, vertex_ring
from .whitney import locate_cell


# ---------------------------------------------------------------------------
# polygon primitives (2D)


def _next_corners(a: np.ndarray) -> np.ndarray:
    """`a` moved up one place along axis 0, its first entry last: the corner
    after each corner of a loop."""
    return np.concatenate((a[1:], a[:1]))


def polygon_area(loop: np.ndarray) -> float:
    loop = np.asarray(loop, dtype=float)
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * float(np.dot(x, _next_corners(y))
                       - np.dot(y, _next_corners(x)))


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of `terms` over its first axis (region sides or sites), the rows
    added in order.

    `np.sum(axis=0)` adds a batch of one point pairwise and a larger batch
    row by row, so a point's bits would depend on its batch.  In order from
    zero, every point gets the bits of a batch of one, which are also those
    of `np.sum` over fewer than eight rows along a contiguous axis."""
    total = np.zeros(terms.shape[1:])
    for row in terms:
        total += row
    return total


def _bisector_clip(region: np.ndarray, site: np.ndarray, px: np.ndarray,
                   py: np.ndarray, chord: bool = True):
    """Clip `region` to the part nearer each query point than `site`.

    `region` is a counter-clockwise loop of m corners, closed: its first
    corner is repeated as row m, as `_site_regions` builds it.  `px`, `py`
    are the coordinates of a batch of q points, each a contiguous 1-D
    array.  For every point x this is one pass over the loop's edges
    against the bisector half-plane {y : |y - x| <= |y - site|}, returning
    the clipped area and the x and y components of its gradient with
    respect to x.

    An edge contributes the inside fraction of its shoelace term.  The
    gradient is Sibson's identity: the integral of (y - x) over the chord F
    (the bisector inside `region`) divided by |site - x|.  With c = (x +
    site) / 2 the bisector midpoint, (y - x) = (y - c) + (site - x) / 2, so
    the integral is F's first moment about c plus half its length L times
    (site - x).  L and the moment are signed sums over the edges that cross
    the bisector (+1 where the loop leaves the half-plane, -1 where it
    enters), so a chord with several pieces on a non-convex region is
    counted piece by piece.  Edges are taken relative to c, where the chord
    adds nothing to the shoelace sum.  With `chord=False` the pass measures
    the area alone and returns None for the gradient.

    Work arrays are (m + 1, q), (m, q) or (q,): the query points lie along
    the contiguous axis and the sums over sides run in order (`_row_sum`).
    Each full-size array is written in place once it is made, with the
    operations of the plain formulas in their order, so the bits are
    theirs; the outside flags are floats (0 or 1) from the start.
    """
    cx, cy = region[:, :1], region[:, 1:]
    nx, ny = site[0] - px, site[1] - py
    nrm = np.sqrt(nx ** 2 + ny ** 2)
    nrm[nrm == 0.0] = 1.0
    hx, hy = nx / nrm, ny / nrm
    rx = cx - 0.5 * (px + site[0])
    ry = cy - 0.5 * (py + site[1])
    d = rx * hx
    d += ry * hy
    outf = (d > 0).astype(float)
    sign = outf[1:] - outf[:-1]  # +1 where the loop leaves, -1 enters
    da = d[:-1]
    den = da - d[1:]
    den[sign == 0.0] = 1.0
    t = np.divide(da, den, out=den)
    inside = 1.0 - outf[:-1]
    inside -= sign * (1.0 - t)
    cross = rx[:-1] * ry[1:]
    cross -= ry[:-1] * rx[1:]
    cross *= inside
    area = 0.5 * _row_sum(cross)
    if not chord:
        return area, None, None
    s = rx * hy  # coordinate along the bisector
    s -= ry * hx
    sa = s[:-1]
    crossing = s[1:] - sa
    crossing *= t
    crossing += sa
    signed = np.multiply(sign, crossing, out=sign)
    half = 0.5 * _row_sum(signed)  # L / 2
    crossing *= signed
    along = 0.5 * _row_sum(crossing)  # the moment, along F
    return (area, (along * hy + half * nx) / nrm,
            (along * -hx + half * ny) / nrm)


# ---------------------------------------------------------------------------
# site regions


REGION_CHUNK = 1 << 11  # site regions per batched clip pass
# two sites of a polygon coincide within this share of its extent
COINCIDENT_SITES = 1e-8


def _padded(loops: list):
    """The loops as one zero-padded (len(loops), longest, 2) array, and the
    length of each."""
    counts = np.array([len(loop) for loop in loops], dtype=int)
    out = np.zeros((len(loops), counts.max(initial=0), 2))
    for row, loop in zip(out, loops):
        row[:len(loop)] = loop
    return out, counts


def _clip_step(corners: np.ndarray, count: np.ndarray, point: np.ndarray,
               normal: np.ndarray):
    """One Sutherland-Hodgman step on a batch of padded loops: row r, its
    first count[r] corners, keeps {y : (y - point[r]) . normal[r] <= 0}.

    Returns the clipped loops, padded, and their corner counts.  Each corner
    a passes on itself if it is inside and then, if its side a -> b crosses
    the line, the crossing a + t (b - a), t = d_a / (d_a - d_b); the kept
    points are packed in that order.  The signed distances d come from one
    stacked matrix product, which gives each row of two or more corners the
    bits of `(loop - point) @ normal` over that row's loop alone, padding
    included."""
    d = np.matmul(corners - point[:, None], normal[:, :, None])[..., 0]
    index = np.arange(corners.shape[1])
    valid = index < count[:, None]
    after = np.where(index + 1 < count[:, None], index + 1, 0)
    ahead = np.take_along_axis(corners, after[..., None], axis=1)
    d_ahead = np.take_along_axis(d, after, axis=1)
    inside = d <= 0
    crosses = (inside != (d_ahead <= 0)) & valid
    with np.errstate(divide="ignore", invalid="ignore"):
        t = d / (d - d_ahead)  # read only where the side crosses
        crossing = corners + t[..., None] * (ahead - corners)
    points = np.stack([corners, crossing], axis=2).reshape(len(corners),
                                                           -1, 2)
    kept = np.stack([inside & valid, crosses], axis=2).reshape(len(corners),
                                                               -1)
    count = kept.sum(axis=1)
    out = np.zeros((len(corners), count.max(initial=0), 2))
    rows, cols = np.nonzero(kept)
    out[rows, np.cumsum(kept, axis=1)[rows, cols] - 1] = points[rows, cols]
    return out, count


def _site_regions(pairs: list) -> list:
    """For each (loop, domain) pair, the Voronoi region of each site of
    `loop` clipped to `domain`, as a list; None for a region with fewer than
    three corners, which has no area.  Each region is a closed loop, its
    first corner repeated last, as `_bisector_clip` takes it.

    Every region of every pair comes from one batched Sutherland-Hodgman
    pass (Sutherland & Hodgman 1974): one row per site, starting from its
    pair's domain, and one `_clip_step` per site index j against the
    bisector of the row's site and site j.  A row skips step j when its pair
    has no site j, when site j coincides with the row's site (its own site
    included), or when its region has fewer than two corners left, which no
    clip can turn into an area.  Two sites coincide when each coordinate
    differs by at most `COINCIDENT_SITES` of the extent of the pair's
    sites, a test that neither translation nor scaling moves.  Rows go
    `REGION_CHUNK` at a time, which bounds the temporaries; a row's result
    does not depend on its chunk.
    """
    sites, n_sites = _padded([loop for loop, _ in pairs])
    tol = COINCIDENT_SITES * np.array([np.ptp(loop, axis=0).max()
                                       for loop, _ in pairs])
    domains, n_corners = _padded([domain for _, domain in pairs])
    first = np.cumsum(n_sites) - n_sites  # each pair's first row
    pair = np.repeat(np.arange(len(pairs)), n_sites)
    own = np.arange(len(pair)) - first[pair]  # the row's site in its pair
    flat, counts = [], []
    for lo in range(0, len(pair), REGION_CHUNK):
        p = pair[lo:lo + REGION_CHUNK]  # the pair of each row of the chunk
        width = n_sites[p].max()
        others = sites[p, :width]
        site = others[np.arange(len(p)), own[lo:lo + REGION_CHUNK]]
        skip = np.abs(site[:, None] - others).max(axis=2) <= tol[p, None]
        skip |= np.arange(width) >= n_sites[p, None]
        corners = domains[p, :n_corners[p].max()]
        count = n_corners[p]
        for j in range(width):
            act = np.nonzero(~skip[:, j] & (count >= 2))[0]
            if len(act) == 0:
                continue
            # the bisector of the row's site and site j: its midpoint and
            # the normal from the site to site j
            other = others[act, j]
            clipped, kept = _clip_step(corners[act, :count[act].max()],
                                       count[act], 0.5 * (site[act] + other),
                                       other - site[act])
            count[act] = kept
            grow = clipped.shape[1] - corners.shape[1]
            if grow > 0:
                corners = np.pad(corners, ((0, 0), (0, grow), (0, 0)))
            corners[act, :clipped.shape[1]] = clipped
        # close each loop: its first corner again after its last
        corners = np.pad(corners, ((0, 0), (0, 1), (0, 0)))
        corners[np.arange(len(count)), count] = corners[:, 0]
        flat.append(corners[np.arange(corners.shape[1]) <= count[:, None]])
        counts.append(count + 1)
    flat = np.concatenate(flat)
    ends = np.cumsum(np.concatenate(counts)).tolist()
    regions = [flat[a:b] if b - a >= 4 else None
               for a, b in zip([0] + ends[:-1], ends)]
    return [regions[f:f + n] for f, n in zip(first, n_sites)]


# ---------------------------------------------------------------------------
# Sibson coordinates


# query points per pass of `_bisector_clip`: a pass's (sides, points) work
# arrays stay in cache, and its temporaries add little to the peak RSS
CLIP_CHUNK = 1 << 12


def _clip_regions(regions: list, sites: np.ndarray, pts: np.ndarray,
                  gradients: bool):
    """Overlap areas (n, q) of the inserted region of each point with each
    site region, and with `gradients` their gradients (n, 2, q), else None;
    see `SibsonCell._site_clips`.

    Points are clipped `CLIP_CHUNK` at a time, which bounds the temporaries;
    each point's result does not depend on its chunk.
    """
    areas = np.zeros((len(sites), len(pts)))
    grads = np.zeros((len(sites), 2, len(pts))) if gradients else None
    for lo in range(0, len(pts), CLIP_CHUNK):
        chunk = slice(lo, lo + CLIP_CHUNK)
        qx, qy = np.ascontiguousarray(pts[chunk].T)
        for i, region in enumerate(regions):
            if region is None:
                continue
            area, gx, gy = _bisector_clip(region, sites[i], qx, qy,
                                          chord=gradients)
            np.maximum(area, 0.0, out=areas[i, chunk])
            if gradients:
                grads[i, 0, chunk] = gx
                grads[i, 1, chunk] = gy
    return areas, grads


class SibsonCell:
    """One polygonal cell of the dual mesh and the Sibson coordinates of its
    corners, which are its sites.

    `vertices` is the boundary loop, turned counter-clockwise, and `measure`
    its area.  The caller picks one of two variants of the area ratios.
    `restricted=True` intersects every Voronoi region with the cell itself,
    which keeps the construction meaningful on non-convex cells.
    `restricted=False` uses the classical unrestricted Voronoi diagram of
    the sites, which is the variant with exact linear precision.  Site
    regions are built on first use, unless `DualInterpolation.build_regions`
    built them first, so a cell that is only located or measured builds
    none.
    """

    def __init__(self, loop, restricted: bool):
        loop = np.asarray(loop, dtype=float)
        area = polygon_area(loop)
        if area < 0:
            # measured again: the reversed shoelace sum can differ from the
            # negated one in its last bit
            loop = loop[::-1]
            area = polygon_area(loop)
        self.vertices = loop
        self.measure = abs(area)
        self.restricted = restricted
        self._box_cache = {}

    @property
    def n_sites(self) -> int:
        return len(self.vertices)

    @cached_property
    def diameter(self) -> float:
        v = self.vertices
        return float(np.linalg.norm(v[:, None] - v[None], axis=2).max())

    def side_crossings(self, y: np.ndarray):
        """Where each side of the loop (from corner i to corner i + 1) meets
        the horizontal line at each height of the 1-D array `y`: the x of
        the meeting point and whether the side straddles the line, two
        (m, len(y)) arrays, one row per side.  The x is read only where the
        side straddles."""
        ax, ay = self.vertices[:, :1], self.vertices[:, 1:]
        b = _next_corners(self.vertices)
        bx, by = b[:, :1], b[:, 1:]
        straddles = (ay > y) != (by > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ax + (y - ay) * (bx - ax) / (by - ay)
        return xint, straddles

    def contains(self, pts) -> np.ndarray:
        """Even-odd crossing test of a (q, 2) batch of points: a point is
        inside when an odd number of sides meet its horizontal line right
        of it (`side_crossings`); (m, q) work arrays."""
        x, y = np.ascontiguousarray(np.atleast_2d(pts).T, dtype=float)
        xint, straddles = self.side_crossings(y)
        return (straddles & (x < xint)).sum(axis=0) % 2 == 1

    def _nearest_sides(self, pts: np.ndarray):
        """For each point of a (q, 2) batch, the side i (from corner i to
        corner i + 1) nearest to it, the parameter t in [0, 1] of its
        projection on that side, and its distance to the boundary."""
        pts = pts[:, None, :]
        v = self.vertices
        d = _next_corners(v) - v
        t = np.clip(np.sum((pts - v) * d, axis=2)
                    / np.einsum("id,id->i", d, d), 0.0, 1.0)
        proj = v + t[..., None] * d
        dist = np.linalg.norm(proj - pts, axis=2)
        side = dist.argmin(axis=1)
        rows = np.arange(len(side))
        return side, t[rows, side], dist[rows, side]

    def boundary_distance(self, x):
        """Distance from x to the cell boundary; an array for a (q, 2) batch
        of points, a float for one point."""
        x = np.asarray(x, dtype=float)
        dist = self._nearest_sides(np.atleast_2d(x))[2]
        return float(dist[0]) if x.ndim == 1 else dist

    @cached_property
    def regions(self) -> list:
        """Site regions clipped to the cell, closed loops as `_site_regions`
        builds them: the restricted variant's.
        `DualInterpolation.build_regions` fills this for many cells at
        once."""
        return _site_regions([(self.vertices, self.vertices)])[0]

    def _boxed_regions(self, key: int):
        """Site regions clipped to a bounding box of half-width
        diam * (2**key + 1) about the site centroid, cached by key."""
        if key not in self._box_cache:
            half = self.diameter * 2.0 ** key + self.diameter
            box = self.vertices.mean(axis=0) + half * np.array(
                [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
            self._box_cache[key] = _site_regions([(self.vertices, box)])[0]
        return self._box_cache[key]

    def _site_clips(self, pts: np.ndarray, gradients: bool):
        """Overlap areas A_i = |D(x) cap C_i| (n, q) at a batch of points
        and, with `gradients`, their exact gradients (n, 2, q) (else None).

        Sibson's identity gives grad A_i = integral over F_i of (y - x) ds
        divided by |v_i - x|, where F_i is the part of the x-v_i bisector
        inside the site region C_i.  Site regions do not move with x, so the
        identity holds for the restricted and the classical variant alike.
        """
        if self.restricted:
            return _clip_regions(self.regions, self.vertices, pts, gradients)
        # the inserted region of a point at distance d from the site hull
        # can reach roughly diam^2 / (2 d) beyond it; each point is clipped
        # in the smallest cached box that covers its own reach, so a point's
        # result does not depend on the rest of its batch
        diam = self.diameter
        margin = np.maximum(self.boundary_distance(pts), 1e-9 * diam)
        keys = np.ceil(np.log2(diam / (2.0 * margin) + 1.0)).astype(int)
        areas = np.zeros((self.n_sites, len(pts)))
        grads = np.zeros((self.n_sites, 2, len(pts))) if gradients else None
        for key in np.unique(keys):
            sel = keys == key
            areas[:, sel], key_grads = _clip_regions(
                self._boxed_regions(int(key)), self.vertices, pts[sel],
                gradients)
            if gradients:
                grads[..., sel] = key_grads
        return areas, grads

    def coords_batch(self, pts: np.ndarray) -> np.ndarray:
        """Sibson coordinates (q, n) for a batch of points inside the cell:
        the overlap areas of `_site_clips` over their sum, a transposed view
        of (n, q) storage."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        areas, _ = self._site_clips(pts, gradients=False)
        areas /= _row_sum(areas)
        return areas.T

    def limit_coords(self, pts, with_gradients: bool = False):
        """Coordinates (q, n) at a batch of points of the closed cell: the
        batch kernel, with the Milbradt-Pick limit at points within 1e-12
        diam of the boundary.  There a point's coordinates are 1 at a site
        within 1e-12 diam of it, else 1 - t and t at the two ends of its
        nearest side, t being its projection's parameter along that side
        (`_nearest_sides`).  The sites are corners of the boundary, so a
        point near a site is near the boundary too.

        With `with_gradients`, also the kernel's gradients (q, n, 2) at every
        point, boundary points included.  Both are transposed views of
        points-last storage, as from the batch methods.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        side, t, dist = self._nearest_sides(pts)
        tol = 1e-12 * self.diameter
        edge = dist <= tol
        if with_gradients:
            coords, grads = self.coords_and_gradients_batch(pts)
            coords = coords.T  # the (n, q) storage
        else:
            coords = np.empty((self.n_sites, len(pts)))
            if not edge.all():
                coords[:, ~edge] = self.coords_batch(pts[~edge]).T
        cols = np.nonzero(edge)[0]
        near = np.linalg.norm(self.vertices - pts[cols, None], axis=2)
        at_site = near.min(axis=1) <= tol
        coords[:, cols] = 0.0
        coords[near[at_site].argmin(axis=1), cols[at_site]] = 1.0
        cols = cols[~at_site]
        coords[side[cols], cols] = 1.0 - t[cols]
        coords[(side[cols] + 1) % self.n_sites, cols] = t[cols]
        return (coords.T, grads) if with_gradients else coords.T

    def coords_and_gradients_batch(self, pts: np.ndarray):
        """Coordinates (q, n) and gradients (q, n, 2) at a batch of points,
        transposed views of (n, q) and (n, 2, q) storage.

        One clip pass per site gives each overlap area A_i and its exact
        gradient (`_site_clips`); the quotient rule on lambda_i = A_i / sum A
        then gives grad lambda_i = (grad A_i - lambda_i sum_j grad A_j)
        / sum_j A_j, one site's rows at a time, in place.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        # the areas and their gradients, turned into coordinates in place
        coords, grads = self._site_clips(pts, gradients=True)
        total = _row_sum(coords)
        coords /= total
        grad_total = _row_sum(grads)
        for grad, lam in zip(grads, coords):
            grad -= lam * grad_total
            grad /= total
        return coords.T, grads.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# dual Whitney forms


# the degree of the primal simplex whose center a `vertex_ring` tag names
_TAG_DEGREE = {"v": 0, "m": 1, "c": 2}


def _self_intersects(loop: np.ndarray) -> bool:
    """Whether two sides of a closed loop cross properly, each one's ends
    strictly on opposite sides of the other's line.  Sides that only touch,
    such as neighbours at their shared corner or collinear sides that meet,
    do not count."""
    a, b = loop, _next_corners(loop)
    d = b - a

    def side(p):  # side[i, j]: sign of point p[j] against the line of side i
        r = p[None, :, :] - a[:, None, :]
        return np.sign(d[:, None, 0] * r[..., 1] - d[:, None, 1] * r[..., 0])

    straddles = side(a) * side(b) < 0  # side j's ends straddle line i
    return bool(np.any(straddles & straddles.T))


def edge_forms(lam: np.ndarray, grads: np.ndarray, ia, ib) -> np.ndarray:
    """Dual edge forms lambda_a grad lambda_b - lambda_b grad lambda_a,
    (G, q, 2), from the coordinates (q, n) and gradients (q, n, 2) at a
    batch of points and the site indices a = ia[g], b = ib[g] of each form.

    The forms are a transposed view of (G, 2, q) storage, built one form at
    a time from the (n, q) and (n, 2, q) storage that the batch methods'
    views transpose back to."""
    lam, grads = lam.T, grads.transpose(1, 2, 0)
    forms = np.empty((len(ia), 2, lam.shape[1]))
    for form, a, b in zip(forms, ia, ib):
        np.multiply(lam[a], grads[b], out=form)
        form -= lam[b] * grads[a]
    return forms.transpose(0, 2, 1)


class DualInterpolation:
    """Dual-mesh interpolation structure for a 2D complex.

    Each primal vertex owns a flat-sided dual polygon whose corners are the
    centers of the incident triangles; at the boundary the polygon closes
    through the adjacent boundary-edge midpoints and the vertex itself.  The
    corners come from one `vertex_ring` walk per vertex, whose tags name
    dual vertices in `dual.centers`.  These polygons partition the domain,
    and restricted Sibson coordinates on them are the building blocks of the
    dual Whitney forms.

    Raises `Error` when a polygon intersects itself (two of its sides
    cross properly), which a strongly non-convex vertex neighbourhood can
    cause: no interpolant on such a polygon is defined.
    """

    def __init__(self, complex: SimplicialComplex, dual: DualMesh):
        if complex.dim != 2:
            raise Error("dual interpolation machinery is 2D")
        self.complex = complex
        self.cells = []  # restricted SibsonCell per primal vertex
        self.site_lookup = []  # per vertex: tag -> local index, loop order
        boundary = complex.boundary_simplices(1)
        for v in range(len(complex.vertices)):
            # sites are the ring's triangle centers, boundary-edge midpoints
            # and boundary vertex; interior-edge midpoints are not sites
            ring = [(kind, j) for kind, j in vertex_ring(complex, v)
                    if kind != "m" or boundary[j]]
            loop = np.array([dual.centers[_TAG_DEGREE[kind]][j]
                             for kind, j in ring])
            if _self_intersects(loop):
                raise Error(f"dual polygon of vertex {v} intersects itself")
            cell = SibsonCell(loop, restricted=True)
            if cell.vertices is not loop:  # turned counter-clockwise
                ring = ring[::-1]
            self.cells.append(cell)
            self.site_lookup.append({tag: i for i, tag in enumerate(ring)})

    def build_regions(self, vertices) -> None:
        """Build the site regions of the polygons of `vertices` that have
        none yet in one batched pass (`_site_regions`), the same regions each
        cell would build on its own first use; no pass when none is left."""
        todo = [self.cells[v] for v in vertices
                if "regions" not in vars(self.cells[v])]
        if todo:
            pairs = [(cell.vertices, cell.vertices) for cell in todo]
            for cell, regions in zip(todo, _site_regions(pairs)):
                cell.regions = regions  # the `cached_property` value

    def edge_endpoint_tags(self, e: int):
        """Ordered site-tag pair of the dual edge of primal edge e."""
        tris = self.complex.cofaces(1, e)
        if len(tris) == 2:
            return ("c", int(tris[0])), ("c", int(tris[1]))
        return ("c", int(tris[0])), ("m", e)

    def locate(self, pts) -> np.ndarray:
        """Owner polygon of each point of a (q, 2) batch; -1 outside the mesh.

        The owner is the first polygon in vertex order whose even-odd test
        claims the point; a bounding-box test picks the points to test.
        Only unclaimed points are located among the triangles: outside
        every triangle, they are outside the mesh; inside one, on the mesh
        boundary, they go to its vertex polygon with the nearest boundary,
        where the Milbradt-Pick limit evaluates them.
        """
        owner = np.full(len(pts), -1)
        for v, cell in enumerate(self.cells):
            box = np.all((pts >= cell.vertices.min(axis=0))
                         & (pts <= cell.vertices.max(axis=0)), axis=1)
            sel = np.nonzero((owner == -1) & box)[0]
            owner[sel[cell.contains(pts[sel])]] = v
        left = np.nonzero(owner == -1)[0]
        tri = locate_cell(self.complex, pts[left])
        for i, t in zip(left[tri >= 0], tri[tri >= 0]):
            verts = self.complex.simplices[2][t]
            gaps = [self.cells[v].boundary_distance(pts[i]) for v in verts]
            owner[i] = verts[int(np.argmin(gaps))]
        return owner

    def forms(self, v: int, p: int, pts, limit: bool = False):
        """The dual forms of primal p-simplices supported on the polygon of
        vertex v, at a (q, 2) batch of points inside it.

        Returns the generators (G,) and the values with the points last,
        (G, q) for p = 0 and 2 and (G, 2, q) for p = 1:

        - p = 0: the polygon's indicator over its area, generator v;
        - p = 2: the Sibson coordinate of each triangle-center site;
        - p = 1: the edge form of each incident edge (`edge_forms`) over the
          sites at the ends of its dual edge.

        With `limit`, coordinates at points on the polygon boundary take the
        Milbradt-Pick limit (`SibsonCell.limit_coords`).
        """
        if p == 0:
            return np.array([v]), np.full((1, len(pts)),
                                          1.0 / self.cells[v].measure)
        sc = self.cells[v]
        lookup = self.site_lookup[v]
        if p == 2:
            gens = [g for kind, g in lookup if kind == "c"]
            lam = sc.limit_coords(pts) if limit else sc.coords_batch(pts)
            return np.array(gens), lam.T[[lookup["c", g] for g in gens]]
        lam, grads = (sc.limit_coords(pts, with_gradients=True) if limit
                      else sc.coords_and_gradients_batch(pts))
        # both ends of the dual edge of an edge at v are sites of v's
        # polygon: its triangles' centers, or a boundary edge's midpoint
        gens = self.complex.cofaces(0, v)
        ia, ib = np.array([[lookup[t] for t in self.edge_endpoint_tags(e)]
                           for e in gens.tolist()], dtype=int).T
        return gens, edge_forms(lam, grads, ia, ib).transpose(0, 2, 1)

    def interpolate(self, dual_degree: int, cochain):
        """Interpolant of a dual k-cochain over the dual cell mesh.

        The cochain is indexed like the primal (n - k)-simplices whose dual
        cells carry the degrees of freedom.  The field takes one point or a
        (q, 2) batch, and is NaN at points outside the mesh.  For p >= 1 it
        builds the site regions of its points' polygons in one pass.
        """
        if not 0 <= dual_degree <= 2:
            raise Error(f"dual degree {dual_degree} out of range 0..2")
        p = self.complex.dim - dual_degree
        weights = np.asarray(cochain, dtype=float)
        expected = len(self.complex.simplices[p])
        if weights.shape != (expected,):
            raise Error(f"dual cochain has length {len(weights)}, expected "
                        f"{expected}")

        def field(x):
            x = np.asarray(x, dtype=float)
            pts = np.atleast_2d(x)
            owner = self.locate(pts)
            owners = np.unique(owner[owner >= 0])
            if p >= 1:
                self.build_regions(owners)
            out = np.full((len(pts), 2) if p == 1 else len(pts), np.nan)
            for v in owners:
                sel = owner == v
                gens, vals = self.forms(v, p, pts[sel], limit=True)
                total = np.zeros(vals.shape[1:])
                for g, val in zip(gens, vals):
                    total += weights[g] * val
                out[sel] = total.T
            return out[0] if x.ndim == 1 else out

        return field
