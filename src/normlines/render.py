"""Deterministic figure output: SVG scenes and plain-text meshes.

Geometry is computed in floats but every emitted coordinate is formatted
to exactly six decimal digits, element order is fixed, and no timestamps
or environment data enter the output, so identical inputs produce
byte-identical files.  Each file carries a metadata comment with the
exact rational input so figures remain self-describing and machine
checkable.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import Matrix2, Matrix3, PrimitiveDirection, gram2, gram3
from .cone import (
    ConeKind,
    classify_cone,
    default_pivot,
    pivot_reduce,
    plane_integer_basis,
)

__all__ = [
    "fmt6",
    "ellipse_points",
    "ellipsoid_point",
    "render_scene2",
    "render_scene3",
]

_SVG_SIZE = 640


def fmt6(x: float) -> str:
    """Fixed six-decimal formatting (round half to even), no negative zero."""
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _matrix_meta(A: Union[Matrix2, Matrix3]) -> list[list[str]]:
    return [[_rat_str(v) for v in row] for row in A.rows()]


def _meta_comment(payload: dict, xml: bool) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(", ", ": "))
    if xml:
        return f"<!-- normlines {body} -->"
    return f"# normlines {body}"


def ellipse_points(A: Matrix2, samples: int = 256) -> list[tuple[float, float]]:
    """Sample points p on the locus |A p| = 1 (the image-of-circle ellipse).

    Each returned point satisfies |  |A p|^2 - 1 | <= 1e-9 before any
    output rounding.  Requires a nonsingular matrix and at least one sample.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if A.det() == 0:
        raise ValueError("nonsingular matrix required: the locus degenerates")
    g = gram2(A)
    m, n, p = float(g.m), float(g.n), float(g.p)
    pts = []
    for i in range(samples):
        th = 2.0 * math.pi * i / samples
        c, s = math.cos(th), math.sin(th)
        q = m * c * c + 2.0 * p * c * s + n * s * s
        r = 1.0 / math.sqrt(q)
        pts.append((r * c, r * s))
    return pts


def _line_segment(
    d: PrimitiveDirection, half_width: float
) -> tuple[float, float, float, float]:
    t = half_width / max(abs(c) for c in d)
    return (-t * d[0], -t * d[1], t * d[0], t * d[1])


def render_scene2(
    A: Matrix2,
    lines: Sequence[PrimitiveDirection] = (),
    half_width: float = 2.0,
    samples: int = 256,
) -> str:
    """An SVG picture of the unit circle, its image ellipse, and solution lines."""
    hw = float(half_width)
    meta = {
        "scene": "scene2",
        "matrix": _matrix_meta(A),
        "lines": [list(d.coords) for d in lines],
        "half_width": fmt6(hw),
        "samples": samples,
    }
    view = f"{fmt6(-hw)} {fmt6(-hw)} {fmt6(2 * hw)} {fmt6(2 * hw)}"
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_SIZE}" height="{_SVG_SIZE}" viewBox="{view}">',
        _meta_comment(meta, xml=True),
        f'<rect x="{fmt6(-hw)}" y="{fmt6(-hw)}" width="{fmt6(2 * hw)}" '
        f'height="{fmt6(2 * hw)}" fill="#ffffff"/>',
        '<g transform="scale(1,-1)" fill="none" stroke-linecap="round">',
        f'<path d="M {fmt6(-hw)} 0 L {fmt6(hw)} 0 M 0 {fmt6(-hw)} L 0 {fmt6(hw)}" '
        'stroke="#d0d0d0" stroke-width="0.008"/>',
        '<circle cx="0" cy="0" r="1" stroke="#1f77b4" stroke-width="0.015"/>',
    ]
    path = []
    for j, (x, y) in enumerate(ellipse_points(A, samples)):
        path.append(f"{'M' if j == 0 else 'L'} {fmt6(x)} {fmt6(y)}")
    parts.append(
        f'<path d="{" ".join(path)} Z" stroke="#d62728" stroke-width="0.015"/>'
    )
    for d in lines:
        x0, y0, x1, y1 = _line_segment(d, hw)
        parts.append(
            f'<path d="M {fmt6(x0)} {fmt6(y0)} L {fmt6(x1)} {fmt6(y1)}" '
            'stroke="#2ca02c" stroke-width="0.012"/>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- 3d scenes ----------------------------------------------------------


def _float_rows3(A: Matrix3) -> list[list[float]]:
    return [[float(v) for v in row] for row in A.rows()]


def _sphere_directions(nu: int, nv: int) -> list[tuple[float, float, float]]:
    """North pole, south pole, then interior rings top to bottom."""
    dirs = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    for j in range(1, nv):
        phi = math.pi * j / nv
        sp, cp = math.sin(phi), math.cos(phi)
        for i in range(nu):
            th = 2.0 * math.pi * i / nu
            dirs.append((sp * math.cos(th), sp * math.sin(th), cp))
    return dirs


def _sphere_faces(nu: int, nv: int, base: int) -> list[tuple[int, ...]]:
    """Faces of the UV sphere with 1-based indices starting at base+1."""

    def ring(j: int, i: int) -> int:
        return base + 3 + (j - 1) * nu + (i % nu)

    north, south = base + 1, base + 2
    faces: list[tuple[int, ...]] = []
    for i in range(nu):
        faces.append((north, ring(1, i), ring(1, i + 1)))
    for j in range(1, nv - 1):
        for i in range(nu):
            faces.append((ring(j, i), ring(j + 1, i), ring(j + 1, i + 1), ring(j, i + 1)))
    for i in range(nu):
        faces.append((south, ring(nv - 1, i + 1), ring(nv - 1, i)))
    return faces


def ellipsoid_point(
    Af: Sequence[Sequence[float]], d: tuple[float, float, float]
) -> tuple[float, float, float]:
    """The point p = d / |A d| on the locus |A p| = 1."""
    w = [sum(Af[i][k] * d[k] for k in range(3)) for i in range(3)]
    r = 1.0 / math.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    return (r * d[0], r * d[1], r * d[2])


def _cone_loops(
    A: Matrix3, theta_samples: int
) -> list[tuple[bool, list[tuple[float, float, float]]]]:
    """Unit directions tracing the cone, grouped into (closed, points) loops.

    The cone is sampled through its pivot reduction: directions with
    (u, w) = (cos t, sin t) in the non-pivot plane and the pivot
    coordinate given by the two quadratic branches.  When the reduced
    discriminant is nonnegative everywhere the plus branch alone sweeps
    every ruling once; otherwise each feasible arc contributes a closed
    loop (plus branch out, minus branch back) and antipodal duplicate
    arcs are dropped.
    """
    red = pivot_reduce(A, default_pivot(A))
    lin = (float(red.linear[0]), float(red.linear[1]))
    den = float(red.denominator)
    fa, fb, fc = (
        float(red.discriminant_form.cxx),
        float(red.discriminant_form.cxy),
        float(red.discriminant_form.cyy),
    )
    j, o = red.others
    k = red.pivot

    def direction(uu: float, ww: float, root: float, sign: float):
        v = [0.0, 0.0, 0.0]
        v[k] = lin[0] * uu + lin[1] * ww + sign * root / den
        v[j] = uu
        v[o] = ww
        m = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        return (v[0] / m, v[1] / m, v[2] / m)

    disc, pts_plus, pts_minus = [], [], []
    for i in range(theta_samples):
        th = 2.0 * math.pi * i / theta_samples
        uu, ww = math.cos(th), math.sin(th)
        dv = fa * uu * uu + fb * uu * ww + fc * ww * ww
        disc.append(dv)
        if dv >= 0.0:
            root = math.sqrt(dv)
            pts_plus.append(direction(uu, ww, root, 1.0))
            pts_minus.append(direction(uu, ww, root, -1.0))
        else:
            pts_plus.append(None)
            pts_minus.append(None)

    n = theta_samples
    if all(d >= 0.0 for d in disc):
        return [(True, pts_plus)]
    # collect circular arcs of feasible samples
    feasible = [d >= 0.0 for d in disc]
    arcs: list[list[int]] = []
    i = 0
    while i < n:
        if feasible[i] and (not feasible[i - 1]):
            arc = []
            t = i
            while feasible[t % n]:
                arc.append(t % n)
                t += 1
            arcs.append(arc)
            i = t if t > i else i + 1
        else:
            i += 1
    loops = []
    for arc in arcs:
        mid = arc[len(arc) // 2]
        angle = 2.0 * math.pi * mid / n
        if angle >= math.pi:  # antipodal twin of an arc already kept
            continue
        loop = [pts_plus[t] for t in arc] + [pts_minus[t] for t in reversed(arc)]
        loops.append((True, loop))
    return loops


def _box_scale(p: tuple[float, float, float], half_width: float) -> float:
    return half_width / max(abs(p[0]), abs(p[1]), abs(p[2]))


class _MeshWriter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.count = 0

    def comment(self, text: str) -> None:
        self.lines.append(f"# {text}" if text else "#")

    def raw(self, text: str) -> None:
        self.lines.append(text)

    def obj(self, name: str) -> None:
        self.lines.append(f"o {name}")

    def vertex(self, p: tuple[float, float, float]) -> int:
        self.lines.append(f"v {fmt6(p[0])} {fmt6(p[1])} {fmt6(p[2])}")
        self.count += 1
        return self.count

    def face(self, idx: tuple[int, ...]) -> None:
        self.lines.append("f " + " ".join(str(i) for i in idx))

    def polyline(self, idx: tuple[int, ...]) -> None:
        self.lines.append("l " + " ".join(str(i) for i in idx))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _projector():
    """A fixed orthographic camera: rotate, then drop the depth axis."""
    az, el = 0.58, 0.41
    ca, sa = math.cos(az), math.sin(az)
    ce, se = math.cos(el), math.sin(el)

    def project(p: tuple[float, float, float]) -> tuple[float, float]:
        x = ca * p[0] + sa * p[1]
        y = -sa * p[0] + ca * p[1]
        z = p[2]
        return (x, ce * z - se * y)

    return project


def render_scene3(
    A: Matrix3,
    include_cone: bool = False,
    density: tuple[int, int] = (64, 32),
    half_width: float = 2.0,
) -> tuple[str, str]:
    """Mesh text plus a companion SVG projection of the 3d scene.

    The mesh holds the unit sphere, the locus |A p| = 1, and optionally
    the solution cone: a ruled ribbon through the origin, or a disk when
    the solution set is a plane, or a line record when it is a single
    line.  Requires a nonsingular matrix.
    """
    if A.det() == 0:
        raise ValueError("nonsingular matrix required: the locus degenerates")
    nu, nv = density
    if nu < 3 or nv < 2:
        raise ValueError("density too small for a closed surface mesh")
    hw = float(half_width)
    cls = classify_cone(A)
    meta = {
        "scene": "scene3",
        "matrix": _matrix_meta(A),
        "include_cone": bool(include_cone),
        "density": [nu, nv],
        "half_width": fmt6(hw),
        "classification": cls.kind.value,
    }
    Af = _float_rows3(A)
    dirs = _sphere_directions(nu, nv)
    sphere_pts = dirs
    ellipsoid_pts = [ellipsoid_point(Af, d) for d in dirs]

    mesh = _MeshWriter()
    mesh.raw(_meta_comment(meta, xml=False))
    mesh.comment("objects: sphere, image ellipsoid"
                 + (", solution set" if include_cone else ""))
    mesh.obj("sphere")
    for p in sphere_pts:
        mesh.vertex(p)
    for f in _sphere_faces(nu, nv, 0):
        mesh.face(f)
    base = mesh.count
    mesh.obj("ellipsoid")
    for p in ellipsoid_pts:
        mesh.vertex(p)
    for f in _sphere_faces(nu, nv, base):
        mesh.face(f)

    cone_loops: list[tuple[bool, list[tuple[float, float, float]]]] = []
    disk: Optional[list[tuple[float, float, float]]] = None
    segment: Optional[list[tuple[float, float, float]]] = None
    if include_cone:
        if cls.kind in (ConeKind.IRREDUCIBLE_CONE, ConeKind.PLANE_PAIR):
            cone_loops = _cone_loops(A, 4 * nu)
            for closed, pts in cone_loops:
                mesh.obj("cone")
                top, bot = [], []
                for c in pts:
                    t = _box_scale(c, hw)
                    top.append(mesh.vertex((t * c[0], t * c[1], t * c[2])))
                    bot.append(mesh.vertex((-t * c[0], -t * c[1], -t * c[2])))
                m = len(pts)
                last = m if closed else m - 1
                for i in range(last):
                    a, b = i, (i + 1) % m
                    mesh.face((top[a], top[b], bot[b], bot[a]))
        elif cls.kind is ConeKind.DOUBLE_PLANE:
            b1, b2 = plane_integer_basis(cls)
            e1 = _unit([float(c) for c in b1])
            raw = [float(c) for c in b2]
            dot = sum(raw[i] * e1[i] for i in range(3))
            e2 = _unit([raw[i] - dot * e1[i] for i in range(3)])
            disk = []
            for i in range(4 * nu):
                th = 2.0 * math.pi * i / (4 * nu)
                c, s = math.cos(th), math.sin(th)
                disk.append(tuple(hw * (c * e1[k] + s * e2[k]) for k in range(3)))
            mesh.obj("solution_disk")
            center = mesh.vertex((0.0, 0.0, 0.0))
            rim = [mesh.vertex(p) for p in disk]
            m = len(rim)
            for i in range(m):
                mesh.face((center, rim[i], rim[(i + 1) % m]))
        elif cls.kind is ConeKind.SINGLE_LINE:
            c = [float(x) for x in cls.line]
            t = hw / max(abs(v) for v in c)
            segment = [tuple(t * v for v in c), tuple(-t * v for v in c)]
            mesh.obj("solution_line")
            i1 = mesh.vertex(segment[0])
            i2 = mesh.vertex(segment[1])
            mesh.polyline((i1, i2))
        else:
            mesh.comment(f"solution set: {cls.kind.value}; no surface emitted")

    svg = _scene3_svg(meta, sphere_pts, ellipsoid_pts, cone_loops, disk, segment, nu, nv, hw)
    return mesh.text(), svg


def _unit(v: list[float]) -> list[float]:
    m = math.sqrt(sum(x * x for x in v))
    return [x / m for x in v]


def _scene3_svg(meta, sphere_pts, ellipsoid_pts, cone_loops, disk, segment, nu, nv, hw):
    project = _projector()
    scale = 1.9 * hw  # projected view half-width

    def poly(points, color, width) -> str:
        coords = " ".join(
            f"{fmt6(px)},{fmt6(py)}" for px, py in (project(p) for p in points)
        )
        return (
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>'
        )

    def grid_polylines(pts, color, width) -> list[str]:
        out = []
        rings = nv - 1

        def at(j: int, i: int):
            return pts[2 + (j - 1) * nu + (i % nu)]

        for j in range(1, rings + 1, max(1, nv // 8)):
            ring = [at(j, i) for i in range(nu)] + [at(j, 0)]
            out.append(poly(ring, color, width))
        for i in range(0, nu, max(1, nu // 12)):
            mer = [pts[0]] + [at(j, i) for j in range(1, rings + 1)] + [pts[1]]
            out.append(poly(mer, color, width))
        return out

    view = f"{fmt6(-scale)} {fmt6(-scale)} {fmt6(2 * scale)} {fmt6(2 * scale)}"
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_SIZE}" height="{_SVG_SIZE}" viewBox="{view}">',
        _meta_comment(meta, xml=True),
        f'<rect x="{fmt6(-scale)}" y="{fmt6(-scale)}" width="{fmt6(2 * scale)}" '
        f'height="{fmt6(2 * scale)}" fill="#ffffff"/>',
        '<g transform="scale(1,-1)">',
    ]
    parts.extend(grid_polylines(sphere_pts, "#9ecae1", "0.012"))
    parts.extend(grid_polylines(ellipsoid_pts, "#d62728", "0.012"))
    for closed, pts in cone_loops:
        rim_top, rim_bot = [], []
        for c in pts:
            t = _box_scale(c, hw)
            rim_top.append((t * c[0], t * c[1], t * c[2]))
            rim_bot.append((-t * c[0], -t * c[1], -t * c[2]))
        if closed:
            rim_top.append(rim_top[0])
            rim_bot.append(rim_bot[0])
        parts.append(poly(rim_top, "#2ca02c", "0.015"))
        parts.append(poly(rim_bot, "#2ca02c", "0.015"))
        step = max(1, len(pts) // 16)
        for i in range(0, len(pts), step):
            t = _box_scale(pts[i], hw)
            parts.append(
                poly(
                    [
                        (t * pts[i][0], t * pts[i][1], t * pts[i][2]),
                        (-t * pts[i][0], -t * pts[i][1], -t * pts[i][2]),
                    ],
                    "#2ca02c",
                    "0.008",
                )
            )
    if disk is not None:
        parts.append(poly(disk + [disk[0]], "#2ca02c", "0.015"))
        step = max(1, len(disk) // 8)
        for i in range(0, len(disk), step):
            parts.append(poly([(0.0, 0.0, 0.0), disk[i]], "#2ca02c", "0.008"))
    if segment is not None:
        parts.append(poly(segment, "#2ca02c", "0.02"))
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
