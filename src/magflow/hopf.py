"""Quaternionic double cover of the unit sphere bundle and linking checks.

Identify R^4 with the quaternions (basis 1, i, j, k) and R^3 with the
imaginary span. Conjugation C_U(V) = U^-1 V U by a unit quaternion U
rotates the imaginary span, and

    p0(U) = (U^-1 i U, U^-1 j U)

sends the 3-sphere onto the bundle of oriented orthonormal 2-frames of
R^3, which is the unit sphere bundle of the round 2-sphere: the first
component is the base point, the second the unit tangent vector. p0 is a
2-to-1 cover with deck transformation U -> -U.

The contact form on the bundle at (u1, u2) is psi0(Z) = <Z_v, u1 x u2>,
pairing the tangent's vector part with the complementary frame vector.
Its pullback satisfies p0* psi0 = -2 lambda_st with lambda_st(W) =
<i U, W> the standard contact form of S^3; pullback_residual verifies the
identity at random samples with exact differentials.

The remaining tools work with closed polylines on S^3: whether two of
them come within LINK_GAP of each other, segment to segment, linking
numbers counted from the signed crossings of one planar projection after
stereographic projection, the even-linking property of antipodal pairs,
and continuous lifting of frame paths through p0, which detects whether a
closed path upstairs closes after one or two traversals. Linking numbers
are signed: S^3 is oriented as the boundary of the unit ball of H = C^2
(basis 1, i, j, k; z1 + z2 j is (z1, z2)), polylines by their point order,
and two fibers of the diagonal action U -> e^{is} U link +1.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

QI = np.array([0.0, 1.0, 0.0, 0.0])
QJ = np.array([0.0, 0.0, 1.0, 0.0])
UNIT_TOL = 1e-12
HESSIAN_STEP = 1e-4     # central-difference step of hessian_convexity
LIFT_CLOSE_TOL = 1e-6   # |U_end -+ U_0| below which a lift closes


# -- quaternion algebra ----------------------------------------------------------


def _dot(p, q):
    return np.einsum("...k,...k->...", p, q)


def quat_mul(a, b):
    """Hamilton product; broadcasts over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw], axis=-1)


def quat_conj(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_norm(q):
    return np.linalg.norm(np.asarray(q, dtype=float), axis=-1)


def imag_part(q):
    return np.asarray(q, dtype=float)[..., 1:]


def _require_unit(U, what: str = "quaternion"):
    n = quat_norm(U)
    if np.any(np.abs(n - 1.0) > UNIT_TOL):
        raise ValueError(f"{what} not unit: |norm - 1| = "
                         f"{float(np.max(np.abs(n - 1.0))):.3g}")


def rotation_matrix(U) -> np.ndarray:
    """R with U v U^-1 = R v on imaginary v, for a unit quaternion U."""
    _require_unit(U)
    w, x, y, z = np.asarray(U, dtype=float)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def quat_from_rotation(B) -> np.ndarray:
    """One of the two unit quaternions U with rotation_matrix(U) = B.

    Accepts (..., 3, 3). K = 4 U U^T is linear in B (K00 = 1 + tr B, K0v =
    axial(B - B^T), Kvv = B + B^T + (1 - tr B) I), and its row with the
    largest diagonal entry, normalized, is a stable U for every rotation.
    The overall sign is arbitrary and handled by callers.
    """
    B = np.asarray(B, dtype=float)
    tr = np.trace(B, axis1=-2, axis2=-1)[..., None, None]
    K = np.empty(B.shape[:-2] + (4, 4))
    K[..., :1, :1] = 1.0 + tr
    K[..., 1:, 1:] = B + np.swapaxes(B, -2, -1) + (1.0 - tr) * np.eye(3)
    K[..., 0, 1:] = K[..., 1:, 0] = (B[..., [2, 0, 1], [1, 2, 0]]
                                     - B[..., [1, 2, 0], [2, 0, 1]])
    row = np.argmax(np.diagonal(K, axis1=-2, axis2=-1), axis=-1)
    q = np.take_along_axis(K, row[..., None, None], axis=-2)[..., 0, :]
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


# -- the double cover ------------------------------------------------------------


def p0(U):
    """Frame pair (U^-1 i U, U^-1 j U); satisfies p0(U) = p0(-U) exactly.
    Like dp0, psi0 and lambda_st, it takes one U or a stack (n, 4)."""
    _require_unit(U, "cover point")
    Uc = quat_conj(U)
    return (quat_mul(Uc, quat_mul(QI, U)), quat_mul(Uc, quat_mul(QJ, U)))


def dp0(U, W):
    """Exact differential of p0 at U applied to a tangent W.

    Uses d(U^-1) = -U^-1 (dU) U^-1; W must satisfy <U, W> = 0 (in every
    row, for stacked inputs).
    """
    U = np.asarray(U, dtype=float)
    W = np.asarray(W, dtype=float)
    _require_unit(U, "cover point")
    if np.any(np.abs(_dot(U, W)) > 1e-9 * np.maximum(1.0, quat_norm(W))):
        raise ValueError("W is not tangent to the 3-sphere at U")
    Uc = quat_conj(U)
    out = []
    for q in (QI, QJ):
        qU = quat_mul(q, U)
        term1 = -quat_mul(Uc, quat_mul(W, quat_mul(Uc, qU)))
        term2 = quat_mul(Uc, quat_mul(q, W))
        out.append(term1 + term2)
    return tuple(out)


def psi0(point, Z):
    """Contact form at point = (u1, u2) on the tangent pair Z = (z1, z2)."""
    u1, u2 = (imag_part(c) for c in point)
    return _dot(imag_part(Z[1]), np.cross(u1, u2))


def lambda_st(U, W):
    """Standard contact form of S^3: <i U, W> in the flat metric."""
    return _dot(quat_mul(QI, U), np.asarray(W, dtype=float))


def pullback_residual(n_samples: int, seed: int = 0) -> float:
    """Max residual of the cover pullback identity at random samples.

    Draws unit quaternions U and tangents W (8 normals per sample) and
    evaluates |psi0(dp0(U, W)) + 2 lambda_st(U, W)|, which vanishes.
    """
    UW = np.random.default_rng(seed).normal(size=(int(n_samples), 8))
    U = UW[:, :4] / np.linalg.norm(UW[:, :4], axis=1)[:, None]
    W = UW[:, 4:] - _dot(UW[:, 4:], U)[:, None] * U
    res = np.abs(psi0(p0(U), dp0(U, W)) + 2.0 * lambda_st(U, W))
    return float(np.max(res, initial=0.0))


# -- star-shaped hypersurfaces ---------------------------------------------------


def star_embed(rho, z):
    """Scale points of S^3 onto the hypersurface {Q_rho = 1}."""
    z = np.asarray(z, dtype=float)
    r = np.asarray(rho(z), dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("rho must be positive")
    return np.sqrt(r)[..., None] * z if z.ndim > 1 else float(np.sqrt(r)) * z


def q_rho(rho, z) -> float:
    """Defining Hamiltonian Q(z) = |z|^2 / rho(z / |z|)."""
    z = np.asarray(z, dtype=float)
    n2 = float(np.dot(z, z))
    if n2 == 0.0:
        raise ValueError("Q_rho undefined at the origin")
    r = float(rho(z / np.sqrt(n2)))
    if r <= 0.0:
        raise ValueError("rho must be positive")
    return n2 / r


@dataclass(frozen=True)
class HessianScan:
    min_eigenvalue: float


def hessian_convexity(rho, n_samples: int, seed: int = 0) -> HessianScan:
    """Minimal eigenvalue of the Hessian of Q_rho over surface samples.

    Points are sampled on {Q_rho = 1}; the 4x4 Hessian is built by central
    second differences with step HESSIAN_STEP. Positive definiteness
    everywhere is the convexity criterion for the star-shaped hypersurface.
    """
    rng = np.random.default_rng(seed)
    best = np.inf
    fd_h = HESSIAN_STEP
    eye = np.eye(4)
    for _ in range(int(n_samples)):
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        z = star_embed(rho, u)
        H = np.empty((4, 4))
        q0 = q_rho(rho, z)
        for a in range(4):
            ea = fd_h * eye[a]
            H[a, a] = (q_rho(rho, z + ea) - 2.0 * q0
                       + q_rho(rho, z - ea)) / fd_h**2
            for b in range(a + 1, 4):
                eb = fd_h * eye[b]
                H[a, b] = H[b, a] = (
                    q_rho(rho, z + ea + eb) - q_rho(rho, z + ea - eb)
                    - q_rho(rho, z - ea + eb) + q_rho(rho, z - ea - eb)
                ) / (4.0 * fd_h**2)
        best = min(best, float(np.linalg.eigvalsh(H)[0]))
    return HessianScan(min_eigenvalue=best)


# -- knots on the 3-sphere -------------------------------------------------------

LINK_GAP = 1e-3      # polygons this close are too close to be linked
_ROWS = 64           # rows per block of _near_pairs and _choose_pole


@dataclass(frozen=True)
class KnotPolyline:
    """Closed polyline of unit quaternions; first point equals the last."""
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 4 or pts.shape[0] < 4:
            raise ValueError("need an (n, 4) array with n >= 4")
        bad = np.flatnonzero(~(np.abs(quat_norm(pts) - 1.0) <= 1e-9))
        if bad.size:    # a comparison that nan fails
            raise ValueError(f"point {bad[0]} is not a finite unit vector")
        if np.linalg.norm(pts[0] - pts[-1]) > 1e-9:
            raise ValueError("polyline must close: first point != last")
        chord = np.max(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        if chord >= 0.1:
            raise ValueError(f"consecutive chord {chord:.3g} >= 0.1; "
                             f"resample the curve more densely")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0] - 1

    def antipode(self) -> "KnotPolyline":
        return KnotPolyline(-self.points)

    def gap(self, other: "KnotPolyline") -> float:
        """Distance between the two polygons in R^4, segment to segment,
        when it is at most LINK_GAP, and inf otherwise. Two segments are
        at least as far apart as their midpoints less their half chords,
        so _near_pairs at LINK_GAP holds every pair within it, a block of
        rows at a time: on knots about equidistant, such as a torus knot
        and its antipode, every segment has dozens of candidates."""
        P, Q = self.points, other.points
        u, v = np.diff(P, axis=0), np.diff(Q, axis=0)
        least = min((float(np.min(_segment_distance(P[i], u[i], Q[j], v[j])))
                     for i, j in _near_pairs(P, Q, LINK_GAP) if i.size),
                    default=np.inf)
        return least if least <= LINK_GAP else np.inf


def _near_pairs(P, Q, gap: float):
    """Index pairs (i, j) of segments of the polygons P and Q with
    midpoints within gap plus the two longest half chords (and roundoff),
    _ROWS rows of P a block, each scanning the window of Q's midpoints on
    the axis of widest spread (docs/decisions.md, entry 23)."""
    u, v = np.diff(P, axis=0), np.diff(Q, axis=0)
    X, Y = P[:-1] + 0.5 * u, Q[:-1] + 0.5 * v
    r = (gap + 0.5 * (np.max(np.linalg.norm(u, axis=1))
                      + np.max(np.linalg.norm(v, axis=1)))) * (1.0 + 1e-12)
    k = int(np.argmax(np.ptp(np.vstack([X, Y]), axis=0)))
    order = np.argsort(Y[:, k], kind="stable")
    Xt, Yt = X.T, Y[order].T
    lo = np.searchsorted(Yt[k], Xt[k] - r)
    n = np.searchsorted(Yt[k], Xt[k] + r, side="right") - lo
    for s in range(0, len(X), _ROWS):
        i = np.repeat(np.arange(len(X))[s:s + _ROWS], n[s:s + _ROWS])
        j = lo[i] + np.arange(len(i)) - np.searchsorted(i, i)
        near = sum((x[i] - y[j]) ** 2 for x, y in zip(Xt, Yt)) <= r * r
        yield i[near], order[j[near]]


def _segment_distance(a, u, c, v):
    """Distance between the segments a + s u and c + t v, s, t in [0, 1],
    row by row: the closest pair of the two lines, clamped to the
    segments (Ericson, Real-Time Collision Detection, 5.1.9)."""
    w = a - c
    tiny = np.finfo(float).tiny       # a zero chord is a point
    uu, vv = np.maximum(_dot(u, u), tiny), np.maximum(_dot(v, v), tiny)
    uv, uw, vw = _dot(u, v), _dot(u, w), _dot(v, w)
    den = uu * vv - uv * uv
    s = np.clip(np.divide(uv * vw - vv * uw, den, out=np.zeros_like(den),
                          where=den > 1e-14 * uu * vv), 0.0, 1.0)
    t = (uv * s + vw) / vv
    s = np.where(t < 0.0, np.clip(-uw / uu, 0.0, 1.0),
                 np.where(t > 1.0, np.clip((uv - uw) / uu, 0.0, 1.0), s))
    t = np.clip(t, 0.0, 1.0)
    return quat_norm(w + s[:, None] * u - t[:, None] * v)


def knot_from_samples(samples, n: int) -> KnotPolyline:
    """Close a curve given by S^3 samples and resample it to n segments.

    Resampling is by chord arclength with linear interpolation followed by
    reprojection to the sphere, so the output satisfies the polyline
    density invariant if n is large enough.
    """
    pts = np.asarray(samples, dtype=float)
    if np.linalg.norm(pts[0] - pts[-1]) > 1e-6:
        pts = np.vstack([pts, pts[0]])
    else:
        pts = pts.copy()
        pts[-1] = pts[0]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    grid = np.linspace(0.0, arc[-1], n + 1)
    out = np.empty((n + 1, 4))
    for c in range(4):
        out[:, c] = np.interp(grid, arc, pts[:, c])
    out /= np.linalg.norm(out, axis=1)[:, None]
    out[-1] = out[0]
    return KnotPolyline(out)


# -- Gauss linking ---------------------------------------------------------------

_POLE_SEED = 1905


@functools.cache
def _viewing_frame() -> np.ndarray:
    """Columns e1, e2, d of a right-handed orthonormal frame, drawn once
    from _POLE_SEED: polygons are projected along d onto (e1, e2). Drawn
    on first use, so that importing the package does not load
    numpy.random."""
    d, g = np.random.default_rng(_POLE_SEED).normal(size=(2, 3))
    d /= np.linalg.norm(d)
    e1 = g - np.dot(g, d) * d
    e1 /= np.linalg.norm(e1)
    frame = np.stack([e1, np.cross(d, e1), d], axis=1)
    frame.flags.writeable = False
    return frame


def _choose_pole(points: np.ndarray) -> np.ndarray:
    """The farthest from every input point of 512 seeded points of S^3: the
    one whose largest dot product with them is least."""
    cands = np.random.default_rng(_POLE_SEED).normal(size=(512, 4))
    cands /= np.linalg.norm(cands, axis=1)[:, None]
    near = np.max([np.max(points[lo:lo + _ROWS] @ cands.T, axis=0)
                   for lo in range(0, len(points), _ROWS)], axis=0)
    return cands[int(np.argmin(near))]


def _stereographic(points: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """Project S^3 minus the pole to R^3 keeping the orientation of S^3 as
    the boundary of the unit ball of H (basis 1, i, j, k). p -> conj(p) pole
    reverses it and sends the pole to 1; stereographic projection from 1,
    q -> Im q / (1 - Re q), reverses it again (docs/decisions.md, entry 22)."""
    q = quat_mul(quat_conj(points), pole)
    return q[:, 1:] / (1.0 - q[:, :1])


def _cross2(p, q):
    return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]


def _gauss_double_sum(X: np.ndarray, Y: np.ndarray) -> float:
    """Linking number of two disjoint closed polygons in R^3, counted from
    the signed crossings of their projection along the d of
    _viewing_frame (Rolfsen, Knots and Links, 5.D; docs/decisions.md,
    entry 9).

    A crossing of segments a + s u of X and c + t v of Y has the sign of
    u x v in the plane; the heights interpolated at s and t say which
    passes over. The signed count where X passes over must be minus the
    one where Y does. Segments only cross if their midpoints are within
    half the sum of the longest chords, which _near_pairs at gap 0 finds. An
    orientation within 64 eps scale^2 of zero, a height gap within its
    roundoff margin or two counts that disagree raise RuntimeError.
    """
    frame = _viewing_frame()
    P, Q = X @ frame, Y @ frame           # plane coordinates, then height
    u, v = np.diff(P, axis=0), np.diff(Q, axis=0)
    i, j = map(np.concatenate, zip(*_near_pairs(P[:, :2], Q[:, :2], 0.0)))
    a, u, c, v = P[i], u[i], Q[j], v[j]
    scale = max(np.max(np.abs(P)), np.max(np.abs(Q)))
    roundoff = 64.0 * np.finfo(float).eps * scale
    o1, o2 = _cross2(u, c - a), _cross2(u, c + v - a)   # Y's ends about X
    o3, o4 = _cross2(v, a - c), _cross2(v, a + u - c)   # X's ends about Y
    sure = np.abs(np.stack([o1, o2, o3, o4])) > roundoff * scale
    apart = ((sure[0] & sure[1] & (o1 * o2 > 0.0))
             | (sure[2] & sure[3] & (o3 * o4 > 0.0)))
    if not np.all(apart | np.all(sure, axis=0)):
        raise RuntimeError("degenerate projection: a vertex within roundoff "
                           "of a projected segment of the other polygon")
    cross = ~apart
    o1, o2, o3, o4 = o1[cross], o2[cross], o3[cross], o4[cross]
    u, v, w = u[cross], v[cross], (a - c)[cross]
    s, t = o3 / (o3 - o4), o1 / (o1 - o2)      # the crossing on X, on Y
    gap = w[:, 2] + s * u[:, 2] - t * v[:, 2]  # height of X above Y there
    # s and t carry the orientations' roundoff over o3 - o4 and o1 - o2
    margin = roundoff * (1.0 + scale * (np.abs(u[:, 2] / (o3 - o4))
                                        + np.abs(v[:, 2] / (o1 - o2))))
    if np.any(np.abs(gap) <= margin):
        raise RuntimeError("degenerate projection: two polygons at the same "
                           "height over a crossing")
    sign = np.sign(_cross2(u, v))
    over, under = np.sum(sign[gap > 0.0]), np.sum(sign[gap < 0.0])
    if over != -under:
        raise RuntimeError(f"crossing counts disagree: {over:g} with X over "
                           f"Y, {under:g} with Y over X")
    return float(over)


def _linking_number(k1: KnotPolyline, k2: KnotPolyline) -> int:
    """Linking number of two knots already known to be apart: the signed
    crossing count of their stereographic images, an integer by
    construction, so any other value is a fault. Its sign follows
    gauss_linking's orientation convention, whatever the pole."""
    pole = _choose_pole(np.vstack([k1.points[:-1], k2.points[:-1]]))
    raw = _gauss_double_sum(_stereographic(k1.points, pole),
                            _stereographic(k2.points, pole))
    lk = round(raw)
    if raw != lk:
        raise RuntimeError(f"crossing count {raw!r} is not an integer")
    return lk


def gauss_linking(k1: KnotPolyline, k2: KnotPolyline) -> int:
    """Linking number of two knots more than LINK_GAP apart, segment to
    segment.

    The knots are projected stereographically from a pole far from both,
    and the signed crossings of one planar projection of the two polygons
    are counted, with two counts that must agree. A degenerate projection
    raises RuntimeError instead of being guessed around. S^3 is oriented
    as the boundary of the unit ball of H = C^2 (basis 1, i, j, k), knots
    by their point order: fibers of U -> e^{is} U link +1.
    """
    gap = k1.gap(k2)
    if gap <= LINK_GAP:
        limit = np.format_float_scientific(LINK_GAP, trim="-", exp_digits=1)
        raise ValueError(f"knots too close for linking: min distance "
                         f"{gap:.3g} <= {limit}")
    return _linking_number(k1, k2)


@dataclass(frozen=True)
class AntipodalLinkReport:
    disjoint: bool
    lk: int | None
    even: bool | None


def antipodal_link_parity(k: KnotPolyline) -> AntipodalLinkReport:
    """Linking of a knot with its pointwise antipode, plus the parity bit.

    Curves meeting their own antipode (Hopf fibers do: e^{i pi} U = -U)
    are reported as not disjoint and carry no linking number. Signs are
    gauss_linking's: s -> (0.6 e^{2is}, 0.8 e^{is}) links its antipode +2.
    """
    a = k.antipode()
    if k.gap(a) <= LINK_GAP:
        return AntipodalLinkReport(disjoint=False, lk=None, even=None)
    lk = _linking_number(k, a)
    return AntipodalLinkReport(disjoint=True, lk=lk, even=(lk % 2 == 0))


# -- lifting frame paths ---------------------------------------------------------


@dataclass(frozen=True)
class LiftResult:
    U: np.ndarray                 # (n, 4) lifted path
    max_residual: float           # sup |p0(U_k) - frame_k|
    closed_after_one: bool | None  # None when the input path is not closed
    min_step_alignment: float


def lift_path(x: np.ndarray, v: np.ndarray) -> LiftResult:
    """Continuous lift of a frame path (x_k, v_k) through the double cover.

    Each orthonormal frame determines the rotation B = [x | v | x x v] =
    R(U^-1), recovering U up to sign; the sheet is fixed by aligning each
    quaternion with its predecessor. For a closed input path the lift
    either closes after one traversal or returns to the antipode (then two
    traversals close it), which is the parity detected here.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 2 or x.shape[1] != 3:
        raise ValueError("need matching (n, 3) arrays")
    bad = np.flatnonzero(~(np.abs(np.sum(x * v, axis=1)) <= 1e-6))
    if bad.size:        # a comparison that nan fails
        raise ValueError(f"frame {bad[0]} is not a finite orthogonal pair")
    step = np.max(np.linalg.norm(np.diff(x, axis=0), axis=1)
                  + np.linalg.norm(np.diff(v, axis=0), axis=1))
    if step >= 0.1:
        raise ValueError(f"frame path too coarse: max step {step:.3g}")
    B = np.stack([x, v, np.cross(x, v)], axis=-1)
    U = quat_conj(quat_from_rotation(B))
    align = _dot(U[1:], U[:-1])
    bad = np.flatnonzero(np.abs(align) < 0.7)
    if bad.size:
        raise RuntimeError(f"lift continuation ambiguous at sample "
                           f"{bad[0] + 1}: alignment {abs(align[bad[0]]):.3f}")
    U[1:] *= np.cumprod(np.sign(align))[:, None]
    min_align = float(np.min(np.abs(align), initial=1.0))
    idx = [0, len(U) // 3, 2 * len(U) // 3, len(U) - 1]
    a, b = p0(U[idx])
    res = max(float(np.max(np.abs(imag_part(a) - x[idx]))),
              float(np.max(np.abs(imag_part(b) - v[idx]))))
    closed = None
    if (np.linalg.norm(x[0] - x[-1]) < 1e-9
            and np.linalg.norm(v[0] - v[-1]) < 1e-9):
        closed = bool(np.linalg.norm(U[-1] - U[0]) < LIFT_CLOSE_TOL)
        if not closed and np.linalg.norm(U[-1] + U[0]) >= LIFT_CLOSE_TOL:
            raise RuntimeError("closed frame path lifted to a non-closed, "
                               "non-antipodal endpoint")
    return LiftResult(U=U, max_residual=res, closed_after_one=closed,
                      min_step_alignment=min_align)


# -- round-sphere embedding helpers ----------------------------------------------


def sphere_frames(t, phi, theta):
    """Embed unit-bundle coordinates of the round sphere into frame pairs.

    x is the surface point, v the unit tangent at angle phi from the
    meridian direction; both as 3-vectors with the north pole at t = 0.
    """
    t = np.asarray(t, dtype=float)
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    st, ct = np.sin(t), np.cos(t)
    sth, cth = np.sin(theta), np.cos(theta)
    x = np.stack([st * cth, st * sth, ct], axis=-1)
    e_t = np.stack([ct * cth, ct * sth, -st], axis=-1)
    e_th = np.stack([-sth, cth, np.zeros_like(sth)], axis=-1)
    v = np.cos(phi)[..., None] * e_t + np.sin(phi)[..., None] * e_th
    return x, v
