"""Independent oracles and output checks for the billiardbook benchmark.

Nothing in this module imports billiardbook. Every expected value is
recomputed from a closed form, an analytic rule or a property the method must
have, never from a stored copy of earlier output, so each check can fail when
the program is wrong. The checks read plain values: dataclass instances
returned by the library are read through their attributes, and files written
by the CLI are parsed with the stdlib ``csv``, ``json`` and ``xml`` modules.

Closed forms (``w = sqrt(-k)``, ``rho0`` the inner radius squared): the
radius obeys ``rho(tau) = alpha*cosh(2*w*tau) + gamma`` with
``alpha = sqrt(h^2 - k f^2)/w^2`` and ``gamma = -h/w^2``, so one radial period
and its angular advance are

    T_r  = arccosh((1 - gamma)/alpha) / w
    dphi = 2 * atan(f * tanh(w*T_r/2) / (w*rho0))

with ``dphi = +-pi`` on the diameter orbits ``f = 0, h > 0``.
"""

from __future__ import annotations

import csv
import io
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

#: conservation of H and F at every wall hit, and of the CSV h/f columns
CONSERVATION_TOL = 1e-9
#: |r^2 - 1| at a wall hit
WALL_TOL = 1e-9
#: r^2 of a state that is not a wall hit may exceed 1 by at most this
OUTSIDE_TOL = 1e-12
#: per-hit duration and angle advance against the closed forms
PER_HIT_TOL = 1e-8
#: a quadrature-based period sample against the closed forms
SAMPLE_TOL = 1e-9
#: simulated against quadrature periods
SIMULATED_TOL = 1e-6
#: |delta_theta/(2 pi) - n| for a loop around (0, 0)
WINDING_TOL = 0.05
#: Richardson-extrapolated center limit against n*pi
CENTER_TOL = 0.01
#: SVG coordinates carry 6 decimals
SVG_RADIUS_MAX = 1.0 + 1e-5
#: fiber classification tolerance in (h, f), the documented analytic rule
FIBER_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program contradicts an independent oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# closed forms


def energy(k: float, x: float, y: float, vx: float, vy: float) -> float:
    return 0.5 * (vx * vx + vy * vy) + 0.5 * k * (x * x + y * y)


def angular_momentum(x: float, y: float, vx: float, vy: float) -> float:
    return x * vy - y * vx


def inner_rho(k: float, h: float, f: float) -> float:
    """Smaller root rho0 = r0^2 of -k rho^2 + 2 h rho - f^2 (cancellation-free)."""
    root = math.sqrt(h * h - k * f * f)
    if h > 0.0:
        return f * f / (root + h)
    return (root - h) / (-k)


def period_advance(k: float, h: float, f: float, sign: float = 1.0) -> tuple[float, float]:
    """Closed-form (T_r, dphi) at a regular value; ``sign`` orients f = 0, h > 0."""
    w = math.sqrt(-k)
    alpha = math.sqrt(h * h - k * f * f) / (w * w)
    gamma = -h / (w * w)
    t_r = math.acosh((1.0 - gamma) / alpha) / w
    if f == 0.0 and h > 0.0:
        return t_r, math.copysign(math.pi, sign)
    return t_r, 2.0 * math.atan(f * math.tanh(w * t_r / 2.0) / (w * inner_rho(k, h, f)))


def diameter_period(k: float, h: float) -> float:
    """Wall-to-wall time of the radial orbit through the center (f = 0, h > 0).

    r(t) = (v0/w) sinh(w t) from the center with v0 = sqrt(2h) reaches r = 1
    after asinh(w/v0)/w, and the orbit crosses the disk twice that.
    """
    w = math.sqrt(-k)
    return 2.0 * math.asinh(w / math.sqrt(2.0 * h)) / w


def wrap_angle(a: float) -> float:
    """Representative of a in [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def fiber_tag(k: float, h: float, f: float, tol: float = FIBER_TOL) -> str:
    """Analytic fiber rule: image h >= (f^2+k)/2, critical set = parabola + (0,0)."""
    d = h - (f * f + k) / 2.0
    if d < -tol:
        return "outside-image"
    if max(abs(h), abs(f)) <= tol:
        return "pinched-torus"
    if abs(d) <= tol:
        return "atom-A-circle"
    return "regular-torus"


# ---------------------------------------------------------------------------
# in-process results


def check_orbit(k, sheets, start, segments, max_reflections=None, max_time=None) -> int:
    """Check one simulate() result; returns the number of reflections.

    Conservation and the wall residual |r^2 - 1| <= WALL_TOL at every hit, no
    other state outside r^2 <= 1 + OUTSIDE_TOL, continuity and cyclic sheet
    order across reflections, the stop condition, and from the second segment
    on the closed-form period and advance.
    """
    require(len(segments) > 0, "simulate returned no segment")
    h0 = energy(k, start.x, start.y, start.vx, start.vy)
    f0 = angular_momentum(start.x, start.y, start.vx, start.vy)
    t_r, dphi = period_advance(k, h0, f0)
    reflected = sum(1 for seg in segments if seg.reflected)
    if max_reflections is not None:
        require(
            len(segments) == max_reflections and reflected == max_reflections,
            f"asked for {max_reflections} reflections, got {reflected} in {len(segments)} segments",
        )
    else:
        total = math.fsum(seg.duration for seg in segments)
        require(
            abs(total - max_time) <= CONSERVATION_TOL * max(1.0, max_time),
            f"durations sum to {total!r}, max_time is {max_time!r}",
        )
        require(
            reflected == len(segments) - 1 and not segments[-1].reflected,
            "a time-stopped run must end on its only unreflected segment",
        )
    require(start == segments[0].start, "first segment does not start at the initial state")
    require(start.x**2 + start.y**2 <= 1.0 + OUTSIDE_TOL, "initial state outside the disk")
    prev_end = None
    for i, seg in enumerate(segments):
        s, e = seg.start, seg.end
        if prev_end is not None:
            require(
                (s.x, s.y) == (prev_end.x, prev_end.y),
                f"segment {i} does not start where segment {i - 1} hit the wall",
            )
            require(
                s.sheet == prev_end.sheet % sheets + 1,
                f"segment {i} is on sheet {s.sheet} after sheet {prev_end.sheet}",
            )
            h = energy(k, s.x, s.y, s.vx, s.vy)
            f = angular_momentum(s.x, s.y, s.vx, s.vy)
            require(
                abs(h - h0) <= CONSERVATION_TOL and abs(f - f0) <= CONSERVATION_TOL,
                f"H/F after reflection {i} drift by {h - h0:.3e}/{f - f0:.3e}",
            )
        require(e.sheet == s.sheet, f"segment {i} changes sheet between walls")
        # r^2(t) is convex along a free-flow arc, so its ends bound every sample
        r2 = e.x * e.x + e.y * e.y
        if not seg.reflected:
            require(r2 <= 1.0 + OUTSIDE_TOL, f"segment {i} ends outside: r^2 - 1 = {r2 - 1:.3e}")
        else:
            require(abs(r2 - 1.0) <= WALL_TOL, f"hit {i} off the wall: r^2 - 1 = {r2 - 1:.3e}")
            h = energy(k, e.x, e.y, e.vx, e.vy)
            f = angular_momentum(e.x, e.y, e.vx, e.vy)
            require(
                abs(h - h0) <= CONSERVATION_TOL and abs(f - f0) <= CONSERVATION_TOL,
                f"H/F at hit {i} drift by {h - h0:.3e}/{f - f0:.3e}",
            )
            if i > 0:
                require(
                    abs(seg.duration - t_r) <= PER_HIT_TOL,
                    f"segment {i} lasts {seg.duration!r}, closed-form T_r is {t_r!r}",
                )
                advance = math.atan2(e.y, e.x) - math.atan2(s.y, s.x)
                require(
                    abs(wrap_angle(advance - dphi)) <= PER_HIT_TOL,
                    f"hit {i} advances {advance!r}, closed-form dphi is {dphi!r}",
                )
        prev_end = e
    return reflected


def check_period_sample(k, sheets, sample, tol: float = SAMPLE_TOL) -> None:
    t_r, dphi = period_advance(k, sample.h, sample.f, sign=sample.dphi)
    require(
        abs(sample.T_r - t_r) <= tol and abs(sample.dphi - dphi) <= tol,
        f"sample at ({sample.h!r}, {sample.f!r}): (T_r, dphi) = ({sample.T_r!r}, "
        f"{sample.dphi!r}), closed form ({t_r!r}, {dphi!r})",
    )
    require(
        abs(sample.theta - sheets * sample.dphi) <= tol,
        f"sample at ({sample.h!r}, {sample.f!r}): theta is not n*dphi",
    )


def check_monodromy(k, sheets, report, labels_neg, labels_pos) -> None:
    """m == n, the matrix, labels, winding, and every sample against the closed forms."""
    n = sheets
    require(report.m == n, f"measured m = {report.m}, sheet count is {n}")
    require(
        report.monodromy_matrix == ((1, 0), (n, 1)),
        f"monodromy matrix {report.monodromy_matrix} is not [[1,0],[{n},1]]",
    )
    winding = report.delta_theta / (2.0 * math.pi)
    require(abs(winding - n) < WINDING_TOL, f"delta_theta/2pi = {winding!r}, expected {n}")
    gain = report.theta_unwrapped[-1] - report.theta_unwrapped[0]
    require(abs(gain / (2.0 * math.pi) - n) < WINDING_TOL, f"theta gains {gain!r} over the loop")
    require(labels_pos.r_hpos == Fraction(1, n) % 1, f"r(h>0) = {labels_pos.r_hpos}")
    require(labels_pos.epsilon == 1 and labels_pos.derived_from_m == n, "h>0 label not from m")
    require(labels_neg.r_hneg == math.inf and labels_neg.epsilon == 1, "h<0 label is not (inf, 1)")
    require(len(report.samples) == len(report.theta_unwrapped), "samples and theta differ")
    for sample, theta in zip(report.samples, report.theta_unwrapped):
        check_period_sample(k, n, sample)
        require(
            abs(wrap_angle(theta - sample.theta)) <= SAMPLE_TOL,
            f"unwrapped theta {theta!r} is not the sample's theta mod 2pi",
        )


def check_simulated_period(k, sheets, quad, sim) -> None:
    check_period_sample(k, sheets, quad)
    check_period_sample(k, sheets, sim, tol=SIMULATED_TOL)
    require(
        abs(quad.T_r - sim.T_r) <= SIMULATED_TOL and abs(quad.dphi - sim.dphi) <= SIMULATED_TOL,
        f"simulated and quadrature periods differ at ({quad.h!r}, {quad.f!r})",
    )


def check_center_limit(sheets, limit: float) -> None:
    require(
        abs(limit - sheets * math.pi) < CENTER_TOL,
        f"center limit {limit!r} is not n*pi = {sheets * math.pi!r}",
    )


# ---------------------------------------------------------------------------
# CLI files and stdout


def _header(text: str, kind: str) -> tuple[dict, str]:
    first, _, body = text.partition("\n")
    words = first.split()
    require(words[:3] == ["#", "billiardbook", kind], f"bad {kind} header {first!r}")
    return dict(w.split("=", 1) for w in words[3:]), body


def check_trajectory_csv(
    text: str, k: float, sheets: int, samples: int, reflections=None, max_time=None
) -> int:
    """Check a trajectory CSV; returns its segment count.

    Rows at the wall (the last row of a reflected segment and the first row
    of the next) are held to |r^2 - 1| <= WALL_TOL, as check_orbit holds hits;
    every other row, the start and a time-cut end included, to
    r^2 <= 1 + OUTSIDE_TOL.
    """
    meta, body = _header(text, "trajectory")
    require(float(meta["k"]) == k and int(meta["n"]) == sheets, f"header says {meta}")
    rows = list(csv.DictReader(io.StringIO(body)))
    require(len(rows) > 0, "empty trajectory CSV")
    last_seg = int(rows[-1]["segment"])
    h0, f0 = float(rows[0]["h"]), float(rows[0]["f"])
    for j, row in enumerate(rows):
        x, y, vx, vy = (float(row[c]) for c in ("x", "y", "vx", "vy"))
        h, f = float(row["h"]), float(row["f"])
        require(
            abs(h - h0) <= CONSERVATION_TOL and abs(f - f0) <= CONSERVATION_TOL,
            f"row {j}: (h, f) = ({h!r}, {f!r}) differs from the first row",
        )
        require(
            abs(h - energy(k, x, y, vx, vy)) <= CONSERVATION_TOL
            and abs(f - angular_momentum(x, y, vx, vy)) <= CONSERVATION_TOL,
            f"row {j}: h/f columns disagree with the state columns",
        )
        seg, pos = divmod(j, samples + 1)
        r2 = x * x + y * y
        hit_end = pos == samples and not (max_time is not None and seg == last_seg)
        if hit_end or (pos == 0 and seg > 0):
            require(abs(r2 - 1.0) <= WALL_TOL, f"row {j} off the wall: r^2 - 1 = {r2 - 1:.3e}")
        else:
            require(r2 <= 1.0 + OUTSIDE_TOL, f"row {j} lies outside: r^2 - 1 = {r2 - 1:.3e}")
        require(int(row["segment"]) == seg, f"row {j} belongs to segment {row['segment']}")
        require(
            int(row["sheet"]) == (int(rows[0]["sheet"]) - 1 + seg) % sheets + 1,
            f"row {j}: sheet {row['sheet']} breaks the cyclic order",
        )
    segments = int(rows[-1]["segment"]) + 1
    require(len(rows) == segments * (samples + 1), f"{len(rows)} rows for {segments} segments")
    if reflections is not None:
        require(segments == reflections, f"{segments} segments for {reflections} reflections")
    if max_time is not None:
        t_end = float(rows[-1]["t"])
        require(abs(t_end - max_time) <= CONSERVATION_TOL * max_time, f"run ends at t = {t_end!r}")
    return segments


def check_diagram_csv(text: str, k: float, resolution: int, f_min: float, f_max: float) -> None:
    meta, body = _header(text, "diagram")
    require(float(meta["k"]) == k, f"diagram header says k = {meta['k']}")
    rows = list(csv.DictReader(io.StringIO(body)))
    flagged = [r for r in rows if r["singular_point"] == "1"]
    curve = [r for r in rows if r["singular_point"] == "0"]
    require(len(flagged) == 1, f"{len(flagged)} flagged rows, expected exactly one")
    require(
        float(flagged[0]["f"]) == 0.0 and float(flagged[0]["h_parabola"]) == 0.0,
        "the flagged row is not (0, 0)",
    )
    require(len(curve) == resolution and len(rows) == resolution + 1, f"{len(rows)} diagram rows")
    fs = [float(r["f"]) for r in curve]
    require(
        abs(fs[0] - f_min) <= 1e-12 and abs(fs[-1] - f_max) <= 1e-12,
        "diagram does not span the f range",
    )
    require(all(a < b for a, b in zip(fs, fs[1:])), "diagram f values are not increasing")
    for r in curve:
        f, h = float(r["f"]), float(r["h_parabola"])
        require(abs(h - (f * f + k) / 2.0) <= 1e-12, f"({h!r}, {f!r}) is off the parabola")


def check_classification_csv(text: str, k: float, sheets: int, resolution: int) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    require(len(rows) == resolution * resolution, f"{len(rows)} grid rows")
    pinched = 0
    for row in rows:
        h, f = float(row["h"]), float(row["f"])
        tag = fiber_tag(k, h, f)
        require(row["tag"] == tag, f"({h!r}, {f!r}) tagged {row['tag']}, rule gives {tag}")
        expected_pinches = str(sheets) if tag == "pinched-torus" else ""
        require(row["pinches"] == expected_pinches, f"({h!r}, {f!r}) pinches {row['pinches']!r}")
        pinched += tag == "pinched-torus"
    require(pinched == 1, f"{pinched} grid values at the singular value, expected one")


def check_classify_single(doc: dict, k: float, sheets: int, h: float, f: float) -> None:
    tag = fiber_tag(k, h, f)
    require((doc["h"], doc["f"]) == (h, f), "classify echoes another value")
    require(doc["tag"] == tag, f"({h!r}, {f!r}) tagged {doc['tag']}, rule gives {tag}")
    singular = tag == "pinched-torus"
    require(doc["pinches"] == (sheets if singular else None), f"pinches {doc['pinches']!r}")
    require(doc["contains_focus_focus"] is singular, "focus-focus flag disagrees with the tag")


def check_spectrum(doc: dict, k: float, lam: float, mu: float) -> None:
    a = lam * math.sqrt(-k)
    expected = sorted((sr * a, si * mu) for sr in (1, -1) for si in (1, -1))
    got = sorted(tuple(e) for e in doc["eigenvalues"])
    require(len(got) == 4, f"{len(got)} eigenvalues")
    require(
        all(abs(g[0] - e[0]) <= 1e-12 and abs(g[1] - e[1]) <= 1e-12 for g, e in zip(got, expected)),
        f"eigenvalues {got} are not +-{a} +- i{mu}",
    )
    require(doc["classification"] == "focus-focus", f"classified {doc['classification']}")


def check_rotation(doc: dict, k: float, sheets: int, h: float, f: float) -> None:
    t_r, dphi = period_advance(k, h, f)
    require(
        abs(doc["T_r"] - t_r) <= SAMPLE_TOL and abs(doc["dphi"] - dphi) <= SAMPLE_TOL,
        f"rotation ({doc['T_r']!r}, {doc['dphi']!r}), closed form ({t_r!r}, {dphi!r})",
    )
    require(abs(doc["theta"] - sheets * dphi) <= SAMPLE_TOL, "rotation theta is not n*dphi")
    require(
        abs(doc["T_r_sim"] - t_r) <= SIMULATED_TOL and abs(doc["dphi_sim"] - dphi) <= SIMULATED_TOL,
        "simulated rotation disagrees with the closed form",
    )


def check_monodromy_files(doc: dict, continuation_csv: str, k: float, sheets: int) -> None:
    n = sheets
    require(doc["m"] == n, f"monodromy.json m = {doc['m']}, sheet count is {n}")
    require(doc["monodromy_matrix"] == [[1, 0], [n, 1]], f"matrix {doc['monodromy_matrix']}")
    require(doc["labels"]["r_hpos"] == str(Fraction(1, n) % 1), f"labels {doc['labels']}")
    rows = list(csv.DictReader(io.StringIO(continuation_csv)))
    require(len(rows) >= len(doc["loop"]) + 1, "continuation has fewer rows than loop waypoints")
    thetas = [float(r["theta_unwrapped"]) for r in rows]
    gain = (thetas[-1] - thetas[0]) / (2.0 * math.pi)
    require(abs(gain - n) < WINDING_TOL, f"theta gains 2pi*{gain!r}, expected 2pi*{n}")
    require(abs(doc["delta_theta"] / (2.0 * math.pi) - n) < WINDING_TOL, "delta_theta off")
    for i, r in enumerate(rows):
        require(int(r["arc_index"]) == i, f"continuation row {i} has index {r['arc_index']}")
        h, f, got_t, got_phi = (float(r[c]) for c in ("h", "f", "T_r", "dphi"))
        t_r, dphi = period_advance(k, h, f, sign=got_phi)
        require(
            abs(got_t - t_r) <= SAMPLE_TOL and abs(got_phi - dphi) <= SAMPLE_TOL,
            f"continuation row {i} at ({h!r}, {f!r}) misses the closed form",
        )


def check_orbit_svg(text: str, polylines: int) -> None:
    root = ET.fromstring(text)
    lines = [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "polyline"]
    require(len(lines) == polylines, f"{len(lines)} polylines, expected {polylines}")
    for el in lines:
        for point in el.get("points").split():
            x, y = (float(v) for v in point.split(","))
            require(math.hypot(x, y) <= SVG_RADIUS_MAX, f"SVG point {point} lies outside the disk")


def check_diagram_svg(text: str, resolution: int) -> None:
    root = ET.fromstring(text)
    names = [el.tag.rsplit("}", 1)[-1] for el in root.iter()]
    require(
        names.count("polyline") == 1 and names.count("circle") == 1, f"diagram SVG holds {names}"
    )
    line = next(el for el in root.iter() if el.tag.endswith("polyline"))
    require(len(line.get("points").split()) == resolution, "diagram polyline length")
