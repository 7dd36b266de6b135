"""Trusted geometric input: curves, multicurves, distances, projections.

Distances on the curve graph and annular projection distances are *inputs*
here, not something this package computes -- except on the torus, where
:mod:`twistlab.farey` fills the tables exactly.  A :class:`CurveSystem` is
immutable after construction and safe to share between checkers.

The constant ``M`` is the uniform bound from the bounded-geodesic-image
theorem.  No specific numeric value is canonical; the default of 100 is a
configuration choice, and results that rely on the default are flagged so
reports can say so.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from operator import add
from typing import Iterable, Mapping

from .errors import MalformedConfig, MissingDistance, MissingProjection, UnknownCurve

DEFAULT_M = 100


@dataclass(frozen=True)
class SurfaceKind:
    genus: int
    punctures: int

    @property
    def omega(self) -> int:
        """Complexity 3g + p - 4 of the surface."""
        return 3 * self.genus + self.punctures - 4

    @property
    def sporadic(self) -> bool:
        """Low-complexity surfaces whose curve graph has intersecting edges."""
        return self.omega <= 0


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class CurveSystem:
    """Curves, multicurve families, and the distance/projection tables.

    ``dist`` maps unordered curve pairs to curve-graph distances, ``inter``
    to geometric intersection numbers, and ``proj`` maps (core, pair) to the
    annular projection distance at the core.  All are partial: queries for
    missing entries raise ``MissingDistance`` / ``MissingProjection``.
    """

    def __init__(
        self,
        curves: Iterable[str],
        multicurves: Mapping[str, Iterable[str]] | None = None,
        dist: Iterable[tuple[str, str, int]] | None = None,
        proj: Iterable[tuple[str, str, str, int]] | None = None,
        inter: Iterable[tuple[str, str, int]] | None = None,
        M: int = DEFAULT_M,
        surface: SurfaceKind | None = None,
        m_is_default: bool | None = None,
    ):
        self.curves: tuple[str, ...] = tuple(curves)
        self.multicurves: dict[str, tuple[str, ...]] = {
            name: tuple(members) for name, members in (multicurves or {}).items()
        }
        self.dist_entries: tuple[tuple[str, str, int], ...] = tuple(dist or ())
        self.proj_entries: tuple[tuple[str, str, str, int], ...] = tuple(proj or ())
        self.inter_entries: tuple[tuple[str, str, int], ...] = tuple(inter or ())
        self.M = int(M)
        self.surface = surface
        self.m_is_default = (M == DEFAULT_M) if m_is_default is None else m_is_default
        self._digest: str | None = None

        self._dist = {}
        for a, b, v in self.dist_entries:
            self._dist.setdefault(_pair(a, b), int(v))
        self._inter = {}
        for a, b, v in self.inter_entries:
            self._inter.setdefault(_pair(a, b), int(v))
        self._proj = {}
        for core, x, y, v in self.proj_entries:
            self._proj.setdefault((core, _pair(x, y)), int(v))

    # -- lookups ----------------------------------------------------------

    def require_curve(self, name: str) -> None:
        if name not in self.curves:
            raise UnknownCurve(f"curve {name!r} is not declared in the configuration")

    def multicurve(self, name: str) -> tuple[str, ...]:
        try:
            return self.multicurves[name]
        except KeyError:
            raise UnknownCurve(f"multicurve {name!r} is not declared") from None

    def has_dist(self, a: str, b: str) -> bool:
        return a == b or _pair(a, b) in self._dist

    def dist(self, a: str, b: str) -> int:
        if a == b:
            return 0
        try:
            return self._dist[_pair(a, b)]
        except KeyError:
            raise MissingDistance(f"no stored distance for ({a}, {b})") from None

    def inter_or_none(self, a: str, b: str) -> int | None:
        if a == b:
            return 0
        return self._inter.get(_pair(a, b))

    def crosses(self, a: str, b: str) -> bool:
        v = self.inter_or_none(a, b)
        return v is not None and v > 0

    def proj(self, core: str, x: str, y: str) -> int:
        if x == y:
            return 0
        try:
            return self._proj[(core, _pair(x, y))]
        except KeyError:
            raise MissingProjection(f"no stored projection at core {core} for ({x}, {y})") from None

    def digest(self) -> str:
        """Stable content digest for report echoes, computed once."""
        if self._digest is not None:
            return self._digest
        import hashlib

        blob = json.dumps(
            {
                "curves": list(self.curves),
                "multicurves": {k: list(v) for k, v in self.multicurves.items()},
                "dist": sorted(self.dist_entries),
                "proj": sorted(self.proj_entries),
                "inter": sorted(self.inter_entries),
                "M": self.M,
                "surface": [self.surface.genus, self.surface.punctures] if self.surface else None,
            },
            sort_keys=True,
        ).encode()
        self._digest = hashlib.sha256(blob).hexdigest()[:16]
        return self._digest

    def with_m(self, M: int) -> "CurveSystem":
        return CurveSystem(
            self.curves,
            self.multicurves,
            self.dist_entries,
            self.proj_entries,
            self.inter_entries,
            M=M,
            surface=self.surface,
            m_is_default=False,
        )


# ---------------------------------------------------------------------------
# validation


def validate(sys: CurveSystem) -> list[str]:
    """Every invariant violation in the stored data, as human-readable lines.

    Violations are data, not failures: an empty list means the system is
    coherent.  The disjointness/distance coupling rule (intersecting curves
    must be at distance >= 2) only applies to surfaces where the curve graph
    has disjointness edges, so it is skipped for sporadic surfaces such as
    the torus, where edges join curves that intersect once.
    """
    out: list[str] = []
    known = set(sys.curves)

    if sys.M <= 0:
        out.append(f"M must be positive, got {sys.M}")

    seen_names: set[str] = set()
    for name, members in sys.multicurves.items():
        for c in members:
            if c not in known:
                out.append(f"multicurve {name} references unknown curve {c}")
            if c in seen_names:
                out.append(f"curve {c} appears in more than one multicurve")
            seen_names.add(c)

    dist_seen: dict[tuple[str, str], int] = {}
    for a, b, v in sys.dist_entries:
        for c in (a, b):
            if c not in known:
                out.append(f"dist entry ({a}, {b}) references unknown curve {c}")
        if v < 0:
            out.append(f"negative dist({a}, {b}) = {v}")
        if a == b and v != 0:
            out.append(f"nonzero self-distance dist({a}, {a}) = {v}")
        key = _pair(a, b)
        if key in dist_seen and dist_seen[key] != v:
            out.append(f"asymmetric dist({a}, {b}): {dist_seen[key]} vs {v}")
        dist_seen.setdefault(key, v)

    inter_seen: dict[tuple[str, str], int] = {}
    for a, b, v in sys.inter_entries:
        for c in (a, b):
            if c not in known:
                out.append(f"inter entry ({a}, {b}) references unknown curve {c}")
        if v < 0:
            out.append(f"negative inter({a}, {b}) = {v}")
        key = _pair(a, b)
        if key in inter_seen and inter_seen[key] != v:
            out.append(f"conflicting inter({a}, {b}): {inter_seen[key]} vs {v}")
        inter_seen.setdefault(key, v)

    proj_seen: dict[tuple[str, tuple[str, str]], int] = {}
    for core, x, y, v in sys.proj_entries:
        for c in (core, x, y):
            if c not in known:
                out.append(f"proj entry ({core}; {x}, {y}) references unknown curve {c}")
        if v < 0:
            out.append(f"negative proj({core}; {x}, {y}) = {v}")
        if x == y and v != 0:
            out.append(f"nonzero self-projection proj({core}; {x}, {x}) = {v}")
        for side in (x, y):
            if side != core and not sys.crosses(core, side):
                out.append(
                    f"proj({core}; {x}, {y}) stored but inter({core}, {side}) is not positive"
                )
        key = (core, _pair(x, y))
        if key in proj_seen and proj_seen[key] != v:
            out.append(f"conflicting proj({core}; {x}, {y}): {proj_seen[key]} vs {v}")
        proj_seen.setdefault(key, v)

    # triangle inequality on every fully stored triple, over an index matrix
    # of the stored distances.  A missing pair and the diagonal hold
    # ``spare``, large enough that no sum involving it is exceeded.
    names = sorted({c for key in dist_seen for c in key})
    index = {c: i for i, c in enumerate(names)}
    pairs = sorted((index[a], index[b], v) for (a, b), v in sys._dist.items() if a != b)
    values = [0] + [v for _, _, v in pairs]
    spare = max(values) - min(values)
    table = [[spare] * len(names) for _ in names]
    for i, j, v in pairs:
        table[i][j] = table[j][i] = v
    for i, j, d_ab in pairs:
        row_a, row_b = table[i], table[j]
        if d_ab <= min(map(add, row_a, row_b)):
            continue
        a, b = names[i], names[j]
        for c, x, y in zip(names, row_a, row_b):
            if d_ab > x + y:
                out.append(
                    f"triangle inequality fails: dist({a},{b})={d_ab} > "
                    f"dist({a},{c})+dist({c},{b})={x + y}"
                )

    # intersection/distance coupling
    general_surface = sys.surface is None or not sys.surface.sporadic
    for (a, b), v in inter_seen.items():
        if a == b or not sys.has_dist(a, b):
            continue
        d = sys.dist(a, b)
        if v == 0 and d > 1:
            out.append(f"disjoint curves ({a}, {b}) stored at distance {d} > 1")
        if general_surface and v >= 1 and d < 2:
            out.append(f"intersecting curves ({a}, {b}) stored at distance {d} < 2")

    # multicurves must be pairwise disjoint where intersections are stored
    for name, members in sys.multicurves.items():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                v = sys.inter_or_none(a, b)
                if v is not None and v != 0:
                    out.append(f"multicurve {name} not disjoint: inter({a}, {b}) = {v}")

    return out


# ---------------------------------------------------------------------------
# set-to-set helpers


def filling_pair(sys: CurveSystem, a: str, b: str) -> bool:
    """Whether two single curves fill: equivalent to distance >= 3."""
    return sys.dist(a, b) >= 3


def dist_multicurve(sys: CurveSystem, A: str | Iterable[str], B: str | Iterable[str]) -> int:
    """min of dist(a, b) over a in A, b in B; every pair must be stored."""
    curves_a = sys.multicurve(A) if isinstance(A, str) else tuple(A)
    curves_b = sys.multicurve(B) if isinstance(B, str) else tuple(B)
    return min(sys.dist(a, b) for a in curves_a for b in curves_b)


def proj_multicurve(
    sys: CurveSystem, core: str, C: str | Iterable[str], D: str | Iterable[str]
) -> int:
    """max of proj(core, c, d) over pairs crossing the core; 0 if none do."""
    curves_c = sys.multicurve(C) if isinstance(C, str) else tuple(C)
    curves_d = sys.multicurve(D) if isinstance(D, str) else tuple(D)
    best = 0
    for c in curves_c:
        if not sys.crosses(core, c):
            continue
        for d in curves_d:
            if not sys.crosses(core, d):
                continue
            best = max(best, sys.proj(core, c, d))
    return best


# ---------------------------------------------------------------------------
# JSON configuration files

_ALLOWED_FIELDS = {"curves", "multicurves", "dist", "proj", "inter", "M", "surface"}


def _is_int(value) -> bool:
    """A JSON integer; booleans, which Python counts as integers, are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_curve_system(data: dict) -> CurveSystem:
    """Build a CurveSystem from the JSON configuration schema.

    Unknown fields are rejected so typos fail loudly instead of being
    silently ignored.
    """
    if not isinstance(data, dict):
        raise MalformedConfig("configuration must be a JSON object")
    unknown = set(data) - _ALLOWED_FIELDS
    if unknown:
        raise MalformedConfig(f"unknown configuration fields: {sorted(unknown)}")
    curves = data.get("curves")
    if not isinstance(curves, list) or not all(isinstance(c, str) for c in curves):
        raise MalformedConfig("'curves' must be an array of strings")

    multicurves = data.get("multicurves", {})
    if not isinstance(multicurves, dict):
        raise MalformedConfig("'multicurves' must be an object")
    for name, members in multicurves.items():
        if not isinstance(members, list) or not all(isinstance(c, str) for c in members):
            raise MalformedConfig(f"multicurve {name!r} must be an array of curve names")

    def _triples(field: str, width: int):
        rows = data.get(field, [])
        if not isinstance(rows, list):
            raise MalformedConfig(f"'{field}' must be an array")
        out = []
        for row in rows:
            if (
                not isinstance(row, list)
                or len(row) != width
                or not all(isinstance(x, str) for x in row[:-1])
                or not _is_int(row[-1])
            ):
                raise MalformedConfig(f"'{field}' rows must look like {width - 1} names + int")
            out.append(tuple(row))
        return out

    dist = _triples("dist", 3)
    inter = _triples("inter", 3)
    proj = _triples("proj", 4)

    m_value = data.get("M", DEFAULT_M)
    if not _is_int(m_value) or m_value <= 0:
        raise MalformedConfig("'M' must be a positive integer")

    surface = None
    if "surface" in data:
        s = data["surface"]
        if (
            not isinstance(s, dict)
            or set(s) != {"genus", "punctures"}
            or not all(_is_int(s[k]) and s[k] >= 0 for k in ("genus", "punctures"))
        ):
            raise MalformedConfig("'surface' must be {genus: int>=0, punctures: int>=0}")
        surface = SurfaceKind(s["genus"], s["punctures"])

    return CurveSystem(
        curves,
        multicurves,
        dist,
        proj,
        inter,
        M=m_value,
        surface=surface,
        m_is_default="M" not in data,
    )


def read_config_file(path: str) -> bytes:
    """The raw bytes of a configuration file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedConfig(f"cannot read configuration: {exc}") from None


def load_curve_system_bytes(blob: bytes) -> CurveSystem:
    """Build a CurveSystem from the bytes of a configuration file, decoded
    exactly as a file opened in UTF-8 text mode would be."""
    try:
        data = json.load(io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedConfig(f"configuration is not valid JSON: {exc}") from None
    return load_curve_system(data)


def load_curve_system_file(path: str) -> CurveSystem:
    return load_curve_system_bytes(read_config_file(path))
