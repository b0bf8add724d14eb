"""Experiment configuration.

INI-style files with a small fixed schema. The only expression language
is a whitelist: sums of constants and single-mode trigonometric terms,
written like ``1 + 0.5*cos(1)`` (1-d) or ``0.2*cos(1,2,0.5)`` (2-d with a
phase). Modes must be integers so every term is periodic on the torus.
Subtraction is spelled as a negative coefficient after a ``+``.

The sections and their keys are listed in ``SCHEMA``, the one whitelist:
``load_config`` rejects any other section or key.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FinslerHeatError
from .geometry import MeasureField, ScalarField, TorusGrid
from .heat import SCHEME
from .liyau import LiYauProfile
from .metrics import Asym1DNorm, EuclideanNorm, MetricField, RandersNorm, RiemannianNorm
from .runner import CHECKS

#: section -> its keys, in lower case as configparser stores them
SCHEMA = {
    "grid": ("dim", "nodes", "period"),
    "metric": ("family", "a", "b", "p_plus", "p_minus"),  # the family's parameters
    "measure": ("f",),  # log-density expression, default 0
    "initial": ("u",),  # expression
    "time": ("dt", "t_final", "scheme"),  # scheme: implicit_euler, the one time scheme
    # names: a comma list of runner.CHECKS keys; N, K: a number or auto
    "checks": (
        "names", "n", "k", "profile", "seed", "n_fields", "s", "phi",
        "harnack_pairs", "harnack_mode",
    ),
    "output": ("dir",),
    "ladder": ("levels",),  # nodes,dt pairs joined by ;
}

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM_RE = re.compile(
    rf"^(?:(?P<coef>{_NUMBER})\*)?(?P<fn>cos|sin)\((?P<args>[^()]*)\)$"
)


def _finite_term(term: str, *numbers: float) -> float:
    """The first of ``numbers``, or a ConfigError naming ``term`` unless each
    is finite: ``nan``, ``inf`` and ``1e999`` all read as floats."""
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"term {term!r}: every number must be finite")
    return numbers[0]


def _parse_term(term: str, dim: int):
    """One whitelist term -> (kind, payload). Raises ConfigError."""
    term = term.strip()
    if not term:
        raise ConfigError("empty term in expression")
    try:
        return "const", _finite_term(term, float(term))
    except ValueError:
        pass
    m = _TERM_RE.match(term.replace(" ", ""))
    if m is None:
        raise ConfigError(f"term {term!r} not in the expression whitelist")
    coef = float(m.group("coef")) if m.group("coef") else 1.0
    fn = m.group("fn")
    try:
        args = [float(a) for a in m.group("args").split(",")]
    except ValueError:
        raise ConfigError(f"bad arguments in term {term!r}")
    _finite_term(term, coef, *args)
    if dim == 1:
        if len(args) == 1:
            modes, phase = args, 0.0
        elif len(args) == 2:
            modes, phase = args[:1], args[1]
        else:
            raise ConfigError(f"1-d trig term takes (mode) or (mode, phase): {term!r}")
    else:
        if len(args) == 2:
            modes, phase = args, 0.0
        elif len(args) == 3:
            modes, phase = args[:2], args[2]
        else:
            raise ConfigError(
                f"2-d trig term takes (m1, m2) or (m1, m2, phase): {term!r}"
            )
    for mode in modes:
        if mode != round(mode):
            raise ConfigError(f"mode {mode} is not an integer; term not periodic")
    return "trig", (coef, fn, np.asarray(modes, dtype=float), phase)


def parse_expression(text: str, dim: int, period: float):
    """Whitelisted expression -> vectorized callable on point arrays."""
    parsed = [_parse_term(t, dim) for t in text.split("+")]

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for kind, payload in parsed:
            if kind == "const":
                out += payload
            else:
                coef, fn, modes, phase = payload
                angle = 2.0 * np.pi / period * (pts @ modes) + phase
                out += coef * (np.cos(angle) if fn == "cos" else np.sin(angle))
        return out

    return evaluate


def _number(key: str, text: str, kind=float):
    """``text`` read as ``kind`` (float or int); a malformed value is a
    ConfigError that names ``key``."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {noun}, got {text.strip()!r}") from None


def _finite(key: str, text: str) -> float:
    """``text`` read as a float that must be finite; a ConfigError names ``key``."""
    value = _number(key, text)
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text.strip()!r}")
    return value


def _nodes(key: str, nodes: int) -> int:
    if nodes < 8:
        raise ConfigError(f"{key}: need at least 8 nodes per axis, got {nodes}")
    return nodes


def _step(key: str, dt: float, t_final: float) -> float:
    """A time step of a run to ``t_final``: 0 < dt <= t_final, and a step
    count t_final / dt that is finite (dt = 1e-320 makes it overflow)."""
    if not (0.0 < dt <= t_final and math.isfinite(t_final / dt)):  # NaN fails too
        raise ConfigError(f"{key}: need 0 < dt <= t_final and a finite step count, got {dt!r}")
    return dt


def _floats(key: str, text: str) -> list[float]:
    return [_number(key, part) for part in text.split(",")]


def _build_descriptor(dim, family, section) -> RandersNorm:
    """Construct the norm descriptor, converting admissibility failures
    into configuration errors so they surface before any solve."""
    try:
        if family == "euclidean":
            return EuclideanNorm(dim)
        if family in ("riemannian", "randers"):
            entries = _floats("[metric] a", section.get("a", "1"))
            if dim == 1:
                a = np.asarray([[entries[0]]])
            else:
                if len(entries) != 3:
                    raise ConfigError("2-d tensor needs a = a11,a12,a22")
                a = np.asarray([[entries[0], entries[1]], [entries[1], entries[2]]])
            if family == "riemannian":
                return RiemannianNorm(a)
            b = np.asarray(_floats("[metric] b", section.get("b", "0")))
            if b.shape != (dim,):
                raise ConfigError(f"drift must have {dim} components")
            return RandersNorm(a, b)
        if family == "asym1d":
            if dim != 1:
                raise ConfigError("asym1d is one-dimensional")
            return Asym1DNorm(
                _number("[metric] p_plus", section.get("p_plus", "1")),
                _number("[metric] p_minus", section.get("p_minus", "1")),
            )
    except ConfigError:
        raise
    except FinslerHeatError as exc:
        raise ConfigError(f"inadmissible metric: {exc}") from exc
    raise ConfigError(f"unknown metric family {family!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int
    nodes: int
    period: float
    descriptor: RandersNorm
    f_expr: str
    u0_expr: str
    dt: float
    t_final: float
    checks: tuple[str, ...]
    N: float
    K: float | None  # None: resolve from the certified curvature bound
    profile: str
    seed: int  # range-checked and recorded in the manifest, read by no check
    n_fields: int  # range-checked, read by no check; the benchmark configs set it
    s_time: float
    phi_expr: str
    harnack_pairs: tuple[tuple[int, float, int, float], ...]
    harnack_mode: str
    out_dir: str
    ladder: tuple[tuple[int, float], ...]
    digest: str

    def __post_init__(self):
        # dataclasses.replace runs this too, so --only is held to it: a check
        # named twice would run twice, its second report overwriting the first
        for name in self.checks:
            if name not in CHECKS:
                raise ConfigError(f"unknown check {name!r}; known: {tuple(CHECKS)}")
            if self.checks.count(name) > 1:
                raise ConfigError(f"check {name!r} named twice")

    def build_grid(self, nodes: int | None = None) -> TorusGrid:
        return TorusGrid(self.dim, nodes or self.nodes, self.period)

    def build_metric(self, grid: TorusGrid) -> MetricField:
        return MetricField(grid, self.descriptor)

    def _nodal(self, key: str, expr: str, grid: TorusGrid) -> np.ndarray:
        """The values of expression ``expr`` at the nodes of ``grid``, which
        must be finite: finite terms can still overflow in their sum."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = parse_expression(expr, self.dim, self.period)(grid.coordinates())
        if not np.isfinite(values).all():
            raise ConfigError(f"{key}: {expr!r} is not finite at every node")
        return values

    def build_measure(self, grid: TorusGrid) -> MeasureField:
        """The measure e^-f dx. Its node weights e^-f h^dim must be finite and
        positive: f = 745 makes each 0, and then every CG residual is 0."""
        measure = MeasureField(grid, self._nodal("[measure] f", self.f_expr, grid))
        with np.errstate(over="ignore"):
            if not np.all((measure.sigma > 0.0) & (measure.sigma < math.inf)):
                raise ConfigError("[measure] f: node weights e^-f h^dim must be finite and > 0")
        return measure

    def build_initial(self, grid: TorusGrid) -> ScalarField:
        return ScalarField(grid, self._nodal("[initial] u", self.u0_expr, grid))

    def build_phi(self, grid: TorusGrid) -> ScalarField:
        return ScalarField(grid, self._nodal("[checks] phi", self.phi_expr, grid))


def config_hash(text: str) -> str:
    return hashlib.sha256(text.replace("\r\n", "\n").encode()).hexdigest()


def _parse_pairs(text: str, t_final: float):
    """x1,t1,x2,t2 per pair, with t2 <= t_final: no later time is recorded."""
    key, pairs = "[checks] harnack_pairs", []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        parts = chunk.split(",")
        if len(parts) != 4:
            raise ConfigError(f"harnack pair needs x1,t1,x2,t2: {chunk!r}")
        kinds = (int, float, int, float)
        pair = tuple(_number(key, p, k) for p, k in zip(parts, kinds))
        if not 0.0 < pair[1] < pair[3] <= t_final:  # NaN fails too
            raise ConfigError(f"{key}: need 0 < t1 < t2 <= t_final, got {chunk!r}")
        pairs.append(pair)
    return tuple(pairs)


def _parse_ladder(text: str, t_final: float):
    """Each level is checked as ``[grid] nodes`` and ``[time] dt`` are."""
    key, levels = "[ladder] levels", []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"ladder level needs nodes,dt: {chunk!r}")
        nodes, dt = parts
        levels.append(
            (_nodes(key, _number(key, nodes, int)), _step(key, _finite(key, dt), t_final))
        )
    for (n0, d0), (n1, d1) in zip(levels, levels[1:]):
        if n1 <= n0 or d1 > d0:
            raise ConfigError("ladder must refine: nodes up, dt not up")
    return tuple(levels)


def load_config(path: str) -> ExperimentConfig:
    # no interpolation: a '%' makes a malformed value, not a late traceback;
    # no default section: [DEFAULT] is an unknown section, not keys for all
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
    )
    with open(path) as fh:
        text = fh.read()
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:  # a repeated section or key, a stray line
        raise ConfigError(" ".join(str(exc).split())) from None
    for section in parser.sections():
        known = SCHEMA.get(section)
        if known is None:
            raise ConfigError(f"unknown section [{section}]; known: {', '.join(SCHEMA)}")
        for key in parser[section]:
            if key not in known:
                raise ConfigError(f"unknown key [{section}] {key}; known: {', '.join(known)}")
    if "grid" not in parser or "time" not in parser:
        raise ConfigError("config needs [grid] and [time] sections")
    grid_sec = parser["grid"]
    dim = _number("[grid] dim", grid_sec.get("dim", "1"), int)
    nodes = _number("[grid] nodes", grid_sec.get("nodes", "64"), int)
    period = _finite("[grid] period", grid_sec.get("period", "1.0"))
    if dim not in (1, 2):
        raise ConfigError("dim must be 1 or 2")
    _nodes("[grid] nodes", nodes)
    if period <= 0:
        raise ConfigError("period must be positive")

    metric_sec = parser["metric"] if "metric" in parser else {"family": "euclidean"}
    family = metric_sec.get("family", "euclidean").strip().lower()
    descriptor = _build_descriptor(dim, family, metric_sec)

    time_sec = parser["time"]
    if "dt" not in time_sec or "t_final" not in time_sec:
        raise ConfigError("[time] needs dt and t_final")
    dt = _finite("[time] dt", time_sec["dt"])
    t_final = _finite("[time] t_final", time_sec["t_final"])
    _step("[time] dt", dt, t_final)
    scheme = time_sec.get("scheme", SCHEME).strip()
    if scheme != SCHEME:
        raise ConfigError(f"[time] scheme must be {SCHEME}, got {scheme!r}")

    checks_sec = parser["checks"] if "checks" in parser else {}
    checks = tuple(n.strip() for n in checks_sec.get("names", "").split(",") if n.strip())
    n_text = str(checks_sec.get("N", "inf")).strip().lower()
    if n_text in ("inf", "infinity", "auto"):
        n_eff = math.inf
    else:
        n_eff = _number("[checks] N", n_text)
        if not n_eff >= dim:  # NaN fails too
            raise ConfigError(
                f"effective dimension below the actual dimension: N = {n_text}"
            )
    k_text = str(checks_sec.get("K", "auto")).strip().lower()
    k_val = None if k_text == "auto" else _finite("[checks] K", k_text)
    profile = str(checks_sec.get("profile", "quadratic")).strip()
    LiYauProfile.parse(profile, 1.0)  # the spelling: lixu takes the run's K later
    seed = _number("[checks] seed", str(checks_sec.get("seed", "1234")), int)
    if seed < 0:
        raise ConfigError(f"[checks] seed must be non-negative, got {seed}")
    n_fields = _number("[checks] n_fields", str(checks_sec.get("n_fields", "20")), int)
    if n_fields < 1:
        raise ConfigError("[checks] n_fields must be at least 1")
    s_time = _finite("[checks] s", str(checks_sec.get("s", "0.0")))
    phi_expr = str(checks_sec.get("phi", "1"))
    harnack_pairs = _parse_pairs(str(checks_sec.get("harnack_pairs", "")), t_final)
    harnack_mode = str(checks_sec.get("harnack_mode", "lf")).strip()
    if harnack_mode not in ("lf", "integral"):
        raise ConfigError("harnack_mode must be lf or integral")

    f_expr = parser["measure"].get("f", "0") if "measure" in parser else "0"
    u0_expr = parser["initial"].get("u", "1") if "initial" in parser else "1"
    out_dir = parser["output"].get("dir", "runs") if "output" in parser else "runs"
    ladder = (
        _parse_ladder(parser["ladder"].get("levels", ""), t_final)
        if "ladder" in parser
        else ()
    )

    # every grid the config solves on must hold every Harnack node
    limit = min([nodes] + [level for level, _ in ladder]) ** dim
    for node in (x for pair in harnack_pairs for x in pair[::2]):
        if not 0 <= node < limit:
            raise ConfigError(f"[checks] harnack_pairs: node {node} outside [0, {limit})")

    # surface expression problems now, not at solve time
    for expr in (f_expr, u0_expr, phi_expr):
        parse_expression(expr, dim, period)

    return ExperimentConfig(
        dim=dim,
        nodes=nodes,
        period=period,
        descriptor=descriptor,
        f_expr=f_expr,
        u0_expr=u0_expr,
        dt=dt,
        t_final=t_final,
        checks=checks,
        N=n_eff,
        K=k_val,
        profile=profile,
        seed=seed,
        n_fields=n_fields,
        s_time=s_time,
        phi_expr=phi_expr,
        harnack_pairs=harnack_pairs,
        harnack_mode=harnack_mode,
        out_dir=out_dir,
        ladder=ladder,
        digest=config_hash(text),
    )
