"""The benchmark's workloads and the INI files it generates for them.

Each workload runs one public CLI verb on a config written here from the
workload seed. The seed only picks the random-field seed of the check
suite and the Harnack sample pairs; grids, metrics and initial data are
fixed, so every seed does the same amount of solver work and the final
fields match one stored reference per workload.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass

#: 2-d Randers metric and initial field shared by every 2-d workload
RANDERS_2D = {
    "metric": {"family": "randers", "a": "1.0, 0.2, 0.8", "b": "0.3, 0.1"},
    "initial": {"u": "1 + 0.4*sin(1, 0, 0.3) + 0.2*cos(1, 1)"},
}

#: bounds-2d Harnack slots (k1, k2, dx, dy): t1 = k1*dt, t2 = k2*dt and
#: x2 = x1 + (dx, dy) nodes. The norm is constant in space, so the distance
#: and the cost of each bound depend on the slot only; the seed draws x1.
#: Random times and nodes made the per-seed cost spread by 40 %.
HARNACK_SLOTS = (
    (2, 12, 10, 3),
    (3, 9, -7, 12),
    (4, 18, 20, -5),
    (5, 11, 3, 3),
    (6, 16, -15, -9),
    (7, 20, 8, -18),
    (9, 14, 25, 6),
    (10, 19, -4, 22),
)


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # solve | check | convergence
    why: str
    layers: str
    sections: dict
    # checks (or convergence rows) that fail at the baseline commit; they
    # stay in the workload and are counted, any other FAIL fails the run
    known_fail: tuple[str, ...] = ()

    def solves(self) -> list[tuple[str, int, int]]:
        """(report subdirectory, nodes per axis, step count) per solve."""
        t_final = float(self.sections["time"]["t_final"])
        if "ladder" in self.sections:
            out = []
            for level in self.sections["ladder"]["levels"].split(";"):
                nodes, dt = level.split(",")
                out.append((f"level_{nodes.strip()}", int(nodes), round(t_final / float(dt))))
            return out
        dt = float(self.sections["time"]["dt"])
        return [("", int(self.sections["grid"]["nodes"]), round(t_final / dt))]

    def checks(self) -> list[str]:
        names = self.sections.get("checks", {}).get("names", "")
        return [n.strip() for n in names.split(",") if n.strip()]


def _grid(dim: int, nodes: int) -> dict:
    return {"dim": str(dim), "nodes": str(nodes)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-2d",
            verb="solve",
            why="solve, 128^2, 40 steps, no checks: one fresh assembly, "
            "Legendre map and step solve per step, no transport",
            layers="heat.assembly, geometry.gradient_field, metrics.legendre, "
            "numerics.cg, heat.export",
            sections={
                "grid": _grid(2, 128),
                **RANDERS_2D,
                "time": {"dt": "2.5e-4", "t_final": "1e-2"},
            },
        ),
        Workload(
            name="check-2d",
            verb="check",
            why="check, 64^2, 12 transport checks: 1360 advances of about 68 "
            "CG iterations, arithmetic-bound transport",
            layers="heat.advance, numerics.cg, semigroup",
            sections={
                "grid": _grid(2, 64),
                **RANDERS_2D,
                "time": {"dt": "5e-4", "t_final": "1e-2"},
                "checks": {
                    "names": "conservative, duality, semigroup_law, positivity, "
                    "contraction, order_bounds, cauchy_schwarz, variance, "
                    "laplacian_commutation, gradient_estimate, local_logsob, "
                    "lipschitz",
                    "N": "2",
                    "n_fields": "5",
                },
            },
            known_fail=("laplacian_commutation",),
        ),
        Workload(
            name="ladder-1d",
            verb="convergence",
            why="convergence, 3-level 1-d ladder: 23520 advances of about 11 "
            "CG iterations, per-call overhead",
            layers="heat.advance, numerics.cg, liyau, runner.convergence_table, "
            "geometry.ricci_lower_bound",
            sections={
                "grid": _grid(1, 32),
                "metric": {"family": "euclidean"},
                "measure": {"f": "0.2*cos(1)"},
                "initial": {"u": "1 + 0.5*sin(1, 0.3)"},
                "time": {"dt": "2e-3", "t_final": "4e-2"},
                "checks": {
                    "names": "conservative, duality, variance, gradient_estimate, "
                    "local_logsob, lipschitz, liyau_envelope, liyau_linear, "
                    "laplacian_commutation",
                    "N": "8",
                    "K": "auto",
                    "n_fields": "20",
                },
                "ladder": {"levels": "32,2e-3; 64,5e-4; 128,1.25e-4"},
            },
            # the never-grows rule of convergence_table reads round-off
            # (duality) and random-field noise (variance) as growth, so
            # those two rows fail for some seeds
            known_fail=("duality", "variance", "laplacian_commutation"),
        ),
        Workload(
            name="bounds-2d",
            verb="check",
            why="check, 64^2, harnack (lf, K=-0.5) on 8 seeded pairs, "
            "liyau_envelope, weak_logsob: bounds, little transport",
            layers="harnack, geometry.distance, liyau",
            sections={
                "grid": _grid(2, 64),
                **RANDERS_2D,
                "time": {"dt": "1e-3", "t_final": "2e-2"},
                "checks": {
                    "names": "harnack, liyau_envelope, weak_logsob",
                    "N": "3",
                    "K": "-0.5",
                    "harnack_mode": "lf",
                },
            },
        ),
    )
}


def harnack_pairs(rng: random.Random, nodes: int, dt: float) -> str:
    """``x1,t1,x2,t2`` per slot of HARNACK_SLOTS with a seeded base node."""
    pairs = []
    for k1, k2, dx, dy in HARNACK_SLOTS:
        ix, iy = rng.randrange(nodes), rng.randrange(nodes)
        x1 = ix * nodes + iy
        x2 = ((ix + dx) % nodes) * nodes + (iy + dy) % nodes
        pairs.append(f"{x1},{round(k1 * dt, 12)!r},{x2},{round(k2 * dt, 12)!r}")
    return "; ".join(pairs)


def write_ini(workload: Workload, seed: int, path: str) -> None:
    """Write the workload's config for ``seed``; same seed, same bytes."""
    rng = random.Random(seed)
    parser = configparser.ConfigParser()
    for section, values in workload.sections.items():
        parser[section] = dict(values)
    if "checks" in parser:
        parser["checks"]["seed"] = str(rng.randrange(2**31))
        if "harnack" in workload.checks():
            parser["checks"]["harnack_pairs"] = harnack_pairs(
                rng,
                int(workload.sections["grid"]["nodes"]),
                float(workload.sections["time"]["dt"]),
            )
    with open(path, "w") as fh:
        parser.write(fh)
