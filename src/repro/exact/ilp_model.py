"""The integer linear program of Section 4.4, solved by HiGHS.

HiGHS (``scipy.optimize.milp``) stands in for the paper's CPLEX.

Variables (all boolean):

* ``x[i,k,u,v]``  — stage ``i`` on core ``(u,v)`` at speed ``s(k)``;
* ``m[k,u,v]``    — core ``(u,v)`` operated at speed ``s(k)``;
* ``c[i,j,dir,u,v]`` — edge ``(i,j)`` communicated from ``(u,v)`` toward its
  ``dir`` in {N,S,W,E} neighbour (created only for actual SPG edges and
  in-bounds directions, which implements the paper's border constraints).

Two published constraints are corrected here (noted inline): the speed-
activation constraint is stated per stage (the literal sum form is
infeasible whenever two stages share a core), and the cycle-prevention
constraint bounds incoming flow by ``1 - sum_k x[i,k,u,v]`` (at most one
incoming direction per edge and core, none into the source's core); the
printed form would instead *require* the source core to receive its own
message.

The decoded mapping carries the ILP's own routes, so its evaluated energy
matches the ILP objective exactly.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.errors import HeuristicFailure, UnsupportedPlatform
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.spg.analysis import descendant_masks

__all__ = ["IlpModel", "build_ilp", "ilp_optimal", "require_ilp_platform"]

#: direction -> (du, dv)
DIRS = {"N": (-1, 0), "S": (1, 0), "W": (0, -1), "E": (0, 1)}


def require_ilp_platform(problem: ProblemInstance) -> None:
    """Fail loudly unless the platform fits the Section-4.4 formulation.

    The ILP's communication variables encode the bidirectional mesh's
    four link directions and its speed/period constraints assume one
    homogeneous DVFS model for every core.  Other registered fabrics
    (tori, rings, Benes, uni-directional lines) and heterogeneous speed
    scalings would be *silently mis-modelled* — the variables would
    permit links the platform does not have — so they are rejected here
    with a clear error instead.
    """
    from repro.platform.cmp import CMPGrid

    grid = problem.grid
    # Exact-type check on purpose: subclasses (e.g. the torus) keep the
    # mesh's node set but change the link set, which the ILP's N/S/W/E
    # variables cannot express.
    if type(grid) is not CMPGrid or grid.uni_directional:
        raise UnsupportedPlatform(
            f"the Section-4.4 ILP is formulated for the paper's "
            f"bidirectional p x q mesh; topology {grid.name!r} has a "
            "different link structure (use the 'bruteforce' solver, "
            "which follows the topology's own routing)"
        )
    if grid.heterogeneous:
        raise UnsupportedPlatform(
            "the Section-4.4 ILP assumes one homogeneous DVFS model for "
            "all cores; this platform has per-core speed scaling (use "
            "the 'bruteforce' solver, which honours per-core models)"
        )


@dataclass
class IlpModel:
    """Assembled matrices plus the variable index maps for decoding."""

    problem: ProblemInstance
    c: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    x_idx: dict[tuple[int, int, int, int], int]
    m_idx: dict[tuple[int, int, int], int]
    c_idx: dict[tuple[int, int, str, int, int], int]

    @property
    def n_vars(self) -> int:
        return len(self.c)

    # ------------------------------------------------------------------
    def decode(self, sol: np.ndarray) -> Mapping:
        """Turn a binary solution vector into a Mapping with ILP routes."""
        problem = self.problem
        spg, grid = problem.spg, problem.grid
        speeds_list = grid.model.speeds
        alloc: dict[int, tuple[int, int]] = {}
        speeds: dict[tuple[int, int], float] = {}
        for (i, k, u, v), idx in self.x_idx.items():
            if sol[idx] > 0.5:
                alloc[i] = (u, v)
                speeds[(u, v)] = speeds_list[k]
        paths: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (i, j) in spg.edges:
            if alloc[i] == alloc[j]:
                continue
            # Follow the communication variables from the source core.
            path = [alloc[i]]
            visited = {alloc[i]}
            while path[-1] != alloc[j]:
                u, v = path[-1]
                nxt = None
                for d, (du, dv) in DIRS.items():
                    idx = self.c_idx.get((i, j, d, u, v))
                    if idx is not None and sol[idx] > 0.5:
                        cand = (u + du, v + dv)
                        if cand not in visited:
                            nxt = cand
                            break
                if nxt is None:
                    raise HeuristicFailure(
                        f"ILP solution has a broken route for edge ({i},{j})"
                    )
                path.append(nxt)
                visited.add(nxt)
            paths[(i, j)] = path
        return Mapping(spg, grid, alloc, speeds, paths)


def build_ilp(problem: ProblemInstance) -> IlpModel:
    """Assemble the Section-4.4 ILP for ``problem``.

    Raises :class:`UnsupportedPlatform` for non-mesh or heterogeneous
    platforms (see :func:`require_ilp_platform`).
    """
    require_ilp_platform(problem)
    spg, grid, T = problem.spg, problem.grid, problem.period
    model = grid.model
    n = spg.n
    nk = len(model.speeds)
    p, q = grid.p, grid.q
    edges = sorted(spg.edges)

    x_idx: dict[tuple[int, int, int, int], int] = {}
    m_idx: dict[tuple[int, int, int], int] = {}
    c_idx: dict[tuple[int, int, str, int, int], int] = {}
    nv = 0
    for i in range(n):
        for k in range(nk):
            for u in range(p):
                for v in range(q):
                    x_idx[(i, k, u, v)] = nv
                    nv += 1
    for k in range(nk):
        for u in range(p):
            for v in range(q):
                m_idx[(k, u, v)] = nv
                nv += 1
    for (i, j) in edges:
        for d, (du, dv) in DIRS.items():
            for u in range(p):
                for v in range(q):
                    if grid.in_bounds((u + du, v + dv)):
                        c_idx[(i, j, d, u, v)] = nv
                        nv += 1

    rows_ub: list[dict[int, float]] = []
    b_ub: list[float] = []
    rows_eq: list[dict[int, float]] = []
    b_eq: list[float] = []

    def ub(row: dict[int, float], b: float) -> None:
        rows_ub.append(row)
        b_ub.append(b)

    def eq(row: dict[int, float], b: float) -> None:
        rows_eq.append(row)
        b_eq.append(b)

    def cplus(i: int, j: int, u: int, v: int) -> dict[int, float]:
        row: dict[int, float] = {}
        for d in DIRS:
            idx = c_idx.get((i, j, d, u, v))
            if idx is not None:
                row[idx] = row.get(idx, 0.0) + 1.0
        return row

    def add(row: dict[int, float], idx: int, coef: float) -> None:
        row[idx] = row.get(idx, 0.0) + coef

    # --- allocation constraints ------------------------------------------
    for i in range(n):
        eq({x_idx[(i, k, u, v)]: 1.0
            for k in range(nk) for u in range(p) for v in range(q)}, 1.0)
    # Speed activation (corrected to the per-stage form; the paper's
    # "m >= sum_i x" is infeasible as soon as two stages share a core).
    for i in range(n):
        for k in range(nk):
            for u in range(p):
                for v in range(q):
                    ub({x_idx[(i, k, u, v)]: 1.0, m_idx[(k, u, v)]: -1.0}, 0.0)
    for u in range(p):
        for v in range(q):
            ub({m_idx[(k, u, v)]: 1.0 for k in range(nk)}, 1.0)

    # --- communication start / co-location ------------------------------
    for (i, j) in edges:
        for u in range(p):
            for v in range(q):
                # If i and j share (u,v) at speed k, no comm leaves (u,v).
                for k in range(nk):
                    row = cplus(i, j, u, v)
                    add(row, x_idx[(i, k, u, v)], 1.0)
                    add(row, x_idx[(j, k, u, v)], 1.0)
                    ub(row, 2.0)
                # If i is on (u,v) and j is elsewhere, a comm must leave:
                # c+ >= sum_k x[i,k,u,v] - sum_k x[j,k,u,v].
                row = {idx: -coef for idx, coef in cplus(i, j, u, v).items()}
                for k in range(nk):
                    add(row, x_idx[(i, k, u, v)], 1.0)
                    add(row, x_idx[(j, k, u, v)], -1.0)
                ub(row, 0.0)

    # --- forwarding / stopping -------------------------------------------
    for (i, j) in edges:
        for d, (du, dv) in DIRS.items():
            for u in range(p):
                for v in range(q):
                    idx = c_idx.get((i, j, d, u, v))
                    if idx is None:
                        continue
                    uu, vv = u + du, v + dv
                    # c[d] <= c+(neighbour) + sum_k x[j,k,neighbour]
                    row = {idx: 1.0}
                    for nidx, coef in cplus(i, j, uu, vv).items():
                        add(row, nidx, -coef)
                    for k in range(nk):
                        add(row, x_idx[(j, k, uu, vv)], -1.0)
                    ub(row, 0.0)
                    # c+(neighbour) + sum_k x[j,k,neighbour] <= 2 - c[d]
                    row = {idx: 1.0}
                    for nidx, coef in cplus(i, j, uu, vv).items():
                        add(row, nidx, coef)
                    for k in range(nk):
                        add(row, x_idx[(j, k, uu, vv)], 1.0)
                    ub(row, 2.0)

    # --- cycle prevention (corrected sign, see module docstring) ----------
    for (i, j) in edges:
        for u in range(p):
            for v in range(q):
                row: dict[int, float] = {}
                for d, (du, dv) in DIRS.items():
                    # Flow entering (u,v) = flow leaving the neighbour
                    # toward (u,v): direction opposite of d from (u+du,v+dv).
                    opp = {"N": "S", "S": "N", "W": "E", "E": "W"}[d]
                    idx = c_idx.get((i, j, opp, u + du, v + dv))
                    if idx is not None:
                        add(row, idx, 1.0)
                if not row:
                    continue
                for k in range(nk):
                    add(row, x_idx[(i, k, u, v)], 1.0)
                ub(row, 1.0)

    # --- DAG-partition constraint ------------------------------------------
    desc = descendant_masks(spg)
    for i in range(n):
        for ip in range(n):
            if ip == i or not (desc[i] >> ip) & 1:
                continue
            for j in range(n):
                if j in (i, ip) or not (desc[ip] >> j) & 1:
                    continue
                for k in range(nk):
                    for u in range(p):
                        for v in range(q):
                            ub(
                                {
                                    x_idx[(i, k, u, v)]: 1.0,
                                    x_idx[(j, k, u, v)]: 1.0,
                                    x_idx[(ip, k, u, v)]: -1.0,
                                },
                                1.0,
                            )

    # --- period constraints -------------------------------------------------
    # Stated in fractions of the period: on raw cycle and byte counts
    # HiGHS returned a worse "optimum" for 34 of 994 small random SPGs.
    for k in range(nk):
        cycles = T * model.speeds[k]
        for u in range(p):
            for v in range(q):
                row = {
                    x_idx[(i, k, u, v)]: spg.weights[i] / cycles
                    for i in range(n)
                }
                add(row, m_idx[(k, u, v)], -1.0)
                ub(row, 0.0)
    cap_bytes = model.link_capacity(T)
    for d in DIRS:
        for u in range(p):
            for v in range(q):
                row = {}
                for (i, j) in edges:
                    idx = c_idx.get((i, j, d, u, v))
                    if idx is not None:
                        add(row, idx, spg.edges[(i, j)] / cap_bytes)
                if row:
                    ub(row, 1.0)

    # --- objective ----------------------------------------------------------
    c_obj = np.zeros(nv)
    e_stat = model.comp_leak * T
    for (k, u, v), idx in m_idx.items():
        c_obj[idx] = e_stat
    for (i, k, u, v), idx in x_idx.items():
        s = model.speeds[k]
        c_obj[idx] = spg.weights[i] * model.dyn_power[k] / s
    for (i, j, d, u, v), idx in c_idx.items():
        c_obj[idx] = model.comm_energy(spg.edges[(i, j)])

    def densify(rows: list[dict[int, float]]) -> np.ndarray:
        A = np.zeros((len(rows), nv))
        for r, row in enumerate(rows):
            for idx, coef in row.items():
                A[r, idx] = coef
        return A

    return IlpModel(
        problem,
        c_obj,
        densify(rows_ub),
        np.array(b_ub),
        densify(rows_eq),
        np.array(b_eq),
        x_idx,
        m_idx,
        c_idx,
    )


def _milp_quietly(ilp: IlpModel, max_nodes: int):
    """Run ``milp`` on ``ilp`` with file descriptor 1 sent to /dev/null.

    HiGHS writes some lines from C code straight to descriptor 1, where
    ``redirect_stdout`` cannot catch them; other threads' output is lost.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "wb") as sink:
            os.dup2(sink.fileno(), 1)
            try:
                return milp(
                    ilp.c,
                    integrality=np.ones(ilp.n_vars),
                    bounds=Bounds(0, 1),
                    constraints=[
                        LinearConstraint(ilp.A_ub, -np.inf, ilp.b_ub),
                        LinearConstraint(ilp.A_eq, ilp.b_eq, ilp.b_eq),
                    ],
                    options={"mip_rel_gap": 0, "node_limit": max_nodes},
                )
            finally:
                os.dup2(saved, 1)
    finally:
        os.close(saved)


def ilp_optimal(
    problem: ProblemInstance, max_nodes: int = 20_000
) -> tuple[Mapping, float]:
    """Solve the ILP to proven optimality; returns (mapping, objective).

    HiGHS runs at a zero gap (its default gap returns near-optimal
    incumbents) for at most ``max_nodes`` nodes.  Raises
    :class:`HeuristicFailure` unless it proves an optimum: an incumbent
    held at the node limit may be worse, and a gap measured against it
    would be understated.
    """
    ilp = build_ilp(problem)
    res = _milp_quietly(ilp, max_nodes)
    if res.status != 0:
        raise HeuristicFailure(f"ILP: milp status {res.status}: {res.message}")
    x = np.round(res.x)
    return ilp.decode(x), float(ilp.c @ x)
