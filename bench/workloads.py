"""The benchmark's workloads: seeded inputs, CLI command, output checks.

Each workload has a fixed shape; only its contents come from the seed.
The program sees nothing but the generated files and flags.  Checks test
invariants and independent references (``oracles``), never golden bytes,
so that a different exact propagator or a reordered assembly still
passes.

A row is one (kappa, t) pair of a sweep, one refinement level of
``duality-check`` or one lambda of ``resolvent-check``.  A process that
exits without a well-formed CSV fails every row it was asked for.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

STAR_CONFIG = os.path.join("configs", "star.json")
STAR_EDGES = ("E1", "E2", "E3")
SWEEP_KAPPAS = (1.0, 10.0, 100.0, 1000.0, 10000.0)
SWEEP_TIMES = (0.25, 0.5, 1.0, 2.0)
SWEEP_COLUMNS = ("kappa", "t", "err_l1", "err_l2", "err_projected", "mass_drift", "min_value")

# |mass_drift| bound for the dense-expm sweeps.  Round-off in expm grows
# with ||tA||_1, so the drift grows with kappa: at kappa = 1e4 it reaches
# 1.4e-7 on FV and 1.0e-6 on FEM (phi0 on E3), against 1e-12 at kappa = 1.
# The bound sits an order above that known defect (ROADMAP item 5, kept
# visible as evolution.mass_drift_max) and four below the drift of a
# propagator that loses mass at the membrane rates.
MASS_DRIFT_BOUND = 1e-5
# FV with first-order traces is positivity-preserving up to round-off.
MIN_VALUE_FLOOR = -1e-12
# kappa * err at the two largest kappas (the 1/kappa law).  They agree to
# 0.7% on FV; on FEM the same expm round-off shifts the smallest errors
# (t = 2) by up to 3.5%.  A wrong rate moves the ratio by a factor, not
# by percent.
KAPPA_LAW_RTOL = 0.05

PATH_EDGES = 1000
DUALITY_H = 0.25
DUALITY_LEVELS = 3
# the CLI's own rule: each refinement must shrink the defect to <= 0.75x
DUALITY_RATIO_MAX = 0.75
# The reference defect is an independent summation of the same pairing,
# so it agrees to round-off of the pairings (about 1e-13 relative here).
DUALITY_RTOL = 1e-8

RESOLVENT_DEGREE = 4
RESOLVENT_LAMBDAS = 200
RESOLVENT_LAM_MAX, RESOLVENT_LAM_MIN = 1e-1, 1e-8
RESOLVENT_EVAL_NODES = 2001
RESOLVENT_RTOL = 1e-6
# Known failure, left standing: the closed form with a polynomial source
# loses accuracy as lambda shrinks (degree >= 2), so rows below about
# 1e-3 miss the reference and the CLI exits 3.  Rows at or above this
# lambda are accurate to about 1e-10 and must pass.
RESOLVENT_HEALTHY_LAM = 1e-2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class Outcome:
    """Checked result of one CLI run."""

    rows: int
    failed: int = 0
    # failures that the workload records as a known, standing defect
    known_failed: int = 0
    # every other failure; any of them makes the run incorrect
    problems: list = field(default_factory=list)


def _read_csv(path, header):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError:
        return None
    if not rows or tuple(rows[0]) != tuple(header):
        return None
    return rows[1:]


# ---------------------------------------------------------------------------

class Workload:
    name = ""
    command_shape = ""
    rows = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.out_csv = os.path.join(workdir, f"{self.name}.csv")

    def argv(self, out_csv=None) -> list:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def prepare_reference(self) -> None:
        """Compute the independent reference once, outside timed runs."""

    def check(self, exit_code: int, out_csv) -> Outcome:
        raise NotImplementedError

    def mass_drift_max(self, out_csv) -> float:
        return 0.0


class Sweep(Workload):
    disc = ""
    rows = len(SWEEP_KAPPAS) * len(SWEEP_TIMES)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.phi0_edge = STAR_EDGES[int(self.rng.integers(len(STAR_EDGES)))]

    def argv(self, out_csv=None):
        return [
            "sweep",
            "--graph", STAR_CONFIG,
            "--disc", self.disc,
            "--phi0", f"indicator:{self.phi0_edge}",
            "--out", out_csv or self.out_csv,
        ]

    def sizes(self):
        unknowns = 600 if self.disc == "fv" else 603
        return {
            "edges": 3,
            "unknowns": unknowns,
            "kappas": len(SWEEP_KAPPAS),
            "times": len(SWEEP_TIMES),
            "h": 0.005,
            "phi0": f"indicator:{self.phi0_edge}",
        }

    def check(self, exit_code, out_csv):
        out = Outcome(rows=self.rows)
        rows = _read_csv(out_csv, SWEEP_COLUMNS)
        expected = [(k, t) for k in SWEEP_KAPPAS for t in SWEEP_TIMES]
        try:
            values = [[float(v) for v in r] for r in rows] if rows is not None else None
        except ValueError:
            values = None
        if values is None or [(r[0], r[1]) for r in values] != expected or any(len(r) != 7 for r in values):
            out.failed = out.rows
            out.problems.append(f"exit {exit_code}: missing or malformed sweep CSV")
            return out
        err_col = 2 if self.disc == "fv" else 3
        bad = set()
        for idx, r in enumerate(values):
            if not all(np.isfinite(r)):
                bad.add(idx)
                out.problems.append(f"kappa={_fmt(r[0])} t={_fmt(r[1])}: non-finite value")
            if abs(r[5]) > MASS_DRIFT_BOUND:
                bad.add(idx)
                out.problems.append(f"kappa={_fmt(r[0])} t={_fmt(r[1])}: |mass_drift| {r[5]:.3g} > {MASS_DRIFT_BOUND}")
            if self.disc == "fv" and r[6] < MIN_VALUE_FLOOR:
                bad.add(idx)
                out.problems.append(f"kappa={_fmt(r[0])} t={_fmt(r[1])}: min_value {r[6]:.3g} < 0")
        nt = len(SWEEP_TIMES)
        for ti, t in enumerate(SWEEP_TIMES):
            col = [values[ki * nt + ti][err_col] for ki in range(len(SWEEP_KAPPAS))]
            for ki in range(1, len(col)):
                # the CLI's own monotonicity test, per t
                if col[ki] > col[ki - 1] + 1e-12 * (1.0 + col[ki - 1]):
                    bad.add(ki * nt + ti)
                    out.problems.append(f"t={_fmt(t)}: error rises at kappa={_fmt(SWEEP_KAPPAS[ki])}")
            k1, k2 = SWEEP_KAPPAS[-2], SWEEP_KAPPAS[-1]
            c1, c2 = k1 * col[-2], k2 * col[-1]
            if not abs(c2 - c1) <= KAPPA_LAW_RTOL * abs(c1):
                bad.add((len(SWEEP_KAPPAS) - 1) * nt + ti)
                out.problems.append(f"t={_fmt(t)}: kappa*err {c1:.5g} vs {c2:.5g} breaks the 1/kappa law")
        if exit_code != 0 and not bad:
            out.problems.append(f"exit {exit_code} with every row passing")
            bad = set(range(out.rows))
        out.failed = len(bad)
        return out

    def mass_drift_max(self, out_csv):
        rows = _read_csv(out_csv, SWEEP_COLUMNS)
        return max((abs(float(r[5])) for r in rows), default=0.0) if rows else 0.0


class StarFV(Sweep):
    name = "star-fv"
    disc = "fv"
    command_shape = "sweep --graph configs/star.json --disc fv --phi0 indicator:<seeded edge>"


class StarFEM(Sweep):
    name = "star-fem"
    disc = "fem"
    command_shape = "sweep --graph configs/star.json --disc fem --phi0 indicator:<seeded edge>"


class PathDuality(Workload):
    name = "path-duality"
    command_shape = "duality-check --graph <seeded 1000-edge path> --h 0.25 --levels 3 --seed <seeded>"
    rows = DUALITY_LEVELS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.graph_path = os.path.join(workdir, "path.json")
        self.cli_seed = int(self.rng.integers(2**31))
        self.config = self._path_config()
        self.reference = None
        with open(self.graph_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)

    def _path_config(self):
        n = PATH_EDGES
        sigma = self.rng.uniform(0.5, 2.0, size=n)
        # membrane permeabilities at the n - 1 interior vertices, both
        # sides; each passes on exactly what it absorbs (conservative)
        right = self.rng.uniform(0.5, 1.5, size=n - 1)
        left = self.rng.uniform(0.5, 1.5, size=n - 1)
        ids = [f"E{k:04d}" for k in range(n)]
        edges = []
        for k in range(n):
            edge = {
                "id": ids[k],
                "length": 1.0,
                "sigma": float(sigma[k]),
                "left_vertex": f"v{k}",
                "right_vertex": f"v{k + 1}",
                "l": 0.0,
                "r": 0.0,
                "l_to": {},
                "r_to": {},
            }
            if k > 0:
                edge["l"] = float(left[k - 1])
                edge["l_to"] = {ids[k - 1]: float(left[k - 1])}
            if k < n - 1:
                edge["r"] = float(right[k])
                edge["r_to"] = {ids[k + 1]: float(right[k])}
            edges.append(edge)
        return {"edges": edges}

    def argv(self, out_csv=None):
        return [
            "duality-check",
            "--graph", self.graph_path,
            "--h", _fmt(DUALITY_H),
            "--levels", str(DUALITY_LEVELS),
            "--seed", str(self.cli_seed),
            "--out", out_csv or self.out_csv,
        ]

    def sizes(self):
        return {
            "edges": PATH_EDGES,
            "cells": [PATH_EDGES * int(round(1.0 / DUALITY_H)) * 2**k for k in range(DUALITY_LEVELS)],
            "levels": DUALITY_LEVELS,
            "cli_seed": self.cli_seed,
        }

    def prepare_reference(self):
        self.reference = oracles.duality_defects(self.config, 1.0, DUALITY_H, DUALITY_LEVELS, self.cli_seed)

    def check(self, exit_code, out_csv):
        out = Outcome(rows=self.rows)
        rows = _read_csv(out_csv, ("h", "defect", "ratio"))
        try:
            values = [(float(r[0]), float(r[1]), float(r[2]) if k else None) for k, r in enumerate(rows or ())]
        except (ValueError, IndexError):
            values = None
        if not values or len(values) != DUALITY_LEVELS:
            out.failed = out.rows
            out.problems.append(f"exit {exit_code}: missing or malformed duality CSV")
            return out
        bad = set()
        floor = 1e-12 * max(1.0, values[0][1])
        for k, (h, defect, ratio) in enumerate(values):
            ref = self.reference[k]
            if h != DUALITY_H / 2**k:
                bad.add(k)
                out.problems.append(f"level {k}: h {h} != {DUALITY_H / 2**k}")
            if not abs(defect - ref) <= DUALITY_RTOL * abs(ref):
                bad.add(k)
                out.problems.append(f"level {k}: defect {defect!r} != reference {ref!r}")
            if k == 0:
                continue
            prev = values[k - 1][1]
            if not abs(ratio - defect / prev) <= 1e-12 * abs(defect / prev):
                bad.add(k)
                out.problems.append(f"level {k}: ratio {ratio!r} != defect quotient {defect / prev!r}")
            elif defect > floor and defect > DUALITY_RATIO_MAX * prev and k not in bad:
                # the defect is the magnitude of a signed quantity; on some
                # seeded paths it passes near zero at a coarse level, so the
                # ratio rule fails without any wrong number (known, standing)
                bad.add(k)
                out.known_failed += 1
        expected_exit = 3 if out.known_failed else 0
        if exit_code != expected_exit:
            out.problems.append(f"exit {exit_code}, expected {expected_exit} for these defects")
            bad = set(range(out.rows))
        out.failed = len(bad)
        return out


class ResolventAveraging(Workload):
    name = "resolvent-averaging"
    command_shape = "resolvent-check --phi poly:<5 seeded coefficients> --lambdas <200 geometric, 1e-1..1e-8>"
    rows = RESOLVENT_LAMBDAS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.coeffs = [float(c) for c in self.rng.uniform(-1.0, 1.0, size=RESOLVENT_DEGREE + 1)]
        self.lams = [float(v) for v in np.geomspace(RESOLVENT_LAM_MAX, RESOLVENT_LAM_MIN, RESOLVENT_LAMBDAS)]
        self.phi_flag = "poly:" + ",".join(_fmt(c) for c in self.coeffs)
        self.lam_flag = ",".join(_fmt(v) for v in self.lams)
        self.reference = None

    def argv(self, out_csv=None):
        return [
            "resolvent-check",
            "--phi", self.phi_flag,
            "--lambdas", self.lam_flag,
            "--out", out_csv or self.out_csv,
        ]

    def sizes(self):
        return {
            "lambdas": RESOLVENT_LAMBDAS,
            "eval_nodes": RESOLVENT_EVAL_NODES,
            "degree": RESOLVENT_DEGREE,
            "lambda_range": [RESOLVENT_LAM_MAX, RESOLVENT_LAM_MIN],
        }

    def prepare_reference(self):
        self.reference = oracles.averaging_distances(self.coeffs, self.lams, RESOLVENT_EVAL_NODES)

    def check(self, exit_code, out_csv):
        out = Outcome(rows=self.rows)
        rows = _read_csv(out_csv, ("lambda", "l1_distance"))
        try:
            values = [(float(a), float(b)) for a, b in rows] if rows is not None else None
        except ValueError:
            values = None
        if values is None or [lam for lam, _ in values] != self.lams:
            out.failed = out.rows
            out.problems.append(f"exit {exit_code}: missing or malformed resolvent CSV")
            return out
        for (lam, dist), ref in zip(values, self.reference):
            if abs(dist - ref) <= RESOLVENT_RTOL * ref:
                continue
            out.failed += 1
            if lam >= RESOLVENT_HEALTHY_LAM:
                out.problems.append(f"lambda={_fmt(lam)}: distance {dist!r} vs reference {ref!r}")
            else:
                out.known_failed += 1
        # exit 3 is the CLI's own report of the known failure
        if exit_code not in (0, 3) or (exit_code == 3 and not out.known_failed):
            out.problems.append(f"unexpected exit {exit_code}")
            out.failed = out.rows
        return out


WORKLOADS = {w.name: w for w in (StarFV, StarFEM, PathDuality, ResolventAveraging)}
