"""The four workloads: inputs made from the seed, one op per request, output checks.

Every workload treats ``postselect`` as a library and calls only public
names.  Inputs come from ``numpy.random.default_rng(seed)``, never from the
package's own ``default_rng`` or the test fixtures, so a change to the
oracle's streams or to the tests cannot change what is measured.

A workload yields segments: lists of ops, each op a triple
``(key, size, run)``.  ``run(tracer)`` performs the op and returns how many
of its ``size`` units of work failed their checks; ops with the same ``key``
repeat the same request, and latency percentiles are taken over the
per-key medians so that a single preempted op does not move the tail.
``end_of_pass`` marks the segments after which a run may stop, so every run
measures whole passes and the op mix does not depend on where the clock ran
out.
"""

from __future__ import annotations

import hashlib
import io
import json
import math

import numpy as np

import postselect as ps
from postselect.regions import write_region_csv, write_region_svg
from postselect.witness_io import witness_from_dict, witness_to_dict

import calib

ROUND_TRIP_TOL = 1e-9
PT_SECTION_S = 2.0 / (2.0 + math.sqrt(3.0))
INSCRIBED = math.pi / (3.0 * math.sqrt(3.0))  # disk share of the simplex at T = 0


def feasible_triple(rng: np.random.Generator, n: int):
    """(T, S, P) inside the projective region: P first, then S <= 1/D_1/2, then sqrt(T/S)."""
    p = rng.dirichlet(np.ones(n))
    sq = np.sqrt(p)
    total = float(sq.sum())
    s = float(rng.uniform(1e-6, 1.0 / total**2))
    lo = max(0.0, 2.0 * float(sq.max()) - total)
    r = float(rng.uniform(lo, total))
    return min(1.0, s * r * r), s, p


def uniform_triple(rng: np.random.Generator, n: int):
    """(T, S, P) uniform in the box; 30 % of them have zeroed outcomes."""
    p = rng.dirichlet(np.ones(n))
    if rng.random() < 0.3:
        k = int(rng.integers(1, n))
        p[rng.choice(n, size=k, replace=False)] = 0.0
        p /= p.sum()
    return float(rng.uniform(0.0, 1.0)), float(rng.uniform(1e-6, 1.0)), p


class RoundTrip:
    """Evaluates witnesses and checks they reproduce their target triple."""

    def __init__(self):
        self.max_deviation = 0.0

    def __call__(self, tr, w, t, s, p) -> bool:
        with tr.span("stats.evaluate"):
            ev = ps.evaluate_witness(w)
        with tr.span("bench.check"):
            if ev.n != len(p):
                return False
            dp = float(np.max(np.abs(np.asarray(ev.dist.probs) - p)))
            dev = max(abs(ev.t - t), abs(ev.s - s), dp)
            self.max_deviation = max(self.max_deviation, dev)
            return dev <= ROUND_TRIP_TOL


class ScenarioStream:
    """Closed loop, one client: decide and build one triple at a time."""

    segment_ops = 100

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        size = 40 if smoke else 3000
        self.pool = []
        for i in range(size):
            n = int(rng.integers(2, 7))
            designed = i % 2 == 0
            t, s, p = feasible_triple(rng, n) if designed else uniform_triple(rng, n)
            self.pool.append((t, s, p, tuple(float(x) for x in p), designed))
        self.check = RoundTrip()
        self.json_bytes: list[int] = []
        self.cal = calib.Scenario()

    def feasible_share(self) -> float:
        """Share of the pool the raw checker calls feasible: pins the input mix."""
        feasible = sum(
            ps.check_projective_raw(ps.ScenarioTriple(t, s, ps.OutcomeDistribution(pt))).feasible
            for t, s, _, pt, _ in self.pool
        )
        return feasible / len(self.pool)

    def op(self, i: int):
        t, s, p, ptuple, designed = self.pool[i]

        def run(tr):
            with tr.span("core.scenario_new"):
                sc = ps.ScenarioTriple(t, s, ps.OutcomeDistribution(ptuple))
            with tr.span("feasibility.check_raw"):
                raw = ps.check_projective_raw(sc)
            with tr.span("feasibility.check_chain"):
                chain = ps.check_projective_chain(sc)
            ok = raw.feasible == chain.feasible and (raw.feasible or not designed)
            if raw.feasible:
                with tr.span("construct.projective"):
                    w = ps.construct_projective(sc)
                ok &= self.check(tr, w, t, s, p)
            with tr.span("construct.generalized"):
                g = ps.construct_generalized(sc)
            ok &= self.check(tr, g, t, s, p)
            if i % 10 == 0:
                with tr.span("witness_io.encode"):
                    text = json.dumps(witness_to_dict(g))
                with tr.span("witness_io.decode"):
                    g = witness_from_dict(json.loads(text))
                self.json_bytes.append(len(text))
                ok &= self.check(tr, g, t, s, p)
            return 0 if ok else 1

        return i, 1, run

    def segments(self):
        i = 0
        while True:
            seg = [self.op((i + k) % len(self.pool)) for k in range(self.segment_ops)]
            i += self.segment_ops
            yield seg, True


class WideWitness:
    """Closed loop, one client: projective witnesses up a ladder of n."""

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        # The ladder stops at 96: one n = 128 witness takes about 4 s, too few
        # per run to average out a shared machine's swings in speed.
        self.ladder = (4, 8) if smoke else (16, 32, 64, 96)
        self.pool = {n: [feasible_triple(rng, n) for _ in range(2)] for n in self.ladder}
        self.check = RoundTrip()
        self.cal = calib.Wide()

    def op(self, n: int, k: int):
        t, s, p = self.pool[n][k % 2]
        ptuple = tuple(float(x) for x in p)

        def run(tr):
            sc = ps.ScenarioTriple(t, s, ps.OutcomeDistribution(ptuple))
            with tr.span("construct.projective", n=n):
                w = ps.construct_projective(sc)
            return 0 if self.check(tr, w, t, s, p) else 1

        return n, 1, run

    def segments(self):
        k = 0
        while True:
            for j, n in enumerate(self.ladder):
                yield [self.op(n, k)], j == len(self.ladder) - 1
            k += 1


class FuzzCampaign:
    """Closed loop, one client: run_campaign calls alternating a full-rank and a partitioned shape.

    Each call runs on ``workers`` threads, passed explicitly, in chunks sized
    so that every worker gets two.
    """

    # (d, n, samples): sample counts about 5:1, so each shape takes about half the time.
    full_shapes = ((3, 3, 250_000), (6, 3, 50_000))
    smoke_shapes = ((3, 3, 4_000), (6, 3, 800))

    def __init__(self, seed: int, smoke: bool, workers: int):
        self.rng = np.random.default_rng(seed)
        self.shapes = self.smoke_shapes if smoke else self.full_shapes
        self.workers = workers
        self.violations = 0
        self.reports: dict[tuple, object] = {}  # first campaign of each shape
        self.cal = calib.Fuzz(workers)

    def campaign(self, d, n, samples, seed, workers, tr):
        chunk = -(-samples // (2 * self.workers))
        with tr.span("oracle.run_campaign", d=d, n=n, samples=samples, workers=workers):
            return ps.run_campaign(d, n, samples, seed, max_workers=workers, chunk=chunk)

    def op(self, d, n, samples, seed):
        def run(tr):
            rep = self.campaign(d, n, samples, seed, self.workers, tr)
            self.reports.setdefault((d, n, samples), (seed, rep))
            self.violations += len(rep.violations)
            return samples if rep.samples != samples else len(rep.violations)

        return (d, n), samples, run

    def segments(self):
        while True:
            for j, (d, n, samples) in enumerate(self.shapes):
                seed = int(self.rng.integers(0, 2**32))
                yield [self.op(d, n, samples, seed)], j == len(self.shapes) - 1

    def single_worker_mismatches(self, tr) -> int:
        """Replay the first campaign of each shape on one worker; count digest mismatches."""
        bad = 0
        for (d, n, samples), (seed, rep) in self.reports.items():
            again = self.campaign(d, n, samples, seed, 1, tr)
            bad += again.digest() != rep.digest()
        return bad


class HashSink(io.TextIOBase):
    """Text stream that keeps only the SHA-256 and byte count of what is written."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self._buf: list[str] = []
        self.nbytes = 0

    def write(self, s: str) -> int:
        self._buf.append(s)
        if len(self._buf) >= 4096:
            self._flush()
        return len(s)

    def _flush(self):
        data = "".join(self._buf).encode()
        self._buf.clear()
        self._hash.update(data)
        self.nbytes += len(data)

    def hexdigest(self) -> str:
        self._flush()
        return self._hash.hexdigest()


# SHA-256 of each map's CSV, pinned from the unmodified package.
CSV_SHA256 = {
    "ternary": "253e7e660db2384a726139f1be4304092f72de24568ae537b3c9e31b619eb66d",
    "ps": "34676442eb52364c0bc8aeedc1def51cfb400b85785130821431a64fb70d7213",
    "pt": "527fd298878a84ec91d7667b1fe12ceac5bec9012e9e212d21d88bfbaaa5ea3e",
    "ts": "cb19137af7a5519fc8f3f442e403f01c58051d09cffd8b389f560dc8da66feec",
}
SMOKE_CSV_SHA256 = {
    "ternary": "becbf8c5f740380577573e67326c53749052042863db77e3ed724af6b298a1a1",
    "ps": "f161f8c75a0da94bcd62761f8ccc9be1d1640831221fb44389ab5a759cb5ed52",
    "pt": "6650de264c3438061f78d58917213ba6ce463d505d02c9bcd845d85334fc00a4",
    "ts": "c40ecacf565e657d628459739c2662885901f712ddc87efa11826942c37ff011",
}


class RegionMap:
    """Closed loop, one client: the four region maps, each written as CSV and SVG."""

    def __init__(self, seed: int, smoke: bool):
        # The maps have no random inputs, so the seed changes nothing here; their
        # order is fixed too, since each map runs on the heap the previous one left.
        big, small = (200, 40) if smoke else (400, 200)
        self.maps = {
            "ternary": (lambda: ps.emit_ternary(big), big * big),
            "ps": (lambda: ps.emit_ps_region(small), small * small),
            "pt": (lambda: ps.emit_pt_sections(PT_SECTION_S, small), small * small),
            "ts": (lambda: ps.emit_ts_region(3, small), small * small),
        }
        self.pinned = SMOKE_CSV_SHA256 if smoke else CSV_SHA256
        self.sizes: dict[str, tuple[int, int]] = {}
        self.cal = calib.Region()

    def op(self, name: str):
        emit, cells = self.maps[name]

        def run(tr):
            with tr.span("regions.emit", map=name):
                grid = emit()
            csv, svg = HashSink(), HashSink()
            with tr.span("regions.csv", map=name):
                write_region_csv(grid, csv)
            with tr.span("regions.svg", map=name):
                write_region_svg(grid, svg)
            with tr.span("bench.check"):
                ok = csv.hexdigest() == self.pinned[name]
                svg.hexdigest()
                self.sizes[name] = (csv.nbytes, svg.nbytes)
                if name == "ternary":
                    ok &= abs(ternary_fraction(grid) / INSCRIBED - 1.0) <= 0.01
            return 0 if ok else cells

        return name, cells, run

    def segments(self):
        while True:
            for j, name in enumerate(self.maps):
                yield [self.op(name)], j == len(self.maps) - 1



def ternary_fraction(grid) -> float:
    """Feasible share of the ternary cells that lie inside the simplex."""
    p1, p2 = grid.coords[:, 0], grid.coords[:, 1]
    inside = 1.0 - p1 - p2 >= -ps.EPS_FEAS
    return float(grid.feasible[inside].mean())


def make(name: str, seed: int, smoke: bool, workers: int):
    if name == "scenario-stream":
        return ScenarioStream(seed, smoke)
    if name == "wide-witness":
        return WideWitness(seed, smoke)
    if name == "fuzz-campaign":
        return FuzzCampaign(seed, smoke, workers)
    if name == "region-map":
        return RegionMap(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
