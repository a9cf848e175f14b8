"""Per-layer tracing from the benchmark's side: wrappers around the public
functions of each polarspread module, spans kept in memory, and the
per-layer metrics derived from them.

A span is (name, parent span, start, end, count).  A layer's self time is
its spans' durations minus the time their child spans cover, so a
function's self time excludes the time spent in any other traced function.
Rates (``*_per_s``) divide by the function's inclusive time.

``from .linalg import rref`` binds the function object into the importing
module, so every module attribute that is the original object gets the
wrapper, not only the defining module's.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

import numpy as np


def _size(res, args) -> int:
    return int(np.size(res))


def _len(res, args) -> int:
    return len(res)


def _nodes(res, args) -> int:
    return int(res.nodes)


def _saved_bytes(res, args) -> int:
    return Path(args[1]).stat().st_size


def _family_id(res, args) -> str:
    fam = res[0] if isinstance(res, tuple) else res  # folklore_pair returns two
    return fam.provenance.family


MODULES = ("gf", "linalg", "spaces", "octonion", "families", "verify", "artifacts", "cli")


# (module, qualified name, count function or None)
TRACED = [
    ("gf", "FieldTower.vmul", _size),
    ("gf", "FieldTower.vadd", _size),
    ("gf", "FieldTower.vinv", None),
    ("linalg", "rref", None),
    ("linalg", "canonicalize", None),
    ("linalg", "point_keys", _size),
    ("spaces", "FormedSpace.maximal_totally_singular", _len),
    ("spaces", "FormedSpace.singular_points", _len),
    ("spaces", "FormedSpace.vqform", None),
    ("spaces", "FormedSpace.vbform", _size),
    ("spaces", "perp_adjacency", None),
    ("octonion", "triality_subspace_of_point", None),
    ("verify", "check_maximal_spread", _nodes),
    ("verify", "is_partial_spread", None),
    ("verify", "cover_report", None),
    ("verify", "brute_force_spread_verdict", None),
    ("verify", "check_maximal_ovoid", _nodes),
    ("verify", "hyperplane_census", None),
    ("artifacts", "save", _saved_bytes),
    ("artifacts", "load", None),
    ("cli", "main", None),
]

# public constructors and transforms of the families module
BUILDERS = [
    "desarguesian_symplectic_spread",
    "transversal_spread",
    "orthogonal_spread",
    "descended_spread",
    "folklore_pair",
    "grassl_spread",
    "desarguesian_ovoid",
    "orthovoid_bullet",
    "elliptic_or_o5_partial_ovoid",
    "suzuki_tits_ovoid",
    "st_pencil_replace",
    "st_section_replace",
    "st_circle_replace",
    "two_quadrics_ovoid",
    "sp6_line_replace",
    "conic_replace",
    "three_lines",
    "klein_family",
    "triality_pointset",
    "project_family",
    "descend_family",
]

# traced functions whose call count and self time are reported
SELF_TIMED = [
    "gf.vmul", "gf.vadd", "gf.vinv", "linalg.rref", "linalg.canonicalize",
    "linalg.point_keys", "spaces.maximal_totally_singular", "spaces.singular_points",
    "spaces.vqform", "spaces.vbform", "spaces.perp_adjacency",
    "verify.check_maximal_spread", "verify.is_partial_spread", "verify.cover_report",
    "verify.brute_force_spread_verdict", "verify.check_maximal_ovoid",
    "verify.hyperplane_census", "octonion.triality_subspace_of_point",
    "artifacts.save", "artifacts.load", "cli.main",
]

# the stat name under which each counted function's counts are summed
COUNTED = {
    "gf.vmul": "elems",
    "gf.vadd": "elems",
    "linalg.point_keys": "rows",
    "spaces.maximal_totally_singular": "results",
    "spaces.singular_points": "points",
    "spaces.vbform": "rows",
    "verify.check_maximal_spread": "nodes",
    "verify.check_maximal_ovoid": "candidates",
    "artifacts.save": "bytes",
}

# family ids the workloads build; any other id is summed under "other"
FAMILY_IDS = [
    "desarguesian", "thm3.1", "prop4.1", "thm4.3", "ex5.1", "thm5.2i", "thm5.2ii",
    "appA", "thm7.2", "thm7.3", "ex7.4", "lem7.5-st", "lem7.5-o5", "lem7.8",
    "thm7.10", "thm7.11", "thm7.12", "thm8.1", "thm9.1", "ex9.2", "appB-st",
    "triality", "project", "descend", "other",
]

# (metric name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("gf.vmul.calls", "count"),
    ("gf.vmul.elems", "count"),
    ("gf.vmul.self_s", "s"),
    ("gf.vmul.elems_per_s", "1/s"),
    ("gf.vadd.calls", "count"),
    ("gf.vadd.elems", "count"),
    ("gf.vadd.self_s", "s"),
    ("gf.vinv.calls", "count"),
    ("gf.vinv.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.calls_per_s", "1/s"),
    ("linalg.canonicalize.calls", "count"),
    ("linalg.canonicalize.self_s", "s"),
    ("linalg.point_keys.calls", "count"),
    ("linalg.point_keys.rows", "count"),
    ("linalg.point_keys.self_s", "s"),
    ("spaces.maximal_totally_singular.calls", "count"),
    ("spaces.maximal_totally_singular.results", "count"),
    ("spaces.maximal_totally_singular.self_s", "s"),
    ("spaces.maximal_totally_singular.results_per_s", "1/s"),
    ("spaces.maximal_totally_singular.vmul_elems_per_result", "count"),
    ("spaces.singular_points.points", "count"),
    ("spaces.singular_points.self_s", "s"),
    ("spaces.vqform.calls", "count"),
    ("spaces.vqform.self_s", "s"),
    ("spaces.vbform.calls", "count"),
    ("spaces.vbform.rows", "count"),
    ("spaces.vbform.self_s", "s"),
    ("spaces.perp_adjacency.calls", "count"),
    ("spaces.perp_adjacency.self_s", "s"),
    ("verify.check_maximal_spread.calls", "count"),
    ("verify.check_maximal_spread.self_s", "s"),
    ("verify.check_maximal_spread.nodes", "count"),
    ("verify.check_maximal_spread.nodes_per_s", "1/s"),
    ("verify.is_partial_spread.calls", "count"),
    ("verify.is_partial_spread.self_s", "s"),
    ("verify.cover_report.calls", "count"),
    ("verify.cover_report.self_s", "s"),
    ("verify.brute_force_spread_verdict.calls", "count"),
    ("verify.brute_force_spread_verdict.self_s", "s"),
    ("verify.check_maximal_ovoid.calls", "count"),
    ("verify.check_maximal_ovoid.self_s", "s"),
    ("verify.check_maximal_ovoid.candidates", "count"),
    ("verify.check_maximal_ovoid.candidates_per_s", "1/s"),
    ("verify.hyperplane_census.calls", "count"),
    ("verify.hyperplane_census.self_s", "s"),
    ("octonion.triality_subspace_of_point.calls", "count"),
    ("octonion.triality_subspace_of_point.self_s", "s"),
    ("families.build.self_s", "s"),
    *[(f"families.build.{fid}.self_s", "s") for fid in FAMILY_IDS],
    ("artifacts.save.calls", "count"),
    ("artifacts.save.bytes", "B"),
    ("artifacts.save.self_s", "s"),
    ("artifacts.load.calls", "count"),
    ("artifacts.load.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
]


class Tracer:
    """Span recorder.  ``install`` wraps the traced functions in place, so
    the process that installs it should end after its traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: list = []  # an int, or the family id for builder spans
        self.stack: list[int] = [-1]

    def wrap(self, name: str, fn, count):
        names, parents, starts, ends, counts, stack = (
            self.names, self.parents, self.starts, self.ends, self.counts, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            counts.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counts[idx] = count(res, args)
            return res

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"polarspread.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}  # id(original function) -> wrapper
        for mod, qual, count in TRACED:
            owner = mods[mod]
            *cls, attr = qual.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                setattr(owner, attr, self.wrap(f"{mod}.{attr}", getattr(owner, attr), count))
            else:
                fn = getattr(owner, attr)
                wrappers[id(fn)] = self.wrap(f"{mod}.{attr}", fn, count)
        for attr in BUILDERS:
            fn = getattr(mods["families"], attr)
            wrappers[id(fn)] = self.wrap("families.build", fn, _family_id)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])

    def truncate(self, n: int) -> None:
        """Drop every span after the first n."""
        for spans in (self.names, self.parents, self.starts, self.ends, self.counts):
            del spans[n:]

    def write(self, path: Path) -> None:
        """Save the spans as numpy arrays (``np.load(path)``): ``name`` and
        ``family`` index the ``names`` and ``families`` lists (family is -1
        except on builder spans), ``parent`` is a span index or -1, ``start``
        and ``end`` are perf_counter seconds, ``count`` the span's count."""
        names = sorted(set(self.names))
        families = sorted({c for c in self.counts if isinstance(c, str)})
        name_code = {n: i for i, n in enumerate(names)}
        fam_code = {f: i for i, f in enumerate(families)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as f:
            np.savez(
                f,
                names=np.array(names),
                families=np.array(families),
                name=np.array([name_code[n] for n in self.names], dtype=np.int16),
                parent=np.array(self.parents, dtype=np.int64),
                start=np.array(self.starts),
                end=np.array(self.ends),
                count=np.array([c if isinstance(c, int) else 0 for c in self.counts], dtype=np.int64),
                family=np.array([fam_code.get(c, -1) if isinstance(c, str) else -1 for c in self.counts],
                                dtype=np.int16),
            )

    def op_counts(self, lo: int, hi: int) -> dict[str, int]:
        """The counted stats of spans lo..hi-1, e.g. one op's search nodes."""
        out: dict[str, int] = {}
        for name, c in zip(self.names[lo:hi], self.counts[lo:hi]):
            if name in COUNTED:
                key = f"{name}.{COUNTED[name]}"
                out[key] = out.get(key, 0) + c
        return out

    def metrics(self) -> dict[str, float]:
        n = len(self.names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        agg: dict[str, list] = {}  # name -> [calls, self_s, total_s, count]
        fam_self = dict.fromkeys(FAMILY_IDS, 0.0)
        mts = [-1] * n  # nearest enclosing maximal_totally_singular span
        mts_vmul_elems = 0
        for i in range(n):
            name, p, c = self.names[i], self.parents[i], self.counts[i]
            own = dur[i] - child[i]
            a = agg.setdefault(name, [0, 0.0, 0.0, 0])
            a[0] += 1
            a[1] += own
            a[2] += dur[i]
            if name == "families.build":
                fam_self[c if c in fam_self else "other"] += own
            else:
                a[3] += c
            # spans are numbered at entry, so a parent precedes its children
            if name == "spaces.maximal_totally_singular":
                mts[i] = i
            elif p >= 0:
                mts[i] = mts[p]
            if name == "gf.vmul" and mts[i] >= 0:
                mts_vmul_elems += c

        def get(key):
            return agg.get(key, [0, 0.0, 0.0, 0])

        def rate(num, key):
            total = get(key)[2]
            return num / total if total > 0 else 0.0

        out: dict[str, float] = {}
        for key in SELF_TIMED:
            calls, own, _total, _count = get(key)
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = own
        for key, stat in COUNTED.items():
            out[f"{key}.{stat}"] = get(key)[3]
        out["gf.vmul.elems_per_s"] = rate(get("gf.vmul")[3], "gf.vmul")
        out["linalg.rref.calls_per_s"] = rate(get("linalg.rref")[0], "linalg.rref")
        results = get("spaces.maximal_totally_singular")[3]
        out["spaces.maximal_totally_singular.results_per_s"] = rate(
            results, "spaces.maximal_totally_singular"
        )
        out["spaces.maximal_totally_singular.vmul_elems_per_result"] = (
            mts_vmul_elems / results if results else 0.0
        )
        nodes = get("verify.check_maximal_spread")[3]
        out["verify.check_maximal_spread.nodes_per_s"] = rate(nodes, "verify.check_maximal_spread")
        cands = get("verify.check_maximal_ovoid")[3]
        out["verify.check_maximal_ovoid.candidates_per_s"] = rate(cands, "verify.check_maximal_ovoid")
        out["families.build.self_s"] = get("families.build")[1]
        for fid, own in fam_self.items():
            out[f"families.build.{fid}.self_s"] = own
        return {name: out[name] for name, _unit in LAYER_METRICS}
