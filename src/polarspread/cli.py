"""Command-line front end: construct families by id, verify them, apply the
projection / descent / triality transforms, run the summary table, the
hyperplane census, and fingerprints.

`FAMILIES` is the one list of family ids: each maps to the flags it takes,
with their defaults, and to its constructor; `construct` and `table` both
build through `build`.  A default applies only to an omitted flag, and a
flag the family does not take is a usage error.  The expected size printed
is the constructor's own `expected_size`, which the family checks when it
is made.

Exit codes: 0 ok, 1 verification failure, invalid or unreadable artifact
or a family that fails a transform's precondition, 2 usage error or an
output file that cannot be written, 3 a computation refused
for an array over a desk-scale cap or a search over its time budget; `main`
maps each to its code.  `table` prints one family per line as
"id params expected actual verdict millis".
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import artifacts, families as F, verify as V
from .families import FamilyError, PointFamily, SubspaceFamily
from .gf import FieldError
from .spaces import OutOfDeskScale
from .verify import SearchTimeout

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_SCALE = 3


# family id -> (flag defaults, builder).  A builder takes q and exactly the
# flags of its defaults, and looks its constructor up in `F` at call time.
FAMILIES = {
    "desarguesian": ({"n": 2}, lambda q, n: F.desarguesian_symplectic_spread(q, n)),
    "thm3.1": ({"m": 1}, lambda q, m: F.transversal_spread(q, m)),
    "prop4.1": ({"m": 2}, lambda q, m: F.orthogonal_spread(q, m)),
    "thm4.3": ({"m": 2, "k": 2}, lambda q, m, k: F.descended_spread(q, m, k)),
    "ex5.1": ({"variant": "a"}, lambda q, variant: F.folklore_pair(q)["ab".index(variant)]),
    "thm5.2i": ({"k": 2}, lambda q, k: F.grassl_spread(q, k, "i")),
    "thm5.2ii": ({"k": 2}, lambda q, k: F.grassl_spread(q, k, "ii")),
    "appA": ({}, lambda q: F.desarguesian_ovoid(q)),
    "thm7.2": ({}, lambda q: F.orthovoid_bullet(q, 1, "A6i")),
    "thm7.3": ({"s": 1, "scheme": "A6i"}, lambda q, s, scheme: F.orthovoid_bullet(q, s, scheme)),
    "ex7.4": ({}, lambda q: F.elliptic_or_o5_partial_ovoid(q, "elliptic_quadric")),
    "lem7.5-st": ({}, lambda q: F.elliptic_or_o5_partial_ovoid(q, "suzuki_tits")),
    "lem7.5-o5": ({}, lambda q: F.elliptic_or_o5_partial_ovoid(q, "o5_generic")),
    "lem7.8": ({}, lambda q: F.two_quadrics_ovoid(q)),
    "thm7.10": ({}, lambda q: F.st_pencil_replace(q)),
    "thm7.11": ({}, lambda q: F.st_section_replace(q)),
    "thm7.12": ({"s": 2}, lambda q, s: F.st_circle_replace(q, s)),
    "thm8.1": ({}, lambda q: F.sp6_line_replace(q)),
    "thm9.1": ({"s": 1}, lambda q, s: F.conic_replace(q, s)),
    "ex9.2": ({"m": 2}, lambda q, m: F.three_lines(q, m)),
    "appB-st": ({}, lambda q: F.suzuki_tits_ovoid(q)),
}


def build(family_id: str, q: int, **given):
    """The family `family_id` over GF(q).  A flag given as None takes the
    family's default; a flag the family does not take is an error."""
    for name, value in given.items():
        if isinstance(value, int) and value < 1:
            raise FamilyError(f"{name} must be ≥ 1")
    if family_id not in FAMILIES:
        raise FamilyError(f"unknown family id {family_id!r}")
    defaults, builder = FAMILIES[family_id]
    for name, value in given.items():
        if value is not None and name not in defaults:
            raise FamilyError(f"{family_id} takes no --{name}")
    return builder(q, **{k: v if given.get(k) is None else given[k] for k, v in defaults.items()})


def cmd_construct(a) -> int:
    try:
        fam = build(
            a.family, a.q, m=a.m, k=a.k, s=a.s, n=a.n, scheme=a.scheme, variant=a.variant
        )
    except (FamilyError, FieldError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if fam.provenance.exploratory and not a.exploratory:
        print(
            f"rejected: parameters outside the proven window"
            f" '{fam.provenance.window}' (pass --exploratory to build anyway)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    # the constructor has checked its size against `expected_size`
    print(f"{fam.provenance.describe()} size={len(fam)} expected={fam.expected_size}")
    if a.output:
        artifacts.save(artifacts.family_to_dict(fam), a.output)
        print(f"wrote {a.output}")
    return EXIT_OK


def _budget_ok(budget: float | None) -> bool:
    """Whether --budget is omitted or a positive finite number of seconds;
    prints the usage error if not.  (A NaN budget compares false with any
    time, so it would mean no budget at all.)"""
    if budget is None or 0 < budget < math.inf:
        return True
    print("error: --budget must be a positive number of seconds", file=sys.stderr)
    return False


def cmd_verify(a) -> int:
    if a.jobs < 1:
        print("error: --jobs must be ≥ 1", file=sys.stderr)
        return EXIT_USAGE
    if not _budget_ok(a.budget):
        return EXIT_USAGE
    d, fam = artifacts.load_family(a.artifact)
    flavor = a.flavor
    if isinstance(fam, PointFamily):
        if flavor == "plain":
            flavor = "orthogonal" if fam.space.qcoef is not None else "symplectic"
        if a.check == "partial":
            ok = V.is_partial_ovoid(fam, flavor)
            verdict = "partial-ovoid" if ok else "not-a-partial-ovoid"
        elif a.check == "maximal":
            cert = V.check_maximal_ovoid(fam, flavor)
            d["certificate"] = cert.descriptor()
            ok = cert.is_maximal
            verdict = cert.verdict
        else:
            ok = V.is_ovoid(fam, flavor)
            verdict = "ovoid" if ok else "not-an-ovoid"
    else:
        if a.check == "partial":
            ok = V.is_partial_spread(fam, flavor)
            verdict = "partial-spread" if ok else "not-a-partial-spread"
        elif a.check == "maximal":
            cert = V.check_maximal_spread(fam, flavor, jobs=a.jobs, time_budget=a.budget)
            d["certificate"] = cert.descriptor()
            ok = cert.is_maximal
            verdict = cert.verdict
        else:
            ok = V.is_spread(fam, flavor)
            verdict = "spread" if ok else "not-a-spread"
    print(f"{fam.provenance.describe()} check={a.check} flavor={flavor}: {verdict}")
    if a.check == "maximal":
        artifacts.save(d, a.artifact)
    return EXIT_OK if (ok or (a.check == "maximal" and a.allow_extendable)) else EXIT_VERIFY


def cmd_project(a) -> int:
    _, fam = artifacts.load_family(a.artifact)
    if not isinstance(fam, SubspaceFamily):
        print("error: projection applies to subspace families", file=sys.stderr)
        return EXIT_USAGE
    z = None
    if a.z and a.z != "first":
        dim, fv = fam.space.dim, fam.space.fv
        z = np.array([int(t) if t.strip().isdecimal() else -1 for t in a.z.split(",")])
        if len(z) != dim or not np.isin(z, fv.elements()).all():
            print(f"error: --z takes {dim} comma-separated elements of {fv!r}", file=sys.stderr)
            return EXIT_USAGE
        if fam.space.qcoef is not None and fam.space.qform(z) == 0:
            print("error: --z names a singular point; projection needs Q(z) != 0", file=sys.stderr)
            return EXIT_USAGE
    out = F.project_family(fam, z)
    artifacts.save(artifacts.family_to_dict(out), a.output)
    print(f"projected -> Sp({out.space.dim},{out.space.q}) family of size {len(out)}; wrote {a.output}")
    return EXIT_OK


def cmd_descend(a) -> int:
    _, fam = artifacts.load_family(a.artifact)
    if not isinstance(fam, SubspaceFamily):
        print("error: descent applies to subspace families", file=sys.stderr)
        return EXIT_USAGE
    out = F.descend_family(fam, a.to_deg)
    artifacts.save(artifacts.family_to_dict(out), a.output)
    print(f"descended -> dim {out.space.dim} over GF({out.space.q}); wrote {a.output}")
    return EXIT_OK


def cmd_triality(a) -> int:
    _, fam = artifacts.load_family(a.artifact)
    if not isinstance(fam, PointFamily):
        print("error: triality applies to point families", file=sys.stderr)
        return EXIT_USAGE
    out = F.triality_pointset(fam)
    artifacts.save(artifacts.family_to_dict(out), a.output)
    print(f"triality -> {len(out)} t.s. 4-spaces; wrote {a.output}")
    return EXIT_OK


def cmd_census(a) -> int:
    try:
        st = F.suzuki_tits_ovoid(a.q)
        rep = V.hyperplane_census(st.space, st)
    except (FamilyError, FieldError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"hyperplanes={rep.hyperplanes} tangent={rep.tangent_count}")
    print("sizes=" + ",".join(f"{k}:{v}" for k, v in sorted(rep.sizes.items())))
    print("types=" + ",".join(f"{k}:{v}" for k, v in sorted(rep.type_counts.items())))
    return EXIT_OK


def cmd_fingerprint(a) -> int:
    _, fam = artifacts.load_family(a.artifact)
    fp = V.fingerprint(fam, seed=a.seed)
    hist: dict[int, int] = {}
    for v in fp:
        hist[v] = hist.get(v, 0) + 1
    print("fingerprint=" + ",".join(f"{k}:{v}" for k, v in sorted(hist.items())))
    return EXIT_OK


# -- summary table -----------------------------------------------------------

TABLE_ROWS = [
    # (row id, family id, parameters, flavor, take the triality image?)
    ("thm3.1", "thm3.1", {"q": 2, "m": 2}, "symplectic", False),
    ("prop4.1", "prop4.1", {"q": 2, "m": 2}, "plain", False),
    ("thm4.3", "thm4.3", {"q": 2, "m": 2, "k": 2}, "orthogonal", False),
    ("thm5.2i", "thm5.2i", {"q": 2, "k": 2}, "symplectic", False),
    ("thm5.2ii", "thm5.2ii", {"q": 2, "k": 2}, "symplectic", False),
    ("thm7.2", "thm7.2", {"q": 4}, "orthogonal", True),
    ("thm7.3", "thm7.3", {"q": 8, "s": 1}, "orthogonal", False),
    ("thm7.3-triality", "thm7.3", {"q": 8, "s": 1}, "orthogonal", True),
    ("thm7.3-n4", "thm7.3", {"q": 16, "s": 4, "scheme": "A6ii"}, "orthogonal", False),
    ("ex7.4", "ex7.4", {"q": 4}, "orthogonal", True),
    ("lem7.8", "lem7.8", {"q": 2}, "orthogonal", True),
    ("thm7.10", "thm7.10", {"q": 8}, "orthogonal", False),
    ("thm7.10-triality", "thm7.10", {"q": 8}, "orthogonal", True),
    ("thm7.11", "thm7.11", {"q": 8}, "orthogonal", False),
    ("thm7.11-triality", "thm7.11", {"q": 8}, "orthogonal", True),
    ("thm7.12", "thm7.12", {"q": 32, "s": 2}, "orthogonal", False),
    ("thm8.1", "thm8.1", {"q": 2}, "symplectic", False),
]


def cmd_table(a) -> int:
    if not _budget_ok(a.budget):
        return EXIT_USAGE
    rows = TABLE_ROWS
    if a.rows:
        wanted = a.rows.split(",")
        unknown = [r for r in wanted if r not in {row[0] for row in TABLE_ROWS}]
        if unknown:
            print(f"error: unknown table rows {','.join(unknown)}", file=sys.stderr)
            return EXIT_USAGE
        rows = [r for r in TABLE_ROWS if r[0] in wanted]
    failures = 0
    for row_id, family_id, params, flavor, triality in rows:
        # the scheme is named by the row id
        pstr = ",".join(f"{k}={v}" for k, v in sorted(params.items()) if k != "scheme")
        t0 = time.perf_counter()
        try:
            fam = build(family_id, **params)
            mark = " [exploratory]" if fam.provenance.exploratory else ""
            if triality:
                fam = F.triality_pointset(fam)
        except (FamilyError, FieldError) as e:
            print(f"{row_id} {pstr} -- -- FAILED({e}) --")
            failures += 1
            continue
        verdict = "partial"
        note = ""
        try:
            if isinstance(fam, PointFamily):
                verdict = V.check_maximal_ovoid(fam, flavor).verdict
            else:
                verdict = V.check_maximal_spread(fam, flavor, time_budget=a.budget).verdict
        except SearchTimeout:
            note = " (maximality attempt timed out)"
        except OutOfDeskScale:
            note = " (maximality skipped: out of desk scale)"
        ms = (time.perf_counter() - t0) * 1000
        # the constructor has checked the size against `expected_size`
        if verdict not in ("partial", "maximal"):
            failures += 1
        print(
            f"{row_id} {pstr} expected={fam.expected_size} actual={len(fam)} {verdict}{note}{mark} {ms:.0f}ms"
        )
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="polarspread")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a family by id and save it")
    c.add_argument("family")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--m", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--s", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--scheme", choices=["A6i", "A6ii"])
    c.add_argument("--variant", choices=["a", "b"])
    c.add_argument("--exploratory", action="store_true")
    c.add_argument("-o", "--output")
    c.set_defaults(fn=cmd_construct)

    v = sub.add_parser("verify", help="verify a stored family")
    v.add_argument("artifact")
    v.add_argument("--check", default="partial", choices=["partial", "maximal", "complete"])
    v.add_argument("--flavor", default="plain", choices=["plain", "symplectic", "orthogonal"])
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--budget", type=float, default=None)
    v.add_argument("--allow-extendable", action="store_true")
    v.set_defaults(fn=cmd_verify)

    p = sub.add_parser("project", help="project through z-perp/z")
    p.add_argument("artifact")
    p.add_argument("--z", default="first")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_project)

    de = sub.add_parser("descend", help="blow down to the base subfield")
    de.add_argument("artifact")
    de.add_argument("--to-deg", type=int, default=None)
    de.add_argument("-o", "--output", required=True)
    de.set_defaults(fn=cmd_descend)

    tr = sub.add_parser("triality", help="triality image of a point family")
    tr.add_argument("artifact")
    tr.add_argument("-o", "--output", required=True)
    tr.set_defaults(fn=cmd_triality)

    t = sub.add_parser("table", help="construct+verify the summary rows")
    t.add_argument("--rows", default=None, help="comma-separated row ids")
    t.add_argument("--budget", type=float, default=30.0)
    t.set_defaults(fn=cmd_table)

    ce = sub.add_parser("census", help="hyperplane census of the q^2+1 ovoid")
    ce.add_argument("--q", type=int, required=True)
    ce.set_defaults(fn=cmd_census)

    fp = sub.add_parser("fingerprint", help="invariant summary of a family")
    fp.add_argument("artifact")
    fp.add_argument("--seed", type=int, default=0)
    fp.set_defaults(fn=cmd_fingerprint)

    a = ap.parse_args(argv)
    try:
        return a.fn(a)
    except artifacts.ArtifactError as e:
        print(f"artifact invalid: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except artifacts.ArtifactWriteError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FamilyError, FieldError) as e:  # e.g. a transform's precondition
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except OutOfDeskScale as e:
        print(f"out of desk scale: {e}", file=sys.stderr)
        return EXIT_SCALE
    except SearchTimeout as e:
        print(f"search timeout: {e}", file=sys.stderr)
        return EXIT_SCALE


if __name__ == "__main__":
    sys.exit(main())
