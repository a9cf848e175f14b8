"""Command-line front end: construct families by id, verify them, apply the
projection / descent / triality transforms, run the summary table, the
hyperplane census, and fingerprints.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 out-of-desk-scale
refusal.  Output is line-oriented: one family per line as
"id params expected actual verdict millis".
"""

from __future__ import annotations

import argparse
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


def _given(value: int | None, default: int) -> int:
    """The flag's value, or the family's default when the flag is omitted."""
    return default if value is None else value


def _build(family_id: str, a) -> object:
    for name in ("m", "k", "s", "n"):
        value = getattr(a, name)
        if value is not None and value < 1:
            raise FamilyError(f"{name} must be ≥ 1")
    q, m, k, s, n = a.q, a.m, a.k, a.s, a.n
    if family_id == "desarguesian":
        return F.desarguesian_symplectic_spread(q, _given(n, 2))
    if family_id == "thm3.1":
        return F.transversal_spread(q, _given(m, 1))
    if family_id == "prop4.1":
        return F.orthogonal_spread(q, _given(m, 2))
    if family_id == "thm4.3":
        return F.descended_spread(q, _given(m, 2), _given(k, 2))
    if family_id == "ex5.1":
        pair = F.folklore_pair(q)
        return pair[0] if (a.variant or "a") == "a" else pair[1]
    if family_id == "thm5.2i":
        return F.grassl_spread(q, _given(k, 2), "i")
    if family_id == "thm5.2ii":
        return F.grassl_spread(q, _given(k, 2), "ii")
    if family_id == "appA":
        return F.desarguesian_ovoid(q)
    if family_id == "thm7.2":
        return F.orthovoid_bullet(q, 1, "A6i")
    if family_id == "thm7.3":
        return F.orthovoid_bullet(q, _given(s, 1), a.scheme)
    if family_id == "ex7.4":
        return F.elliptic_or_o5_partial_ovoid(q, "elliptic_quadric")
    if family_id == "lem7.5-st":
        return F.elliptic_or_o5_partial_ovoid(q, "suzuki_tits")
    if family_id == "lem7.5-o5":
        return F.elliptic_or_o5_partial_ovoid(q, "o5_generic")
    if family_id == "lem7.8":
        return F.two_quadrics_ovoid(q)
    if family_id == "thm7.10":
        return F.st_pencil_replace(q)
    if family_id == "thm7.11":
        return F.st_section_replace(q)
    if family_id == "thm7.12":
        return F.st_circle_replace(q, _given(s, 2))
    if family_id == "thm8.1":
        return F.sp6_line_replace(q)
    if family_id == "thm9.1":
        return F.conic_replace(q, _given(s, 1))
    if family_id == "ex9.2":
        return F.three_lines(q, _given(m, 2))
    if family_id == "appB-st":
        return F.suzuki_tits_ovoid(q)
    raise FamilyError(f"unknown family id {family_id!r}")


def cmd_construct(a) -> int:
    try:
        fam = _build(a.family, a)
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
    try:
        expected = V.expected_size(fam.provenance.family, fam.provenance.params)
    except KeyError:
        expected = fam.expected_size
    print(f"{fam.provenance.describe()} size={len(fam)} expected={expected}")
    if a.output:
        artifacts.save(artifacts.family_to_dict(fam), a.output)
        print(f"wrote {a.output}")
    return EXIT_OK if expected is None or len(fam) == expected else EXIT_VERIFY


def cmd_verify(a) -> int:
    d = artifacts.load(a.artifact)
    try:
        fam = artifacts.family_from_dict(d)
    except (FamilyError, FieldError) as e:
        print(f"artifact invalid: {e}", file=sys.stderr)
        return EXIT_VERIFY
    flavor = a.flavor
    try:
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
                cert = V.check_maximal_spread(
                    fam, flavor, jobs=a.jobs, time_budget=a.budget
                )
                d["certificate"] = cert.descriptor()
                ok = cert.is_maximal
                verdict = cert.verdict
            else:
                ok = V.is_spread(fam, flavor)
                verdict = "spread" if ok else "not-a-spread"
    except OutOfDeskScale as e:
        print(f"out of desk scale: {e}", file=sys.stderr)
        return EXIT_SCALE
    except SearchTimeout as e:
        print(f"search timeout: {e}", file=sys.stderr)
        return EXIT_SCALE
    print(f"{fam.provenance.describe()} check={a.check} flavor={flavor}: {verdict}")
    if a.check == "maximal":
        artifacts.save(d, a.artifact)
    return EXIT_OK if (ok or (a.check == "maximal" and a.allow_extendable)) else EXIT_VERIFY


def cmd_project(a) -> int:
    d = artifacts.load(a.artifact)
    fam = artifacts.family_from_dict(d)
    if not isinstance(fam, SubspaceFamily):
        print("error: projection applies to subspace families", file=sys.stderr)
        return EXIT_USAGE
    z = None
    if a.z and a.z != "first":
        z = np.array([int(t) for t in a.z.split(",")], dtype=np.int64)
    out = F.project_family(fam, z)
    artifacts.save(artifacts.family_to_dict(out), a.output)
    print(f"projected -> Sp({out.space.dim},{out.space.q}) family of size {len(out)}; wrote {a.output}")
    return EXIT_OK


def cmd_descend(a) -> int:
    d = artifacts.load(a.artifact)
    fam = artifacts.family_from_dict(d)
    if not isinstance(fam, SubspaceFamily):
        print("error: descent applies to subspace families", file=sys.stderr)
        return EXIT_USAGE
    out = F.descend_family(fam, a.to_deg)
    artifacts.save(artifacts.family_to_dict(out), a.output)
    print(f"descended -> dim {out.space.dim} over GF({out.space.q}); wrote {a.output}")
    return EXIT_OK


def cmd_triality(a) -> int:
    d = artifacts.load(a.artifact)
    fam = artifacts.family_from_dict(d)
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
    d = artifacts.load(a.artifact)
    fam = artifacts.family_from_dict(d)
    try:
        fp = V.fingerprint(fam, seed=a.seed)
    except OutOfDeskScale as e:
        print(f"out of desk scale: {e}", file=sys.stderr)
        return EXIT_SCALE
    hist: dict[int, int] = {}
    for v in fp:
        hist[v] = hist.get(v, 0) + 1
    print("fingerprint=" + ",".join(f"{k}:{v}" for k, v in sorted(hist.items())))
    return EXIT_OK


# -- summary table -----------------------------------------------------------

TABLE_ROWS = [
    # (row id, description, build, flavor checks)
    ("thm3.1", {"q": 2, "m": 2}),
    ("prop4.1", {"q": 2, "m": 2}),
    ("thm4.3", {"q": 2, "m": 2, "k": 2}),
    ("thm5.2i", {"q": 2, "k": 2}),
    ("thm5.2ii", {"q": 2, "k": 2}),
    ("thm7.2", {"q": 4}),
    ("thm7.3", {"q": 8, "s": 1}),
    ("thm7.3-n4", {"q": 16, "s": 4}),
    ("ex7.4", {"q": 4}),
    ("lem7.8", {"q": 2}),
    ("thm7.10", {"q": 8}),
    ("thm7.11", {"q": 8}),
    ("thm7.12", {"q": 32, "s": 2}),
    ("thm8.1", {"q": 2}),
]


def _table_build(row_id: str, p: dict):
    if row_id == "thm3.1":
        return F.transversal_spread(p["q"], p["m"]), "spread", "symplectic"
    if row_id == "prop4.1":
        return F.orthogonal_spread(p["q"], p["m"]), "spread", "plain"
    if row_id == "thm4.3":
        return F.descended_spread(p["q"], p["m"], p["k"]), "spread", "orthogonal"
    if row_id == "thm5.2i":
        return F.grassl_spread(p["q"], p["k"], "i"), "spread", "symplectic"
    if row_id == "thm5.2ii":
        return F.grassl_spread(p["q"], p["k"], "ii"), "spread", "symplectic"
    if row_id == "thm7.2":
        return F.triality_pointset(F.orthovoid_bullet(p["q"], 1)), "spread", "orthogonal"
    if row_id == "thm7.3":
        return F.orthovoid_bullet(p["q"], p["s"]), "ovoid", "orthogonal"
    if row_id == "thm7.3-n4":
        return F.orthovoid_bullet(p["q"], p["s"], "A6ii"), "ovoid", "orthogonal"
    if row_id == "ex7.4":
        return (
            F.triality_pointset(F.elliptic_or_o5_partial_ovoid(p["q"], "elliptic_quadric")),
            "spread",
            "orthogonal",
        )
    if row_id == "lem7.8":
        return F.triality_pointset(F.two_quadrics_ovoid(p["q"])), "spread", "orthogonal"
    if row_id == "thm7.10":
        return F.st_pencil_replace(p["q"]), "ovoid", "orthogonal"
    if row_id == "thm7.11":
        return F.st_section_replace(p["q"]), "ovoid", "orthogonal"
    if row_id == "thm7.12":
        return F.st_circle_replace(p["q"], p["s"]), "ovoid", "orthogonal"
    if row_id == "thm8.1":
        return F.sp6_line_replace(p["q"]), "spread", "symplectic"
    raise FamilyError(f"unknown table row {row_id}")


def cmd_table(a) -> int:
    rows = TABLE_ROWS
    if a.rows:
        wanted = set(a.rows.split(","))
        rows = [r for r in TABLE_ROWS if r[0] in wanted]
        if not rows:
            print("error: no matching rows", file=sys.stderr)
            return EXIT_USAGE
    failures = 0
    for row_id, params in rows:
        t0 = time.perf_counter()
        try:
            fam, shape, flavor = _table_build(row_id, params)
        except (FamilyError, FieldError) as e:
            print(f"{row_id} {params} -- -- FAILED({e}) --")
            failures += 1
            continue
        fid = fam.provenance.family
        try:
            expected = V.expected_size(fid, fam.provenance.params)
        except KeyError:
            expected = fam.expected_size
        verdict = "partial"
        note = ""
        try:
            if shape == "ovoid":
                universe = fam.space.singular_count()
                if universe * len(fam) <= a.ovoid_maxtests:
                    cert = V.check_maximal_ovoid(fam, flavor)
                    verdict = cert.verdict
                else:
                    note = " (maximality skipped: out of desk scale)"
            else:
                universe = (
                    fam.space.singular_count()
                    if flavor == "orthogonal"
                    else fam.space.point_count()
                )
                if universe * len(fam) <= a.maxtests:
                    try:
                        cert = V.check_maximal_spread(fam, flavor, time_budget=a.budget)
                        verdict = cert.verdict
                    except SearchTimeout:
                        count = V._maximal_ts_count(fam.space)
                        if flavor != "plain" and count is not None and count <= 200_000:
                            bv, _w = V.brute_force_spread_verdict(fam, flavor)
                            verdict = bv
                            note = " (by full enumeration after engine budget)"
                        else:
                            note = " (maximality attempt timed out)"
                else:
                    note = " (maximality skipped: out of desk scale)"
        except SearchTimeout:
            note = " (maximality attempt timed out)"
        except OutOfDeskScale:
            note = " (maximality skipped: out of desk scale)"
        ms = (time.perf_counter() - t0) * 1000
        ok = len(fam) == expected and verdict in ("partial", "maximal")
        if not ok:
            failures += 1
        pstr = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        print(f"{row_id} {pstr} expected={expected} actual={len(fam)} {verdict}{note} {ms:.0f}ms")
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
    c.add_argument("--scheme", default="A6i", choices=["A6i", "A6ii"])
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
    t.add_argument("--maxtests", type=int, default=1_000_000)
    t.add_argument("--ovoid-maxtests", type=int, default=200_000_000)
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
    except OutOfDeskScale as e:
        print(f"out of desk scale: {e}", file=sys.stderr)
        return EXIT_SCALE


if __name__ == "__main__":
    sys.exit(main())
