"""The benchmark's workloads: fixed sequences of certification calls through
the public polarspread API, one list of ops per workload.

Each op builds its input through the public constructors and then certifies
it, so the timed region holds all of the program's work and none of the
benchmark's.  An op returns its raw result; ``answer`` turns that result
into the JSON value that is compared with ``answers.json`` after the timed
region ends.

The ops and their order are the same for every seed: each op is an
exhaustive certification of a fixed input, so the workloads have nothing
for a seed to draw.  Two ways to use it were measured and rejected because
they change the amount of work from seed to seed.  Removing a seed-chosen
member of thm4.3(2,2,2) instead of the last one moves the engine's search
from 9 to 2,270 nodes.  Shuffling the op order by seed moves the engine's
wall time by about 15%, because ops that share cached tables pay for them
in a different order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Op:
    name: str  # key of the op's recorded answer
    run: Callable[[], object]
    answer: Callable[[object], object]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _subspace_list_answer(subspaces) -> dict:
    return {
        "count": len(subspaces),
        "digest": _digest(sorted(w.mat.tolist() for w in subspaces)),
    }


# ---------------------------------------------------------------------------
# engine: the maximality search engine (check_maximal_spread)
# ---------------------------------------------------------------------------


def _spread_cert_answer(cert) -> dict:
    wit = cert.witness
    return {"verdict": cert.verdict, "witness": None if wit is None else wit.mat.tolist()}


def engine_ops(workdir: Path) -> list[Op]:
    from polarspread import families as F, verify as V
    from polarspread.families import SubspaceFamily

    def minus(drop: int):
        # thm4.3(2,2,2) is a 65-member partial spread of O+(16,2); without its
        # last `drop` members it is extendable (a removed member is a
        # witness).  The search runs the dimension-16 code path to a fixed
        # end: XOR keys, over 4,096 uncovered points so no adjacency matrix,
        # vbform pruning.
        fam = F.descended_spread(2, 2, 2)
        short = SubspaceFamily(fam.space, fam.members[:-drop], fam.provenance)
        return V.check_maximal_spread(short, "orthogonal")

    def check(build, flavor):
        return lambda: V.check_maximal_spread(build(), flavor)

    return [
        Op("thm4.3(2,2,2)-last", lambda: minus(1), _spread_cert_answer),
        Op("thm4.3(2,2,2)-last2", lambda: minus(2), _spread_cert_answer),
        # exhaustive odd-q searches in O+(8,3), the generic (non-XOR) path
        Op(
            "ex7.4(3)-triality",
            check(
                lambda: F.triality_pointset(F.elliptic_or_o5_partial_ovoid(3, "elliptic_quadric")),
                "orthogonal",
            ),
            _spread_cert_answer,
        ),
        Op(
            "lem7.8(3)-triality",
            check(lambda: F.triality_pointset(F.two_quadrics_ovoid(3)), "orthogonal"),
            _spread_cert_answer,
        ),
        Op("thm5.2i(2,2)", check(lambda: F.grassl_spread(2, 2, "i"), "symplectic"), _spread_cert_answer),
        Op("thm5.2ii(2,2)", check(lambda: F.grassl_spread(2, 2, "ii"), "symplectic"), _spread_cert_answer),
        Op("prop4.1(2,2)", check(lambda: F.orthogonal_spread(2, 2), "plain"), _spread_cert_answer),
        Op("thm8.1(4)", check(lambda: F.sp6_line_replace(4), "symplectic"), _spread_cert_answer),
        Op("thm3.1(5,1)", check(lambda: F.transversal_spread(5, 1), "symplectic"), _spread_cert_answer),
    ]


# ---------------------------------------------------------------------------
# enumerate: maximal t.s./t.i. enumeration on fresh spaces
# ---------------------------------------------------------------------------


def enumerate_ops(workdir: Path) -> list[Op]:
    from polarspread import families as F, gf, octonion, verify as V

    def brute(build, flavor):
        def run():
            fam = build()
            return V.brute_force_spread_verdict(fam, flavor), fam.space

        return run

    def brute_answer(res) -> dict:
        (verdict, _witness), space = res
        # the enumeration is cached on the space, so this re-reads its list
        return {"verdict": verdict, **_subspace_list_answer(space.maximal_totally_singular())}

    def listing(build_space):
        return lambda: build_space().maximal_totally_singular()

    return [
        # odd-q orthogonal enumeration in O+(8,3), the generic (non-XOR)
        # path, where the enumerator makes about 38 recursive calls per result
        Op(
            "lem7.8(3)-triality",
            brute(lambda: F.triality_pointset(F.two_quadrics_ovoid(3)), "orthogonal"),
            brute_answer,
        ),
        # two isometric copies of O+(8,2): what "enumerate once per isometry
        # class" would collapse
        Op(
            "lem7.8(2)-triality",
            brute(lambda: F.triality_pointset(F.two_quadrics_ovoid(2)), "orthogonal"),
            brute_answer,
        ),
        Op("zorn(2)", listing(lambda: octonion.zorn_space(gf.standalone(2))), _subspace_list_answer),
        # Sp(6,q) has no isometric twin here
        Op("thm8.1(2)", brute(lambda: F.sp6_line_replace(2), "symplectic"), brute_answer),
        Op("thm8.1(3)", brute(lambda: F.sp6_line_replace(3), "symplectic"), brute_answer),
        Op("thm8.1(4)", brute(lambda: F.sp6_line_replace(4), "symplectic"), brute_answer),
    ]


# ---------------------------------------------------------------------------
# ovoid: bulk point scans (check_maximal_ovoid, hyperplane_census)
# ---------------------------------------------------------------------------


def _ovoid_cert_answer(cert) -> dict:
    return {"verdict": cert.verdict, "candidates": cert.nodes}


def ovoid_ops(workdir: Path) -> list[Op]:
    from polarspread import families as F, verify as V

    def scan(build, flavor="orthogonal"):
        return lambda: V.check_maximal_ovoid(build(), flavor)

    def census():
        st = F.suzuki_tits_ovoid(8)
        return V.hyperplane_census(st.space, st)

    def census_answer(rep) -> dict:
        return {
            "hyperplanes": rep.hyperplanes,
            "tangent": rep.tangent_count,
            "sizes": {str(k): v for k, v in sorted(rep.sizes.items())},
            "types": dict(sorted(rep.type_counts.items())),
        }

    return [
        # every O+(8,8) point family: each scans all 300,105 singular points
        Op("appA(8)", scan(lambda: F.desarguesian_ovoid(8)), _ovoid_cert_answer),
        Op("thm7.3(8,1)-A6i", scan(lambda: F.orthovoid_bullet(8, 1, "A6i")), _ovoid_cert_answer),
        Op("thm7.3(8,1)-A6ii", scan(lambda: F.orthovoid_bullet(8, 1, "A6ii")), _ovoid_cert_answer),
        Op("lem7.8(8)", scan(lambda: F.two_quadrics_ovoid(8)), _ovoid_cert_answer),
        Op(
            "ex7.4(8)",
            scan(lambda: F.elliptic_or_o5_partial_ovoid(8, "elliptic_quadric")),
            _ovoid_cert_answer,
        ),
        Op(
            "lem7.5-st(8)",
            scan(lambda: F.elliptic_or_o5_partial_ovoid(8, "suzuki_tits")),
            _ovoid_cert_answer,
        ),
        Op("thm7.10(8)", scan(lambda: F.st_pencil_replace(8)), _ovoid_cert_answer),
        Op("thm7.11(8)", scan(lambda: F.st_section_replace(8)), _ovoid_cert_answer),
        Op("thm9.1(7,1)", scan(lambda: F.conic_replace(7, 1)), _ovoid_cert_answer),
        Op("thm9.1(9,1)", scan(lambda: F.conic_replace(9, 1)), _ovoid_cert_answer),
        Op("ex9.2(8,3)", scan(lambda: F.three_lines(8, 3), "symplectic"), _ovoid_cert_answer),
        Op("census(8)", census, census_answer),
    ]


# ---------------------------------------------------------------------------
# construct: the write path through cli.main into a work directory
# ---------------------------------------------------------------------------

CONSTRUCT_SETS = [
    ("thm3.1", "--q 3 --m 1"),
    ("thm3.1", "--q 2 --m 2"),
    ("prop4.1", "--q 2 --m 2"),
    ("thm4.3", "--q 2 --m 2 --k 2"),
    ("ex5.1", "--q 4"),
    ("thm5.2i", "--q 2 --k 2"),
    ("thm5.2ii", "--q 2 --k 2"),
    ("appA", "--q 4"),
    ("thm7.2", "--q 4 --exploratory"),
    ("thm7.3", "--q 8 --s 1"),
    ("thm7.3", "--q 16 --s 4 --scheme A6ii"),
    ("ex7.4", "--q 4"),
    ("lem7.5-st", "--q 8"),
    ("lem7.5-o5", "--q 4"),
    ("lem7.8", "--q 2"),
    ("thm7.10", "--q 8"),
    ("thm7.11", "--q 8"),
    ("thm7.12", "--q 32 --s 2"),
    ("thm8.1", "--q 2"),
    ("thm9.1", "--q 5 --s 1"),
    ("ex9.2", "--q 4"),
    ("appB-st", "--q 32"),
    ("desarguesian", "--q 3 --n 2"),
]

# (command, source construct set, output name)
TRANSFORMS = [
    ("project", ("prop4.1", "--q 2 --m 2"), "project.json"),
    ("descend", ("ex5.1", "--q 4"), "descend.json"),
    ("triality", ("appA", "--q 4"), "triality.json"),
]


def _cli(argv: list[str], out_path: Path | None = None) -> dict:
    from polarspread import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return {"exit": rc, "out": buf.getvalue(), "path": out_path}


def _file_answer(res) -> dict:
    path = res["path"]
    sha = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {"exit": res["exit"], "sha256": sha}


def _verify_answer(res) -> dict:
    lines = res["out"].strip().splitlines()
    return {"exit": res["exit"], "last_line": lines[-1] if lines else ""}


def _artifact_name(fid: str, params: str) -> str:
    return fid + "_" + "_".join(t.lstrip("-") for t in params.split()) + ".json"


def _construct_and_verify(workdir: Path, fid: str, params: str) -> list[Op]:
    path = workdir / _artifact_name(fid, params)
    label = f"{fid} {params}"
    return [
        Op(
            f"construct {label}",
            lambda: _cli(["construct", fid, *params.split(), "-o", str(path)], path),
            _file_answer,
        ),
        Op(
            f"verify {label}",
            lambda: _cli(["verify", str(path), "--check", "partial"]),
            _verify_answer,
        ),
    ]


def construct_ops(workdir: Path) -> list[Op]:
    ops = [op for fid, params in CONSTRUCT_SETS for op in _construct_and_verify(workdir, fid, params)]
    for cmd, (fid, params), out in TRANSFORMS:
        src = workdir / _artifact_name(fid, params)
        dst = workdir / out
        ops.append(
            Op(
                f"{cmd} {fid} {params}",
                lambda cmd=cmd, src=src, dst=dst: _cli([cmd, str(src), "-o", str(dst)], dst),
                _file_answer,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# tiny: one small op per workload, for the harness self-test
# ---------------------------------------------------------------------------


def tiny_ops(workdir: Path) -> list[Op]:
    from polarspread import families as F, spaces, verify as V

    return [
        Op(
            "engine thm3.1(2,1)",
            lambda: V.check_maximal_spread(F.transversal_spread(2, 1), "symplectic"),
            _spread_cert_answer,
        ),
        Op(
            "enumerate sp(6,2)",
            lambda: spaces.sp_space(2, 3).maximal_totally_singular(),
            _subspace_list_answer,
        ),
        Op(
            "ovoid thm9.1(7,1)",
            lambda: V.check_maximal_ovoid(F.conic_replace(7, 1), "orthogonal"),
            _ovoid_cert_answer,
        ),
        _construct_and_verify(workdir, "thm3.1", "--q 3 --m 1")[0],
    ]


WORKLOADS = {
    "engine": engine_ops,
    "enumerate": enumerate_ops,
    "ovoid": ovoid_ops,
    "construct": construct_ops,
    "tiny": tiny_ops,
}
