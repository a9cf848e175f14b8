"""CLI surface: construct/verify exit codes, artifact round-trips, chained
transforms, table rows, census."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polarspread import artifacts, cli, spaces
from polarspread.cli import main
from polarspread.families import FamilyError, Provenance, SubspaceFamily
from polarspread.linalg import canonicalize
from polarspread.spaces import sp_space


def run(argv):
    return main(argv)


def test_construct_and_verify(tmp_path):
    out = tmp_path / "t.json"
    assert run(["construct", "thm3.1", "--q", "3", "--m", "1", "-o", str(out)]) == 0
    assert run(["verify", str(out), "--check", "partial", "--flavor", "symplectic"]) == 0
    assert run(["verify", str(out), "--check", "maximal", "--flavor", "symplectic"]) == 0
    d = artifacts.load(out)
    assert d["certificate"]["verdict"] == "maximal"
    assert d["certificate"]["engine_version"] == "2"
    stats = d["certificate"]["stats"]
    assert sum(stats["nodes_by_depth"]) == d["certificate"]["nodes"]
    assert set(stats) == {"nodes_by_depth", "skipped", "rows", "ms"}


def test_construct_unknown_family():
    assert run(["construct", "nonsense", "--q", "2"]) == 2


def test_exploratory_gating(tmp_path):
    assert run(["construct", "thm7.12", "--q", "8", "--s", "2"]) == 2
    out = tmp_path / "e.json"
    assert (
        run(["construct", "thm7.12", "--q", "8", "--s", "2", "--exploratory", "-o", str(out)])
        == 0
    )


def test_roundtrip_byte_identity(tmp_path):
    out = tmp_path / "p.json"
    assert run(["construct", "prop4.1", "--q", "2", "--m", "2", "-o", str(out)]) == 0
    raw = out.read_bytes()
    fam = artifacts.family_from_dict(artifacts.load(out))
    assert artifacts.dumps(artifacts.family_to_dict(fam)).encode() == raw


def test_project_chain(tmp_path):
    src = tmp_path / "p41.json"
    dst = tmp_path / "sp6.json"
    run(["construct", "prop4.1", "--q", "2", "--m", "2", "-o", str(src)])
    assert run(["project", str(src), "-o", str(dst)]) == 0
    assert run(["verify", str(dst), "--check", "maximal", "--flavor", "symplectic"]) == 0
    d = artifacts.load(dst)
    assert d["provenance"]["chain"] == ["prop4.1(m=2,q=2)"]


def test_descend_matches_construct(tmp_path):
    folk = tmp_path / "folk.json"
    down = tmp_path / "down.json"
    built = tmp_path / "g.json"
    run(["construct", "ex5.1", "--q", "4", "-o", str(folk)])
    assert run(["descend", str(folk), "-o", str(down)]) == 0
    run(["construct", "thm5.2i", "--q", "2", "--k", "2", "-o", str(built)])
    assert down.read_bytes() == built.read_bytes()


def test_triality_chain(tmp_path):
    src = tmp_path / "ovoid.json"
    dst = tmp_path / "spread.json"
    run(["construct", "lem7.8", "--q", "2", "-o", str(src)])
    assert run(["triality", str(src), "-o", str(dst)]) == 0
    assert run(["verify", str(dst), "--check", "partial", "--flavor", "orthogonal"]) == 0
    assert run(["verify", str(dst), "--check", "maximal", "--flavor", "orthogonal"]) == 0


def test_verify_failure_exit(tmp_path):
    src = tmp_path / "x.json"
    run(["construct", "thm3.1", "--q", "2", "--m", "1", "-o", str(src)])
    d = artifacts.load(src)
    d["members"] = d["members"][:-1]  # break maximality
    d["expected_size"] = None
    artifacts.save(d, src)
    assert run(["verify", str(src), "--check", "maximal", "--flavor", "symplectic"]) == 1
    assert (
        run(
            [
                "verify",
                str(src),
                "--check",
                "maximal",
                "--flavor",
                "symplectic",
                "--allow-extendable",
            ]
        )
        == 0
    )


def test_census_command(capsys):
    assert run(["census", "--q", "8"]) == 0
    out = capsys.readouterr().out
    assert "hyperplanes=4681" in out and "tangent=65" in out


def test_fingerprint_command(tmp_path, capsys):
    src = tmp_path / "t.json"
    run(["construct", "thm3.1", "--q", "2", "--m", "1", "-o", str(src)])
    assert run(["fingerprint", str(src)]) == 0
    out = capsys.readouterr().out
    assert "fingerprint=" in out


def test_table_subset(capsys):
    assert run(["table", "--rows", "thm3.1,thm8.1"]) == 0
    out = capsys.readouterr().out
    assert "thm3.1" in out and "thm8.1" in out and "maximal" in out


def test_table_marks_exploratory_rows(capsys):
    """thm7.2 at q = 4 lies outside its proven window, as `construct`
    says; a row inside its window carries no mark."""
    assert run(["table", "--rows", "thm7.2,thm3.1"]) == 0
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert "maximal [exploratory]" in rows["thm7.2"]
    assert "[exploratory]" not in rows["thm3.1"]
    assert run(["construct", "thm7.2", "--q", "4"]) == 2


@pytest.mark.parametrize(
    "argv,size",
    [
        (["prop4.1", "--q", "8", "--m", "2"], 513),
        (["thm3.1", "--q", "4", "--m", "2"], 241),
        (["desarguesian", "--q", "4", "--n", "4"], 257),
    ],
)
def test_construct_in_spaces_keyed_by_view_ranks(capsys, argv, size):
    """Point keys take bit_length(q - 1) bits a coordinate, not the width of
    the tower's largest index, so these spaces over subfield views fit."""
    assert run(["construct", *argv]) == 0
    assert f"size={size} expected={size}" in capsys.readouterr().out


def test_table_row_over_the_point_cap_is_skipped(capsys):
    """The 17,899,793 singular points of O+(8,16) are over MAX_ENUM_POINTS."""
    assert run(["table", "--rows", "thm7.3-n4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("thm7.3-n4 ") and "maximality skipped: out of desk scale" in out


def test_table_admits_the_thm4_3_row_under_its_budget(capsys):
    """The row is searched, not refused; a budget too short for its
    certificate shows that without spending it."""
    assert run(["table", "--rows", "thm4.3", "--budget", "0.01"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("thm4.3 ") and "partial (maximality attempt timed out)" in out


def test_table_failed_row_keeps_its_params_column(capsys, monkeypatch):
    """A row whose build fails prints its params as k=v, as every other
    line does, and makes the run exit 1."""
    defaults, _ = cli.FAMILIES["thm7.3"]

    def fail(q, s, scheme):
        raise FamilyError("no such family")

    monkeypatch.setitem(cli.FAMILIES, "thm7.3", (defaults, fail))
    assert run(["table", "--rows", "thm7.3-n4"]) == 1
    out = capsys.readouterr().out
    assert out == "thm7.3-n4 q=16,s=4 -- -- FAILED(no such family) --\n"


def test_import_leaves_the_process_pool_modules_unloaded():
    """`multiprocessing` is imported only by a parallel search."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, polarspread.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_table_takes_no_test_guards():
    for flag in ("--maxtests", "--ovoid-maxtests"):
        with pytest.raises(SystemExit) as e:
            run(["table", flag, "1"])
        assert e.value.code == 2


def _sp24_one_member(path):
    space = sp_space(2, 12)
    member = canonicalize(space.fv, np.eye(24, dtype=np.int64)[0::2], 24)
    fam = SubspaceFamily(space, [member], Provenance("test", {}), expected_size=None)
    artifacts.save(artifacts.family_to_dict(fam), path)
    return ["--check", "maximal", "--flavor", "symplectic"]


def _oplus88_points(path):
    run(["construct", "thm7.3", "--q", "8", "--s", "1", "-o", str(path)])
    return ["--check", "complete"]


def _tiny_bitset_cap(path):
    run(["construct", "thm8.1", "--q", "3", "-o", str(path)])
    return ["--check", "maximal", "--flavor", "symplectic"]


@pytest.mark.parametrize(
    "artifact,cap,message",
    [
        (_sp24_one_member, None, "MAX_ENUM_POINTS"),
        (_oplus88_points, None, "perpendicularity bitsets.*MAX_BITSET_BYTES"),
        (_tiny_bitset_cap, 0, "line graph.*MAX_BITSET_BYTES"),
    ],
    ids=["Sp(24,2)-universe", "O+(8,8)-enumerator", "line-graph"],
)
def test_verify_refusals_exit_3_and_leave_the_artifact(tmp_path, capsys, monkeypatch, artifact, cap, message):
    path = tmp_path / "a.json"
    argv = artifact(path)
    if cap is not None:
        monkeypatch.setattr(spaces, "MAX_BITSET_BYTES", cap)
    raw = path.read_bytes()
    capsys.readouterr()
    assert run(["verify", str(path), *argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of desk scale: ") and re.search(message, err) and "Traceback" not in err
    assert path.read_bytes() == raw


def test_verify_search_timeout_exits_3(tmp_path, capsys):
    path = tmp_path / "t.json"
    run(["construct", "thm4.3", "--q", "2", "-o", str(path)])
    raw = path.read_bytes()
    capsys.readouterr()
    assert run(["verify", str(path), "--check", "maximal", "--flavor", "orthogonal", "--budget", "0"]) == 3
    assert capsys.readouterr().err.startswith("search timeout: ")
    assert path.read_bytes() == raw


def test_table_unknown_rows(capsys):
    assert run(["table", "--rows", "zzz"]) == 2
    assert run(["table", "--rows", "thm3.1,zzz"]) == 2
    out, err = capsys.readouterr()
    assert "zzz" in err and "thm3.1" not in out


def test_construct_rejects_nonpositive_parameters(tmp_path, capsys):
    for flag, value in [("--m", "0"), ("--m", "-1"), ("--k", "0"), ("--s", "-2"), ("--n", "0")]:
        out = tmp_path / "x.json"
        assert run(["construct", "thm3.1", "--q", "3", flag, value, "-o", str(out)]) == 2
        assert f"{flag[2:]} must be ≥ 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "family,flag",
    [("appA", ["--m", "3"]), ("thm3.1", ["--k", "2"]), ("thm7.10", ["--scheme", "A6ii"]),
     ("thm8.1", ["--variant", "b"])],
)
def test_construct_rejects_flags_the_family_does_not_take(tmp_path, capsys, family, flag):
    out = tmp_path / "x.json"
    assert run(["construct", family, "--q", "4", *flag, "-o", str(out)]) == 2
    assert f"error: {family} takes no {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


# a small field each family can be built over (with --exploratory)
SMALL_Q = {
    "desarguesian": 2, "thm3.1": 3, "prop4.1": 2, "thm4.3": 2, "ex5.1": 4, "thm5.2i": 2,
    "thm5.2ii": 2, "appA": 4, "thm7.2": 4, "thm7.3": 8, "ex7.4": 3, "lem7.5-st": 8,
    "lem7.5-o5": 4, "lem7.8": 2, "thm7.10": 8, "thm7.11": 8, "thm7.12": 8, "thm8.1": 2,
    "thm9.1": 5, "ex9.2": 4, "appB-st": 8,
}


def test_every_family_id_constructs_and_is_documented(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"^\| `([^`]+)` \|", readme, flags=re.M))
    assert set(cli.FAMILIES) == set(SMALL_Q) == documented
    for family, q in SMALL_Q.items():
        out = tmp_path / f"{family}.json"
        assert run(["construct", family, "--q", str(q), "--exploratory", "-o", str(out)]) == 0
        assert artifacts.load(out)["provenance"]["params"]["q"] == q


def test_construct_default_applies_only_when_flag_omitted(tmp_path):
    default = tmp_path / "default.json"
    explicit = tmp_path / "explicit.json"
    assert run(["construct", "thm3.1", "--q", "3", "-o", str(default)]) == 0
    assert run(["construct", "thm3.1", "--q", "3", "--m", "1", "-o", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()


def _not_json(path, d):
    path.write_text('{"format_version": 1, "field": ')


def _wrong_format_version(path, d):
    d["format_version"] = 99
    artifacts.save(d, path)


def _missing_key(path, d):
    del d["space"]
    artifacts.save(d, path)


def _truncated_members(path, d):
    # the last coordinate row of the last member loses its final entry
    last = d["members"][-1]
    if isinstance(last[0], list):
        last[-1] = last[-1][:-1]
    else:
        d["members"][-1] = last[:-1]
    artifacts.save(d, path)


def _entry_outside_field(path, d):
    row = d["members"][0]
    if isinstance(row[0], list):
        row = row[0]
    row[-1] = 2 ** d["field"]["d"]  # no element has this index
    artifacts.save(d, path)


@pytest.mark.parametrize("command", ["descend", "project", "triality", "verify", "fingerprint"])
@pytest.mark.parametrize(
    "defect",
    [_not_json, _wrong_format_version, _missing_key, _truncated_members, _entry_outside_field],
)
def test_malformed_artifact_exits_1_without_traceback(tmp_path, capsys, command, defect):
    src = tmp_path / "good.json"
    if command == "triality":
        run(["construct", "lem7.8", "--q", "2", "-o", str(src)])
    else:
        run(["construct", "ex5.1", "--q", "4", "-o", str(src)])
    bad = tmp_path / "bad.json"
    defect(bad, artifacts.load(src))
    capsys.readouterr()
    argv = [command, str(bad)]
    if command in ("descend", "project", "triality"):
        argv += ["-o", str(tmp_path / "out.json")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "artifact invalid:" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_artifact_without_format_or_not_an_object(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": 1}')
    for command in ("verify", "fingerprint"):
        assert run([command, str(bad)]) == 1
        assert "artifact invalid: unsupported artifact format None" in capsys.readouterr().err
    bad.write_text("[1, 2]")
    assert run(["verify", str(bad)]) == 1


@pytest.mark.parametrize("command", ["verify", "project", "descend", "triality", "fingerprint"])
def test_missing_artifact_exits_1_naming_the_path(tmp_path, capsys, command):
    missing = tmp_path / "does-not-exist.json"
    argv = [command, str(missing)]
    if command in ("project", "descend", "triality"):
        argv += ["-o", str(tmp_path / "out.json")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("artifact invalid:") and str(missing) in err
    assert not (tmp_path / "out.json").exists()


def test_missing_artifact_in_a_child_prints_no_traceback():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "polarspread.cli", "verify", "does-not-exist.json"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 1
    assert done.stderr.startswith("artifact invalid:") and "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["construct", "project"])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, command):
    out = tmp_path / "no-such-dir" / "x.json"
    if command == "construct":
        argv = ["construct", "thm3.1", "--q", "2"]
    else:
        src = tmp_path / "p41.json"
        assert run(["construct", "prop4.1", "--q", "2", "--m", "2", "-o", str(src)]) == 0
        argv = ["project", str(src)]
    capsys.readouterr()
    assert run(argv + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: No such file or directory\n"


def test_transform_precondition_failure_exits_1_without_traceback(tmp_path, capsys):
    """A well-formed artifact whose family a transform cannot take."""
    src = tmp_path / "p41.json"
    run(["construct", "prop4.1", "--q", "2", "--m", "2", "-o", str(src)])
    d = artifacts.load(src)
    d["members"] = [rows[:-1] for rows in d["members"]]  # 3-spaces, not a spread
    artifacts.save(d, src)
    capsys.readouterr()
    for command in ("project", "descend"):
        assert run([command, str(src), "-o", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("q", ["0", "1", "-4"])
def test_construct_with_q_below_2_exits_2(q):
    """Run in a child with a timeout, so a factoring loop that never ends
    fails the test instead of stalling the suite."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "polarspread.cli", "construct", "desarguesian", "--q", q]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "z",
    [
        "1,2",  # too short
        "a,b,c,d,e,f,g,h",  # not integers
        "0,0,0,0,0,0,1,",  # an empty entry
        "0,0,0,0,0,0,0,0,1",  # too long
        "0,0,0,0,0,0,1,5",  # 5 is in the GF(8) tower but not in the GF(2) view
        "-1,0,0,0,0,0,1,1",
    ],
)
def test_project_rejects_a_bad_z_with_exit_2(tmp_path, capsys, z):
    src = tmp_path / "p41.json"
    run(["construct", "prop4.1", "--q", "2", "--m", "2", "-o", str(src)])
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert run(["project", str(src), f"--z={z}", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --z takes 8 comma-separated elements") and "Traceback" not in err
    assert not out.exists()
    # a z of the right shape and field passes the check
    assert run(["project", str(src), "--z", "0,0,0,0,0,0,1,1", "-o", str(out)]) == 0


def test_project_rejects_a_singular_z_with_exit_2(tmp_path, capsys):
    src = tmp_path / "p41.json"
    run(["construct", "prop4.1", "--q", "2", "--m", "2", "-o", str(src)])
    capsys.readouterr()
    out = tmp_path / "out.json"
    fam = artifacts.family_from_dict(artifacts.load(src))
    assert fam.space.qform(np.array([1, 0, 0, 0, 0, 0, 0, 1])) == 0
    assert run(["project", str(src), "--z=1,0,0,0,0,0,0,1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --z names a singular point") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_1_exits_2(tmp_path, capsys, jobs):
    src = tmp_path / "t.json"
    run(["construct", "thm3.1", "--q", "3", "--m", "1", "-o", str(src)])
    before = src.read_bytes()
    capsys.readouterr()
    assert run(["verify", str(src), "--check", "maximal", "--jobs", jobs]) == 2
    assert capsys.readouterr().err.startswith("error: --jobs must be")
    assert src.read_bytes() == before


def test_fingerprint_reads_a_scaled_point_row_as_its_point(tmp_path, capsys):
    src = tmp_path / "t91.json"
    run(["construct", "thm9.1", "--q", "5", "--s", "1", "-o", str(src)])
    d = artifacts.load(src)
    d["members"][0] = [2 * x % 5 for x in d["members"][0]]  # GF(5) indices are residues
    scaled = tmp_path / "scaled.json"
    artifacts.save(d, scaled)
    capsys.readouterr()
    assert run(["fingerprint", str(src)]) == 0
    assert run(["fingerprint", str(scaled)]) == 0
    assert capsys.readouterr().out.splitlines() == ["fingerprint=2:6,4:60,6:68"] * 2
