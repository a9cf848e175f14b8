"""CLI surface: construct/verify exit codes, artifact round-trips, chained
transforms, table rows, census."""

from polarspread import artifacts
from polarspread.cli import main


def run(argv):
    return main(argv)


def test_construct_and_verify(tmp_path):
    out = tmp_path / "t.json"
    assert run(["construct", "thm3.1", "--q", "3", "--m", "1", "-o", str(out)]) == 0
    assert run(["verify", str(out), "--check", "partial", "--flavor", "symplectic"]) == 0
    assert run(["verify", str(out), "--check", "maximal", "--flavor", "symplectic"]) == 0
    d = artifacts.load(out)
    assert d["certificate"]["verdict"] == "maximal"
    assert d["certificate"]["engine_version"]


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


def test_table_unknown_rows():
    assert run(["table", "--rows", "zzz"]) == 2


def test_construct_rejects_nonpositive_parameters(tmp_path, capsys):
    for flag, value in [("--m", "0"), ("--m", "-1"), ("--k", "0"), ("--s", "-2"), ("--n", "0")]:
        out = tmp_path / "x.json"
        assert run(["construct", "thm3.1", "--q", "3", flag, value, "-o", str(out)]) == 2
        assert f"{flag[2:]} must be ≥ 1" in capsys.readouterr().err
        assert not out.exists()


def test_construct_default_applies_only_when_flag_omitted(tmp_path):
    default = tmp_path / "default.json"
    explicit = tmp_path / "explicit.json"
    assert run(["construct", "thm3.1", "--q", "3", "-o", str(default)]) == 0
    assert run(["construct", "thm3.1", "--q", "3", "--m", "1", "-o", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()
