"""Self-contained artifact files: versioned JSON carrying the field
descriptor, space descriptor, provenance, member list and optional
certificate.  Serialization is canonical (sorted keys, fixed separators,
trailing newline), so load/save round-trips are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import gf
from .families import PointFamily, Provenance, SubspaceFamily
from .gf import FieldError, FieldView
from .linalg import Subspace, canonicalize
from .spaces import FormedSpace, make_orthogonal, make_symplectic

FORMAT_VERSION = 1


class ArtifactError(ValueError):
    """An artifact file cannot be read, is not JSON or does not describe a
    family."""


class ArtifactWriteError(RuntimeError):
    """An artifact file cannot be written; the message names its path."""


def family_to_dict(fam) -> dict:
    space = fam.space.descriptor()
    prov = fam.provenance
    d = {
        "format_version": FORMAT_VERSION,
        "field": space.pop("field"),
        "space": space,
        "provenance": {
            "family": prov.family,
            "params": dict(sorted(prov.params.items())),
            "window": prov.window,
            "exploratory": prov.exploratory,
            "chain": list(prov.chain),
        },
        "expected_size": fam.expected_size,
    }
    if isinstance(fam, SubspaceFamily):
        d["kind"] = "subspace_family"
        d["members"] = [m.mat.tolist() for m in fam.members]
    else:
        d["kind"] = "point_family"
        d["members"] = fam.points.tolist()
    return d


def space_from_dict(d: dict) -> FormedSpace:
    f = d["field"]
    tower = gf.tower(f["p"], f["d"], tuple(f["designated"]))
    if list(tower.poly) != list(f["poly"]):
        raise FieldError("artifact polynomial does not match the built-in table")
    fv = FieldView(tower, f["view_degree"])
    s = d["space"]
    gram = _in_field(fv, s["gram"], "the Gram matrix")
    if s["qcoef"] is None:
        space = make_symplectic(fv, gram)
        if space.kind != s["kind"]:
            raise FieldError("space kind mismatch")
        return space
    space = make_orthogonal(fv, _in_field(fv, s["qcoef"], "the quadratic form"), s["kind"])
    if not np.array_equal(space.gram, gram):
        raise FieldError("artifact Gram matrix is not the polarization of its Q")
    return space


def family_from_dict(d: dict):
    if d.get("format_version") != FORMAT_VERSION:
        raise FieldError(f"unsupported artifact format {d.get('format_version')}")
    space = space_from_dict(d)
    p = d["provenance"]
    prov = Provenance(
        p["family"], dict(p["params"]), p.get("window"), p.get("exploratory", False),
        tuple(p.get("chain", ())),
    )
    if d["kind"] == "subspace_family":
        members = [
            canonicalize(space.fv, _in_field(space.fv, rows, "a member"), space.dim)
            for rows in d["members"]
        ]
        return SubspaceFamily(space, members, prov, expected_size=d.get("expected_size"))
    pts = _in_field(space.fv, d["members"], "a member").reshape(-1, space.dim)
    return PointFamily(space, pts, prov, expected_size=d.get("expected_size"))


def _in_field(fv: FieldView, rows, what: str) -> np.ndarray:
    """rows as an int64 array, every entry an element of the view."""
    arr = np.array(rows, dtype=np.int64)
    if not np.isin(arr, fv.elements()).all():
        raise FieldError(f"{what} has entries outside GF({fv.q})")
    return arr


def dumps(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"


def save(d: dict, path) -> None:
    try:
        Path(path).write_text(dumps(d))
    except OSError as e:
        raise ArtifactWriteError(f"cannot write {path}: {e.strerror or e}") from e


def load(path) -> dict:
    return json.loads(Path(path).read_text())


def load_family(path) -> tuple[dict, object]:
    """The artifact's dict and the family it describes.  Any defect of the
    file (unreadable, not JSON, wrong format version, missing key, ragged
    member rows, a field or space that fails its checks) raises
    ArtifactError."""
    try:
        d = load(path)
        return d, family_from_dict(d)
    except KeyError as e:
        raise ArtifactError(f"missing key {e}") from e
    except (OSError, ValueError, TypeError, IndexError, AttributeError) as e:
        raise ArtifactError(str(e)) from e
