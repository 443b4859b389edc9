"""A reduction keeps its intermediates as homogeneous matrices.

The centring automorphism, each unitary change of variable and the
centred or rotated map of a reduction are matrices, not ball maps: on
every golden, ``normal_form(f, cls)`` builds exactly one ball map, its
normal map, for an elliptic form, and none for a Siegel form.  The
conjugated map is read off its matrix over its corner entry
(``maps._corner_one``), with the corner set to exactly 1; its matrix and
fields have the bits of the unchecked ``BallMap`` read-back that it
replaced, whose code is inlined here as the reference, except that an
exactly zero entry may change its sign: conj(conj(x) / conj(d)) is x / d
bit for bit for x != 0, while for x = 0 the two can round to zeros of
opposite sign (seen on five goldens of dim 2, in the last row).  A zero's
sign moves no report.
"""

import json
from pathlib import Path

import numpy as np

from lfmsemi import maps, normal_forms
from lfmsemi.cli import parse_map_spec
from lfmsemi.maps import (BALL, ELLIPTIC, BallMap, SiegelMap, cayley_to_ball, classify,
                          conjugate, to_proj)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SPECS = sorted(p for p in (ROOT / "tests" / "golden").rglob("*.json")
                      if not p.name.endswith(".report.json"))


def _golden_map(path):
    """The ball map and classification of a golden spec, a Siegel spec
    carried to the ball as the pipeline carries it."""
    f = parse_map_spec(json.loads(path.read_text()))
    f = cayley_to_ball(f) if isinstance(f, SiegelMap) else f
    return f, classify(f)


def test_a_reduction_builds_only_its_normal_map(monkeypatch):
    built = []
    ball_map_of, post_init = maps._ball_map_of, BallMap.__post_init__

    def unchecked(*args):
        f = ball_map_of(*args)
        built.append(f)
        return f

    def checked(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(maps, "_ball_map_of", unchecked)
    monkeypatch.setattr(BallMap, "__post_init__", checked)
    forms = set()
    for path in GOLDEN_SPECS:
        f, cls = _golden_map(path)
        built.clear()
        nf = normal_forms.normal_form(f, cls)
        forms.add(nf.form_kind)
        expected = [nf.normal_map] if cls.kind == ELLIPTIC else []
        assert [id(g) for g in built] == [id(g) for g in expected], path.name
    assert len(forms) == 4


def _old_read_back(p):
    """The matrix of the old ``_read_unchecked(p).to_proj()``: the fields of
    ``BallMap(*_proj_fields(p.mat))`` without its check, over D = m[n, n],
    then the homogeneous matrix of that map with D = 1; also its fields."""
    m = p.mat
    n = len(m) - 1
    d = complex(m[n, n])
    a, b, c = m[:n, :n] / d, m[:n, n] / d, np.conj(m[n, :n]) / np.conj(d)
    return maps._ball_proj(a, b, c, 1.0 + 0.0j).mat, (a, b, c)


def _conjugated(f, cls):
    """The map a reduction reads back: f conjugated by the centring move of
    an elliptic map with its fixed point off 0, or by the rotation of a
    non-elliptic one; None for an elliptic map with its fixed point at 0."""
    if cls.kind == ELLIPTIC:
        z0 = cls.interior_fixed_points[0]
        if np.linalg.norm(z0) < 1e-12:
            return None
        mover = maps._ball_proj(*maps._automorphism_fields(z0), 1.0)
        assert np.array_equal(mover.mat, maps.ball_automorphism(z0).to_proj().mat)
    else:
        mover = maps._siegel_chain(f, cls.dw_point)[1][0]
    return conjugate(to_proj(f), mover)


def test_corner_division_has_the_bits_of_the_old_read_back():
    read = 0
    for path in GOLDEN_SPECS:
        p = _conjugated(*_golden_map(path))
        if p is None:  # an elliptic map centred at 0 is read as it is
            continue
        reference, fields = _old_read_back(p)
        m = maps._corner_one(p)
        assert m[-1, -1] == 1.0 and m[-1, -1].imag == 0.0, path.name
        assert _same_bits(maps._proj_of(m, BALL, BALL).mat, reference), path.name
        for new, old in zip(maps._proj_fields(m), fields):
            assert _same_bits(new, old), path.name
        read += 1
    assert read == 30  # the four elliptic goldens centred at 0 read no conjugate


def _same_bits(x, y) -> bool:
    """x and y have the same shape and bits, a zero of either sign taken as
    +0 (adding +0.0 turns -0.0 into +0.0 and changes no other value)."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and (x + 0.0).tobytes() == (y + 0.0).tobytes()

