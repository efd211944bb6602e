"""Near-neighbour candidates from the zone index, against brute force.

A join's candidate pairs are, for each left row, the right rows of its
own member in the RA windows of ``DecIndex.windows``.  The oracle is
every pair of a member with ``angular_separation <= r``.  Points are
drawn where the windows are hardest: across RA 0/360 (and not yet
normalized), above |dec| = 89.9 deg and past the pole, duplicated, with
no position, and
radii taken exactly from a pair's own separation.  The join itself must
answer the same with kernels on (one pass over the family), with
kernels off, and as brute force, for ``<`` and ``<=``.
``GENTEST_EXAMPLES`` sets the number of examples.
"""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.dec_index import DecIndex
from repro.sphgeom import angular_separation
from repro.sql import Database, Table

EXAMPLES = int(os.environ.get("GENTEST_EXAMPLES", 60))

# Where the points of a member cluster: the RA wrap, both poles, open sky.
ANCHORS = [(0.0, 0.0), (359.9, -30.0), (0.0, 89.95), (200.0, -89.95), (123.0, 45.0)]

points = st.one_of(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.tuples(st.floats(-0.001, 0.001), st.floats(-0.05, 0.05)),
    st.tuples(st.floats(-180.0, 180.0), st.floats(-0.05, 0.05)),  # all RA, near a pole
    st.just((np.nan, 0.0)),
    st.just((0.0, np.nan)),
)


@st.composite
def families(draw):
    """``(left members, right members, radius)``; a member is ``(ra, dec)`` arrays."""
    sides = ([], [])
    for _ in range(draw(st.integers(1, 4))):
        anchor_ra, anchor_dec = draw(st.sampled_from(ANCHORS))
        for side in sides:
            offsets = draw(st.lists(points, max_size=12))
            ra = np.array([anchor_ra + d_ra for d_ra, _ in offsets], dtype=np.float64)
            dec = np.array([anchor_dec + d_dec for _, d_dec in offsets], dtype=np.float64)
            if draw(st.booleans()):
                # Past a pole is allowed too: the separation reads only
                # sines and cosines, so (ra, 91) is (ra + 180, 89).
                dec = np.clip(dec, -90.0, 90.0)  # NaN stays NaN
            if len(ra) and draw(st.booleans()):
                ra = np.concatenate([ra, ra[:3]])  # duplicates
                dec = np.concatenate([dec, dec[:3]])
            side.append((ra, dec))
    radius = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    left, right = sides
    found = [
        angular_separation(lr[i], ld[i], rr[j], rd[j])
        for (lr, ld), (rr, rd) in zip(left, right)
        for i in range(len(lr))
        for j in range(len(rr))
    ]
    found = [s for s in found if 0.0 <= s <= 1.0]
    if found and draw(st.booleans()):
        radius = draw(st.sampled_from(found))  # a pair exactly on the radius
    return left, right, radius


def stacked(members):
    ra = np.concatenate([m[0] for m in members]) if members else np.empty(0)
    dec = np.concatenate([m[1] for m in members]) if members else np.empty(0)
    runs = np.concatenate([[0], np.cumsum([len(m[0]) for m in members])])
    return ra, dec, runs


def brute_force(left, right, radius, op):
    """``(member, left row, right row)`` of every pair the join keeps."""
    keep = np.less if op == "<" else np.less_equal
    return sorted(
        (m, i, j)
        for m, ((lr, ld), (rr, rd)) in enumerate(zip(left, right))
        for i in range(len(lr))
        for j in range(len(rr))
        if keep(angular_separation(lr[i], ld[i], rr[j], rd[j]), radius)
    )


@settings(max_examples=EXAMPLES * 2, deadline=None)
@given(families())
def test_windows_hold_every_pair_within_the_radius_and_no_other_members(family):
    check_windows(*family)


def check_windows(left, right, radius):
    lra, ldec, lruns = stacked(left)
    rra, rdec, rruns = stacked(right)
    index = DecIndex.for_join(rra, rdec, rruns, radius)
    probes, starts, counts = index.windows(lra, ldec, lruns, radius)
    pairs = [
        (int(p), int(index.order[s + k]))
        for p, s, c in zip(probes, starts, counts)
        for k in range(c)
    ]
    assert len(pairs) == len(set(pairs))  # no pair twice
    run_of = lambda runs, row: int(np.searchsorted(runs, row, side="right")) - 1  # noqa: E731
    for p, r in pairs:
        assert run_of(lruns, p) == run_of(rruns, r)
    want = {
        (lruns[m] + i, rruns[m] + j) for m, i, j in brute_force(left, right, radius, "<=")
    }
    assert want <= set(pairs)


def _tables(left, right):
    names, tables = [], []
    for m, ((lr, ld), (rr, rd)) in enumerate(zip(left, right)):
        pair = (f"L_1_{m}", f"R_1_{m}")
        names.append(pair)
        for name, ra, dec in ((pair[0], lr, ld), (pair[1], rr, rd)):
            tables.append(Table(name, {"id": np.arange(len(ra)), "ra": ra, "decl": dec}))
    return names, tables


@settings(max_examples=EXAMPLES, deadline=None)
@given(families(), st.sampled_from(["<", "<="]))
def test_the_join_answers_as_brute_force_with_kernels_on_and_off(family, op):
    check_join(*family, op)


def test_points_past_a_pole_are_the_points_the_separation_takes_them_for():
    # (0, 90.5) is (180, 89.5): one degree from (0, 89.5), over the pole.
    left = [(np.array([0.0, 180.0, 10.0]), np.array([89.5, 89.99, -90.3]))]
    right = [(np.array([0.0, 10.0, 190.0]), np.array([90.5, 90.05, -89.8]))]
    for radius in (1.0, 0.5, 0.1):
        assert brute_force(left, right, radius, "<=")
        check_windows(left, right, radius)
        check_join(left, right, radius, "<=")


def check_join(left, right, radius, op):
    from repro.sql.parser import parse

    names, tables = _tables(left, right)
    dbs = [Database(use_kernels=k) for k in (True, False)]
    for db in dbs:
        for table in tables:
            db.create_table(table)
    template = (
        "SELECT a.id AS i, b.id AS j FROM {} a, {} b "
        f"WHERE qserv_angSep(a.ra, a.decl, b.ra, b.decl) {op} {radius!r}"
    )
    want = brute_force(left, right, radius, op)
    (sel,) = parse(template.format(*names[0]))
    family_out = dbs[0].execute_family(sel, dbs[0].kernel_key(sel), names)
    assert family_out is not None
    for m, pair in enumerate(names):
        mine = sorted((i, j) for mm, i, j in want if mm == m)
        answers = [db.execute(template.format(*pair)) for db in dbs] + [family_out[m]]
        for out in answers:
            assert out.rows() == answers[1].rows()  # the interpreter's order too
            assert sorted(out.rows()) == mine
