import random

import pytest
from hypothesis import given, settings, strategies as st

from dlcheck import domains
from dlcheck.domains import (
    AbsDataFrame,
    EnumerationError,
    SourceAbs,
    TOP_ROWS,
    col_join,
    col_leq,
    col_meet,
    df_constrain,
    df_join,
    df_leq,
    df_meet,
    df_overlap,
    frame,
    gamma_rows,
    gamma_source,
    is_canonical,
    ordered_frames,
    row_contains,
    row_index,
    row_join,
    row_leq,
    row_meet,
    row_unindex,
    rows,
    set_constrain,
    set_join,
    set_leq,
    set_reduce,
    source_covers,
    src_join,
    src_leq,
)
from dlcheck.lang import INF, RowExpr, RowInterval, expr_add, expr_le


# -- columns -------------------------------------------------------------------

def test_col_meet_with_top():
    assert col_meet(None, frozenset({"id"})) == frozenset({"id"})
    assert col_meet(frozenset({"id"}), None) == frozenset({"id"})


def test_col_join():
    assert col_join(frozenset({"id", "city"}), frozenset({"country"})) == \
        frozenset({"id", "city", "country"})
    assert col_join(None, frozenset({"x"})) is None


def test_col_leq_bottom():
    for x in (None, frozenset(), frozenset({"a"})):
        assert col_leq(frozenset(), x)
    assert not col_leq(None, frozenset({"a"}))


# -- row intervals ---------------------------------------------------------------

def test_row_meet_examples():
    assert row_meet(rows(10, 14), rows(12, 15)) == rows(12, 14)


def test_row_join_example():
    assert row_join(rows(1, 10), rows(9, 12)) == rows(1, 12)


def test_row_index():
    assert row_index(rows(10, 14)) == rows(0, 4)
    assert row_index(TOP_ROWS) == TOP_ROWS
    assert row_index(rows(5, 5)) == rows(0, 0)


def test_row_unindex():
    assert row_unindex(rows(10, 14), rows(1, 3)) == rows(11, 13)
    r = rows(3, 17)
    assert row_unindex(r, row_index(r)) == r
    # symbolic upper bound flows through
    got = row_unindex(TOP_ROWS, rows(0, RowExpr.symbol("k")))
    assert got == rows(0, RowExpr.symbol("k"))


def test_row_unindex_clips_out_of_range():
    assert row_unindex(rows(10, 14), rows(2, 9)) == rows(12, 14)


def test_row_unindex_matches_positional_selection():
    # brute force: selecting index window [i, j] of the concrete rows l..u
    # must land exactly on the surviving positions, shifted by l
    for l in range(0, 6):
        for u in range(l, 8):
            for i in range(0, 9):
                for j in range(i, 10):
                    got = row_unindex(rows(l, u), rows(i, j))
                    kept = [p for p in range(i, j + 1) if p <= u - l]
                    if not kept:
                        assert got is None
                    else:
                        assert gamma_rows(got) == \
                            set(range(l + kept[0], l + kept[-1] + 1))


def reference_row_unindex(r, ij):
    """``row_unindex`` before its symbol-free path: meet ``ij`` with
    ``row_index(r)``, then shift the result by ``r.lo``."""
    ij = row_meet(row_index(r), ij)
    if ij is None:
        return None
    lo = expr_add(r.lo, ij.lo)
    if lo is None or lo.inf:
        lo = r.lo
    hi = expr_add(r.lo, ij.hi)
    if hi is None:
        hi = r.hi
    else:
        hi = domains._min_expr(hi, r.hi, r.hi)
    if expr_le(lo, hi) is False:
        return r
    return RowInterval(lo, hi)


def _random_interval(rng, p_symbolic):
    lo, hi = _random_bound(rng, p_symbolic), _random_bound(rng, p_symbolic)
    if rng.random() < 0.2:
        hi = INF
    if expr_le(lo, hi) is False:
        lo, hi = hi, lo
    return rows(lo, hi)


def test_row_unindex_matches_the_composition():
    """The same ``RowInterval`` as meeting with ``row_index`` and shifting,
    on 30,000 seeded random pairs with constant, mixed and all-symbolic
    bounds; the symbol-free path clips, empties and keeps whole windows."""
    rng = random.Random(16)
    outcomes = set()
    for n in range(30000):
        p_symbolic = (0.0, 0.5, 1.0)[n % 3]
        r, ij = _random_interval(rng, p_symbolic), _random_interval(rng, p_symbolic)
        got = row_unindex(r, ij)
        assert got == reference_row_unindex(r, ij), (str(r), str(ij))
        if p_symbolic == 0.0:
            outcomes.add("empty" if got is None else "whole" if got == r else "part")
    assert outcomes == {"empty", "whole", "part"}


def test_symbolic_disjointness():
    s = RowExpr.symbol("s")
    assert row_meet(rows(s.shift(1), "inf"), rows(0, s)) is None
    # different symbols cannot be separated
    assert row_meet(rows(RowExpr.symbol("a"), "inf"),
                    rows(0, RowExpr.symbol("b"))) is not None


# -- frames ---------------------------------------------------------------------

def test_overlap_verdicts():
    a = frame("file", {"id", "city"}, 10, 14)
    assert df_overlap(a, frame("file", {"country"}, 12, 15)) is False
    assert df_overlap(a, frame("file", {"id"}, 12, 15)) is True
    assert df_overlap(a, a) is True
    assert df_overlap(a, frame("other", {"id"}, 10, 14)) is False


def test_join_meet_constrain_goldens():
    a = frame("file", {"id", "city"}, 10, 14)
    b = frame("file", {"country"}, 12, 15)
    c = frame("file", {"id"}, 12, 15)
    j = df_join(a, b)
    assert j == frame("file", {"id", "city", "country"}, 10, 15)
    assert df_meet(a, c) == frame("file", {"id"}, 12, 14)
    assert df_constrain(j, frozenset({"city"}), rows(1, 2)) == frame("file", {"city"}, 11, 12)
    assert df_join(a, a) == a


def test_cross_file_join_rejected():
    from dlcheck.domains import DomainError
    with pytest.raises(DomainError):
        df_join(frame("a", None, 0, 1), frame("b", None, 0, 1))


def test_constrain_no_op():
    a = frame("f", {"x"}, 4, 9)
    assert df_constrain(a, None, row_index(a.rows)) == a


def test_constrain_empty_results():
    a = frame("f", {"x"}, 4, 9)
    assert df_constrain(a, frozenset({"y"}), rows(0, 2)) is None
    assert df_constrain(a, None, rows(20, 30)) is None


def test_constrain_symbolic():
    got = df_constrain(frame("f"), frozenset({"y"}), rows(0, RowExpr.symbol("s")))
    assert got == frame("f", {"y"}, 0, RowExpr.symbol("s"))


# -- canonical sets ---------------------------------------------------------------

def test_reduce_golden():
    s = {frame("file1", {"id"}, 1, 10), frame("file1", {"id"}, 9, 12),
         frame("file2", {"name"}, 0, 100), frame("file3", {"zip"}, 0, 100)}
    assert set_reduce(s) == frozenset({
        frame("file1", {"id"}, 1, 12),
        frame("file2", {"name"}, 0, 100),
        frame("file3", {"zip"}, 0, 100),
    })


def test_reduce_fixpoint_on_canonical_set():
    s = frozenset({frame("a", None, 0, 3), frame("a", None, 5, 9)})
    assert set_reduce(s) == s


def test_reduce_chained_overlaps_collapse():
    s = {frame("f", None, 0, 2), frame("f", None, 2, 4), frame("f", None, 4, 8)}
    assert set_reduce(s) == frozenset({frame("f", None, 0, 8)})


def reference_set_reduce(frames):
    """The restart loop ``set_reduce`` replaced: after every join, re-sort
    and rescan every pair from the start."""
    work = list(ordered_frames(frames))
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if df_overlap(work[i], work[j]):
                    merged = df_join(work[i], work[j])
                    del work[j], work[i]
                    work.append(merged)
                    work = list(ordered_frames(work))
                    changed = True
                    break
            if changed:
                break
    return frozenset(work)


def _random_bound(rng, p_symbolic):
    if rng.random() < p_symbolic:
        return RowExpr.symbol(rng.choice("st"), rng.randrange(7))
    return RowExpr.const(rng.randrange(12))


def _random_reduce_input(rng, p_symbolic):
    out = []
    for _ in range(rng.randint(0, 8)):
        lo, hi = _random_bound(rng, p_symbolic), _random_bound(rng, p_symbolic)
        if rng.random() < 0.15:
            hi = INF
        if expr_le(lo, hi) is False:
            lo, hi = hi, lo
        cols = None if rng.random() < 0.3 else \
            frozenset(rng.sample(["a", "b", "c"], rng.randint(1, 3)))
        out.append(AbsDataFrame(rng.choice("fg"), cols, rows(lo, hi)))
    return out


def test_set_reduce_matches_restart_loop():
    """Same result as the restart loop on seeded random sets with constant,
    mixed and all-symbolic bounds, and each result is a canonical upper
    bound of its input."""
    rng = random.Random(5)
    for n in range(12000):
        frames = _random_reduce_input(rng, (0.0, 0.5, 1.0)[n % 3])
        got = set_reduce(frames)
        assert got == reference_set_reduce(frames), [str(f) for f in frames]
        assert is_canonical(got)
        assert set_leq(frames, got)


def _count_overlap_tests(monkeypatch):
    """Route ``domains.df_overlap`` through a counter; returns the counts."""
    counts = [0]

    def counting(a, b):
        counts[0] += 1
        return df_overlap(a, b)

    monkeypatch.setattr(domains, "df_overlap", counting)
    return counts


def test_set_reduce_overlap_tests_stay_quadratic(monkeypatch):
    """100 disjoint frames and a 20-frame adjacent chain that sorts last.
    The chain's columns differ from the others', so the set takes the
    pairwise loop: each join rescans the kept frames once, not every pair
    of the set.  With one column set, the same windows are swept and make
    no overlap test."""
    disjoint = [frame("f", None, lo, lo + 1) for lo in range(100, 400, 3)]
    chain = [frame("f", {"a"}, lo, lo + 2) for lo in range(900, 940, 2)]
    calls = _count_overlap_tests(monkeypatch)
    got = set_reduce(disjoint + chain)
    assert got == frozenset(disjoint) | {frame("f", {"a"}, 900, 940)}
    n, joins = len(disjoint) + len(chain), len(chain) - 1
    assert 0 < calls[0] <= n * (n - 1) // 2 + joins * n
    calls[0] = 0
    chain = [frame("f", None, lo, lo + 2) for lo in range(900, 940, 2)]
    assert set_reduce(disjoint + chain) == frozenset(disjoint) | {frame("f", None, 900, 940)}
    assert calls[0] == 0


def _random_sweep_input(rng):
    """Up to 14 frames of one file and one column abstraction with integer
    bounds: gapped, touching (``hi`` equal to the next ``lo``), overlapping,
    contained and duplicate windows, some with an infinite upper bound."""
    cols = None if rng.random() < 0.4 else frozenset(rng.sample("abc", rng.randint(1, 3)))
    out, pos = [], rng.randrange(5)
    for _ in range(rng.randint(2, 14)):
        r = rng.random()
        if out and r < 0.15:
            out.append(rng.choice(out))
            continue
        if out and r < 0.3:
            outer = rng.choice(out).rows
            if not outer.hi.inf:
                lo = rng.randint(outer.lo.offset, outer.hi.offset)
                out.append(frame("f", cols, lo, rng.randint(lo, outer.hi.offset)))
                continue
        if r < 0.55:
            lo = pos
        elif r < 0.75:
            lo = max(pos - rng.randint(1, 4), 0)
        else:
            lo = pos + rng.randint(1, 6)
        hi = "inf" if rng.random() < 0.05 else lo + rng.randrange(8)
        out.append(frame("f", cols, lo, hi))
        pos = lo if hi == "inf" else hi
    rng.shuffle(out)
    return out


def test_set_reduce_sweep_matches_restart_loop(monkeypatch):
    """Sets of one file and one column abstraction with integer bounds are
    swept: the same result as the restart loop on 4,000 seeded random
    sets, with no overlap test.  Adding a frame of a second file, a frame
    with other columns or one symbolic bound (each to a quarter of the
    sets) makes the set fall back to the pairwise loop, which also equals
    the restart loop."""
    rng = random.Random(11)
    calls = _count_overlap_tests(monkeypatch)
    joined = 0
    for n in range(4000):
        frames = _random_sweep_input(rng)
        got = set_reduce(frames)
        assert calls[0] == 0, [str(f) for f in frames]
        assert got == reference_set_reduce(frames), [str(f) for f in frames]
        joined += len(got) < len(set(frames))
        lo, cols = rng.randrange(60), frames[0].cols
        extra = (frame("g", cols, lo, lo + 3),
                 frame("f", {"z"} if cols is None else None, lo, lo + 3),
                 frame("f", cols, RowExpr.symbol("s", lo), "inf"),
                 frame("f", cols, lo, RowExpr.symbol("s", lo)))[n % 4]
        mixed = frames + [extra]
        got = set_reduce(mixed)
        assert calls[0] > 0
        assert got == reference_set_reduce(mixed), [str(f) for f in mixed]
        calls[0] = 0
    assert joined > 2000


def reference_set_join(a, b):
    """``set_join`` before it skipped the tests between two unjoined frames
    of one operand: reduce the union from scratch."""
    return set_reduce(set(a) | set(b))


def _random_canonical(rng, p_symbolic):
    """A canonical set of up to 16 frames over two files: mostly narrow
    windows, so that many stay apart, and some wide or unbounded ones.
    Bounds on two different symbols always may overlap, so most sets use
    one symbol."""
    symbols = rng.choice(("s", "t", "st"))

    def bound():
        if rng.random() < p_symbolic:
            return RowExpr.symbol(rng.choice(symbols), rng.randrange(150))
        return RowExpr.const(rng.randrange(150))

    out = []
    for _ in range(rng.randint(0, 16)):
        lo, r = bound(), rng.random()
        if r < 0.85:
            hi = lo.shift(rng.randrange(8))
        elif r < 0.88:
            hi = INF
        else:
            hi = bound()
            if expr_le(lo, hi) is False:
                lo, hi = hi, lo
        cols = None if rng.random() < 0.3 else \
            frozenset(rng.sample("abcd", rng.randint(1, 3)))
        out.append(AbsDataFrame(rng.choice("fg"), cols, rows(lo, hi)))
    return set_reduce(out)


def test_set_join_matches_reducing_the_union():
    """Skipping the tests between two frames of one canonical operand
    changes nothing: same result as reducing the union, on 12,000 seeded
    random canonical pairs with constant, mixed and all-symbolic bounds,
    more than 1,500 of which share frames."""
    rng = random.Random(8)
    pools = [[_random_canonical(rng, p) for _ in range(400)] for p in (0.0, 0.5, 1.0)]
    shared = 0
    for n in range(12000):
        a, b = rng.choice(pools[n % 3]), rng.choice(pools[n % 3])
        if n % 4 == 0 and a:
            b = set_reduce(list(b) + rng.sample(ordered_frames(a), (len(a) + 1) // 2))
            shared += bool(a & b)
            if n % 8 == 0:
                a, b = b, a
        assert set_join(a, b) == reference_set_join(a, b), (
            [str(f) for f in ordered_frames(a)], [str(f) for f in ordered_frames(b)])
    assert shared > 1500


def test_set_join_of_symbolic_sets_is_commutative():
    """Inserting ``b``'s frames into ``a`` would join ``g^T_[55, 58]`` with
    ``g^{a,d}_[61, t+67]`` on one side only, giving ``g^T_[55, t+67]``
    for ``set_join(A, B)`` and ``g^T_[55, inf]`` for ``set_join(B, A)``."""
    def sym(name, offset):
        return RowExpr.symbol(name, offset)

    a = frozenset({
        frame("f", {"a", "c"}, sym("s", 7), sym("t", 18)),
        frame("g", {"a", "c"}, 10, 13),
        frame("g", {"c", "d"}, sym("t", 60), 63),
        frame("g", None, 23, 27),
        frame("g", None, 58, sym("t", 55)),
        frame("g", None, sym("s", 46), 47),
    })
    b = frozenset({
        frame("f", None, 7, "inf"),
        frame("g", {"a", "d"}, 61, sym("t", 67)),
        frame("g", {"b", "d"}, sym("t", 32), 35),
        frame("g", {"c"}, 55, 58),
    })
    assert is_canonical(a) and is_canonical(b)
    got = set_join(a, b)
    assert got == set_join(b, a) == reference_set_join(a, b)
    assert frame("g", None, 55, "inf") in got


def test_set_join_overlap_tests_stay_linear_per_join(monkeypatch):
    """Folding 100 disjoint frames into one set, one join each: a join
    tests the new frame against each kept frame once, and never two frames
    of the accumulated set (about 166k tests in all when it did)."""
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return df_overlap(a, b)

    monkeypatch.setattr(domains, "df_overlap", counting)
    acc = frozenset()
    for lo in range(0, 500, 5):
        before = calls
        acc = set_join(acc, {frame("f", None, lo, lo + 2)})
        assert calls - before <= len(acc) - 1
    assert len(acc) == 100
    assert calls <= 100 * 99 // 2


def test_set_join_of_disjoint_sets_does_not_reduce(monkeypatch):
    """Folding 100 disjoint single-frame sets: no frame of one operand may
    overlap one of the other, so no join reduces."""
    calls = 0

    def counting(frames, parts=()):
        nonlocal calls
        calls += 1
        return set_reduce(frames, parts)

    monkeypatch.setattr(domains, "set_reduce", counting)
    acc = frozenset()
    for lo in range(0, 500, 5):
        acc = set_join(acc, {frame("f", None, lo, lo + 2)})
    assert acc == frozenset(frame("f", None, lo, lo + 2) for lo in range(0, 500, 5))
    assert calls == 0
    assert set_join(acc, {frame("f", None, 2, 5)}) == (
        acc - {frame("f", None, 0, 2), frame("f", None, 5, 7)}) | {frame("f", None, 0, 7)}
    assert calls == 1


def _reference_set_leq(a, b):
    return all(any(df_leq(x, y) for y in b) for x in a)


def test_set_leq_matches_pairwise_scan():
    """Same answer as the pairwise ``df_leq`` scan, on lists that overlap,
    repeat frames and share frames with the other operand."""
    rng = random.Random(9)
    for n in range(3000):
        p_symbolic = (0.0, 0.5, 1.0)[n % 3]
        a = _random_reduce_input(rng, p_symbolic)
        b = _random_reduce_input(rng, p_symbolic)
        if n % 2 and a:
            b += rng.sample(a, rng.randint(1, len(a)))
        if n % 5 == 0 and b:
            a += rng.sample(b, rng.randint(1, len(b)))
        for x, y in ((a, b), (b, a), (a, a + b), (a, set_reduce(a + b))):
            assert set_leq(x, y) == _reference_set_leq(x, y)


def test_frame_hash_and_sort_key_are_computed_once_and_unchanged():
    """The stored hash is the generated dataclass hash, and the stored sort
    key the formula ``ordered_frames`` always used; neither shows in
    ``==``, ``repr`` or ``dataclasses.replace``."""
    import dataclasses

    fs = [frame("f", {"b", "a"}, RowExpr.symbol("s", 3), "inf"),
          frame("g", None, 2, RowExpr.symbol("t")),
          frame("f", {"c"}, 0, 9)]
    for f in fs:
        assert hash(f) == hash((f.file, f.cols, f.rows))
        cols = ("~top",) if f.cols is None else tuple(sorted(f.cols))
        assert domains._frame_key(f) == (f.file, cols, str(f.rows.lo), str(f.rows.hi))
        assert repr(f) == f"AbsDataFrame(file={f.file!r}, cols={f.cols!r}, rows={f.rows!r})"
        assert f == AbsDataFrame(f.file, f.cols, f.rows)
    moved = dataclasses.replace(fs[2], rows=rows(4, 5))
    assert moved == frame("f", {"c"}, 4, 5)
    assert hash(moved) == hash(frame("f", {"c"}, 4, 5))
    assert domains._frame_key(moved) == ("f", ("c",), "4", "5")


def test_copied_and_unpickled_frames_recompute_their_hash():
    """A stored hash is only valid in the interpreter that computed it."""
    import copy
    import pickle

    f = frame("f", {"a"}, RowExpr.symbol("s", 1), 9)
    object.__setattr__(f, "_hash", 0)  # as if computed under another seed
    for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert g == f
        assert hash(g) == hash((g.file, g.cols, g.rows))


def test_source_hash_is_computed_once_and_recomputed_by_copies():
    """A value's stored hash is the generated dataclass hash, and a copy or
    an unpickled value recomputes it rather than carrying it over."""
    import copy
    import pickle

    vs = [SourceAbs(),
          SourceAbs(frozenset({frame("f", {"a"}, RowExpr.symbol("s", 1), 9)}), True),
          SourceAbs(frozenset({frame("f", None, 0, 4), frame("g", {"b"}, 2, "inf")}),
                    False, True)]
    for v in vs:
        assert hash(v) == hash((v.frames, v.tainted, v.aligned))
        assert repr(v) == (f"SourceAbs(frames={v.frames!r}, tainted={v.tainted!r}, "
                           f"aligned={v.aligned!r})")
        object.__setattr__(v, "_hash", 0)  # as if computed under another seed
        for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert w == v
            assert hash(w) == hash((w.frames, w.tainted, w.aligned))


def test_source_pickled_under_another_hash_seed_is_found_in_a_set():
    """String hashes differ between interpreters: a value pickled under
    ``PYTHONHASHSEED=1`` and loaded under ``PYTHONHASHSEED=3`` is a member
    of a set of values made there."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(domains.__file__).resolve().parents[1])
    make = ("SourceAbs(frozenset({frame('events', {'a', 'b'}, 0, 9), "
            "frame('sales', None, RowExpr.symbol('s', 2), 'inf')}), True)")
    prelude = ("import pickle, sys\n"
               "from dlcheck.domains import SourceAbs, frame\n"
               "from dlcheck.lang import RowExpr\n")

    def run(seed, script, data=b""):
        return subprocess.run(
            [sys.executable, "-c", prelude + script], input=data, capture_output=True,
            check=True, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout

    data = run("1", f"sys.stdout.buffer.write(pickle.dumps({make}))")
    out = run("3", "v = pickle.loads(sys.stdin.buffer.read())\n"
                   f"print(v in {{{make}, SourceAbs()}})", data)
    assert out == b"True\n"


def test_set_join_of_published_inputs():
    s1 = frozenset({frame("file1", {"id"}, 1, 10), frame("file2", {"name"}, 0, 100)})
    s2 = frozenset({frame("file1", {"id"}, 9, 12), frame("file3", {"zip"}, 0, 100)})
    assert set_join(s1, s2) == frozenset({
        frame("file1", {"id"}, 1, 12),
        frame("file2", {"name"}, 0, 100),
        frame("file3", {"zip"}, 0, 100),
    })


def test_set_join_neutral_element():
    s = frozenset({frame("f", {"a"}, 0, 5)})
    assert set_join(s, frozenset()) == s
    assert set_leq(s, set_join(s, frozenset({frame("g", None, 0, 1)})))


def test_set_constrain_drops_empties():
    s = frozenset({frame("f", {"a"}, 0, 3), frame("f", {"b"}, 10, 20)})
    got = set_constrain(s, frozenset({"a"}), TOP_ROWS)
    assert got == frozenset({frame("f", {"a"}, 0, 3)})


# -- sources ---------------------------------------------------------------------

def test_src_join_taint_or():
    a = SourceAbs(frozenset({frame("f", None, 0, 1)}), False)
    b = SourceAbs(frozenset({frame("g", None, 0, 1)}), True)
    j = src_join(a, b)
    assert j.tainted
    assert j.frames == a.frames | b.frames


def test_src_leq_bottom():
    x = SourceAbs(frozenset({frame("f", None, 0, 9)}), True)
    assert src_leq(SourceAbs(), x)


def test_gamma_source():
    a = SourceAbs(frozenset({frame("f", None, 0, 1)}), False)
    assert gamma_source(a) == {("f", 0), ("f", 1)}
    assert gamma_source(SourceAbs()) == frozenset()
    b = SourceAbs(frozenset({frame("f", {"c"}, 2, 3), frame("g", None, 0, 0)}), True)
    assert gamma_source(b) == {("f", 2), ("f", 3), ("g", 0)}


def test_gamma_rejects_symbolic_and_infinite():
    with pytest.raises(EnumerationError):
        gamma_rows(TOP_ROWS)
    with pytest.raises(EnumerationError):
        gamma_rows(rows(0, RowExpr.symbol("s")))


def test_source_covers_infinite():
    a = SourceAbs(frozenset({frame("f", None, 0, "inf")}), False)
    assert source_covers(a, "f", 12345)
    assert not source_covers(a, "g", 0)


# -- randomized lattice laws ------------------------------------------------------

_exprs = st.one_of(
    st.integers(0, 12).map(RowExpr.const),
    st.tuples(st.sampled_from(["s", "t"]), st.integers(0, 6)).map(
        lambda p: RowExpr.symbol(*p)),
)


@st.composite
def _intervals(draw):
    lo = draw(_exprs)
    if draw(st.booleans()):
        hi = RowExpr(inf=True)
    else:
        hi = draw(_exprs)
        if expr_le(lo, hi) is False:
            lo, hi = hi, lo
    return rows(lo, hi)


_cols = st.one_of(
    st.none(),
    st.frozensets(st.sampled_from(["a", "b", "c"])),
)


@st.composite
def _frames(draw):
    from dlcheck.domains import AbsDataFrame
    cols = draw(_cols)
    iv = draw(_intervals())
    if cols == frozenset():
        return None
    return AbsDataFrame(draw(st.sampled_from(["f", "g"])), cols, iv)


_frame_sets = st.lists(_frames(), max_size=4).map(
    lambda fs: set_reduce([f for f in fs if f is not None]))
_sources = st.tuples(_frame_sets, st.booleans()).map(lambda p: SourceAbs(*p))


@given(_frame_sets, _frame_sets)
def test_set_join_commutative_and_upper_bound(a, b):
    j = set_join(a, b)
    assert j == set_join(b, a)
    assert set_leq(a, j) and set_leq(b, j)
    assert is_canonical(j)


@given(_frame_sets)
def test_set_join_idempotent(a):
    assert set_join(a, a) == a


@settings(max_examples=60)
@given(_frame_sets, _frame_sets, _frame_sets)
def test_set_join_orderings_bound_all_operands(a, b, c):
    # With incomparable symbolic bounds the merge order can affect how far
    # the conservative hull widens, so the two orders need not coincide;
    # both must still sit above every operand.
    left = set_join(set_join(a, b), c)
    right = set_join(a, set_join(b, c))
    for s in (a, b, c):
        assert set_leq(s, left) and set_leq(s, right)


@settings(max_examples=60)
@given(_frame_sets, _frame_sets, _frame_sets)
def test_set_join_associative_on_concrete_bounds(a, b, c):
    def concrete(s):
        return all(f.rows.lo.is_const and (f.rows.hi.is_const or f.rows.hi.inf)
                   for f in s)
    if not (concrete(a) and concrete(b) and concrete(c)):
        return
    left = set_join(set_join(a, b), c)
    right = set_join(a, set_join(b, c))
    assert set_leq(left, right) and set_leq(right, left)


@given(_sources, _sources)
def test_src_join_is_least_upper_boundish(a, b):
    j = src_join(a, b)
    assert src_leq(a, j) and src_leq(b, j)


@given(_frame_sets)
def test_constrain_is_reductive(a):
    """Constraining never invents coverage: the result stays below the input."""
    assert set_leq(set_constrain(a, frozenset({"a", "b"}), rows(0, 5)), a)
    assert set_constrain(a, None, TOP_ROWS) == a


@given(_sources, _sources)
def test_gamma_monotone(a, b):
    try:
        ga, gb = gamma_source(a), gamma_source(b)
    except EnumerationError:
        return
    if src_leq(a, b):
        assert ga <= gb


@given(_intervals(), _intervals())
def test_row_meet_overapproximates_intersection(a, b):
    m = row_meet(a, b)
    for n in range(0, 25):
        if row_contains(a, n) and row_contains(b, n):
            assert m is not None and row_contains(m, n)


@given(_intervals())
def test_unindex_index_identity(r):
    assert row_unindex(r, row_index(r)) == r


@given(_intervals(), _intervals())
def test_row_leq_consistent_with_join(a, b):
    j = row_join(a, b)
    assert row_leq(a, j) and row_leq(b, j)
