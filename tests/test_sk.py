import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twolevel import config, core, sk, su2
from twolevel.errors import AccuracyNotReached, InvalidInput, NetTooLarge, NotSpecial, NotUnitary
from twolevel.sk import (
    BasicNet,
    GateSet,
    GateWord,
    build_net,
    evaluate_word,
    sk_approximate_with_error,
)

from util import _SkSession, gather_nearest, haar_su2


def h_like():
    """Involution (X + Z)/sqrt(2) normalized to determinant one."""
    return -1j * (core.PAULI["x"] + core.PAULI["z"]) / np.sqrt(2)


def t_like():
    return np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])


@pytest.fixture(scope="module")
def ht_set():
    return GateSet.from_letters([("h", h_like()), ("t", t_like())])


def test_gate_set_validation():
    with pytest.raises(NotSpecial, match="letter 'a' has det"):
        GateSet.from_letters([("a", np.diag([1.0j, 1.0]))])  # det != 1
    with pytest.raises(InvalidInput):
        GateSet.from_letters([("a", h_like()), ("a", t_like())])  # dup labels
    with pytest.raises(InvalidInput):
        GateSet(labels=(), matrices=())
    for labels in ([], [None], [7], [["h"]]):  # no letter, or a label that is not a str
        with pytest.raises(InvalidInput):
            GateSet.from_letters([(lab, h_like()) for lab in labels])
        with pytest.raises(InvalidInput):
            GateSet.from_json({"letters": [{"label": lab, "matrix": core.matrix_to_json(h_like())}
                                           for lab in labels]})


def test_cached_net_builds_once_then_loads(tmp_path, monkeypatch):
    monkeypatch.setenv(config.CACHE_ENV_VAR, str(tmp_path / "cache"))
    calls = []
    build, load = sk.build_net, BasicNet.load.__func__
    monkeypatch.setattr(sk, "build_net", lambda *a: calls.append("build") or build(*a))
    monkeypatch.setattr(BasicNet, "load",
                        classmethod(lambda cls, path: calls.append("load") or load(cls, path)))
    gs = config.default_gate_set()
    first, second = config.cached_net(gs, 4), config.cached_net(gs, 4)
    assert calls == ["build", "load"]
    assert len(list((tmp_path / "cache").glob("net_*.npz"))) == 1
    assert np.array_equal(first.quats, second.quats)


def test_net_load_takes_the_stored_order(tmp_path, ht_set, monkeypatch):
    net = build_net(ht_set, 6)
    path = tmp_path / "net.npz"
    net.save(path)
    with np.load(path) as z:
        assert z["s_order"].dtype.kind == "i"
        assert np.array_equal(z["s_order"], net._s_order)
    monkeypatch.setattr(np, "argsort", None)  # load must not sort
    back = BasicNet.load(path)
    assert np.array_equal(back._s_order, net._s_order)
    assert np.array_equal(back._quats_by_s, net._quats_by_s)


def test_net_load_accepts_an_int32_order_with_ties_in_any_order(tmp_path, ht_set):
    net = build_net(ht_set, 6)
    order = net._s_order.astype(np.int32)
    s = net._s_sorted
    i = int(np.flatnonzero(s[1:] == s[:-1])[0])  # two entries with equal s
    order[[i, i + 1]] = order[[i + 1, i]]
    path = tmp_path / "net.npz"
    net.save(path)
    with np.load(path) as z:
        fields = {**dict(z), "s_order": order}
    np.savez(path, **fields)
    back = BasicNet.load(path)
    assert np.array_equal(back._s_order, order)
    haar = su2.quat(haar_su2(np.random.default_rng(3)))
    for q in (net.quats[order[i]], net.quats[order[i + 1]], haar):
        assert back.nearest(q) == net.nearest(q)


def test_cached_net_rebuilds_a_format_3_file_once(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(config.CACHE_ENV_VAR, str(tmp_path / "cache"))
    gs = config.default_gate_set()
    config.cached_net(gs, 4)
    path = next((tmp_path / "cache").glob("net_*.npz"))
    with np.load(path) as z:
        fields = {k: v for k, v in dict(z).items() if k != "s_order"}
    np.savez(path, **{**fields, "net_format": np.array([3])})
    capsys.readouterr()
    built, build = [], sk.build_net
    monkeypatch.setattr(sk, "build_net", lambda *a: built.append(a) or build(*a))
    config.cached_net(gs, 4)
    assert "warning: ignoring bad net cache" in capsys.readouterr().err
    config.cached_net(gs, 4)
    assert capsys.readouterr().err == ""
    assert len(built) == 1
    with np.load(path) as z:
        assert int(z["net_format"][0]) == BasicNet.NET_FORMAT and "s_order" in z.files


def test_gate_set_compares_by_identity(ht_set):
    assert ht_set == ht_set
    a, b = config.default_gate_set(), config.default_gate_set()
    assert (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2


def test_gate_set_json_round_trip(ht_set):
    back = GateSet.from_json(ht_set.to_json())
    assert back.labels == ht_set.labels
    for a, b in zip(back.matrices, ht_set.matrices):
        assert np.array_equal(a, b)


def test_evaluate_word_empty(ht_set):
    assert np.array_equal(evaluate_word(GateWord(), ht_set), np.eye(2))


def test_evaluate_word_cancellation(ht_set):
    w = GateWord((("t", False), ("t", True)))
    assert np.abs(evaluate_word(w, ht_set) - np.eye(2)).max() <= 1e-14


def test_evaluate_word_single_letter(ht_set):
    w = GateWord((("h", False),))
    assert np.array_equal(evaluate_word(w, ht_set), h_like())


def test_evaluate_word_unknown_letter(ht_set):
    with pytest.raises(InvalidInput, match="unknown letter 'zz'"):
        evaluate_word(GateWord((("zz", False),)), ht_set)


def test_evaluate_word_is_left_to_right(ht_set):
    h, t = h_like(), t_like()
    got = evaluate_word(GateWord((("h", False), ("t", False))), ht_set)
    assert np.abs(got - h @ t).max() <= 1e-15
    assert np.abs(got - t @ h).max() > 1e-2  # non-commuting pair


def test_build_net_single_involution():
    gs = GateSet.from_letters([("h", h_like())])
    net = build_net(gs, 2)
    # Words: "", h, h^-1 = -h, hh = -I (and its duplicate): 4 distinct entries.
    assert len(net) <= 5
    mats = [su2.from_quat(q) for q in net.quats]
    assert any(np.abs(m - np.eye(2)).max() < 1e-12 for m in mats)
    assert any(np.abs(m + np.eye(2)).max() < 1e-12 for m in mats)


def test_build_net_zero_length(ht_set):
    net = build_net(ht_set, 0)
    assert len(net) == 1
    assert net.word_at(0) == GateWord()


def test_net_entries_match_word_evaluation(ht_set):
    net = build_net(ht_set, 5)
    for i, mat in enumerate(map(su2.from_quat, net.quats)):
        assert np.abs(evaluate_word(net.word_at(i), ht_set) - mat).max() <= 1e-12


def test_net_inverse_closure(gate_set):
    net = build_net(gate_set, 5)
    mats = np.array([su2.from_quat(q) for q in net.quats])
    for m in mats:
        inv = m.conj().T
        dists = np.abs(mats - inv[None, :, :]).max(axis=(1, 2))
        assert dists.min() <= 1e-12


def test_build_net_cap():
    gs = GateSet.from_letters(
        [("a", su2.rot_x(0.71)), ("b", su2.rot_y(0.52)), ("c", su2.rot_z(0.33))]
    )
    with pytest.raises(NetTooLarge):
        build_net(gs, 12, cap=1000)


def test_net_save_load_round_trip(tmp_path, ht_set):
    net = build_net(ht_set, 4)
    path = tmp_path / "net.npz"
    net.save(path)
    back = BasicNet.load(path)
    assert len(back) == len(net)
    assert np.array_equal(back.quats, net.quats)
    assert back.gate_set.labels == net.gate_set.labels
    rng = np.random.default_rng(0)
    v = su2.quat(haar_su2(rng))
    assert back.nearest(v) == net.nearest(v)


def test_net_file_carries_its_format(tmp_path, ht_set):
    net = build_net(ht_set, 4)
    path = tmp_path / "net.npz"
    net.save(path)
    with np.load(path) as z:
        fields = dict(z)
    assert int(fields["net_format"][0]) == BasicNet.NET_FORMAT

    def rewritten(**change):
        out = tmp_path / "changed.npz"
        np.savez(out, **{k: v for k, v in {**fields, **change}.items() if v is not None})
        return out

    stale = {"net_format": None, "quats": None,
             "mats": np.array([su2.from_quat(q) for q in net.quats]),
             "length": np.array([len(net.word_at(i)) for i in range(len(net))])}
    format3 = {"net_format": np.array([3]), "s_order": None}  # format 3 had no s_order
    for change in (stale, format3, {"net_format": np.array([1])}, {"net_format": None}):
        with pytest.raises(InvalidInput):
            BasicNet.load(rewritten(**change))
    bad = net.quats.copy()
    bad[-1] = -bad[-1]
    with pytest.raises(InvalidInput):
        BasicNet.load(rewritten(quats=bad))
    cyclic = net.parent.copy()
    cyclic[-1] = len(net) - 1
    with pytest.raises(InvalidInput):
        BasicNet.load(rewritten(parent=cyclic))
    assert np.array_equal(BasicNet.load(rewritten()).quats, net.quats)


def _unsampled_row(quats, value):
    """A copy of ``quats`` with one row that ``load``'s 16-entry sample skips set to ``value``."""
    sampled = set(np.linspace(0, len(quats) - 1, 16).astype(int).tolist())
    out = quats.copy()
    out[next(i for i in range(1, len(quats)) if i not in sampled)] = value
    return out


@pytest.mark.parametrize(
    "change",
    [
        lambda net: {"quats": net.quats[:, :3]},
        lambda net: {"parent": net.parent[:-1]},
        lambda net: {"code": net.code[:-1]},
        lambda net: {"code": np.concatenate([net.code[:-1], [99]]).astype(np.int16)},
        lambda net: {"quats": _unsampled_row(net.quats, np.nan)},
        lambda net: {"quats": _unsampled_row(net.quats, 0.6)},
        lambda net: {"quats": None},
        lambda net: {"parent": None},
        lambda net: {"code": None},
        lambda net: {"max_word_length": None},
        lambda net: {"gate_set": None},
        lambda net: {"gate_set": np.array(["{not json"])},
        lambda net: {"max_word_length": np.array([], dtype=np.int64)},
        lambda net: {"quats": net.quats.astype(str)},
        lambda net: {"parent": net.parent + 0.5},
        lambda net: {"s_order": None},
        lambda net: {"s_order": net._s_order[:-1]},
        lambda net: {"s_order": net._s_order.astype(np.float64)},
        lambda net: {"s_order": np.where(net._s_order == 0, len(net), net._s_order)},
        lambda net: {"s_order": np.where(net._s_order == 0, -1, net._s_order)},
        lambda net: {"s_order": np.where(net._s_order == 0, 1, net._s_order)},
        lambda net: {"s_order": net._s_order[::-1]},
    ],
    ids=["quats_3_columns", "parent_short", "code_short", "code_99", "nan_row", "non_unit_row",
         "no_quats", "no_parent", "no_code", "no_max_word_length", "no_gate_set",
         "gate_set_not_json", "max_word_length_empty", "quats_strings", "parent_floats",
         "no_s_order", "s_order_short", "s_order_floats", "s_order_past_end", "s_order_negative",
         "s_order_repeats", "s_order_unsorted"],
)
def test_net_load_rejects_malformed_arrays(tmp_path, ht_set, change):
    net = build_net(ht_set, 6)
    path = tmp_path / "net.npz"
    net.save(path)
    with np.load(path) as z:
        fields = {**dict(z), **change(net)}  # a None value deletes the member
    np.savez(path, **{k: v for k, v in fields.items() if v is not None})
    with pytest.raises(InvalidInput):
        BasicNet.load(path)


def test_net_load_rejects_non_npz_bytes(tmp_path):
    path = tmp_path / "net.npz"
    path.write_bytes(b"these bytes are not an npz archive")
    with pytest.raises(InvalidInput):
        BasicNet.load(path)
    with pytest.raises(OSError):
        BasicNet.load(tmp_path / "missing.npz")


def test_nearest_rejects_non_quaternions(ht_set):
    net = build_net(ht_set, 2)
    for bad in (np.eye(2), np.eye(2).reshape(4).astype(complex), np.ones(3)):
        with pytest.raises(InvalidInput):
            net.nearest(bad)


def test_nearest_word_exact_hit(ht_set):
    net = build_net(ht_set, 4)
    word = net.word_at(17 % len(net))
    target = evaluate_word(word, ht_set)
    got = net.word_at(net.nearest(su2.quat(target))[0])
    assert su2.su2_distance(evaluate_word(got, ht_set), target) <= 1e-14


def test_nearest_word_of_identity_is_empty_word(ht_set):
    net = build_net(ht_set, 4)
    assert net.word_at(net.nearest(su2.quat(np.eye(2)))[0]) == GateWord()


def test_nearest_matches_exhaustive_scan(ht_set):
    net = build_net(ht_set, 4)
    rng = np.random.default_rng(1)
    for _ in range(25):
        v = haar_su2(rng)
        _, dist = net.nearest(su2.quat(v))
        brute = min(core.operator_norm(su2.from_quat(q) - v) for q in net.quats)
        assert abs(dist - brute) <= 1e-12


@pytest.fixture(scope="module")
def oracle_nets(net8, ht_set, tmp_path_factory):
    ht = build_net(ht_set, 8)
    path = tmp_path_factory.mktemp("oracle") / "ht.npz"
    ht.save(path)
    return {"default8": net8, "ht8": ht, "ht8_loaded": BasicNet.load(path),
            "identity": build_net(ht_set, 0)}


def _unit(v):
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


def _directions(n):
    return st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).filter(
        lambda v: np.linalg.norm(v) > 1e-3)


@st.composite
def lookup_targets(draw, net):
    """Unit quaternions: Haar-like, near or on a net entry, on the z = 0 mirror
    plane, or at s = sqrt(2 - 2a) near 0 or near 2."""
    kind = draw(st.sampled_from(["haar", "near", "on", "mirror", "s_near_0", "s_near_2"]))
    if kind in ("near", "on"):
        q = net.quats[draw(st.integers(0, len(net) - 1))]
        if kind == "on":
            return q.copy()
        return _unit(q + 10.0 ** draw(st.integers(-13, -1)) * _unit(draw(_directions(4))))
    if kind == "mirror":
        theta, phi = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
        return np.array([np.cos(theta), np.sin(theta) * np.cos(phi),
                         np.sin(theta) * np.sin(phi), 0.0])
    if kind in ("s_near_0", "s_near_2"):
        delta = draw(st.one_of(st.just(0.0), st.floats(1e-16, 0.1)))
        a = 1.0 - delta if kind == "s_near_0" else delta - 1.0
        return np.array([a, *(np.sqrt(1.0 - a * a) * _unit(draw(_directions(3))))])
    return _unit(draw(_directions(4)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["default8", "ht8", "ht8_loaded", "identity"]), st.data())
def test_nearest_matches_gather_reference(oracle_nets, name, data):
    # The contiguous s-sorted lookup returns exactly what gathering each
    # window by index returns: the same entry, ties included, and the same distance.
    net = oracle_nets[name]
    t = data.draw(lookup_targets(net))
    assert net.nearest(t) == gather_nearest(net, t)


def _commutator_error(delta):
    """Operator-norm distance of A B A^-1 B^-1, formed from matrices, to the SU(2) matrix delta."""
    a, b = map(su2.from_quat, sk._balanced_pair(su2.quat(delta)))
    return core.operator_norm(a @ b @ a.conj().T @ b.conj().T - delta)


def _pair_axis(theta):
    """Axis m of the unconjugated x/y commutator whose rotation angle is theta."""
    s = np.sqrt(np.sin(theta / 4.0))
    return np.array([s, -s, np.sqrt(1.0 - s * s)]) / np.sqrt(1.0 + s * s)


AXES = {"x": (1, 0, 0), "-x": (-1, 0, 0), "y": (0, 1, 0), "-y": (0, -1, 0),
        "z": (0, 0, 1), "-z": (0, 0, -1)}


@settings(max_examples=300, deadline=None)
@given(st.floats(-12.0, np.log10(np.pi / 2.0)),
       st.sampled_from(sorted(AXES) + ["random", "antipode"]), st.integers(0, 2**32 - 1))
def test_balanced_pair_commutator_is_delta(log_theta, which, seed):
    theta = 10.0**log_theta
    if which == "random":
        axis = np.random.default_rng(seed).standard_normal(3)
    elif which == "antipode":
        axis = -_pair_axis(theta)
    else:
        axis = AXES[which]
    assert _commutator_error(su2.rotation(axis, theta)) <= 1e-12


def test_balanced_pair_resolves_tiny_rotations():
    # An arccos of the half trace reads rot_z(2e-9) as the identity, and the
    # identity pair then leaves the whole residual uncorrected.
    delta = su2.rot_z(2e-9)
    assert _commutator_error(delta) <= 1e-6 * core.operator_norm(delta - np.eye(2))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_qmul_matches_matrix_product(seed):
    rng = np.random.default_rng(seed)
    u, v = haar_su2(rng), haar_su2(rng)
    q = sk._qmul(su2.quat(u), su2.quat(v))
    assert np.abs(su2.from_quat(q) - u @ v).max() <= 1e-14
    assert np.abs(su2.from_quat(sk._qconj(su2.quat(u))) - u.conj().T).max() == 0.0


def test_group_commutator_identity():
    a, b = map(su2.from_quat, sk._balanced_pair(su2.quat(np.eye(2))))
    assert np.array_equal(a, np.eye(2))
    assert np.array_equal(b, np.eye(2))


def test_group_commutator_small_rotation():
    theta = 0.1
    delta = su2.rot_z(theta)
    a, b = map(su2.from_quat, sk._balanced_pair(su2.quat(delta)))
    comm = a @ b @ a.conj().T @ b.conj().T
    assert core.operator_norm(comm - delta) <= 1e-9
    bound = 2.0 * np.sqrt(theta / 2.0)
    assert 2.0 * su2.axis_angle(su2.quat(a))[0] <= bound + 1e-9
    assert 2.0 * su2.axis_angle(su2.quat(b))[0] <= bound + 1e-9
    for m in (a, b):
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(det - 1.0) <= 1e-12


def test_group_commutator_generic_axes():
    rng = np.random.default_rng(2)
    for _ in range(50):
        axis = rng.standard_normal(3)
        theta = rng.uniform(0.0, np.pi / 2)
        delta = su2.rotation(axis, theta)
        a, b = map(su2.from_quat, sk._balanced_pair(su2.quat(delta)))
        comm = a @ b @ a.conj().T @ b.conj().T
        assert core.operator_norm(comm - delta) <= 1e-9


def test_group_commutator_out_of_regime(ht_set, monkeypatch):
    # A residual rotating by more than pi/2 gets no commutator step: each
    # level keeps the previous word, here the empty word of a length-0 net.
    calls = []
    balanced_pair = sk._balanced_pair
    monkeypatch.setattr(sk, "_balanced_pair", lambda d: calls.append(d) or balanced_pair(d))
    net = build_net(ht_set, 0)
    with pytest.raises(AccuracyNotReached) as exc_info:
        sk_approximate_with_error(su2.rot_z(3.0), 0.5, net, depth=3)
    assert exc_info.value.word == GateWord()
    assert calls == []
    with pytest.raises(AccuracyNotReached):
        sk_approximate_with_error(su2.rot_z(1.5), 0.5, net, depth=1)
    assert len(calls) == 1


def test_group_commutator_degenerate_axes():
    # Targets along the construction's own x/y axes and the antipodal branch.
    for axis in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, -1)):
        delta = su2.rotation(axis, 0.3)
        a, b = map(su2.from_quat, sk._balanced_pair(su2.quat(delta)))
        comm = a @ b @ a.conj().T @ b.conj().T
        assert core.operator_norm(comm - delta) <= 1e-9


def test_group_commutator_near_identity():
    delta = su2.rot_y(1e-9)
    a, b = map(su2.from_quat, sk._balanced_pair(su2.quat(delta)))
    comm = a @ b @ a.conj().T @ b.conj().T
    assert core.operator_norm(comm - delta) <= 1e-9


def _greedy_net(gate_set, max_len):
    """Brute-force reference for build_net: (quats, parent, code).

    Words are enumerated shortest first, each length in prefix order, with
    immediate back-tracking pruned; each is checked against every word kept
    before it and dropped when 2 - 2 q . q' < DEDUP_TOL**2.
    """
    ext = [tuple(q) for q in su2.quat(sk.letter_table(gate_set)).tolist()]
    kept = np.empty((1 + sum(len(ext) * (len(ext) - 1) ** j for j in range(max_len)), 4))
    kept[0] = (1.0, 0.0, 0.0, 0.0)
    parent, code = [-1], [-1]
    start = 0
    for _ in range(max_len):
        stop = len(code)
        for i in range(start, stop):
            for c, e in enumerate(ext):
                if code[i] == c ^ 1:
                    continue
                q = sk._qmul(tuple(kept[i].tolist()), e)
                k = kept[:len(code)].T
                d2 = 2.0 - 2.0 * (k[0] * q[0] + k[1] * q[1] + k[2] * q[2] + k[3] * q[3])
                if d2.min() >= sk.DEDUP_TOL**2:
                    kept[len(code)] = q
                    parent.append(i)
                    code.append(c)
        start = stop
    return kept[:len(code)], np.array(parent), np.array(code)


def _axis_letter(axis, angle):
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return su2.from_quat(np.array([np.cos(angle / 2), *(np.sin(angle / 2) * n)]))


_seeds = st.integers(0, 2**32 - 1)
_haar_letters = st.builds(
    lambda k, seed: [haar_su2(np.random.default_rng([seed, i])) for i in range(k)],
    st.integers(1, 3), _seeds,
)
# Rotations about one coordinate axis by multiples of pi/4: words repeat up to rounding.
_axis_letters = st.builds(
    lambda rot, ks: [rot(k * np.pi / 4) for k in ks],
    st.sampled_from([su2.rot_x, su2.rot_y, su2.rot_z]),
    st.lists(st.integers(1, 7), min_size=1, max_size=3),
)
# Letters within about 2e-6 of the identity: every word lies near DEDUP_TOL of the others.
_near_identity_letters = st.builds(
    lambda angles, seed: [_axis_letter(np.random.default_rng([seed, i]).standard_normal(3), a)
                          for i, a in enumerate(angles)],
    st.lists(st.floats(1e-6, 4e-6), min_size=1, max_size=3), _seeds,
)


@settings(deadline=None)
@given(st.one_of(_haar_letters, _axis_letters, _near_identity_letters), st.integers(0, 4))
def test_build_net_matches_greedy_reference(mats, max_len):
    gs = GateSet.from_letters([(f"l{i}", m) for i, m in enumerate(mats)])
    net = build_net(gs, max_len)
    quats, parent, code = _greedy_net(gs, max_len)
    assert np.array_equal(net.quats, quats)
    assert np.array_equal(net.parent, parent)
    assert np.array_equal(net.code, code)


def test_default_net_is_pinned(gate_set):
    # The words of the default length-10 net, as the two-pass dedup that the
    # one proximity rule replaced enumerated them.
    net = build_net(gate_set, 10)
    assert len(net) == 22_208
    digest = hashlib.sha256(net.parent.astype("<i8").tobytes() + net.code.astype("<i2").tobytes())
    assert digest.hexdigest() == "3e995ccc9d87c67dd3ac7752bc2d8f2db726cb92e797d9b9d270fc174d59f2ab"


def test_build_net_deterministic(ht_set):
    n1 = build_net(ht_set, 5)
    n2 = build_net(ht_set, 5)
    assert np.array_equal(n1.quats, n2.quats)
    assert np.array_equal(n1.parent, n2.parent)
    assert np.array_equal(n1.code, n2.code)


def test_sk_exact_net_member(ht_set):
    net = build_net(ht_set, 4)
    word = net.word_at(len(net) // 2)
    target = evaluate_word(word, ht_set)
    got, err = sk_approximate_with_error(target, 0.5, net, depth=3)
    assert err <= 1e-12


def test_sk_large_eps_uses_base_case(net8):
    rng = np.random.default_rng(3)
    radius = net8.covering_radius(samples=100, seed=7)
    for _ in range(10):
        v = haar_su2(rng)
        w, _ = sk_approximate_with_error(v, min(0.9, radius * 2), net8, depth=5)
        assert w == net8.word_at(net8.nearest(su2.quat(v))[0])


def test_sk_ht_example(ht_set):
    net = build_net(ht_set, 12)
    target = su2.rot_z(0.7)
    w, err = sk_approximate_with_error(target, 0.05, net, depth=5)
    assert err <= 0.05
    assert su2.su2_distance(evaluate_word(w, ht_set), target) == err


def test_sk_soundness_of_reported_error(net8, gate_set):
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = haar_su2(rng)
        w, err = sk_approximate_with_error(v, 0.1, net8, depth=5)
        recomputed = su2.su2_distance(v, evaluate_word(w, gate_set))
        assert abs(err - recomputed) <= 1e-12


def test_sk_accuracy_not_reached_reports_achieved(ht_set):
    net = build_net(ht_set, 2)
    rng = np.random.default_rng(5)
    v = haar_su2(rng)
    with pytest.raises(AccuracyNotReached) as exc_info:
        sk_approximate_with_error(v, 1e-4, net, depth=1)
    exc = exc_info.value
    assert exc.achieved is not None and exc.word is not None
    recomputed = su2.su2_distance(v, evaluate_word(exc.word, ht_set))
    assert abs(exc.achieved - recomputed) <= 1e-12


def _achieved_at_depth(v, net, depth):
    try:
        _, err = sk_approximate_with_error(v, 1e-15, net, depth)
        return err
    except AccuracyNotReached as exc:
        return exc.achieved


def test_sk_depth_monotonicity(net8):
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = haar_su2(rng)
        errs = [_achieved_at_depth(v, net8, d) for d in range(5)]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-12


def test_sk_inverse_symmetry(net8, gate_set):
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = haar_su2(rng)
        w_fwd, err_fwd = sk_approximate_with_error(v, 0.08, net8, depth=5)
        vinv = v.conj().T
        # The reversed-inverted word achieves the same error on the inverse target.
        rev = su2.su2_distance(vinv, evaluate_word(GateWord.from_codes(w_fwd.codes[::-1] ^ 1, w_fwd.labels), gate_set))
        assert abs(rev - err_fwd) <= 1e-12
        _, err_inv = sk_approximate_with_error(vinv, 0.08, net8, depth=5)
        assert err_inv <= 0.08


def test_sk_rejects_bad_eps(net8):
    with pytest.raises(InvalidInput):
        sk_approximate_with_error(np.eye(2), 0.0, net8)
    with pytest.raises(InvalidInput):
        sk_approximate_with_error(np.eye(2), 1.5, net8)


@pytest.mark.parametrize("v, error", [(1j * np.eye(2), NotSpecial),
                                      (np.zeros((2, 2)), NotUnitary),
                                      (np.diag([1.0, -1.0]), NotSpecial)])
def test_sk_rejects_a_target_outside_su2_before_any_lookup(net8, monkeypatch, v, error):
    # Such a target used to scan the whole s window, then miss as AccuracyNotReached.
    monkeypatch.setattr(BasicNet, "nearest", lambda *a: pytest.fail("net lookup"))
    with pytest.raises(error, match="det -1|unitarity"):
        sk_approximate_with_error(v, 0.1, net8)


#: Each value a depth or net length is rejected for; the rule is ``core.as_count``.
BAD_COUNTS = [-1, 2.5, "3", True, np.float64(2.0), None]


@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
def test_sk_and_build_net_reject_a_bad_count(net8, ht_set, bad):
    with pytest.raises(InvalidInput, match="depth must be an integer >= 0"):
        sk_approximate_with_error(np.eye(2), 0.1, net8, depth=bad)
    with pytest.raises(InvalidInput, match="max_len must be an integer >= 0"):
        build_net(ht_set, bad)


def test_sk_and_build_net_take_numpy_integers(net8, ht_set):
    v = haar_su2(np.random.default_rng(8))
    assert sk_approximate_with_error(v, 0.1, net8, depth=np.int64(3)) == \
        sk_approximate_with_error(v, 0.1, net8, depth=3)
    assert len(build_net(ht_set, np.int32(3))) == len(build_net(ht_set, 3))


@pytest.fixture(scope="module")
def z_net():
    """A one-letter, non-dense alphabet: every word is a z rotation, so the
    residual of a target far from the z axis rotates by more than pi/2."""
    return build_net(GateSet.from_letters([("rz", su2.rot_z(np.pi / 4))]), 8)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["haar", "entry", "non_dense"]), st.integers(0, 4),
       st.floats(1e-4, 0.3), st.integers(0, 2**32 - 1))
# Targets whose inner calls get within eps at a level where the top level
# does not, so an inner call that stopped at eps would return another word.
@example("haar", 2, 0.047, 354)
@example("haar", 4, 0.071, 15)
def test_sk_matches_the_memoized_reference(net8, z_net, kind, depth, eps, seed):
    # The plain recursion returns, bit for bit, what the memoized fixed-depth
    # recursion it replaced returns: codes, quaternion and error.
    rng = np.random.default_rng(seed)
    net = z_net if kind == "non_dense" else net8
    t = net.quats[rng.integers(len(net))] if kind == "entry" else _unit(rng.standard_normal(4))
    t = tuple(t.tolist())
    codes, m, err = sk._sk(net, t, depth, eps)
    ref_codes, ref_m, ref_err = _SkSession(net).run(t, eps, depth)
    assert codes.dtype == ref_codes.dtype and np.array_equal(codes, ref_codes)
    assert m == ref_m and err == ref_err


def test_sk_non_dense_alphabet_fails_gracefully():
    # A single-axis alphabet cannot approximate generic targets: the failure
    # surfaces as AccuracyNotReached, never as a wrong answer.
    gs = GateSet.from_letters([("rz", su2.rot_z(np.pi / 4))])
    net = build_net(gs, 8)
    target = su2.rot_x(1.0)
    with pytest.raises(AccuracyNotReached) as exc_info:
        sk_approximate_with_error(target, 0.05, net, depth=4)
    assert exc_info.value.achieved > 0.05


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))
def test_nearest_ties_are_canonical_on_mirror_plane(net12, theta, phi):
    # With x/y letters, reversing a word negates its quaternion's z, so a
    # target with z = 0 is equidistant from w and reverse(w): the pick must
    # not depend on rounding, nor on a z far below the tie tolerance.
    a, x, y = np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)
    picks = {net12.nearest(np.array([a, x, y, z]))[0] for z in (0.0, 1e-18, -1e-18)}
    assert len(picks) == 1
    d2 = 2.0 - 2.0 * (net12.quats @ np.array([a, x, y, 0.0]))
    ties = np.flatnonzero(d2 <= d2.min() + sk.TIE_TOL)
    words = [net12.word_at(int(i)) for i in ties]
    best = min(words, key=lambda w: (len(w), w.letters))
    assert net12.word_at(picks.pop()) == best
