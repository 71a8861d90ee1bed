"""Comb construction, the comb metric, ball partitions, and the
ultrametric-matrix round trips."""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform

from ultracomb import (BoundaryPoint, Comb, Partition, Tree, ValidationError,
                       ball_partition, comb_distance, comb_from_ultrametric,
                       comb_to_tree, parse_newick, validate_ultrametric)

from conftest import random_comb
from reference_tree import (reference_comb_to_tree, reference_newick, reference_parse_newick,
                            reference_path_to)
from reference_ultrametric import reference_comb_from_ultrametric, reference_validate

EXAMPLE = Comb(1.0, 4.0, [0.2, 0.5, 0.8], [3.0, 1.0, 2.0])


# ----------------------------------------------------------------------
# construction and serialization

def test_comb_validation():
    with pytest.raises(ValidationError):
        Comb(1.0, 4.0, [0.5, 0.5], [1.0, 2.0])  # duplicate positions
    with pytest.raises(ValidationError):
        Comb(1.0, 2.0, [0.5], [2.0])  # origin not above teeth
    with pytest.raises(ValidationError):
        Comb(1.0, 2.0, [1.0], [1.0])  # position on the boundary
    with pytest.raises(ValidationError):
        Comb(1.0, 2.0, [0.5], [-1.0])  # nonpositive height
    with pytest.raises(ValidationError):
        Comb(-1.0, 2.0)


def test_comb_sorts_teeth():
    c = Comb(1.0, 4.0, [0.8, 0.2], [2.0, 3.0])
    assert c.positions.tolist() == [0.2, 0.8] and c.heights.tolist() == [3.0, 2.0]


def test_constructor_matches_the_list_of_teeth_form():
    """Teeth in any order are stored as the former list-of-(position,
    height) form stored them: stably sorted by position."""
    gen = np.random.default_rng(101)
    for n in (2, 3, 17, 200):
        pos = 0.01 + 0.98 * gen.random(n)
        heights = 0.1 + gen.random(n)
        order = np.argsort(pos, kind="stable")
        c = Comb(1.0, 2.0, pos, heights)
        assert np.array_equal(c.positions, pos[order])
        assert np.array_equal(c.heights, heights[order])
        assert c == Comb(1.0, 2.0, pos.tolist(), heights.tolist())


@pytest.mark.parametrize("positions, message", [
    ([0.5, 0.2, 0.5], "strictly increasing"),  # tied, unsorted
    ([0.2, 0.5, 0.5], "strictly increasing"),  # tied, sorted
    ([0.2, math.nan, 0.5], "strictly inside the interval"),  # NaN in the middle
    ([math.nan, 0.2, 0.5], "strictly inside the interval"),
    ([0.2, 0.5, math.nan], "strictly inside the interval"),
])
def test_constructor_rejects_tied_and_nan_positions(positions, message):
    for build in (Comb, Comb.from_arrays):
        with pytest.raises(ValidationError, match=message):
            build(1.0, 4.0, np.array(positions), np.array([1.0, 2.0, 3.0]))


def test_sorted_arrays_are_kept_uncopied_and_frozen():
    p, h = np.array([0.2, 0.5, 0.8]), np.array([3.0, 1.0, 2.0])
    c = Comb(1.0, 4.0, p, h)
    assert c.positions is p and c.heights is h
    assert not p.flags.writeable and not h.flags.writeable
    assert Comb.from_arrays(1.0, 4.0, p, h) == c


def test_json_round_trip_identity():
    gen = np.random.default_rng(100)
    for _ in range(50):
        c = random_comb(gen)
        back = Comb.from_dict(json.loads(json.dumps(c.to_dict())))
        assert back == c
    doc = json.loads(json.dumps(EXAMPLE.to_dict()))
    assert doc["teeth"] == sorted(doc["teeth"], key=lambda t: t["pos"])


def test_gap_lengths_sum_to_interval():
    gen = np.random.default_rng(101)
    for _ in range(100):
        c = random_comb(gen)
        assert abs(c.gap_lengths().sum() - c.interval_length) <= 1e-12 * c.interval_length


# ----------------------------------------------------------------------
# comb distance

def test_distance_identity_point():
    assert comb_distance(EXAMPLE, 0.37, 0.37) == 0.0
    assert comb_distance(EXAMPLE, BoundaryPoint(0.37, "left"),
                         BoundaryPoint(0.37, "right")) == 0.0


def test_distance_faces_of_a_tooth():
    # the two faces of a tooth position sit at twice the tooth height
    left = BoundaryPoint(0.5, "left")
    right = BoundaryPoint(0.5, "right")
    assert comb_distance(EXAMPLE, left, right) == 2.0
    assert comb_distance(EXAMPLE, right, left) == 2.0
    # a left face includes its own tooth when looking right
    assert comb_distance(EXAMPLE, left, 0.6) == 2.0
    assert comb_distance(EXAMPLE, right, 0.6) == 0.0


def test_distance_interior_points():
    assert comb_distance(EXAMPLE, 0.1, 0.3) == 6.0
    assert comb_distance(EXAMPLE, 0.3, 0.6) == 2.0
    assert comb_distance(EXAMPLE, 0.6, 0.9) == 4.0
    assert comb_distance(EXAMPLE, 0.3, 0.9) == 4.0


def test_distance_domain_error():
    with pytest.raises(ValidationError):
        comb_distance(EXAMPLE, -0.1, 0.5)
    with pytest.raises(ValidationError):
        comb_distance(EXAMPLE, 0.5, 1.5)
    with pytest.raises(ValidationError):
        BoundaryPoint(0.0, "left")


def test_distance_two_faces_where_no_tooth_stands():
    # the faces of a position without a tooth coincide, in either order
    for x in (0.37, 1.0):
        left, right = BoundaryPoint(x, "left"), BoundaryPoint(x, "right")
        assert comb_distance(EXAMPLE, left, right) == 0.0
        assert comb_distance(EXAMPLE, right, left) == 0.0


def test_distance_domain_error_names_the_first_argument():
    with pytest.raises(ValidationError, match=r"position 1\.5 outside"):
        comb_distance(EXAMPLE, 1.5, 2.0)
    with pytest.raises(ValidationError, match=r"position 2\.0 outside"):
        comb_distance(EXAMPLE, 2.0, BoundaryPoint(1.5, "left"))


def test_ultrametric_inequality_exact():
    # exact in float arithmetic: distances are maxima of stored heights
    gen = np.random.default_rng(102)
    for _ in range(200):
        c = random_comb(gen)
        pts = gen.random(6) * c.interval_length
        for x, y, z in itertools.permutations(pts, 3):
            dxz = comb_distance(c, x, z)
            assert dxz <= max(comb_distance(c, x, y), comb_distance(c, y, z))


# ----------------------------------------------------------------------
# partitions and ball partitions

def test_partition_is_one_label_array():
    part = Partition([5, 5, 2])
    assert part == Partition([0, 0, 1]) == Partition(np.array([1, 1, 0], dtype=np.uint8))
    assert part != Partition([0, 1, 1])
    assert part.n == 3
    # labels are kept as given, int64 and read-only
    assert part.labels.dtype == np.int64 and part.labels.tolist() == [5, 5, 2]
    with pytest.raises(ValueError):
        part.labels[0] = 0
    # blocks are sorted by their smallest index, whatever the label values
    assert Partition([7, -1, 7, 3, -1]).blocks == (frozenset({0, 2}), frozenset({1, 4}),
                                                   frozenset({3}))
    empty = Partition([])
    assert empty.n == 0 and empty.blocks == () and empty == Partition(np.zeros(0, dtype=int))


def test_partition_rejects_non_integer_labels():
    for bad in ([[0, 1], [1, 0]], [0.0, 1.0], [True, False], ["a", "b"], [[0], [1, 2]],
                [None, 0], 3):
        with pytest.raises(ValidationError, match="partition labels"):
            Partition(bad)


def test_ball_partition_spec_example():
    # brute-force oracle over pairwise max-over-interval distances agrees
    part = ball_partition(EXAMPLE, [0.1, 0.3, 0.6, 0.9], 4.0)
    assert part.blocks == (frozenset({0}), frozenset({1, 2, 3}))


def test_ball_partition_extremes():
    gen = np.random.default_rng(103)
    c = random_comb(gen, min_teeth=3)
    # one point per inter-tooth gap, so every pair is tooth-separated
    edges = np.concatenate(([0.0], c.positions, [c.interval_length]))
    pts = (edges[:-1] + edges[1:]) / 2
    one = ball_partition(c, pts, 2 * c.origin_height)
    assert len(one.blocks) == 1
    tiny = ball_partition(c, pts, float(c.heights.min()))
    assert all(len(b) == 1 for b in tiny.blocks)
    assert ball_partition(c, [], 1.0) == Partition(())


def test_ball_partition_input_checks():
    for radius in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValidationError, match="radius"):
            ball_partition(EXAMPLE, [0.1, 0.1, 0.9], radius)
    for pts in ([0.1, float("nan")], [float("nan")], [-0.1, 0.5], [1.5]):
        with pytest.raises(ValidationError, match="outside"):
            ball_partition(EXAMPLE, pts, 1.0)


def test_ball_partition_matches_pairwise_oracle():
    gen = np.random.default_rng(104)
    for _ in range(100):
        c = random_comb(gen)
        pts = gen.random(6) * c.interval_length
        r = float(gen.random() * 2 * c.origin_height + 1e-9)
        part = ball_partition(c, pts, r)
        for i, j in itertools.combinations(range(len(pts)), 2):
            same = part.labels[i] == part.labels[j]
            assert same == (comb_distance(c, pts[i], pts[j]) <= r)


def test_ball_partition_refines_monotonically():
    gen = np.random.default_rng(105)
    for _ in range(50):
        c = random_comb(gen, min_teeth=2)
        pts = gen.random(8) * c.interval_length
        r1, r2 = sorted(gen.random(2) * 2 * c.origin_height + 1e-9)
        fine, coarse = ball_partition(c, pts, r1).labels, ball_partition(c, pts, r2).labels
        # every pair sharing a finer block shares a coarser one
        assert np.all((coarse[:, None] == coarse)[fine[:, None] == fine])


# ----------------------------------------------------------------------
# comb from an ultrametric matrix

def test_two_point_matrix():
    h = 0.7
    comb, placements = comb_from_ultrametric([[0.0, 2 * h], [2 * h, 0.0]])
    assert comb.positions.tolist() == [0.5] and comb.heights.tolist() == [h]
    assert placements == [(0.0, 0.5), (0.5, 1.0)]


def test_triadic_depth2_matrix():
    # 9 points in 3 groups of 3: distance 1/9 inside a group, 1/3 across
    d = np.full((9, 9), 1.0 / 3.0)
    for g in range(3):
        sl = slice(3 * g, 3 * g + 3)
        d[sl, sl] = 1.0 / 9.0
    np.fill_diagonal(d, 0.0)
    comb, placements = comb_from_ultrametric(d)
    heights = sorted(comb.heights.tolist())
    assert heights == [1 / 18] * 6 + [1 / 6] * 2
    widths = [e - s for s, e in placements]
    assert np.allclose(widths, 1 / 9)
    # brute-force check of all 36 pairs through interval representatives
    mids = [(s + e) / 2 for s, e in placements]
    for i, j in itertools.combinations(range(9), 2):
        assert comb_distance(comb, mids[i], mids[j]) == pytest.approx(d[i, j], rel=0, abs=0)


def test_matrix_round_trip_exact():
    gen = np.random.default_rng(106)
    for _ in range(100):
        c = random_comb(gen, max_teeth=15)
        edges = np.concatenate(([0.0], c.positions, [c.interval_length]))
        mids = (edges[:-1] + edges[1:]) / 2
        n = mids.size
        d = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            d[i, j] = d[j, i] = comb_distance(c, mids[i], mids[j])
        rebuilt, placements = comb_from_ultrametric(d)
        reps = [(s + e) / 2 for s, e in placements]
        for i, j in itertools.combinations(range(n), 2):
            assert comb_distance(rebuilt, reps[i], reps[j]) == d[i, j]


def test_masses_respected():
    d = [[0.0, 2.0], [2.0, 0.0]]
    comb, placements = comb_from_ultrametric(d, masses=[3.0, 1.0])
    assert comb.interval_length == 4.0
    assert placements == [(0.0, 3.0), (3.0, 4.0)]


def test_non_ultrametric_rejected():
    bad = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    with pytest.raises(ValidationError):
        comb_from_ultrametric(bad)
    with pytest.raises(ValidationError):
        validate_ultrametric([[0.0, 1.0], [1.0, 0.1]])  # asymmetric
    with pytest.raises(ValidationError):
        validate_ultrametric([[0.0, 0.0], [0.0, 0.0]])  # coincident points
    # an infinite distance would make the tolerance infinite and pass every triple
    infinite = [[0.0, np.inf, 1.0], [np.inf, 0.0, 5.0], [1.0, 5.0, 0.0]]
    with pytest.raises(ValidationError, match="finite"):
        validate_ultrametric(infinite)
    with pytest.raises(ValidationError, match="finite"):
        comb_from_ultrametric(infinite)


def comb_matrix(heights: np.ndarray) -> np.ndarray:
    """Distances between the inter-tooth intervals of a comb with these
    tooth heights: twice the tallest tooth between two intervals."""
    n = heights.size + 1
    d = np.zeros((n, n))
    for i in range(n - 1):
        d[i, i + 1:] = 2.0 * np.maximum.accumulate(heights[i:])
    return d + d.T


def caterpillar(n: int) -> np.ndarray:
    """Point i splits off the rest at level n - i: depth n - 1."""
    idx = np.arange(n)
    d = (n - np.minimum.outer(idx, idx)).astype(float)
    np.fill_diagonal(d, 0.0)
    return d


def oracle_cases(seed: int, count: int):
    """Exact ultrametrics with ties, permuted point order and optional masses."""
    gen = np.random.default_rng(seed)
    for _ in range(count):
        n = int(gen.integers(1, 40))
        heights = 0.05 + gen.random(n - 1)
        if gen.random() < 0.5:
            heights = np.round(heights * 4.0) / 4.0 + 0.25  # many tied heights
        d = comb_matrix(heights)
        perm = gen.permutation(n)
        masses = 0.1 + gen.random(n) if gen.random() < 0.5 else None
        yield d[np.ix_(perm, perm)], masses


def test_rebuild_matches_reference_oracle():
    for d, masses in oracle_cases(110, 400):
        comb, placements = comb_from_ultrametric(d, masses)
        ref_comb, ref_placements = reference_comb_from_ultrametric(d, masses)
        assert comb == ref_comb
        assert placements == ref_placements


def outcome(fn, d):
    try:
        return fn(d).tolist()
    except ValidationError as exc:
        return str(exc)


def chain(n: int, step: float) -> np.ndarray:
    """Neighbours at distance 1, each further point ``step`` further away:
    within the default tolerance of an ultrametric, but not of the
    single-linkage ultrametric once ``(n - 2) * step`` exceeds it."""
    idx = np.arange(n)
    gap = np.abs(np.subtract.outer(idx, idx))
    return np.where(gap > 0, 1.0 + (gap - 1) * step, 0.0)


def test_validation_decides_like_triple_scan():
    gen = np.random.default_rng(111)
    cases = [chain(n, step) for n in range(3, 9) for step in (0.3e-9, 0.6e-9, 1.1e-9)]
    for d, _ in oracle_cases(112, 300):
        n = d.shape[0]
        if n < 3:
            continue
        d = d.copy()
        i, k = gen.choice(n, 2, replace=False)
        d[i, k] = d[k, i] = d[i, k] * (1.0 + gen.choice([-1e-3, -1e-10, 1e-10, 2e-9, 1e-3]))
        cases.append(d)
    outcomes = [outcome(validate_ultrametric, d) for d in cases]
    assert outcomes == [outcome(reference_validate, d) for d in cases]
    rejected = sum(isinstance(got, str) for got in outcomes)
    assert 0 < rejected < len(cases)


def test_rtol_chain_passes_triples_but_not_certificate():
    # every triple holds within tol, but d[0, 3] exceeds the single-linkage
    # distance 1 by 1.2 tol; the triple scan accepts it
    d = chain(4, 0.6e-9)
    single = squareform(cophenet(linkage(squareform(d), method="single")))
    assert not np.all(d <= single + 1e-9 * d.max())
    assert np.array_equal(validate_ultrametric(d), reference_validate(d))
    comb, placements = comb_from_ultrametric(d)
    assert len(placements) == 4


def test_visibility_underflow_names_the_remedy():
    d = caterpillar(60)
    with pytest.raises(ValidationError, match="visibility masses underflow.*explicit masses"):
        comb_from_ultrametric(d)
    comb, placements = comb_from_ultrametric(d, np.ones(60))
    assert comb.n_teeth == 59
    with pytest.raises(ValidationError, match="masses span too many orders"):
        comb_from_ultrametric(caterpillar(3), [1e20, 1.0, 1.0])


def test_deep_caterpillar_rebuilds_without_recursion():
    n = 1200
    d = caterpillar(n)
    comb, placements = comb_from_ultrametric(d, np.ones(n))
    assert comb.interval_length == n
    assert placements[0] == (0.0, 1.0)
    # point i sits in slot i, and the tooth after it is half its split level
    assert np.array_equal(comb.heights, (n - np.arange(n - 1)) / 2.0)


# a pair numpy's isclose (rtol 1e-9) accepts one way round only
ONE_WAY = (1.5888212956636651, 1.5888212972524864)
INF, NAN = float("inf"), float("nan")
SYMMETRIC = "distance matrix must be symmetric"
DIAGONAL = "distance matrix must have a zero diagonal"
POSITIVE = "off-diagonal distances must be positive (points must be distinct)"
FINITE = "off-diagonal distances must be finite"
TRIPLE = "ultrametric inequality violated for triple (0, 2, 1): d=5.0 > max(4.0, 4.0)"
# (edits to a 4-point ultrametric, the error the all-matrix checks gave)
FAULTY_MATRICES = [
    ([(1, 1, NAN)], SYMMETRIC),
    ([(0, 2, NAN)], SYMMETRIC),
    ([(0, 2, NAN), (2, 0, NAN)], SYMMETRIC),
    ([(0, 3, INF)], SYMMETRIC),
    ([(0, 3, INF), (3, 0, INF)], FINITE),
    ([(0, 3, -INF), (3, 0, -INF)], POSITIVE),
    ([(0, 3, INF), (3, 0, -INF)], SYMMETRIC),
    ([(0, 1, ONE_WAY[0]), (1, 0, ONE_WAY[1])], SYMMETRIC),
    ([(0, 1, ONE_WAY[1]), (1, 0, ONE_WAY[0])], SYMMETRIC),
    ([(0, 1, 2.0), (1, 0, 2.0 * (1 + 5e-10))], None),
    ([(0, 1, 0.0), (1, 0, 0.0)], POSITIVE),
    ([(2, 3, -2.0), (3, 2, -2.0)], POSITIVE),
    ([(2, 2, 1.0)], DIAGONAL),
    ([(0, 0, INF)], DIAGONAL),
    ([(0, 0, INF), (1, 1, -INF)], DIAGONAL),
    ([(0, 1, 5.0), (1, 0, 5.0)], TRIPLE),
    # several faults at once
    ([(1, 1, NAN), (0, 1, 3.0)], SYMMETRIC),
    ([(3, 3, NAN), (0, 1, -1.0), (1, 0, -1.0)], SYMMETRIC),
    ([(0, 1, 3.0), (2, 2, 1.0)], SYMMETRIC),
    ([(2, 2, 1.0), (0, 1, -1.0), (1, 0, -1.0)], DIAGONAL),
    ([(2, 2, 1.0), (0, 3, INF), (3, 0, INF)], DIAGONAL),
    ([(0, 1, 0.0), (1, 0, 0.0), (2, 3, INF), (3, 2, INF)], POSITIVE),
    ([(0, 1, -1.0), (1, 0, -1.0), (2, 3, NAN), (3, 2, NAN)], SYMMETRIC),
    ([(0, 3, INF), (3, 0, INF), (0, 1, 5.0), (1, 0, 5.0)], FINITE),
    ([(0, 1, 5.0), (1, 0, 5.0), (3, 3, 0.5)], DIAGONAL),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edits, message", FAULTY_MATRICES)
def test_matrix_faults_keep_their_message_and_precedence(edits, message):
    d = np.array([[0, 2, 4, 4], [2, 0, 4, 4], [4, 4, 0, 2], [4, 4, 2, 0]], dtype=float)
    for i, j, value in edits:
        d[i, j] = value
    for check in (validate_ultrametric, comb_from_ultrametric):
        try:
            check(d)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == message


# ----------------------------------------------------------------------
# comb -> tree

def test_tree_of_empty_comb():
    t = comb_to_tree(Comb(2.0, 3.5))
    assert t.newick() == "(0:3.5);"


def test_tree_caterpillar_distances():
    # teeth (1, 2): leaf pairs at distance 2 and 4, root at the origin height
    c = Comb(1.0, 3.0, [0.3, 0.6], [1.0, 2.0])
    t = comb_to_tree(c)
    assert t.distance("0", "1") == pytest.approx(2.0)
    assert t.distance("0", "2") == pytest.approx(4.0)
    assert t.distance("1", "2") == pytest.approx(4.0)
    assert t.leaf_depths() == [3.0, 3.0, 3.0]


def test_tree_is_ultrametric_exactly():
    # root-to-leaf depth equals the origin height with zero tolerance
    gen = np.random.default_rng(107)
    for _ in range(50):
        c = random_comb(gen)
        t = comb_to_tree(c)
        assert len(t.leaves()) == c.n_teeth + 1
        assert all(d == c.origin_height for d in t.leaf_depths())


def test_tree_distances_match_comb_and_newick():
    gen = np.random.default_rng(108)
    for _ in range(20):
        c = random_comb(gen, max_teeth=8)
        t = comb_to_tree(c)
        reparsed = parse_newick(t.newick())
        edges = np.concatenate(([0.0], c.positions, [c.interval_length]))
        mids = (edges[:-1] + edges[1:]) / 2
        for i, j in itertools.combinations(range(mids.size), 2):
            want = comb_distance(c, mids[i], mids[j])
            assert t.distance(str(i), str(j)) == pytest.approx(want, rel=1e-12)
            assert reparsed.distance(str(i), str(j)) == pytest.approx(want, rel=1e-9)


def test_tree_tied_heights_multifurcate():
    c = Comb(1.0, 2.0, [0.25, 0.5, 0.75], [1.0, 1.0, 1.0])
    t = comb_to_tree(c)
    assert len(t.root.children[0].children) == 4
    for parent in t.nodes():
        assert all(child.depth > parent.depth for child in parent.children)  # positive edges


def test_tree_matches_recursive_reference():
    # tied heights, and distinct heights that round to equal depths T - h
    gen = np.random.default_rng(109)
    combs = [Comb(4.0, 1e6, np.array([1.0, 2.0, 3.0]), np.array([1e-11, 2e-11, 1e-11]))]
    for _ in range(300):
        n = int(gen.integers(0, 40))
        levels = 0.05 + gen.random(max(1, n // 3 + 1))
        combs.append(Comb(n + 1.0, 1.5, np.arange(1.0, n + 1.0), gen.choice(levels, size=n)))
    for c in combs:
        assert comb_to_tree(c).newick(17) == reference_comb_to_tree(c).newick(17)


def test_tree_of_deep_caterpillar_without_recursion():
    n = 5000
    c = Comb(n + 1.0, n + 1.0, np.arange(1.0, n + 1.0), np.arange(n, 0.0, -1.0))
    t = comb_to_tree(c)
    assert t.leaf_labels() == [str(i) for i in range(n + 1)]
    assert all(d == n + 1.0 for d in t.leaf_depths())
    assert max(node.depth for node in t.nodes() if node.children) == n


def test_newick_export_and_parse_match_recursive_reference():
    gen = np.random.default_rng(110)
    texts = ["a;", "(a:1,b:2)r;", "((a:1,b:0.5)x:2,(c:1):1,d:3.25):7;", "(,(,):1):2;", "();"]
    for i in range(200):
        n = int(gen.integers(0, 30))
        heights = gen.choice(0.05 + gen.random(n // 2 + 1), size=n) if i % 2 else 0.05 + gen.random(n)
        t = comb_to_tree(Comb(n + 1.0, 1.5, np.arange(1.0, n + 1.0), heights))
        for digits in (6, 12, 17):
            assert t.newick(digits) == reference_newick(t, digits)
        texts.append(t.newick(17))
    for text in texts:
        got, want = parse_newick(text), reference_parse_newick(text)
        assert got.newick(17) == reference_newick(want, 17)
        assert [(x.depth, x.label) for x in got.nodes()] == [(x.depth, x.label) for x in want.nodes()]
        labels, root = [x for x in got.leaf_labels() if x][:5], want.root
        for a, b in itertools.combinations(labels, 2):
            pa, pb = reference_path_to(root, a), reference_path_to(root, b)
            assert got.mrca_depth(a, b) == [x.depth for x, y in zip(pa, pb) if x is y][-1]
        with pytest.raises(ValidationError, match="no leaf labelled 'missing'"):
            got.mrca_depth(labels[0] if labels else "missing", "missing")


def test_newick_parse_errors_match_recursive_reference():
    for text in ["(a:1,b:2;", "(a:1,b:2))x;", "a:1:2;", "(a:x);", "a", "(a,(b,c);", "a;b;"]:
        errors = []
        for parse in (parse_newick, reference_parse_newick):
            with pytest.raises((ValidationError, ValueError)) as info:
                parse(text)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1], text


def test_deep_caterpillar_newick_round_trip():
    # 100,000 levels, far past the recursion limit
    n = 100_000
    c = Comb(n + 1.0, n + 1.0, np.arange(1.0, n + 1.0), np.arange(n, 0.0, -1.0))
    text = comb_to_tree(c).newick()
    assert text.startswith(f"((0:{n},(1:{n - 1},") and text.count("(") == n + 1
    back = parse_newick(text)
    assert back.newick() == text
    assert back.leaf_labels() == [str(i) for i in range(n + 1)]
    assert back.leaf_depths() == [n + 1.0] * (n + 1)
    assert back.distance("0", str(n)) == 2.0 * n
    assert back.mrca_depth(str(n - 1), str(n)) == n
    # leaf '0' hangs from the node at depth 1; put it at depth 1 - n instead
    message = f"negative edge length: child depth {1.0 - n} above parent 1.0"
    with pytest.raises(ValidationError) as parsed:
        parse_newick(text.replace(f"0:{n},", f"0:{-n},", 1))
    view = back.nodes()
    next(node for node in view if node.is_leaf).depth = 1.0 - n
    with pytest.raises(ValidationError) as built:
        Tree(view[0])
    assert str(parsed.value) == str(built.value) == message
