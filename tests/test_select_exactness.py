"""Exactness of the select and partition steps' fixed-answer shortcuts.

``PopularRouteMiner.popular_route`` reads its path off one shortest-path
tree per source landmark, kept on the transfer network;
``routing_feature_distance`` carries its DP cells in locals; and
``segment_similarities`` scales the weights, and each segment vector, once
per call.  Each must return exactly what the code as first written
returns: the early-stopping Dijkstra per query, the indexed DP, and one
``weighted_cosine_similarity`` per consecutive pair.  Ties matter for the
routes: equal probability products are common with small integer counts,
and the heap then breaks them by landmark id.
"""

import heapq
import math
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import routing_feature_distance, segment_similarities
from repro.core import weighted_cosine_similarity
from repro.exceptions import FeatureError
from repro.features import FeatureDtype
from repro.routes import PopularRouteMiner, TransferNetwork


def reference_popular_route(transfers, min_support, source, target, ties=None):
    """The early-stopping Dijkstra as first written.  When *ties* is a
    dict, it counts equal-cost relaxations and equal-distance pops."""
    if source == target:
        return [source]
    dist = {source: 0.0}
    parents = {}
    done = set()
    heap = [(0.0, source)]
    last_popped = None
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if ties is not None and d == last_popped:
            ties["pops"] += 1
        last_popped = d
        if u == target:
            path = [target]
            while path[-1] in parents:
                path.append(parents[path[-1]])
            path.reverse()
            return path
        done.add(u)
        out = transfers.out_transitions(u)
        total = sum(out.values())
        if total == 0:
            continue
        for v, count in out.items():
            if count < min_support or v in done:
                continue
            weight = -math.log(count / total)
            nd = d + weight
            if ties is not None and nd == dist.get(v):
                ties["relaxations"] += 1
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parents[v] = u
                heapq.heappush(heap, (nd, v))
    return None


def reference_routing_feature_distance(seq_a, seq_b, dtype):
    """The edit-distance DP as first written."""
    n, m = len(seq_a), len(seq_b)
    if n == 0:
        return float(m)
    if m == 0:
        return float(n)
    prev = [float(j) for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [float(i)] + [0.0] * m
        for j in range(1, m + 1):
            if dtype is FeatureDtype.NUMERIC:
                sub_cost = abs(seq_a[i - 1] - seq_b[j - 1])
            else:
                sub_cost = 0.0 if seq_a[i - 1] == seq_b[j - 1] else 1.0
            cur[j] = min(
                prev[j - 1] + sub_cost,
                prev[j] + 1.0,
                cur[j - 1] + 1.0,
            )
        prev = cur
    return prev[m]


def _reference_peak_scaled(values):
    peak = max((abs(x) for x in values), default=0.0)
    if peak > 0.0 and math.isfinite(peak):
        return [x / peak for x in values]
    return values


def reference_weighted_cosine_similarity(u, v, weights):
    """Eq. 3 as first written: validate, peak-scale all three, then cosine."""
    if not (len(u) == len(v) == len(weights)):
        raise FeatureError(
            f"dimension mismatch: |u|={len(u)}, |v|={len(v)}, |w|={len(weights)}"
        )
    if any(w < 0.0 for w in weights):
        raise FeatureError("feature weights must be non-negative")
    u = _reference_peak_scaled(u)
    v = _reference_peak_scaled(v)
    weights = _reference_peak_scaled(weights)
    dot = sum(w * a * b for w, a, b in zip(weights, u, v))
    norm_u = math.sqrt(sum(w * a * a for w, a in zip(weights, u)))
    norm_v = math.sqrt(sum(w * b * b for w, b in zip(weights, v)))
    if norm_u == 0.0 and norm_v == 0.0:
        cosine = 1.0
    elif norm_u == 0.0 or norm_v == 0.0:
        cosine = 0.0
    else:
        cosine = dot / (norm_u * norm_v)
        cosine = max(-1.0, min(1.0, cosine))
    return 0.5 * (cosine + 1.0)


def reference_segment_similarities(vectors, weights):
    return [
        reference_weighted_cosine_similarity(a, b, weights)
        for a, b in zip(vectors, vectors[1:])
    ]


def bits(values):
    """Floats as hex strings, so equality is bit equality (nan, -0.0)."""
    return [float(x).hex() for x in values]


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except FeatureError as exc:
        return ("error", str(exc))


def copy_of(transfers):
    """A cold copy: the same transitions in the same insertion order."""
    return TransferNetwork.from_dict(transfers.to_dict())


# -- popular routes on the scenario model ----------------------------------------------


@pytest.mark.parametrize("min_support", [1, 2])
def test_scenario_routes_equal_cold_then_warm(scenario, min_support):
    transfers = copy_of(scenario.stmaker.transfers)
    miner = PopularRouteMiner(transfers, min_support=min_support)
    landmarks = sorted(transfers.landmarks())
    rng = random.Random(27)
    queries = [
        (source, target)
        for source in landmarks
        for target in [source, -1, *rng.sample(landmarks, 12)]
    ]
    expected = [
        reference_popular_route(transfers, min_support, s, t) for s, t in queries
    ]
    assert sum(route is None for route in expected) > 0
    assert max(len(route or ()) for route in expected) >= 4
    for _ in range(2):  # cold, then every tree is memoised
        assert [miner.popular_route(s, t) for s, t in queries] == expected
    trees = transfers.route_trees().trees
    assert set(trees) == {(s, min_support) for s in landmarks}


def test_scenario_selector_routes_equal_reference(scenario):
    """The trained model's own miner, whatever the memo already holds."""
    miner = scenario.stmaker.popular_routes
    transfers = scenario.stmaker.transfers
    landmarks = sorted(transfers.landmarks())
    rng = random.Random(7)
    for _ in range(400):
        s, t = rng.choice(landmarks), rng.choice(landmarks)
        assert miner.popular_route(s, t) == reference_popular_route(
            transfers, miner.min_support, s, t
        )


# -- popular routes on small tie-heavy graphs --------------------------------------------


@st.composite
def small_transfer_graphs(draw):
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["int", "str"]))
    ids = list(range(n)) if kind == "int" else [f"L{i}" for i in range(n)]
    edges = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.integers(1, 3)),
        max_size=3 * n,
    ))
    min_support = draw(st.integers(1, 3))
    pairs = [(s, t) for s in ids for t in ids]
    queries = draw(st.permutations(pairs))
    return ids, edges, min_support, queries


def test_small_graph_routes_equal_reference_with_ties():
    ties = {"relaxations": 0, "pops": 0}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_transfer_graphs())
    def check(graph):
        ids, edges, min_support, queries = graph
        transfers = TransferNetwork()
        for src, dst, count in edges:
            transfers.add_transition(src, dst, count)
        miner = PopularRouteMiner(transfers, min_support=min_support)
        expected = [
            reference_popular_route(transfers, min_support, s, t, ties)
            for s, t in queries
        ]
        for _ in range(2):
            assert [miner.popular_route(s, t) for s, t in queries] == expected

    check()
    assert ties["relaxations"] > 0
    assert ties["pops"] > 0


@pytest.mark.parametrize(
    "source, low, high, target", [(0, 1, 2, 9), ("s", "b", "c", "t")]
)
def test_equal_products_break_on_landmark_order(source, low, high, target):
    """Two equally popular two-hop routes: the heap pops the smaller id
    first, so its branch reaches the target first and keeps it."""
    transfers = TransferNetwork()
    for mid in (high, low):
        transfers.add_transition(source, mid)
        transfers.add_transition(mid, target)
    expected = reference_popular_route(transfers, 1, source, target)
    assert expected == [source, low, target]
    assert PopularRouteMiner(transfers).popular_route(source, target) == expected


# -- memo lifetime and thread safety ------------------------------------------------


def test_add_transition_after_a_query_changes_the_next_answer():
    transfers = TransferNetwork()
    transfers.add_transition("a", "b", 2)
    transfers.add_transition("a", "c", 1)
    transfers.add_transition("b", "c", 1)
    miner = PopularRouteMiner(transfers)
    assert miner.popular_route("a", "c") == ["a", "b", "c"]
    transfers.add_transition("a", "c", 5)
    assert miner.popular_route("a", "c") == ["a", "c"]
    assert miner.popular_route("a", "d") is None
    transfers.add_transition("c", "d", 1)
    assert miner.popular_route("a", "d") == ["a", "c", "d"]
    assert miner.popular_route("a", "d") == reference_popular_route(
        transfers, 1, "a", "d"
    )


def test_miners_with_different_min_support_never_share_trees():
    transfers = TransferNetwork()
    transfers.add_transition(1, 3, 1)  # 1/3, but below support 2
    transfers.add_transition(1, 2, 2)
    transfers.add_transition(2, 3, 2)  # via 2: 2/3 * 1/5
    transfers.add_transition(2, 4, 8)
    loose = PopularRouteMiner(transfers, min_support=1)
    strict = PopularRouteMiner(transfers, min_support=2)
    for _ in range(2):
        assert loose.popular_route(1, 3) == [1, 3]
        assert strict.popular_route(1, 3) == [1, 2, 3]
    assert set(transfers.route_trees().trees) == {(1, 1), (1, 2)}


def test_cold_memo_from_six_threads_gives_the_serial_answers(scenario):
    transfers = copy_of(scenario.stmaker.transfers)
    landmarks = sorted(transfers.landmarks())
    rng = random.Random(6)
    queries = [(rng.choice(landmarks), rng.choice(landmarks)) for _ in range(600)]
    serial = {
        q: reference_popular_route(transfers, 1, *q) for q in queries
    }
    miner = PopularRouteMiner(transfers)
    barrier = threading.Barrier(6)
    answers = [None] * 6
    errors = []

    def run(slot):
        order = queries[:]
        random.Random(slot).shuffle(order)
        try:
            barrier.wait()
            answers[slot] = {q: miner.popular_route(*q) for q in order}
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert all(answer == serial for answer in answers)


# -- the edit-distance DP -----------------------------------------------------------


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
codes = st.integers(0, 3).map(float)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(finite | codes, max_size=8),
    st.lists(finite | codes, max_size=8),
    st.sampled_from(list(FeatureDtype)),
)
def test_routing_feature_distance_equals_reference(seq_a, seq_b, dtype):
    got = routing_feature_distance(seq_a, seq_b, dtype)
    want = reference_routing_feature_distance(seq_a, seq_b, dtype)
    assert bits([got]) == bits([want])


def test_routing_feature_distance_on_fixed_cases():
    cases = [
        ([0.1, 0.5, 1.0], [0.1, 1.0], FeatureDtype.NUMERIC),
        ([1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0], FeatureDtype.CATEGORICAL),
        ([0.0], [1.0, 0.0, 1.0, 0.0], FeatureDtype.CATEGORICAL),
        ([5e-324, 1.0], [0.0, 1.0 - 2**-53], FeatureDtype.NUMERIC),
    ]
    for seq_a, seq_b, dtype in cases:
        assert routing_feature_distance(seq_a, seq_b, dtype) == (
            reference_routing_feature_distance(seq_a, seq_b, dtype)
        )


# -- partition similarities --------------------------------------------------------


features = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.0, 2.0]
)
weights_st = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | (
    st.sampled_from([0.0, 5e-324, 1e-310, 1.0])
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.lists(st.lists(features, min_size=d, max_size=d), max_size=7),
    st.lists(weights_st, min_size=d, max_size=d),
)))
def test_segment_similarities_are_bit_equal(case):
    vectors, weights = case
    got = segment_similarities(vectors, weights)
    want = reference_segment_similarities(vectors, weights)
    assert bits(got) == bits(want)
    for a, b in zip(vectors, vectors[1:]):
        assert bits([weighted_cosine_similarity(a, b, weights)]) == bits(
            [reference_weighted_cosine_similarity(a, b, weights)]
        )


def test_zero_vectors_and_subnormal_weights_are_bit_equal():
    vectors = [
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 5e-324],
        [0.0, -0.0, 0.0],
        [3.0, 1e-300, -2.0],
        [-3.0, 1e-300, 2.0],
    ]
    for weights in ([1.0, 1.0, 1.0], [5e-324, 5e-324, 5e-324], [5e-324, 0.0, 1.0]):
        got = segment_similarities(vectors, weights)
        assert bits(got) == bits(reference_segment_similarities(vectors, weights))
    assert segment_similarities(vectors[:2], [1.0, 1.0, 1.0]) == [1.0]
    assert segment_similarities(vectors[1:3], [1.0, 1.0, 1.0]) == [0.5]


@pytest.mark.parametrize(
    "vectors, weights",
    [
        ([[1.0, 2.0], [1.0]], [1.0, 1.0]),                 # first pair too short
        ([[1.0, 2.0], [1.0, 2.0], [3.0]], [1.0, 1.0]),     # a later pair
        ([[1.0], [1.0]], [1.0, 1.0]),                      # weights too long
        ([[1.0, 2.0], [1.0, 2.0]], [1.0, -1.0]),           # negative weight
        ([[1.0, 2.0], [1.0, 2.0], [3.0]], [1.0, -1.0]),    # negative before later mismatch
        ([[1.0, 2.0], [1.0]], [1.0, -1.0]),                # mismatch before negative
        ([[1.0, 2.0]], [-1.0]),                            # one vector: no pair, no error
        ([], [-1.0]),
    ],
)
def test_similarity_errors_are_unchanged(vectors, weights):
    got = outcome(segment_similarities, vectors, weights)
    want = outcome(reference_segment_similarities, vectors, weights)
    assert got == want
    for a, b in zip(vectors, vectors[1:]):
        assert outcome(weighted_cosine_similarity, a, b, weights) == outcome(
            reference_weighted_cosine_similarity, a, b, weights
        )
