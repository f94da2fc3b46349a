"""One rule for every integer size the library takes (graphs._as_int).

Python and numpy ints pass and give the same result; bools, floats and
strings raise ValueError("<what> must be an integer, got ..."); an int
below the entry point's bound raises ValueError("<what> must be >= <bound>"),
or the entry point's own message where it keeps one.
"""

import json
import re

import numpy as np
import pytest

from rigidset import thresholds
from rigidset.experiments import (
    CantorSampler,
    LatticeSampler,
    UnitCubeSampler,
    check_enumeration,
    congruence_class_counts,
    hausdorff_content_bound,
    sample_box_dimension,
    sample_framework_tuples,
)
from rigidset.frameworks import Configuration
from rigidset.graphs import Graph, complete_graph, path_graph, star_graph
from rigidset.pebble import PebbleGame
from rigidset.rigidity import (
    generic_rank,
    is_generically_rigid,
    is_independent,
    is_minimally_rigid,
    max_independent_subset,
    minimal_rigid_completion,
    required_edge_count,
    sample_generic_config,
)

K3 = complete_graph(3)
PATH3 = path_graph(3)
ENUMERATION = "d, q, k must all be >= 1"

# (id, call of the size under test, what the messages name it, its bound, a
# valid size, and the message for an int below the bound where the entry
# point keeps its own)
ENTRIES = [
    ("generic_rank-d", lambda v: generic_rank(K3, v, 1), "d", 2, 3, None),
    ("generic_rank-samples", lambda v: generic_rank(K3, 3, 1, samples=v), "samples", 1, 2, None),
    ("is_independent-d", lambda v: is_independent(K3, K3.edges, v, 1), "d", 2, 2, None),
    ("is_independent-empty-d", lambda v: is_independent(K3, [], v, 1), "d", 2, 2, None),
    ("max_independent_subset-d", lambda v: max_independent_subset(K3, v, 1), "d", 2, 3, None),
    ("minimal_rigid_completion-d", lambda v: minimal_rigid_completion(PATH3, v, 1),
     "d", 2, 3, None),
    ("is_generically_rigid-d", lambda v: is_generically_rigid(K3, v, 1), "d", 2, 2, None),
    ("is_minimally_rigid-d", lambda v: is_minimally_rigid(K3, v, 1), "d", 2, 2, None),
    ("required_edge_count-d", lambda v: required_edge_count(v, 4), "d", 1, 2, None),
    ("required_edge_count-n", lambda v: required_edge_count(2, v), "n_vertices", 1, 4, None),
    ("sample_generic_config-d", lambda v: sample_generic_config(v, 4, 1), "d", 2, 3, None),
    ("sample_generic_config-n", lambda v: sample_generic_config(3, v, 1),
     "n_vertices", 1, 4, None),
    ("sufficient_threshold-d", lambda v: thresholds.sufficient_threshold(v, 3), "d", 2, 2, None),
    ("sufficient_threshold-n", lambda v: thresholds.sufficient_threshold(2, v),
     "n_vertices", 2, 3, None),
    ("pruned_threshold-d", lambda v: thresholds.pruned_threshold(K3, v), "d", 2, 2, None),
    ("necessary_exponent-d", lambda v: thresholds.necessary_exponent(v, 3), "d", 2, 3, None),
    ("necessary_exponent-n", lambda v: thresholds.necessary_exponent(3, v),
     "n_vertices", 2, 3, None),
    ("natural_measure_exponent-d", lambda v: thresholds.natural_measure_exponent(v, 3),
     "d", 2, 3, None),
    ("natural_measure_exponent-n", lambda v: thresholds.natural_measure_exponent(3, v),
     "n_vertices", 2, 3, None),
    ("small_regime_threshold-d", lambda v: thresholds.small_regime_threshold(v, 2),
     "d", 2, 2, None),
    ("small_regime_threshold-n", lambda v: thresholds.small_regime_threshold(3, v),
     "n_vertices", 2, 3, "small regime needs 1 <= n_vertices - 1 <= d"),
    ("analyze-d", lambda v: thresholds.analyze(K3, v, 1), "d", 2, 3, None),
    ("predicted_distance_set_dimension-d",
     lambda v: thresholds.predicted_distance_set_dimension(K3, v, 1), "d", 2, 3, None),
    ("check_enumeration-d", lambda v: check_enumeration(v, 1, 1), "d", 1, 2, ENUMERATION),
    ("check_enumeration-q", lambda v: check_enumeration(1, v, 1), "q", 1, 2, ENUMERATION),
    ("check_enumeration-k", lambda v: check_enumeration(1, 1, v), "k", 1, 2, ENUMERATION),
    ("congruence_class_counts-d", lambda v: congruence_class_counts(v, 1, 1),
     "d", 1, 2, ENUMERATION),
    ("congruence_class_counts-q", lambda v: congruence_class_counts(2, v, 1),
     "q", 1, 2, ENUMERATION),
    ("congruence_class_counts-k", lambda v: congruence_class_counts(1, 2, v),
     "k", 1, 2, ENUMERATION),
    ("hausdorff_content_bound-d", lambda v: hausdorff_content_bound(v, 3, 1, 1.5),
     "d", 2, 2, None),
    ("hausdorff_content_bound-q", lambda v: hausdorff_content_bound(2, v, 1, 1.5),
     "q", 1, 3, None),
    ("hausdorff_content_bound-k", lambda v: hausdorff_content_bound(2, 3, v, 1.5),
     "k", 1, 2, None),
    ("UnitCubeSampler-d", lambda v: UnitCubeSampler(v), "d", 1, 2, None),
    ("LatticeSampler-d", lambda v: LatticeSampler(v, 3, 1.5), "d", 2, 2, None),
    ("LatticeSampler-q", lambda v: LatticeSampler(2, v, 1.5), "q", 1, 3, None),
    ("CantorSampler-d", lambda v: CantorSampler(v), "d", 1, 2, None),
    ("CantorSampler-depth", lambda v: CantorSampler(2, depth=v), "depth", 1, 5, None),
    ("sample_framework_tuples-n_points",
     lambda v: sample_framework_tuples(UnitCubeSampler(2), v, 10, 1), "n_points", 1, 3, None),
    ("sample_framework_tuples-n_samples",
     lambda v: sample_framework_tuples(UnitCubeSampler(2), 3, v, 1), "n_samples", 1, 10, None),
    ("sample_box_dimension-n_samples",
     lambda v: sample_box_dimension(K3, UnitCubeSampler(2), v, 1, [0.5, 0.25]),
     "n_samples", 1, 10, None),
    ("Configuration-d", lambda v: Configuration(v, ((0, 0),)), "d", 2, 2, None),
    ("PebbleGame-n_vertices", lambda v: PebbleGame(v).add((1, 2)), "n_vertices", 1, 2, None),
    ("Graph-n_vertices", lambda v: Graph(v, ()), "n_vertices", 1, 2,
     "n_vertices must be a positive integer, got 0"),
    ("complete_graph-n", lambda v: complete_graph(v), "n", 2, 3, "complete_graph needs n >= 2"),
    ("path_graph-n", lambda v: path_graph(v), "n", 2, 3, "path_graph needs n >= 2"),
    ("star_graph-n", lambda v: star_graph(v), "n", 2, 3, "star_graph needs n >= 2"),
]
PARAMS = [pytest.param(*entry[1:], id=entry[0]) for entry in ENTRIES]


def _fingerprint(result):
    """What two calls must share to count as the same answer: the bytes
    of an array, the state of a sampler, the repr of anything else (a
    numpy int shows in a repr as np.int64(...), so a stored one differs)."""
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    if hasattr(result, "draw"):
        return repr(vars(result))
    return repr(result)


@pytest.mark.parametrize("call,what,least,good,kept", PARAMS)
@pytest.mark.parametrize("shift", [0.5, 0.0])
def test_float_refused(call, what, least, good, kept, shift):
    bad = good + shift
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be an integer, got {bad!r}')}$"):
        call(bad)


@pytest.mark.parametrize("call,what,least,good,kept", PARAMS)
@pytest.mark.parametrize("bad", [True, False, "2"])
def test_bool_and_string_refused(call, what, least, good, kept, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be an integer, got {bad!r}')}$"):
        call(bad)


@pytest.mark.parametrize("call,what,least,good,kept", PARAMS)
def test_int_below_bound_refused(call, what, least, good, kept):
    message = kept or f"{what} must be >= {least}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(least - 1)


@pytest.mark.parametrize("call,what,least,good,kept", PARAMS)
def test_numpy_int_gives_the_int_answer(call, what, least, good, kept):
    assert _fingerprint(call(np.int64(good))) == _fingerprint(call(good))


def test_analyze_report_of_numpy_d_is_json():
    want = json.dumps(thresholds.analyze(K3, 2, 1).to_json_obj(), sort_keys=True)
    report = thresholds.analyze(K3, np.int64(2), 1)
    assert type(report.d) is int
    assert json.dumps(report.to_json_obj(), sort_keys=True) == want
