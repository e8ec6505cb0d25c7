"""Every public entry that takes ids of host vertices screens them through
Graph.foreign: an id is a vertex only as an int in 0..n-1, so a float, a
bool, a string, a negative int, n itself and an unhashable id are each
answered the entry's documented way, never with a bare TypeError.  The
search kernels (ball, dist, st_path, distance_map, components) trust their
ids and are not listed; every other public callable is listed or exempt
with its reason."""

import pytest

import pathpack
from pathpack import (FatModel, Frame, Graph, HittingCertificate, InputError,
                      Leg, PatternGraph, PreconditionError, SolveParams,
                      Tripoid, TripodResult, augment,
                      brute_force_packing_exists, certificate_violations,
                      check_tripod_result, check_tripoid, empty_frame,
                      extend_or_hit, far_pair, fat_to_clean, fatness,
                      frame_to_packing, has_radius_at_most,
                      hitting_violations, init_tripoid, is_clean, is_path,
                      is_simple, least_far_pair, make_instance,
                      make_topological, packing_violations, radius_center,
                      solve, tripod, tripod_step, validate_frame,
                      validate_model, verify_hitting, verify_packing)

N = 10
G, A = make_instance("path", N)
FOREIGN = [1.0, True, "1", -1, N]
UNHASHABLE = [1]


def one_set_model(v, form=frozenset) -> FatModel:
    """A single pattern vertex whose branch set holds only v: the frozenset
    {v}, or with form=tuple the one-vertex path (v,), which, unlike a
    frozenset, can hold an unhashable id."""
    return FatModel(PatternGraph.from_parts([0], {}), {0: form((v,))})


def one_set_frame(v, form=frozenset) -> Frame:
    """A frame whose model is one_set_model(v, form)."""
    return Frame(model=one_set_model(v, form), i=1, ell=16, r=4,
                 coarse=False, a_set=frozenset({0}))


# branch sets {0} and {4} joined by the branch path 0..4
EDGE_MODEL = FatModel(PatternGraph.from_parts([0, 1], {0: (0, 1)}),
                      {0: frozenset({0}), 1: frozenset({4})},
                      {0: (0, 1, 2, 3, 4)})


def tripoid_with_tip(v) -> Tripoid:
    """A tripoid whose third tip, the first vertex of leg 2's tail, is v;
    nothing is searched when an id is foreign, so the rest need only be
    vertices."""
    legs = tuple(Leg(r=(tip,), b=(2,)) for tip in (0, 4, v))
    return Tripoid(c=frozenset({2}), xi=0, legs=legs, q=frozenset({2}),
                   ell=1, d=1)


# a hub {2} on the path 0..9 with connectors to the tips 0 and 4; nothing
# is searched when an id is foreign, so the rest need only be vertices
HUB_RESULT = TripodResult(z=frozenset({2}), p=(
    frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({2})))


def model_msg(v) -> str:
    return f"branch part of vertex 0 has out-of-range ids {[v]}"


def hitting_msg(v) -> str:
    return f"hitting set vertex {v!r} is not in the graph"


# name: (call with the probed id, answer, takes an unhashable id); an answer
# is the error the entry raises, or the value it returns as a function of
# the id
ENTRIES = {
    "Graph.check_vertex": (lambda v: G.check_vertex(v), InputError, True),
    "Graph.check_vertex_set": (lambda v: G.check_vertex_set([0, v]),
                               InputError, True),
    "is_path": (lambda v: is_path(G, (v, 2)), lambda v: False, True),
    "least_far_pair": (lambda v: least_far_pair(G, [0, v], 1), InputError, True),
    "radius_center": (lambda v: radius_center(G, [0, v]), InputError, True),
    "has_radius_at_most": (lambda v: has_radius_at_most(G, [0, v], 1),
                           InputError, True),
    "validate_model": (lambda v: validate_model(G, one_set_model(v)),
                       lambda v: [model_msg(v)], False),
    "is_simple": (lambda v: is_simple(G, one_set_model(v)),
                  lambda v: [model_msg(v)], False),
    "fatness": (lambda v: fatness(G, one_set_model(v)), PreconditionError, False),
    "is_clean": (lambda v: is_clean(G, one_set_model(v), 1),
                 PreconditionError, False),
    "fat_to_clean": (lambda v: fat_to_clean(G, one_set_model(v), 1, 1),
                     PreconditionError, False),
    "make_topological": (lambda v: make_topological(G, one_set_model(v), 1),
                         PreconditionError, False),
    "augment": (lambda v: augment(G, EDGE_MODEL, v, 0, (v, 2), 1),
                PreconditionError, True),
    "validate_frame": (lambda v: validate_frame(G, one_set_frame(v)),
                       lambda v: [f"model: {model_msg(v)}"], False),
    "extend_or_hit": (lambda v: extend_or_hit(
        G, empty_frame(frozenset({0, v}), 16, 4, False)), InputError, False),
    "frame_to_packing": (lambda v: frame_to_packing(
        G, empty_frame(frozenset({0, v}), 16, 4, False)), InputError, False),
    "solve": (lambda v: solve(G, [0, v], SolveParams(1, 1)), InputError, True),
    "check_tripoid": (lambda v: check_tripoid(G, tripoid_with_tip(v)),
                      lambda v: [f"leg 2: {v!r} is not a vertex of the graph"],
                      True),
    "tripod_step": (lambda v: tripod_step(G, tripoid_with_tip(v)),
                    InputError, True),
    "init_tripoid": (lambda v: init_tripoid(G, (0, 4, v), frozenset({2}), 1, 1),
                     InputError, True),
    "tripod": (lambda v: tripod(G, (0, 4, v), frozenset({2}), 1, 1),
               InputError, True),
    "check_tripod_result": (lambda v: check_tripod_result(
        G, (0, 4, v), frozenset({2}), 1, 1, HUB_RESULT),
        lambda v: [f"tips: {v!r} is not a vertex of the graph"], True),
    "far_pair": (lambda v: far_pair(G, [0, v], 1), InputError, True),
    "packing_violations": (lambda v: packing_violations(
        G, A, [(0, 1), (v, 2)], 2, 1),
        lambda v: ["path 1 has a vertex outside the graph"], True),
    "verify_packing": (lambda v: verify_packing(G, A, [(0, 1), (v, 2)], 2, 1),
                       lambda v: False, True),
    "hitting_violations": (lambda v: hitting_violations(G, A, [v], 1, 4),
                           lambda v: [hitting_msg(v)], True),
    "verify_hitting": (lambda v: verify_hitting(G, A, [v], 1, 4),
                       lambda v: False, True),
    "certificate_violations": (lambda v: certificate_violations(
        G, A, SolveParams(2, 1), HittingCertificate(
            x=frozenset({v}), radius=1, coarse_threshold=None)),
        lambda v: [hitting_msg(v)], False),
    "brute_force_packing_exists": (lambda v: brute_force_packing_exists(
        G, [0, v], 1, 1), InputError, True),
    # the entries that check a model first, given v in a tuple branch part
    "validate_model (path part)": (
        lambda v: validate_model(G, one_set_model(v, tuple)),
        lambda v: [model_msg(v)], True),
    "is_simple (path part)": (lambda v: is_simple(G, one_set_model(v, tuple)),
                              lambda v: [model_msg(v)], True),
    "fatness (path part)": (lambda v: fatness(G, one_set_model(v, tuple)),
                            PreconditionError, True),
    "is_clean (path part)": (lambda v: is_clean(G, one_set_model(v, tuple), 1),
                             PreconditionError, True),
    "fat_to_clean (path part)": (
        lambda v: fat_to_clean(G, one_set_model(v, tuple), 1, 1),
        PreconditionError, True),
    "make_topological (path part)": (
        lambda v: make_topological(G, one_set_model(v, tuple), 1),
        PreconditionError, True),
    "augment (path part)": (lambda v: augment(G, FatModel(
        EDGE_MODEL.pattern, {0: (v,), 1: frozenset({4})},
        EDGE_MODEL.branch_parts), 0, 0, (0,), 1), PreconditionError, True),
    "validate_frame (path part)": (
        lambda v: validate_frame(G, one_set_frame(v, tuple)),
        lambda v: [f"model: {model_msg(v)}"], True),
    "extend_or_hit (path part)": (
        lambda v: extend_or_hit(G, one_set_frame(v, tuple)),
        PreconditionError, True),
    "frame_to_packing (path part)": (
        lambda v: frame_to_packing(G, one_set_frame(v, tuple)),
        PreconditionError, True),
}

KERNEL = "a search kernel: trusts its ids"
PATTERN = "reads a pattern graph, not ids of a host"
CLASS = "a class or type: the entries that read its fields screen them"
ERROR = "an error class"
# public callables that take no ids of a host vertex, or trust them
EXEMPT = {
    "ball": KERNEL, "components": KERNEL, "dist": KERNEL,
    "distance_map": KERNEL, "st_path": KERNEL,
    "check_branch_bound": PATTERN, "degree_classes": PATTERN,
    "extract_z_paths": PATTERN,
    "part_vertices": "reads a branch part alone, with no graph",
    "empty_frame": "takes no graph; the entries given its frame screen it",
    "make_instance": "builds its graph from a family name and a size",
    "Graph": "its constructor parses edges; Graph.check_vertex and "
             "Graph.check_vertex_set are probed above",
    "AugmentResult": CLASS, "Certificate": CLASS, "DegreeClasses": CLASS,
    "FatModel": CLASS, "Frame": CLASS, "HittingCertificate": CLASS,
    "Leg": CLASS, "PackingCertificate": CLASS,
    "Part": CLASS, "PatternGraph": CLASS, "SolveParams": CLASS,
    "Tripoid": CLASS, "TripodResult": CLASS,
    "InputError": ERROR, "InternalInvariantError": ERROR,
    "ParameterRangeError": ERROR, "PreconditionError": ERROR,
    "SolverError": ERROR,
}

PROBES = [(name, v) for name, (_, _, unhashable) in ENTRIES.items()
          for v in FOREIGN + ([UNHASHABLE] if unhashable else [])]


@pytest.mark.parametrize("name, v", PROBES,
                         ids=[f"{name}-{v!r}" for name, v in PROBES])
def test_entry_answers_a_foreign_id_its_documented_way(name, v):
    call, answer, _ = ENTRIES[name]
    if isinstance(answer, type):
        with pytest.raises(answer):
            call(v)
    else:
        assert call(v) == answer(v)


def test_foreign_lists_the_non_vertices_in_order():
    ids = [3, True, -1, [1], N, N - 1, 1.0, "1", 0]
    assert G.foreign(ids) == [True, -1, [1], N, 1.0, "1"]
    assert G.foreign(range(N)) == []
    assert Graph(0).foreign([0]) == [0]


def test_id_order_sorts_mixed_ids_with_ints_first():
    assert (sorted([N, "a", -1, 1.0, True, 2], key=Graph.id_order)
            == [-1, 2, N, "a", 1.0, True])


def test_every_public_callable_is_probed_or_exempt():
    public = {name for name in pathpack.__all__
              if callable(getattr(pathpack, name))}
    assert sorted(public - ENTRIES.keys() - EXEMPT.keys()) == []
    assert sorted(EXEMPT.keys() - public) == []
    assert sorted(EXEMPT.keys() & ENTRIES.keys()) == []


@pytest.mark.parametrize("field", ["q", "hub", "connector 1"])
def test_tripod_result_check_names_each_foreign_field(field):
    """A foreign id in any field is reported under the field's name, and
    nothing is searched: a float in the hub would fail a search."""
    q, z, p = frozenset({2}), HUB_RESULT.z, list(HUB_RESULT.p)
    if field == "q":
        q = frozenset({1.0})
    elif field == "hub":
        z = frozenset({1.0})
    else:
        p[1] = frozenset({2, 3, 4, -1})
    res = TripodResult(z=z, p=tuple(p))
    bad = -1 if field == "connector 1" else 1.0
    assert (check_tripod_result(G, (0, 4, 3), q, 1, 1, res)
            == [f"{field}: {bad!r} is not a vertex of the graph"])
