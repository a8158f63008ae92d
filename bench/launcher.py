"""Traced launcher: run one benchmark request with spans around layer calls.

    python bench/launcher.py SPANS_FILE REQUEST_ID cli  <cubemorph arguments>
    python bench/launcher.py SPANS_FILE REQUEST_ID gate <gate.py arguments>

Before the request runs, the public entry points of every layer module are
replaced by wrappers that open a span on entry and close it on return.  The
replacement happens in this process only and touches no file under ``src/``.
The whole request runs inside one ``cli.request`` span, so whatever no layer
span covers (argument parsing, formatting, printing) is the ``cli`` layer's
self time.  The spans are written to SPANS_FILE when the request ends.
"""

from __future__ import annotations

import functools
import sys

from spans import REQUEST_SPAN, Recorder

CHAIN_MAPS = ("maj2dict", "dict2maj", "maj2xor")
GF2_MAPS = ("tree", "prefix", "xorhead")


def mapping_layer(mapping) -> str | None:
    """The module whose code a named mapping's scalar evaluator runs."""
    base = mapping.name.removesuffix("^-1")
    if base in CHAIN_MAPS:
        return "chain_mappings"
    if base.startswith(GF2_MAPS):
        return "gf2_maps"
    return None


def _table_span(mapping) -> str | None:
    # Only a table that is actually built gets a span; later calls return
    # the cached array.
    layer = mapping_layer(mapping)
    if layer is None or getattr(mapping, "_table", None) is not None:
        return None
    return f"{layer}.{'inverse_table' if mapping.name.endswith('^-1') else 'table'}"


def _stretch_span(phi, mode="exhaustive", *args, **kwargs) -> str | None:
    if mode == "exhaustive":
        return "stretch_metrics.exhaustive"
    layer = mapping_layer(phi)
    return f"{layer}.sampled" if layer else None


def _matching_counts(state, *args, **kwargs) -> dict:
    return {"rounds": state.rounds, "poor_initial": state.round_stats[0][0],
            "poor_unmatched": state.poor_unmatched_count()}


def traced(recorder: Recorder, fn, span, counts=None):
    """fn wrapped in a span; span is a name or a function of fn's arguments
    returning a name (None: no span), counts a function of the result."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = span(*args, **kwargs) if callable(span) else span
        if name is None:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.close(index, **(counts(result, *args, **kwargs)
                                     if counts and result is not None else {}))
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap the layers' public entry points wherever cubemorph binds them."""
    import cubemorph.cli  # noqa: F401  (imports every layer module)
    from cubemorph import btk_chains, cube_core, gf2_maps, random_matching, stretch_metrics

    sm, rm = stretch_metrics, random_matching
    plan = [
        (cube_core.random_balanced, "cube_core.random_function", None),
        (cube_core.random_subset_function, "cube_core.random_function", None),
        (btk_chains.partition_covers_cube, "btk_chains.partition", None),
        (btk_chains.adjacent_chain_scan, "btk_chains.edge_scan",
         lambda r, *a, **k: {"edges_scanned": r.edges}),
        (gf2_maps.build_tree_matrix, "gf2_maps.matrix", None),
        (gf2_maps.verify_conditions, "gf2_maps.conditions", None),
        (sm.stretch_report, _stretch_span,
         lambda r, *a, **k: {"edges": r.edges_total} if r.mode == "exhaustive" else {}),
        (sm.is_mapping_between, "stretch_metrics.law_check", None),
        (sm.exhaustive_min_avg_stretch, "stretch_metrics.oracle", None),
        (sm.exhaustive_min_max_stretch, "stretch_metrics.oracle", None),
        (sm.exhaustive_min_directional, "stretch_metrics.oracle", None),
        (sm.local_search_min_stretch, "stretch_metrics.local_search", None),
        (rm.run_matching, "random_matching.run_matching", _matching_counts),
        (rm.build_injection, "random_matching.injection", None),
        (rm.injection_is_valid, "random_matching.validity", None),
        (rm.build_dict_to_random_details, "random_matching.dict2random",
         lambda r, *a, **k: {"repaired": sum(r.repaired)}),
        (rm.recursion_curve, "random_matching.curve", None),
    ]
    wrapped = {id(fn): traced(recorder, fn, span, counts) for fn, span, counts in plan}
    for name, module in list(sys.modules.items()):
        if name == "cubemorph" or name.startswith("cubemorph."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])

    table = sm.Mapping.table
    sm.Mapping.table = traced(recorder, table, _table_span,
                              lambda r, self, *a, **k: {"points": 1 << self.n})


def main(argv: list[str]) -> int:
    spans_path, request_id, kind, *args = argv
    recorder = Recorder(request_id)
    install(recorder)
    if kind == "gate":
        import gate  # after install, so its imports bind the wrapped names
        entry = gate.main
    else:
        import cubemorph.cli
        entry = cubemorph.cli.main
    root = recorder.open(REQUEST_SPAN)
    try:
        code = entry(args)
    except SystemExit as e:
        code = e.code
    finally:
        sys.stdout.flush()
        recorder.close(root)
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
