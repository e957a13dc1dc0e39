"""Per-layer metrics of one traced setup plus one traced pass.

``calls`` and ``elements`` are exact counts; ``self_s`` is span duration
minus child spans, summed over the named function or over every wrapped
function of the layer; ``total_s`` includes the children.
"""

from __future__ import annotations

# metric name -> (unit, how to read it off the tracer)
CALLS = "count"
SECONDS = "s"


def _calls(span):
    return lambda t: t.calls.get(span, 0)


def _self(span):
    return lambda t: t.self_s.get(span, 0.0)


def _total(span):
    return lambda t: t.total_s.get(span, 0.0)


def _counter(name):
    return lambda t: t.counters.get(name, 0)


def _layer_self(layer):
    return lambda t: sum(v for k, v in t.self_s.items() if k.split(".", 1)[0] == layer)


def _layer_calls(layer):
    return lambda t: sum(v for k, v in t.calls.items() if k.split(".", 1)[0] == layer)


def _suffix_self(layer, suffix):
    return lambda t: sum(v for k, v in t.self_s.items() if k.startswith(layer + ".") and k.endswith(suffix))


def _skipped_ratio(t):
    records = t.counters.get("suites.records", 0)
    return t.counters.get("suites.skipped", 0) / records if records else 0.0


METRICS = {
    "finset.FinSet.calls": (CALLS, _calls("finset.FinSet")),
    "finset.FinSet.elements": (CALLS, _counter("finset.FinSet.elements")),
    "finset.FinSet.self_s": (SECONDS, _self("finset.FinSet")),
    "finset.FinMap.calls": (CALLS, _calls("finset.FinMap")),
    "finset.FinMap.self_s": (SECONDS, _self("finset.FinMap")),
    "finset.preimage.calls": (CALLS, _calls("finset.FinMap.preimage")),
    "finset.preimage.self_s": (SECONDS, _self("finset.FinMap.preimage")),
    "finset.pullback.calls": (CALLS, _calls("finset.pullback")),
    "finset.pullback.self_s": (SECONDS, _self("finset.pullback")),
    "finset.is_pullback_cone.self_s": (SECONDS, _self("finset.is_pullback_cone")),
    "finset.dep_prod.self_s": (SECONDS, _self("finset.dep_prod")),
    "finset.label_key.calls": (CALLS, _calls("finset.label_key")),
    "finset.check_label.calls": (CALLS, _calls("finset.check_label")),
    "finset.self_s": (SECONDS, _layer_self("finset")),
    "poly.compose.calls": (CALLS, _calls("poly.compose")),
    "poly.compose.self_s": (SECONDS, _self("poly.compose")),
    "poly.compose_direct.self_s": (SECONDS, _self("poly.compose_direct")),
    "poly.extend.self_s": (SECONDS, _self("poly.extend")),
    "poly.extension_composition_iso.self_s": (SECONDS, _self("poly.extension_composition_iso")),
    "poly.self_s": (SECONDS, _layer_self("poly")),
    "poly2.pentagon_check.total_s": (SECONDS, _total("poly2.pentagon_check")),
    "poly2.h_comp.calls": (CALLS, _calls("poly2.h_comp")),
    "poly2.h_comp.self_s": (SECONDS, _self("poly2.h_comp")),
    "poly2.cell_from_square.calls": (CALLS, _calls("poly2.cell_from_square")),
    "poly2.cell_from_square.self_s": (SECONDS, _self("poly2.cell_from_square")),
    "poly2.associator.self_s": (SECONDS, _self("poly2.associator")),
    "poly2.v_comp.self_s": (SECONDS, _self("poly2.v_comp")),
    "poly2.extend_cell.self_s": (SECONDS, _self("poly2.extend_cell")),
    "poly2.all_adjustments.self_s": (SECONDS, _self("poly2.all_adjustments")),
    "poly2.self_s": (SECONDS, _layer_self("poly2")),
    "internalcat.internal_full_subcat.self_s": (SECONDS, _self("internalcat.internal_full_subcat")),
    "internalcat.internal_functor.self_s": (SECONDS, _self("internalcat.internal_functor")),
    "internalcat.equivalence_sets.self_s": (SECONDS, _self("internalcat.equivalence_sets")),
    "internalcat.self_s": (SECONDS, _layer_self("internalcat")),
    "naturalmodel.pseudomonad_from.self_s": (SECONDS, _self("naturalmodel.pseudomonad_from")),
    "naturalmodel.pseudomonad_pasting_report.self_s": (SECONDS, _self("naturalmodel.pseudomonad_pasting_report")),
    "naturalmodel.pseudoalgebra_pasting_report.self_s": (SECONDS, _self("naturalmodel.pseudoalgebra_pasting_report")),
    "naturalmodel.verify_type_isos.self_s": (SECONDS, _self("naturalmodel.verify_type_isos")),
    "naturalmodel.lift_apply_square.self_s": (SECONDS, _self("naturalmodel.lift_apply_square")),
    "naturalmodel.self_s": (SECONDS, _layer_self("naturalmodel")),
    "interchange.dumps.self_s": (SECONDS, _self("interchange.dumps")),
    "interchange.loads.self_s": (SECONDS, _self("interchange.loads")),
    "interchange.to_json.self_s": (SECONDS, _suffix_self("interchange", "_to_json")),
    "interchange.from_json.self_s": (SECONDS, _suffix_self("interchange", "_from_json")),
    "interchange.bytes_out": ("bytes", _counter("interchange.bytes_out")),
    "interchange.bytes_in": ("bytes", _counter("interchange.bytes_in")),
    "interchange.self_s": (SECONDS, _layer_self("interchange")),
    "cli.main.calls": (CALLS, _calls("cli.main")),
    "cli.self_s": (SECONDS, _layer_self("cli")),
    "suites.run_suite.calls": (CALLS, _calls("suites.run_suite")),
    "suites.self_s": (SECONDS, _layer_self("suites")),
    "suites.skipped_ratio": ("ratio", _skipped_ratio),
    "generators.calls": (CALLS, _layer_calls("generators")),
    "generators.self_s": (SECONDS, _layer_self("generators")),
}


def accounting(tracer, traced_verdict_s: float) -> dict:
    """Recompute the ops' self times from the stored spans and check that
    they, plus the time outside every span, make up the traced verdict_s,
    with no span shorter than its children."""
    duration = [e - s for s, e in zip(tracer.span_start, tracer.span_end)]
    child = [0.0] * len(duration)
    self_s = roots = 0.0
    overlapping = 0
    # children are recorded after their parents, so walk backwards
    for idx in range(len(duration) - 1, -1, -1):
        if tracer.span_op[idx] < 1:
            continue
        own = duration[idx] - child[idx]
        overlapping += own < -1e-9
        self_s += own
        parent = tracer.span_parent[idx]
        if parent < 0:
            roots += duration[idx]
        else:
            child[parent] += duration[idx]
    remainder = traced_verdict_s - roots
    accounted = self_s + remainder
    consistent = remainder >= 0 and not overlapping
    return {
        "self_s": self_s,
        "remainder_s": remainder,
        "accounted_s": accounted,
        "error": abs(accounted - traced_verdict_s) / traced_verdict_s if consistent else float("inf"),
    }


def metrics(tracer, traced_pass, untraced_verdict_s: float) -> tuple:
    """``untraced_verdict_s`` is at the reference speed, like the traced
    pass's ``calibrated_s``; the accounting uses wall time."""
    out = {name: (read(tracer), unit) for name, (unit, read) in METRICS.items()}
    out["trace.overhead_ratio"] = (traced_pass.calibrated_s / untraced_verdict_s - 1, "ratio")
    return out, accounting(tracer, traced_pass.verdict_s)
