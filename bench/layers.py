"""Which drinfeldlab calls the traced run wraps, and the per-layer metrics.

Timed targets report ``<module>.<function>.calls`` and ``.self_s``; counted
targets report ``.calls`` only (their time stays with the enclosing span).
Observers add the ratio and work counters listed in EXTRA.
"""

from __future__ import annotations

from drinfeldlab import (adelic, base, drinfeld, experiments, factor, kfield,
                         localfield, phimodule, places, twisted)

CONFIRMED_DESPITE_CAP = "experiments.confirmed_despite_cap"
CAP_EVENTS = ("phimodule.is_full.capped", "drinfeld.solve_additive_many.capped")


def _observe_member(tracer, args, kwargs, cert):
    tracer.stats["phimodule.member.found"] += cert.found


def _observe_is_full(tracer, args, kwargs, report):
    tracer.stats["phimodule.is_full.capped"] += bool(report.notes)


def _observe_solve(tracer, args, kwargs, results):
    stats = tracer.stats
    stats["drinfeld.solve_additive_many.targets"] += len(results)
    if results:
        info = results[0].info
        stats["drinfeld.solve_additive_many.basis"] += (
            (info.theta_bound + 1) * (info.t_bound + 1))
    stats["drinfeld.solve_additive_many.solved"] += sum(
        1 for r in results if r.points)
    stats["drinfeld.solve_additive_many.capped"] += sum(
        1 for r in results if r.info.flags)


def targets():
    """(metric prefix, original callable, "timed" | "counted", observer)."""
    timed = [
        ("experiments.generic_char_experiment",
         experiments.generic_char_experiment, None),
        ("experiments.zero_dim_intersection",
         experiments.zero_dim_intersection, None),
        ("experiments.uniformity_probe", experiments.uniformity_probe, None),
        ("experiments.MultiPoly.evaluate", experiments.MultiPoly.evaluate,
         None),
        ("adelic.discreteness_certificate", adelic.discreteness_certificate,
         None),
        ("adelic.closure_member", adelic.closure_member, None),
        ("adelic.closure_torsion_check", adelic.closure_torsion_check, None),
        ("phimodule.is_full", phimodule.is_full, _observe_is_full),
        ("phimodule.member", phimodule.member, _observe_member),
        ("drinfeld.solve_additive_many", drinfeld.solve_additive_many,
         _observe_solve),
        ("drinfeld.torsion_annihilator", drinfeld.torsion_annihilator, None),
        ("twisted.tp_eval", twisted.tp_eval, None),
        ("kfield.bi_gcd", kfield.bi_gcd, None),
        ("kfield.coordinates", kfield.coordinates, None),
        ("places.valuation", places.valuation, None),
        ("localfield.embed", localfield.embed, None),
        ("localfield.tp_eval_local", localfield.tp_eval_local, None),
        ("localfield.hensel_solve", localfield.hensel_solve, None),
        ("base.fp_solve_many", base.fp_solve_many, None),
        ("factor.factor_bipoly", factor.factor_bipoly, None),
    ]
    counted = [
        ("twisted.tp_compose", twisted.tp_compose),
        ("kfield.KElem.add", kfield.KElem.__add__),
        ("kfield.KElem.mul", kfield.KElem.__mul__),
        ("places.residue_reduce", places.residue_reduce),
        ("places.get_trunc_ring", places.get_trunc_ring),
        ("base.RPoly.mul", base.RPoly.__mul__),
        ("base.RPoly.gcd", base.RPoly.gcd),
    ]
    return ([(name, fn, "timed", obs) for name, fn, obs in timed]
            + [(name, fn, "counted", None) for name, fn in counted])


def _ratio(num, den):
    return num / den if den else 0.0


# metric name -> (unit, better); self_s metrics are medians over traced
# passes, everything else is an exact count or a ratio of exact counts
def metric_specs():
    specs = {}
    for name, _fn, kind, _obs in targets():
        specs[f"{name}.calls"] = ("count", "lower")
        if kind == "timed":
            specs[f"{name}.self_s"] = ("s", "lower")
    specs.update({
        CONFIRMED_DESPITE_CAP: ("count", "lower"),
        "phimodule.is_full.capped": ("count", "lower"),
        "phimodule.member.found_ratio": ("ratio", "higher"),
        "drinfeld.solve_additive_many.targets": ("count", "lower"),
        "drinfeld.solve_additive_many.basis": ("count", "lower"),
        "drinfeld.solve_additive_many.solved_ratio": ("ratio", "higher"),
        "drinfeld.solve_additive_many.capped": ("count", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
    })
    return specs


def counts(tracer):
    """Every exact per-layer figure of one traced pass."""
    out = {}
    for name, _fn, _kind, _obs in targets():
        out[f"{name}.calls"] = tracer.calls[name]
    stats = tracer.stats
    for key in (CONFIRMED_DESPITE_CAP, "phimodule.is_full.capped",
                "drinfeld.solve_additive_many.targets",
                "drinfeld.solve_additive_many.basis",
                "drinfeld.solve_additive_many.capped"):
        out[key] = stats[key]
    out["phimodule.member.found_ratio"] = _ratio(
        stats["phimodule.member.found"], tracer.calls["phimodule.member"])
    out["drinfeld.solve_additive_many.solved_ratio"] = _ratio(
        stats["drinfeld.solve_additive_many.solved"],
        stats["drinfeld.solve_additive_many.targets"])
    return out


def self_times(tracer):
    return {f"{name}.self_s": tracer.self_s[name]
            for name, _fn, kind, _obs in targets() if kind == "timed"}


def cap_events(tracer):
    return sum(tracer.stats[key] for key in CAP_EVENTS)
