"""Per-layer metrics and the paper report, derived from a traced run.

Each time is a self time (span minus its direct child spans) divided by the
number of operations of the phase it belongs to, so a faster layer shows as a
smaller number even though a faster run fits more operations in its seconds:

- evaluation layers (lattice, features, scores, forward, backward) per
  objective evaluation of the ``iter`` phase;
- ``inference.viterbi_s`` per message of the closed loop;
- ``training.*`` per ``train`` call;
- ``training.load_s`` and ``cli.predict_self_s`` per ``chunkcrf predict`` run;
- ``ingest.read_s`` and ``core.tokenize_s`` per message read.

``features.calls`` counts the lattice builders' feature-vector requests per
evaluation, memo hits included (see ``tracing``).
"""

from __future__ import annotations

import statistics

from pipeline import FAMILIES, Run
from tracing import SpanTable


def per_layer(run: Run, table: SpanTable, sizes: dict) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    for kind in FAMILIES:
        evals = max(table.calls("bench.eval", "iter", kind), 1)
        trains = max(table.calls("bench.train", "train", kind), 1)
        predicts = max(table.calls("bench.predict", "loop", kind), 1)
        cli_runs = max(table.calls("bench.cli", "cli", kind), 1)

        def per_eval(name: str) -> float:
            return table.self_s(name, "iter", kind) / evals

        m[f"lattice.build_s.{kind}"] = (per_eval("lattice.build"), "s")
        m[f"lattice.builds.{kind}"] = (table.calls("lattice.build", "iter", kind) / evals, "count")
        m[f"features.extract_s.{kind}"] = (per_eval("features.extract"), "s")
        m[f"features.calls.{kind}"] = (table.calls("features.extract", "iter", kind) / evals, "count")
        m[f"inference.scores_s.{kind}"] = (per_eval("inference.scores"), "s")
        m[f"inference.forward_s.{kind}"] = (per_eval("inference.forward"), "s")
        m[f"inference.backward_s.{kind}"] = (per_eval("inference.backward"), "s")
        dp_calls = table.calls("inference.forward", "iter", kind) + table.calls("inference.backward", "iter", kind)
        m[f"inference.dp_calls.{kind}"] = (dp_calls / evals, "count")
        dp_s = per_eval("inference.forward") + per_eval("inference.backward")
        m[f"inference.ns_per_edge.{kind}"] = (1e9 * dp_s / sizes[kind]["edges"], "ns")
        m[f"inference.viterbi_s.{kind}"] = (table.incl_s("inference.viterbi", "loop", kind) / predicts, "s")

        m[f"training.grad_s.{kind}"] = (table.self_s("training.objective", "train", kind) / trains, "s")
        m[f"training.lbfgs_s.{kind}"] = (table.self_s("training.lbfgs", "train", kind) / trains, "s")
        m[f"training.iters.{kind}"] = (statistics.fmean(run.families[kind].train_iterations), "count")
        m[f"training.evals.{kind}"] = (table.calls("training.objective", "train", kind) / trains, "count")
        m[f"training.feature_space_s.{kind}"] = (
            table.incl_s("training.feature_space", "train", kind) / trains, "s"
        )
        m[f"training.load_s.{kind}"] = (table.incl_s("training.load", "cli", kind) / cli_runs, "s")
        m[f"cli.predict_self_s.{kind}"] = (table.self_s("bench.cli", "cli", kind) / cli_runs, "s")

        m[f"lattice.edges.{kind}"] = (sizes[kind]["edges"], "count")
        m[f"lattice.nodes.{kind}"] = (sizes[kind]["nodes"], "count")
        m[f"features.dim.{kind}"] = (sizes[kind]["features"], "count")

    messages = max(table.calls("core.tokenize"), 1)
    m["ingest.read_s"] = (table.self_s("ingest.read") / messages, "s")
    m["core.tokenize_s"] = (table.self_s("core.tokenize") / messages, "s")

    base = {k: statistics.median(run.samples["base"][k]) for k in FAMILIES}
    m.update(paper(base, m))
    # Scaled times, so a change of machine speed between the two phases does
    # not read as tracing overhead.
    base_scaled = sum(statistics.median(run.scaled["base"][k]) for k in FAMILIES)
    traced_scaled = sum(statistics.median(run.scaled["iter"][k]) for k in FAMILIES)
    m["trace.overhead"] = (traced_scaled / base_scaled, "x")
    return m


def dp_share(table: SpanTable) -> dict[str, float]:
    """Share of a traced objective evaluation spent in forward plus backward,
    per family: how much a faster DP engine could gain on this workload."""
    return {
        kind: (table.self_s("inference.forward", "iter", kind) + table.self_s("inference.backward", "iter", kind))
        / max(table.incl_s("bench.eval", "iter", kind), 1e-12)
        for kind in FAMILIES
    }


def paper(iter_s: dict[str, float], layers: dict[str, tuple[float, str]]) -> dict[str, tuple[float, str]]:
    """The paper's claim in measured numbers: ``semi``'s cost over ``weak``'s
    for a whole evaluation (untraced) and for the DP alone (forward plus
    backward, traced), each with its two bases, beside the edge ratio the
    complexity argument predicts."""
    dp = {k: layers[f"inference.forward_s.{k}"][0] + layers[f"inference.backward_s.{k}"][0] for k in ("semi", "weak")}
    edges = {k: layers[f"lattice.edges.{k}"][0] for k in ("semi", "weak")}
    return {
        "paper.semi_over_weak.iter": (iter_s["semi"] / iter_s["weak"], "x"),
        "paper.iter_s.semi": (iter_s["semi"], "s"),
        "paper.iter_s.weak": (iter_s["weak"], "s"),
        "paper.semi_over_weak.dp": (dp["semi"] / dp["weak"], "x"),
        "paper.dp_s.semi": (dp["semi"], "s"),
        "paper.dp_s.weak": (dp["weak"], "s"),
        "paper.semi_over_weak.edges": (edges["semi"] / edges["weak"], "x"),
    }


def paper_report(workload: str, metrics: dict[str, tuple[float, str]], share: dict[str, float]) -> list[str]:
    """Human-readable lines of the paper comparison (reported, not gated)."""
    v = {name: value for name, (value, _) in metrics.items()}
    lines = [
        f"paper report ({workload}): semi vs weak, per objective evaluation",
        f"  edges      semi {v['lattice.edges.semi']:>10.0f}   weak {v['lattice.edges.weak']:>10.0f}"
        f"   semi/weak {v['paper.semi_over_weak.edges']:.3f}",
        f"  full eval  semi {v['paper.iter_s.semi']:>10.4f}s  weak {v['paper.iter_s.weak']:>10.4f}s"
        f"  semi/weak {v['paper.semi_over_weak.iter']:.3f}",
        f"  DP only    semi {v['paper.dp_s.semi']:>10.4f}s  weak {v['paper.dp_s.weak']:>10.4f}s"
        f"  semi/weak {v['paper.semi_over_weak.dp']:.3f}",
        f"  DP ns/edge semi {v['inference.ns_per_edge.semi']:>10.1f}   weak {v['inference.ns_per_edge.weak']:>10.1f}"
        f"   linear {v['inference.ns_per_edge.linear']:.1f}",
        "  DP share   " + "   ".join(f"{kind} {share[kind]:.1%}" for kind in FAMILIES) + "  of a traced evaluation",
    ]
    if v["paper.semi_over_weak.edges"] > 1 > v["paper.semi_over_weak.dp"]:
        lines.append("  semi's DP is faster than weak's despite more edges: per-node overhead, not edges, sets DP cost")
    return lines
