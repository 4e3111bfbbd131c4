"""One harness function per experiment ID (see DESIGN.md §10).

Every function is deterministic given its arguments (generators are seeded)
and cheap enough for a laptop; the default parameters are the ones quoted in
EXPERIMENTS.md.  Functions return ``(title, headers, rows)``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence

from repro.graphs import LabeledGraph, degeneracy, diameter, has_square, has_triangle, is_connected
from repro.registry import register
from repro.graphs.counting import (
    MAX_ENUM_N,
    bipartite_fixed_parts_count,
    count_square_free,
    frugal_capacity_bits,
    labeled_forest_count,
    labeled_graph_count,
    zarankiewicz_lower_bound,
)
from repro.graphs.families import figure1_base, figure2_base
from repro.graphs.generators import (
    apollonian,
    disjoint_union,
    erdos_renyi,
    fat_tree,
    grid_2d,
    hypercube,
    k_tree,
    partial_k_tree,
    path_graph,
    random_bipartite,
    random_forest,
    random_k_degenerate,
    random_planar,
    random_square_free,
    random_tree,
    star_graph,
    torus_2d,
)
from repro.model import MultiRoundReferee, Referee, log2_ceil
from repro.protocols import (
    DegeneracyReconstructionProtocol,
    DegreeProtocol,
    ForestReconstructionProtocol,
    GeneralizedDegeneracyProtocol,
    PartitionConnectivityProtocol,
)
from repro.protocols.powersum import (
    PowerSumLookupTable,
    compute_power_sums,
    decode_neighborhood_newton,
    encode_powersum_message,
    integer_roots_of_monic,
    newton_identities,
    powersum_message_bits,
)
from repro.reductions import (
    DiameterReduction,
    HashedNeighborhoodEncoder,
    OracleDiameterDetector,
    OracleSquareDetector,
    OracleTriangleDetector,
    SquareReduction,
    TriangleReduction,
    diameter_gadget,
    find_collision_exhaustive,
    square_gadget,
    triangle_gadget,
)
from repro.sketching import AGMConnectivityProtocol, MultiRoundSketchConnectivity

Row = Sequence[object]
Result = tuple[str, list[str], list[Row]]

#: Wall-clock columns: EXP-L2 times the local phase, EXP-L3 one
#: neighbourhood decode, EXP-T5 and EXP-FOREST the referee's decode and
#: EXP-T1/T2/T3 the reduction's global phase.  These are the only cells
#: that may differ between two runs; determinism checks drop them.
TIMING_COLUMNS = frozenset({"local_us/node", "us/decode", "decode_ms", "global_ms"})

__all__ = [
    "TIMING_COLUMNS",
    "exp_lemma1_counting",
    "exp_lemma2_encoding",
    "exp_lemma3_decoding",
    "exp_theorem5_reconstruction",
    "exp_theorem1_square",
    "exp_theorem2_diameter",
    "exp_theorem3_triangle",
    "exp_adversary",
    "exp_forest",
    "exp_generalized_degeneracy",
    "exp_connectivity_partition",
    "exp_connectivity_sketch",
    "exp_degeneracy_classes",
    "exp_bipartiteness_sketch",
    "exp_rounds_tradeoff",
    "exp_coalition",
    "exp_results_gate",
]


# --------------------------------------------------------------------- #
# EXP-L1
# --------------------------------------------------------------------- #


@register("EXP-L1", kind="experiment")
def exp_lemma1_counting(ns: Sequence[int] = (4, 5, 6, 16, 64, 256, 1024, 4096)) -> Result:
    """Lemma 1: log2 family sizes vs the frugal capacity k·n·log2 n (k = 4).

    Exact square-free counts are used where enumeration is feasible
    (n <= ``MAX_ENUM_N`` = 7), the Zarankiewicz/polarity lower bound beyond;
    exact forest counts up to n = 512, the Cayley upper bound
    ``F(n) <= (n+1)^{n-1}`` beyond (an upper bound keeps the "fits" verdict
    sound).
    """
    k_const = 4.0
    headers = [
        "n", "capacity(4nlogn)", "log2(all)", "log2(bipartite)",
        "log2(sq-free)>=", "log2(forests)", "all_fits", "forests_fit",
    ]
    rows: list[Row] = []
    for n in ns:
        cap = frugal_capacity_bits(n, k_const)
        log_all = math.log2(labeled_graph_count(n))
        log_bip = math.log2(bipartite_fixed_parts_count(n))
        log_sf = math.log2(count_square_free(n)) if n <= MAX_ENUM_N else zarankiewicz_lower_bound(n)
        if n <= 512:
            log_forest = math.log2(labeled_forest_count(n))
        else:
            log_forest = (n - 1) * math.log2(n + 1)
        rows.append([
            n, round(cap, 1), round(log_all, 1), round(log_bip, 1),
            round(log_sf, 1), round(log_forest, 1),
            "yes" if log_all <= cap else "NO",
            "yes" if log_forest <= cap else "NO",
        ])
    return ("EXP-L1  Lemma 1: family sizes vs frugal capacity", headers, rows)


# --------------------------------------------------------------------- #
# EXP-L2
# --------------------------------------------------------------------- #


@register("EXP-L2", kind="experiment")
def exp_lemma2_encoding(
    ns: Sequence[int] = (64, 256, 1024, 4096), ks: Sequence[int] = (1, 2, 3, 5)
) -> Result:
    """Lemma 2: measured message size = closed form, O(k² log n); local time O(n)."""
    headers = ["n", "k", "bits(measured)", "bits(formula)", "bits/(k^2 log2 n)", "local_us/node"]
    rows: list[Row] = []
    for k in ks:
        for n in ns:
            g = random_k_degenerate(n, k, seed=n + k)
            protocol = DegeneracyReconstructionProtocol(k)
            worst = 0
            t0 = time.perf_counter()
            for i in g.vertices():
                worst = max(worst, protocol.local(n, i, g.neighbors(i)).bits)
            elapsed = (time.perf_counter() - t0) / n * 1e6
            formula = powersum_message_bits(n, k)
            rows.append([
                n, k, worst, formula,
                round(worst / (k * k * math.log2(n)), 2), round(elapsed, 1),
            ])
    return ("EXP-L2  Lemma 2: Algorithm 3 message size and local time", headers, rows)


# --------------------------------------------------------------------- #
# EXP-L3
# --------------------------------------------------------------------- #


@register("EXP-L3", kind="experiment")
def exp_lemma3_decoding(n: int = 64, k: int = 3, trials: int = 200) -> Result:
    """Lemma 3: lookup-table decode vs Newton decode — agreement and speed.

    "newton" times Theorem 4's route alone (Newton's identities, then the
    integer roots); "referee" times :func:`decode_neighborhood_newton`, the
    decode Algorithm 4 calls, which takes closed forms up to degree 3.
    """
    import random

    rng = random.Random(7)
    table = PowerSumLookupTable(n, k)
    cases = []
    for _ in range(trials):
        d = rng.randint(0, k)
        subset = frozenset(rng.sample(range(1, n + 1), d))
        cases.append((d, compute_power_sums(subset, k), subset))

    t0 = time.perf_counter()
    for d, sums, subset in cases:
        assert table.lookup(sums) == subset
    table_us = (time.perf_counter() - t0) / trials * 1e6

    t0 = time.perf_counter()
    for d, sums, subset in cases:
        assert frozenset(integer_roots_of_monic(newton_identities(sums[:d]), n)) == subset
    newton_us = (time.perf_counter() - t0) / trials * 1e6

    t0 = time.perf_counter()
    for d, sums, subset in cases:
        assert decode_neighborhood_newton(d, sums, n) == subset
    referee_us = (time.perf_counter() - t0) / trials * 1e6

    headers = ["decoder", "n", "k", "entries", "us/decode", "exact"]
    rows: list[Row] = [
        ["lookup-table", n, k, len(table), round(table_us, 2), "yes"],
        ["newton", n, k, 0, round(newton_us, 2), "yes"],
        ["referee", n, k, 0, round(referee_us, 2), "yes"],
    ]
    return ("EXP-L3  Lemma 3: neighbourhood decoding strategies", headers, rows)


# --------------------------------------------------------------------- #
# EXP-T5
# --------------------------------------------------------------------- #


@register("EXP-T5", kind="experiment")
def exp_theorem5_reconstruction(scale: int = 1) -> Result:
    """Theorem 5: exact reconstruction across the paper's graph classes.

    ``scale`` multiplies instance sizes (benchmarks use 1; examples may
    shrink).  Every row must end in exact=yes for the reproduction to hold.
    """
    cases = [
        ("forest (k=1)", random_forest(60 * scale, 6, seed=1), 1),
        ("tree (k=1)", random_tree(80 * scale, seed=2), 1),
        ("star (k=1, deg n-1)", star_graph(100 * scale), 1),
        ("grid 2d (k=2)", grid_2d(8, 8 * scale), 2),
        ("apollonian/planar (k=3)", apollonian(60 * scale, seed=3), 3),
        ("thinned planar (k<=5)", random_planar(70 * scale, seed=4), 5),
        ("3-tree (treewidth 3)", k_tree(50 * scale, 3, seed=5), 3),
        ("partial 4-tree", partial_k_tree(50 * scale, 4, seed=6), 4),
        ("random 2-degenerate", random_k_degenerate(90 * scale, 2, seed=7), 2),
        ("hypercube d=5", hypercube(5), 5),
        ("fat-tree k=4", fat_tree(4), 4),
        ("torus 6x6", torus_2d(6, 6), 4),
    ]
    headers = ["class", "n", "m", "degeneracy", "k", "bits/node", "decode_ms", "exact"]
    rows: list[Row] = []
    for name, g, k in cases:
        protocol = DegeneracyReconstructionProtocol(k)
        msgs = protocol.message_vector(g)
        t0 = time.perf_counter()
        out = protocol.global_(g.n, msgs)
        ms = (time.perf_counter() - t0) * 1e3
        rows.append([
            name, g.n, g.m, degeneracy(g), k,
            max(m.bits for m in msgs), round(ms, 2),
            "yes" if out == g else "NO",
        ])
    return ("EXP-T5  Theorem 5: degeneracy-k reconstruction across classes", headers, rows)


# --------------------------------------------------------------------- #
# EXP-T1 / EXP-T2 / EXP-T3
# --------------------------------------------------------------------- #


def _reduction_rows(name, g, delta, gamma_bits, predicted):
    msgs = delta.message_vector(g)
    t0 = time.perf_counter()
    out = delta.global_(g.n, msgs)
    ms = (time.perf_counter() - t0) * 1e3
    delta_bits = max(m.bits for m in msgs)
    return [
        name, g.n, g.m, gamma_bits, delta_bits, predicted,
        round(ms, 1), "yes" if out == g else "NO",
    ]


@register("EXP-T1", kind="experiment")
def exp_theorem1_square(n: int = 10) -> Result:
    """Theorem 1: gadget iff-check + Algorithm 1 reconstruction via the oracle Γ."""
    headers = ["input", "n", "m", "Γ bits", "Δ bits", "Δ bits predicted", "global_ms", "exact"]
    rows: list[Row] = []
    for seed in range(3):
        g = random_square_free(n, 0.3, seed=seed)
        # gadget property audit over all pairs
        for s in range(1, n + 1):
            for t in range(s + 1, n + 1):
                assert has_square(square_gadget(g, s, t)) == g.has_edge(s, t)
        delta = SquareReduction(OracleSquareDetector())
        rows.append(_reduction_rows(f"square-free seed={seed}", g, delta, 2 * n, f"k(2n)={2 * n}"))
    return (
        "EXP-T1  Theorem 1: square detector => square-free reconstructor "
        "(gadget iff verified on all pairs)",
        headers,
        rows,
    )


@register("EXP-T2", kind="experiment")
def exp_theorem2_diameter(n: int = 7) -> Result:
    """Theorem 2 / Figure 1: diameter gadget + Algorithm 2 reconstruction."""
    headers = ["input", "n", "m", "Γ bits", "Δ bits", "Δ bits predicted", "global_ms", "exact"]
    rows: list[Row] = []
    inputs = [("figure-1 base", figure1_base())] + [
        (f"G(n,.4) seed={s}", erdos_renyi(n, 0.4, seed=s)) for s in range(2)
    ]
    for name, g in inputs:
        for s in range(1, g.n + 1):
            for t in range(s + 1, g.n + 1):
                d = diameter(diameter_gadget(g, s, t))
                assert (d <= 3) == g.has_edge(s, t) and (g.has_edge(s, t) or d == 4)
        delta = DiameterReduction(OracleDiameterDetector(3))
        rows.append(
            _reduction_rows(name, g, delta, g.n + 3, f"3k(n+3)={3 * (g.n + 3)}+frame")
        )
    return (
        "EXP-T2  Theorem 2 / Figure 1: diameter<=3 detector => full reconstructor",
        headers,
        rows,
    )


@register("EXP-T3", kind="experiment")
def exp_theorem3_triangle(n: int = 10) -> Result:
    """Theorem 3 / Figure 2: triangle gadget + bipartite reconstruction."""
    headers = ["input", "n", "m", "Γ bits", "Δ bits", "Δ bits predicted", "global_ms", "exact"]
    rows: list[Row] = []
    inputs = [("figure-2 base", figure2_base())] + [
        (f"bipartite seed={s}", random_bipartite(n // 2, n - n // 2, 0.4, seed=s))
        for s in range(2)
    ]
    for name, g in inputs:
        for s in range(1, g.n + 1):
            for t in range(s + 1, g.n + 1):
                assert has_triangle(triangle_gadget(g, s, t)) == g.has_edge(s, t)
        delta = TriangleReduction(OracleTriangleDetector())
        rows.append(
            _reduction_rows(name, g, delta, g.n + 1, f"2k(n+1)={2 * (g.n + 1)}+frame")
        )
    return (
        "EXP-T3  Theorem 3 / Figure 2: triangle detector => bipartite reconstructor",
        headers,
        rows,
    )


# --------------------------------------------------------------------- #
# EXP-ADV
# --------------------------------------------------------------------- #


@register("EXP-ADV", kind="experiment")
def exp_adversary(max_n: int = 6) -> Result:
    """Collision search outcomes per frugal encoder (squares unless noted).

    "killed at n" means: two n-vertex graphs share a message vector yet
    differ on the property — no global function can fix that encoder.
    "rigid <= N" records a verified exhaustive *non*-collision, showing the
    impossibility is asymptotic; the crossover row locates where Lemma 1
    forces collisions regardless.
    """
    headers = ["encoder", "property", "verdict", "witness"]
    rows: list[Row] = []

    def hunt(encoder, prop, prop_name):
        for n in range(4, max_n + 1):
            w = find_collision_exhaustive(encoder, n, prop, prop_name)
            if w is not None:
                return f"killed at n={n}", (
                    f"E1={sorted(w.g_with.edges())} E2={sorted(w.g_without.edges())}"
                )
        return f"rigid <= n={max_n}", "-"

    hashed = HashedNeighborhoodEncoder(bits=2, salt=7)
    for label, encoder, prop, prop_name in [
        ("degree", DegreeProtocol(), has_square, "has_square"),
        ("degree", DegreeProtocol(), has_triangle, "has_triangle"),
        (hashed.name, hashed, has_square, "has_square"),
        # the forest message; its sender ID is equal across a pair's two graphs
        ("degree+sum", ForestReconstructionProtocol(), has_square, "has_square"),
    ]:
        verdict, witness = hunt(encoder, prop, prop_name)
        rows.append([label, prop_name, verdict, witness])

    crossover = next(
        n for n in range(4, 100_000)
        if zarankiewicz_lower_bound(n) > 4.0 * n * math.log2(n)
    )
    rows.append([
        "ANY 4-log-unit encoder", "has_square",
        f"forced collision by n={crossover}", "Lemma 1 + Kleitman-Winston",
    ])
    return ("EXP-ADV  adversarial collision search over frugal encoders", headers, rows)


# --------------------------------------------------------------------- #
# EXP-FOREST / EXP-GD
# --------------------------------------------------------------------- #


@register("EXP-FOREST", kind="experiment")
def exp_forest(ns: Sequence[int] = (16, 64, 256, 1024, 4096)) -> Result:
    """Section III.A: forest triple size vs the paper's '< 4 log n bits'."""
    headers = ["n", "bits/node", "4*log2_ceil(n)", "within_bound", "decode_ms", "exact"]
    rows: list[Row] = []
    protocol = ForestReconstructionProtocol()
    for n in ns:
        g = random_forest(n, max(1, n // 20), seed=n)
        msgs = protocol.message_vector(g)
        t0 = time.perf_counter()
        out = protocol.global_(n, msgs)
        ms = (time.perf_counter() - t0) * 1e3
        bits = max(m.bits for m in msgs)
        bound = 4 * (log2_ceil(n) + 1)  # id_width is log2_ceil(n)+1 at powers of 2
        rows.append([n, bits, bound, "yes" if bits <= bound else "NO",
                     round(ms, 2), "yes" if out == g else "NO"])
    return ("EXP-FOREST  Section III.A: forests in one frugal round", headers, rows)


@register("EXP-GD", kind="experiment")
def exp_generalized_degeneracy() -> Result:
    """Section III.E: reconstruction where pruning may use the complement side."""
    from repro.graphs.generators import complete_graph

    cases = [
        ("complement(tree n=16)", random_tree(16, seed=3).complement(), 1),
        ("complement(forest n=20)", random_forest(20, 4, seed=4).complement(), 1),
        ("K12", complete_graph(12), 1),
        ("dense core + pendant path", complete_graph(8).extended(4, [(8, 9), (9, 10), (10, 11), (11, 12)]), 2),
        ("sparse control (forest)", random_forest(18, 3, seed=5), 1),
    ]
    headers = ["input", "n", "m", "plain_degeneracy", "k", "bits/node", "exact"]
    rows: list[Row] = []
    for name, g, k in cases:
        protocol = GeneralizedDegeneracyProtocol(k)
        msgs = protocol.message_vector(g)
        out = protocol.global_(g.n, msgs)
        rows.append([
            name, g.n, g.m, degeneracy(g), k,
            max(m.bits for m in msgs), "yes" if out == g else "NO",
        ])
    return ("EXP-GD  Section III.E: generalized degeneracy reconstruction", headers, rows)


# --------------------------------------------------------------------- #
# EXP-CONN / EXP-SKETCH
# --------------------------------------------------------------------- #


@register("EXP-CONN", kind="experiment")
def exp_connectivity_partition(n: int = 256, ks: Sequence[int] = (2, 4, 8, 16)) -> Result:
    """Conclusion: k-part coalition connectivity at ~2k log n bits per node."""
    headers = ["k_parts", "n", "graph", "bits/node(max)", "bits/(k*log2 n)", "verdict", "truth"]
    rows: list[Row] = []
    for k in ks:
        for name, g in [
            ("connected G(n,2ln n/n)", erdos_renyi(n, 2 * math.log(n) / n, seed=k)),
            ("two components", disjoint_union(random_tree(n // 2, seed=k), random_tree(n - n // 2, seed=k + 1))),
        ]:
            report = PartitionConnectivityProtocol(k).run(g)
            rows.append([
                k, g.n, name, report.max_bits_per_node,
                round(report.max_bits_per_node / (k * log2_ceil(g.n)), 2),
                "connected" if report.connected else "disconnected",
                "connected" if is_connected(g) else "disconnected",
            ])
    return ("EXP-CONN  conclusion: partition connectivity, O(k log n) bits/node", headers, rows)


@register("EXP-SKETCH", kind="experiment")
def exp_connectivity_sketch(ns: Sequence[int] = (16, 32, 64, 128), seeds: int = 10) -> Result:
    """Open question (extension): AGM sketches, one round, O(log³ n) bits/node."""
    headers = ["n", "graph", "bits/node", "bits/log2^3(n)", "accuracy", "multiround bits/round"]
    rows: list[Row] = []
    for n in ns:
        for name, g in [
            ("tree", random_tree(n, seed=n)),
            ("two components", disjoint_union(random_tree(n // 2, seed=n), random_tree(n - n // 2, seed=n + 1))),
        ]:
            truth = is_connected(g)
            correct = 0
            bits = 0
            for s in range(seeds):
                p = AGMConnectivityProtocol(seed=s)
                msgs = p.message_vector(g)
                bits = max(bits, max(m.bits for m in msgs))
                if p.global_(g.n, msgs) == truth:
                    correct += 1
            multi = MultiRoundReferee().run(MultiRoundSketchConnectivity(seed=0), g)
            rows.append([
                n, name, bits, round(bits / log2_ceil(n) ** 3, 1),
                f"{correct}/{seeds}", multi.max_node_message_bits,
            ])
    return ("EXP-SKETCH  open question via AGM sketches (randomized, one round)", headers, rows)


# --------------------------------------------------------------------- #
# EXP-DEGEN
# --------------------------------------------------------------------- #


@register("EXP-DEGEN", kind="experiment")
def exp_degeneracy_classes() -> Result:
    """Section III preliminaries: degeneracy of the classes the paper names."""
    from repro.graphs.generators import polarity_graph

    cases = [
        ("forest", random_forest(50, 5, seed=1), 1),
        ("tree", random_tree(50, seed=2), 1),
        ("apollonian (planar)", apollonian(50, seed=3), 5),
        ("thinned planar", random_planar(60, seed=4), 5),
        ("3-tree (treewidth 3)", k_tree(40, 3, seed=5), 3),
        ("partial 3-tree", partial_k_tree(40, 3, seed=6), 3),
        ("grid (planar bipartite)", grid_2d(7, 7), 5),
        ("hypercube d=4", hypercube(4), 4),
        ("polarity ER_5 (extremal C4-free)", polarity_graph(5), 6),
    ]
    headers = ["class", "n", "m", "degeneracy", "paper bound", "within"]
    rows: list[Row] = []
    for name, g, bound in cases:
        d = degeneracy(g)
        rows.append([name, g.n, g.m, d, bound, "yes" if d <= bound else "NO"])
    return ("EXP-DEGEN  degeneracy of the paper's graph classes", headers, rows)


# --------------------------------------------------------------------- #
# EXP-BIP / EXP-ROUNDS / EXP-COAL (extensions)
# --------------------------------------------------------------------- #


@register("EXP-BIP", kind="experiment")
def exp_bipartiteness_sketch(ns: Sequence[int] = (8, 16, 32), seeds: int = 8) -> Result:
    """Second open question (extension): one-round randomized bipartiteness
    via double-cover sketches."""
    from repro.graphs.generators import cycle_graph
    from repro.graphs.properties import is_bipartite
    from repro.sketching import SketchBipartitenessProtocol

    headers = ["n", "graph", "truth", "accuracy", "bits/node"]
    rows: list[Row] = []
    for n in ns:
        for name, g in [
            ("even structure", grid_2d(max(2, n // 4), 4)),
            ("odd cycle + tree", disjoint_union(cycle_graph(5), random_tree(max(1, n - 5), seed=n))),
            ("random bipartite", random_bipartite(n // 2, n - n // 2, 0.3, seed=n)),
        ]:
            truth = is_bipartite(g)
            correct = 0
            bits = 0
            for s in range(seeds):
                p = SketchBipartitenessProtocol(seed=s)
                msgs = p.message_vector(g)
                bits = max(bits, max(m.bits for m in msgs))
                if p.global_(g.n, msgs) == truth:
                    correct += 1
            rows.append([g.n, name, "bipartite" if truth else "odd", f"{correct}/{seeds}", bits])
    return ("EXP-BIP  open question 2: sketch bipartiteness (double cover)", headers, rows)


@register("EXP-ROUNDS", kind="experiment")
def exp_rounds_tradeoff(ns: Sequence[int] = (16, 32, 64)) -> Result:
    """Conclusion's rounds question: bits/message vs rounds across the spectrum.

    One-round power sums (k = degeneracy), multi-round streamed sketches,
    and the adaptive neighbour-query protocol (Δ+1 rounds, strictly frugal).
    """
    from repro.model import MultiRoundReferee
    from repro.protocols.adaptive_query import AdaptiveQueryReconstruction

    headers = ["n", "protocol", "task", "rounds", "bits/message", "exact/correct"]
    rows: list[Row] = []
    for n in ns:
        g = erdos_renyi(n, 0.3, seed=n)
        k = max(1, degeneracy(g))
        one = DegeneracyReconstructionProtocol(k)
        msgs = one.message_vector(g)
        rows.append([
            n, f"power-sum (k={k})", "reconstruct", 1,
            max(m.bits for m in msgs), "yes" if one.global_(n, msgs) == g else "NO",
        ])
        adaptive = MultiRoundReferee().run(AdaptiveQueryReconstruction(), g)
        rows.append([
            n, "adaptive-query", "reconstruct", adaptive.rounds_used,
            adaptive.max_node_message_bits, "yes" if adaptive.output == g else "NO",
        ])
        from repro.sketching import MultiRoundSketchConnectivity

        multi = MultiRoundReferee().run(MultiRoundSketchConnectivity(seed=1), g)
        rows.append([
            n, "streamed sketches", "connectivity", multi.rounds_used,
            multi.max_node_message_bits,
            "yes" if multi.output == is_connected(g) else "NO",
        ])
    return ("EXP-ROUNDS  conclusion: the rounds-for-bits trade-off", headers, rows)


@register("EXP-COAL", kind="experiment")
def exp_coalition(max_n: int = 5) -> Result:
    """The partition argument in its strengthened (coalition) form."""
    from repro.reductions.coalition import (
        EdgeStatsCoalitionEncoder,
        HashedCoalitionEncoder,
        coalition_capacity_bits,
        find_coalition_collision,
    )

    headers = ["encoder", "c", "capacity bits", "property", "verdict"]
    rows: list[Row] = []
    for enc, prop, prop_name in [
        (HashedCoalitionEncoder(c=2, bits=3, salt=3), has_square, "has_square"),
        (HashedCoalitionEncoder(c=3, bits=3, salt=5), has_triangle, "has_triangle"),
        (EdgeStatsCoalitionEncoder(c=2), has_square, "has_square"),
        (HashedCoalitionEncoder(c=2, bits=48, salt=1), has_square, "has_square"),
    ]:
        verdict = "rigid (capacity exceeds family)"
        for n in range(4, max_n + 1):
            w = find_coalition_collision(enc, n, prop, prop_name)
            if w is not None:
                verdict = f"killed at n={n}"
                break
        cap = coalition_capacity_bits(enc.c, getattr(enc, "bits", 3 * 8))
        rows.append([enc.name, enc.c, cap, prop_name, verdict])
    return (
        "EXP-COAL  partition argument: constant-size coalition messages still collide",
        headers,
        rows,
    )


@register("EXP-RESULTS", kind="experiment")
def exp_results_gate() -> Result:
    """results layer — aggregation + self-diff gate over a micro-campaign."""
    from repro.engine import Campaign, Scenario
    from repro.results import aggregate, diff_campaigns

    def run_once() -> list[dict]:
        campaign = Campaign(
            [
                Scenario(name="gate-forest", family="random_forest", sizes=(12, 16),
                         protocol="forest", seeds=(0, 1)),
                Scenario(name="gate-deg", family="random_k_degenerate", sizes=(16,),
                         protocol="degeneracy", seeds=(0,),
                         family_params={"k": 2}, protocol_params={"k": 2}),
                Scenario(name="gate-conn", family="two_components", sizes=(16,),
                         protocol="agm_connectivity", seeds=(0,)),
            ],
            name="results-gate",
            results_dir=None,
        )
        return [r.to_json_dict() for r in campaign.run().records]

    a, b = run_once(), run_once()
    self_diff = "identical" if diff_campaigns(a, b).passed else "DIFFERS"
    headers = ["protocol", "n", "runs", "ok", "exact",
               "max bits (mean)", "bits/(k^2 lg n)", "self-diff"]
    rows: list[Row] = []
    for g in aggregate(a, by=("protocol", "n")):
        exact = g["exact"]
        rows.append([
            g["group"]["protocol"], g["group"]["n"], g["runs"],
            g["statuses"].get("ok", 0),
            f"{exact['true']}/{exact['checked']}" if exact["checked"] else "-",
            g["max_message_bits"]["mean"],
            g["bits_per_k2_log_n"]["mean"] if g["bits_per_k2_log_n"] else "-",
            self_diff,
        ])
    return (
        "EXP-RESULTS  results layer: identical-seed campaigns aggregate and diff clean",
        headers,
        rows,
    )

