"""Command-line entry point: ``python -m repro.eval <experiment>``.

Experiments: table1, table2, figure5, figure6, ablation, validation,
energy, or ``all``. Options select benchmark subsets and machine knobs so
quick runs stay quick.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cnn.workloads import PAPER_BENCHMARKS
from repro.eval.ablation import render_ablation, run_ablation
from repro.eval.energy import render_energy, run_energy
from repro.eval.figure5 import render_figure5, run_figure5
from repro.eval.figure6 import render_figure6, run_figure6
from repro.eval.table1 import (
    overall_average_improvement,
    render_table1,
    run_table1,
)
from repro.eval.table2 import render_table2, run_table2
from repro.eval.validation import render_validation, run_validation
from repro.pim.config import PimConfig
from repro.sim.modes import DEFAULT_SIM_MODE, add_sim_mode_argument

EXPERIMENTS = (
    "table1", "table2", "figure5", "figure6",
    "ablation", "validation", "energy", "architectures", "latency",
    "heterogeneity", "sweeps", "workloads", "tenancy", "randwired",
    "profile", "report", "all",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the Para-CONV paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "target", nargs="?", default=None, choices=("compile", "sim"),
        help="with the 'profile' experiment: hot path to profile "
             "(default: both)",
    )
    parser.add_argument(
        "--top", type=int, default=15,
        help="with the 'profile' experiment: hotspot rows to print "
             "(default 15)",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help=f"benchmark subset (default: all of {', '.join(PAPER_BENCHMARKS)})",
    )
    parser.add_argument(
        "--iterations", type=int, default=1000,
        help="steady-state iterations N for total-time metrics",
    )
    parser.add_argument(
        "--cache-bytes-per-pe", type=int, default=4096,
        help="per-PE data-cache capacity in bytes",
    )
    parser.add_argument(
        "--edram-factor", type=int, default=4,
        help="eDRAM latency factor relative to cache (paper range 2-10)",
    )
    add_sim_mode_argument(
        parser,
        default=None,
        help="engine for simulation-backed experiments (validation and "
        "randwired run the production engine when it is unset; for "
        "latency/table2/sweeps setting it enables executor-measured "
        "columns)",
    )
    parser.add_argument(
        "--search-budgets", type=int, nargs="*", metavar="N", default=None,
        help="with the 'ablation' experiment: also emit the search-"
             "allocator quality-vs-budget table at these evaluation "
             "budgets (no values: the default ladder 0 100 500 2000), "
             "swept over healthy, degraded and partitioned machines",
    )
    parser.add_argument(
        "--out", default="paraconv_report.md",
        help="output path for the 'report' experiment",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = PimConfig(
        iterations=args.iterations,
        cache_bytes_per_pe=args.cache_bytes_per_pe,
        edram_latency_factor=args.edram_factor,
    )
    sections: List[str] = []
    if args.experiment == "profile":
        from repro.eval.profile import run_profile

        # Profiling needs the paper's widest machine to make the hot
        # loops dominate; keep the user's N but pin 64 PEs.
        machine = PimConfig(
            num_pes=64,
            iterations=args.iterations,
            cache_bytes_per_pe=args.cache_bytes_per_pe,
            edram_latency_factor=args.edram_factor,
        )
        targets = (args.target,) if args.target else ("compile", "sim")
        for target in targets:
            report = run_profile(
                target, machine,
                top=args.top,
                sim_mode=args.sim_mode or "columnar",
            )
            sections.append(report.render())
        print("\n\n".join(sections))
        return 0
    if args.experiment == "report":
        from repro.eval.report_writer import write_report

        write_report(args.out, config, benchmarks=args.benchmarks)
        print(f"report written to {args.out}")
        return 0
    # "all" covers the paper artifacts and the reproduction's own
    # experiments; the slower sweeps, the report writer and the
    # artifact-writing tenancy/randwired benches stay opt-in.
    wants = (
        tuple(e for e in EXPERIMENTS
              if e not in ("all", "sweeps", "tenancy", "randwired",
                           "profile", "report"))
        if args.experiment == "all"
        else (args.experiment,)
    )
    if "table1" in wants:
        rows = run_table1(config, benchmarks=args.benchmarks)
        sections.append(render_table1(rows))
        sections.append(
            "Overall average reduction: "
            f"{overall_average_improvement(rows):.2f}% (paper: 53.42%)"
        )
    if "table2" in wants:
        sections.append(render_table2(run_table2(config, benchmarks=args.benchmarks)))
        if args.sim_mode is not None:
            from repro.eval.table2 import (
                render_table2_realized,
                run_table2_realized,
            )

            sections.append(render_table2_realized(run_table2_realized(
                config, benchmarks=args.benchmarks, sim_mode=args.sim_mode,
            )))
    if "figure5" in wants:
        sections.append(render_figure5(run_figure5(config, benchmarks=args.benchmarks)))
    if "figure6" in wants:
        sections.append(render_figure6(run_figure6(config, benchmarks=args.benchmarks)))
    if "ablation" in wants:
        sections.append(render_ablation(run_ablation(config, benchmarks=args.benchmarks)))
        if args.search_budgets is not None:
            from repro.eval.ablation import (
                render_search_ablation,
                run_search_ablation,
            )

            sections.append(render_search_ablation(run_search_ablation(
                config,
                benchmarks=args.benchmarks,
                budgets=args.search_budgets,
            )))
    if "validation" in wants:
        kwargs = {"benchmarks": args.benchmarks} if args.benchmarks else {}
        sections.append(render_validation(run_validation(
            config, sim_mode=args.sim_mode or DEFAULT_SIM_MODE, **kwargs
        )))
    if "energy" in wants:
        sections.append(render_energy(run_energy(config, benchmarks=args.benchmarks)))
    if "latency" in wants:
        from repro.eval.latency import render_latency, run_latency

        sections.append(render_latency(run_latency(
            config, benchmarks=args.benchmarks, sim_mode=args.sim_mode,
        )))
    if "heterogeneity" in wants:
        from repro.eval.heterogeneity import (
            render_heterogeneity,
            run_heterogeneity,
        )

        kwargs = {"benchmarks": args.benchmarks} if args.benchmarks else {}
        sections.append(
            render_heterogeneity(run_heterogeneity(config, **kwargs))
        )
    if "architectures" in wants:
        from repro.eval.architectures import (
            render_architectures,
            run_architectures,
        )

        kwargs = {"workloads": args.benchmarks} if args.benchmarks else {}
        sections.append(render_architectures(run_architectures(**kwargs)))
    if "sweeps" in wants:
        from repro.eval.sweep import (
            render_sweep,
            sweep_cache_capacity,
            sweep_edram_factor,
            sweep_graph_scale,
        )

        sections.append(render_sweep(
            sweep_edram_factor(config=config, sim_mode=args.sim_mode),
            "eDRAM factor",
            "Sensitivity: vault latency factor (paper envelope 2-10x)",
        ))
        sections.append(render_sweep(
            sweep_cache_capacity(config=config, sim_mode=args.sim_mode),
            "bytes/PE",
            "Sensitivity: per-PE cache capacity",
        ))
        sections.append(render_sweep(
            sweep_graph_scale(config=config, sim_mode=args.sim_mode),
            "|V|",
            "Scalability: synthetic graph size",
        ))
    if "tenancy" in wants:
        from repro.eval.bench_io import dump_bench
        from repro.eval.tenancy import render_tenancy, run_tenancy_bench

        bench = run_tenancy_bench(config)
        sections.append(render_tenancy(bench))
        target = dump_bench("BENCH_tenancy.json", bench)
        sections.append(f"trajectory written to {target}")
    if "randwired" in wants:
        from repro.eval.bench_io import dump_bench
        from repro.eval.randwired import render_randwired, run_randwired_bench

        bench = run_randwired_bench(
            config, benchmarks=args.benchmarks,
            sim_mode=args.sim_mode or DEFAULT_SIM_MODE,
        )
        sections.append(render_randwired(bench))
        target = dump_bench("BENCH_randwired.json", bench)
        sections.append(f"trajectory written to {target}")
    if "workloads" in wants:
        from repro.eval.workload_stats import (
            render_workload_stats,
            run_workload_stats,
        )

        sections.append(
            render_workload_stats(run_workload_stats(args.benchmarks))
        )
    print("\n\n".join(sections))
    return 0


if __name__ == "__main__":
    sys.exit(main())
