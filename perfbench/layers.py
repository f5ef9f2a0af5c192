"""What each per-layer metric of the traced run should move.

BENCHMARK.json holds the names, units and directions of all metrics and
the reason for each workload; its fixed key set has no room for more.
TARGETS names, for each per-layer metric, the end-to-end metric and the
workload on which a change to that layer should show, so a later change
can state its prediction by metric name.  The self-tests check that
TARGETS and BENCHMARK.json list the same per-layer metrics.
"""

TARGETS = {
    "mesh.generate_s": "setup_s on mesh_sweep; wall_s on paper_suite",
    "mesh.validate_s": "setup_s on mesh_sweep; wall_s on paper_suite",
    "mesh.meshes": "setup_s on mesh_sweep; wall_s on paper_suite",
    "fem.workspace_s": "setup_s on mesh_sweep; peak_rss_mb everywhere",
    "fem.workspace_builds": "setup_s on mesh_sweep; peak_rss_mb everywhere",
    "fem.jacobian_mu0_calls": "wall_s on paper_suite",
    "fem.jacobian_mu0_ms": "wall_s on paper_suite",
    "fem.jacobian_barrier_calls": "barrier_s on paper_suite; wall_s on barrier_fine",
    "fem.jacobian_barrier_ms": "barrier_s on paper_suite; wall_s on barrier_fine",
    "fem.jacobian_self_s": "wall_s on paper_suite and barrier_fine",
    "fem.residual_calls": "barrier_s and wall_s on barrier_fine",
    "fem.residual_ms": "barrier_s and wall_s on barrier_fine",
    "linalg.csr_build_calls": "wall_s on paper_suite and barrier_fine",
    "linalg.csr_build_s": "wall_s on paper_suite and barrier_fine",
    "linalg.cg_calls": "wall_s on paper_suite",
    "linalg.cg_s": "wall_s on paper_suite",
    "linalg.cg_iterations": "wall_s on paper_suite",
    "linalg.cg_useful_ratio": "wall_s on paper_suite only",
    "solvers.newton_iterations": "wall_s on paper_suite",
    "solvers.mu_stages": "barrier_s on paper_suite and barrier_fine",
    "solvers.linesearch_calls": "barrier_s on paper_suite and barrier_fine",
    "solvers.linesearch_trials": "barrier_s on paper_suite and barrier_fine",
    "solvers.linesearch_self_s": "barrier_s on paper_suite and barrier_fine",
    "solvers.self_s": "barrier_s on paper_suite and barrier_fine",
    "cli.self_s": "wall_s on paper_suite",
    "trace.overhead_s": "none: traced minus untraced wall_s of the same run",
}

# counters that must repeat exactly between the traced rounds of one invocation
COUNTERS = (
    "solvers.newton_iterations",
    "solvers.mu_stages",
    "linalg.cg_iterations",
    "solvers.linesearch_trials",
    "mesh.meshes",
    "fem.workspace_builds",
) + tuple(name for name in TARGETS if name.endswith("_calls"))
