"""Workload programs: the paper's kernels plus richer synthetic scenarios.

- :mod:`repro.workloads.paper_kernels` — Listings 1, 3/4 (T1), 6/7 (T2),
  9/10 (T3) from the paper, parameterised by array length;
  :mod:`repro.workloads.names` lists their names without loading them.
- :mod:`repro.workloads.synthetic` — additional realistic kernels (linked
  list traversal, matrix multiply, stencil, particle update) used by the
  examples and the ablation benchmarks.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workloads.paper_kernels": (
            "kernel_1a",
            "kernel_1b",
            "kernel_2a",
            "kernel_2b",
            "kernel_3a",
            "kernel_3b",
            "listing1_program",
            "paper_kernel",
            "PAPER_KERNELS",
        ),
        "repro.workloads.names": ("PAPER_KERNEL_NAMES",),
        "repro.workloads.synthetic": (
            "linked_list_traversal",
            "matrix_multiply",
            "particle_update",
            "stencil_2d",
        ),
    },
)
